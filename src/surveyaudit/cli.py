"""Command-line entry points for the audit toolkit."""

from __future__ import annotations

from pathlib import Path

import click

from . import synthetic as synth_mod
from .data import save_dataset
from .errors import ConfigError, SurveyAuditError, expect
from .metrics import compute_report
from .prompts import PromptVariant
from .runner import (ExperimentConfig, integer, load_config,
                     refit_regressions, run_experiment)


def _load(config_path: str, out: str | None,
          seed: int | None = None) -> ExperimentConfig:
    # as ``output: ''`` is refused, not replaced by the config's output
    expect(out != "", "--out", "a path", out)
    cfg = load_config(config_path, seed)
    if out is not None:
        cfg.out_dir = Path(out)
    return cfg


def _audit(config_path, out, offline, seed, done, adjust=lambda cfg: None):
    """Load the config, let the command adjust it, run, and report."""
    try:
        cfg = _load(config_path, out, seed)
        adjust(cfg)
        bundle = run_experiment(cfg, offline=offline)
    except SurveyAuditError as exc:
        raise click.ClickException(str(exc))
    for key, bits in bundle.regressions.items():
        if "error" in bits:
            click.echo(f"regression {key} not fitted: {bits['error']}",
                       err=True)
    click.echo(f"{done} {bundle.out_dir}")


@click.group()
def main():
    """Audit how well model backends predict survey answers from
    socio-demographic profiles, and how fairly."""


def _paths(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True))(fn)
    return click.option("--out", default=None, type=click.Path())(fn)


def _seeded(fn):
    return click.option("--seed", default=None, type=int)(_paths(fn))


def _common(fn):
    return click.option("--offline", is_flag=True,
                        help="Replay/mock backends only; no network.")(_seeded(fn))


@main.command()
@_common
def run(config_path, out, offline, seed):
    """Full pipeline: baseline, prompts, metrics, regressions, bundle."""
    _audit(config_path, out, offline, seed, "bundle written to")


@main.command()
@_common
def ablation(config_path, out, offline, seed):
    """Run the full ablation sweep (all masks) and emit the ablation table."""
    _audit(config_path, out, offline, seed, "ablation bundle written to",
           lambda cfg: setattr(cfg, "ablation", True))


@main.command(name="prompt-sweep")
@_common
def prompt_sweep(config_path, out, offline, seed):
    """Run every configured prompt variant and summarize sensitivity."""
    def adjust(cfg):
        if len(cfg.variants) < 2:
            cfg.variants = [PromptVariant.ORIGINAL, PromptVariant.SPANISH,
                            PromptVariant.ZERO_SHOT]

    _audit(config_path, out, offline, seed, "sweep bundle written to", adjust)


@main.command()
@_paths
@click.option("--predictions", "predictions_path", required=True,
              type=click.Path(exists=True),
              help="predictions.jsonl from a previous run")
def regress(config_path, out, predictions_path):
    """Fit the configured regressions on an existing prediction log, per
    backend, on the cells of the first configured variant under the All
    mask (the first mask when All did not run), as ``run`` does.  A log
    whose primary cells hold a backend failure is refused, as ``run``
    refuses the failure."""
    try:
        regressions = refit_regressions(_load(config_path, out),
                                        predictions_path)
    except SurveyAuditError as exc:
        raise click.ClickException(str(exc))
    for key, bits in regressions.items():
        if "error" in bits:
            click.echo(f"{key}: not fitted: {bits['error']}")
            continue
        fit = bits["fit"]
        click.echo(f"{key}: {len(fit.columns)} terms, "
                   f"loglik {fit.log_likelihood:.2f}")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
def synth(config_path, out):
    """Generate a synthetic population and cross-check both metric paths."""
    import yaml

    try:
        raw = yaml.safe_load(Path(config_path).read_text(encoding="utf-8"))
        section = raw.get("synthetic") if isinstance(raw, dict) else None
        if not section:
            raise ConfigError("config needs a 'synthetic' section")
        spec = _population_spec_from(section)
        dataset, predictions = synth_mod.generate(spec)
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_dataset(dataset, out_dir / "synthetic.csv",
                     out_dir / "synthetic_schema.yaml")

        worst = 0.0
        for case in dataset.cases:
            preds = [p for p in predictions if p.question_id == case.question_id]
            engine = compute_report(dataset, preds, case)
            oracle = synth_mod.brute_force_metrics(dataset, preds, case)
            worst = max(worst, abs(engine.accuracy - oracle["accuracy"]),
                        abs(engine.jss - oracle["jss"]))
            for attr, val in engine.weighted_jss.items():
                worst = max(worst, abs(val - oracle["weighted_jss"][attr]))
        click.echo(f"generated n={spec.n}; metric paths agree within {worst:.2e}")
        if worst > 1e-10:
            raise click.ClickException("metric paths disagree beyond 1e-10")
    except SurveyAuditError as exc:
        raise click.ClickException(str(exc))


def _population_spec_from(section) -> "synth_mod.PopulationSpec":
    """The population a ``synthetic`` section describes; a missing key or a
    malformed value raises ``ConfigError``."""
    from .data import Attribute, AttributeSchema

    try:
        attrs, cases = section["attributes"], section["cases"]
        schema = AttributeSchema(
            attributes=tuple(
                Attribute(a["name"], tuple(a["categories"]), a["reference"])
                for a in attrs),
            id_column="respondent_id",
            answer_columns=tuple(c["id"] for c in cases),
        )
        correctness = section.get("correctness") or {}
        return synth_mod.PopulationSpec(
            schema=schema,
            marginals={a["name"]: list(a["marginals"]) for a in attrs},
            n=integer(section["n"], "synthetic.n"),
            cases=tuple(
                synth_mod.CaseSpec(c["id"], tuple(c["options"]),
                                   tuple(c["probs"]), c.get("depends_on"),
                                   c.get("table"))
                for c in cases),
            correctness_intercept=float(correctness.get("intercept", 1.0)),
            correctness_beta=dict(correctness.get("beta") or {}),
            unparseable_rate=float(section.get("unparseable_rate", 0.0)),
            seed=integer(section.get("seed", 0), "synthetic.seed", minimum=0),
        )
    except KeyError as exc:
        raise ConfigError(f"synthetic: missing key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"synthetic: {exc}") from None


@main.command()
@_seeded
def report(config_path, out, seed):
    """Re-render the report bundle from cached predictions (no backend calls)."""
    _audit(config_path, out, True, seed, "bundle re-rendered to")


if __name__ == "__main__":
    main()
