"""Config-driven experiment orchestration.

Reads one structured config, loads the dataset, fits the in-sample forest
ceiling per case, renders and executes every (backend, case, variant,
mask) cell, computes the metric battery with baseline-relative ratios,
fits the configured regressions, and writes the report bundle.  Every
number in the bundle is a pure function of (config, cache), so reruns are
byte-identical.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Optional, Sequence

import yaml

from . import forest as forest_mod
from . import metrics as metrics_mod
from . import reporting
from .data import Dataset, SurveyCase, load_dataset
from .errors import AllUnparseable, BackendUnavailable, ConfigError
from .gateway import (
    BackendConfig,
    ExchangeCache,
    MockBackend,
    Prediction,
    build_backend,
    run_batch,
)
from .metrics import intersection_accuracy
from .prompts import (
    DEFAULT_FEWSHOT_K,
    DEFAULT_POLITICAL,
    AblationMask,
    PromptVariant,
    ablation_plan,
    render,
    sample_fewshot,
)
from .regression import ModelSpec, build_design, fit_logit, summarize, to_csv_rows

_VARIANTS = {v.value: v for v in PromptVariant}


@dataclass
class ExperimentConfig:
    csv_path: Path
    schema_path: Path
    backends: list[dict]
    case_ids: Optional[list[str]] = None
    variants: list[str] = field(default_factory=lambda: ["original"])
    masks: list[str] = field(default_factory=lambda: ["all"])
    ablation: bool = False
    fewshot_k: int = DEFAULT_FEWSHOT_K
    political: list[str] = field(default_factory=lambda: sorted(DEFAULT_POLITICAL))
    forest_params: dict = field(default_factory=dict)
    forest_seed: int = 0
    regressions: list[dict] = field(default_factory=list)
    unparseable_policy: str = "incorrect"
    equality_tolerance: float = 0.05
    equality_pairs: list[tuple[str, str]] = field(default_factory=list)
    seed: int = 0
    cache_path: Optional[Path] = None
    out_dir: Path = Path("out")
    config_hash: str = ""


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw_bytes = path.read_bytes()
        raw = yaml.safe_load(raw_bytes)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")

    ds = raw.get("dataset") or {}
    if "csv" not in ds or "schema" not in ds:
        raise ConfigError("config needs dataset.csv and dataset.schema")
    backends = raw.get("backends")
    if not backends:
        raise ConfigError("config needs at least one backend")

    variants = raw.get("variants") or [raw.get("variant", "original")]
    for v in variants:
        if v not in _VARIANTS:
            raise ConfigError(f"unknown prompt variant {v!r}")

    fewshot = raw.get("fewshot") or {}
    forest = dict(raw.get("forest") or {})
    forest_seed = forest.pop("seed", raw.get("seed", 0))

    base = path.parent

    def resolve(p):
        p = Path(p)
        return p if p.is_absolute() else base / p

    cfg = ExperimentConfig(
        csv_path=resolve(ds["csv"]),
        schema_path=resolve(ds["schema"]),
        backends=list(backends),
        case_ids=raw.get("cases"),
        variants=list(variants),
        masks=list(raw.get("masks") or ["all"]),
        ablation=bool(raw.get("ablation", False)),
        fewshot_k=int(fewshot.get("k", DEFAULT_FEWSHOT_K)),
        political=list(raw.get("political")
                       or sorted(DEFAULT_POLITICAL)),
        forest_params=forest,
        forest_seed=int(forest_seed),
        regressions=[
            # a scalar "all" is the one-element list
            dict(e, main_effects=["all"]) if e.get("main_effects") == "all" else e
            for e in raw.get("regressions") or []
        ],
        unparseable_policy=raw.get("unparseable", "incorrect"),
        equality_tolerance=float(raw.get("equality_tolerance", 0.05)),
        equality_pairs=[tuple(p) for p in raw.get("equality_pairs") or []],
        seed=int(raw.get("seed", 0)),
        cache_path=resolve(raw["cache"]) if raw.get("cache") else None,
        out_dir=resolve(raw.get("output", "out")),
        config_hash=hashlib.sha256(raw_bytes).hexdigest(),
    )
    if cfg.unparseable_policy not in {"incorrect", "exclude"}:
        raise ConfigError(f"unknown unparseable policy {cfg.unparseable_policy!r}")
    return cfg


def _parse_mask(text: str, political: frozenset[str],
                names: Sequence[str]) -> AblationMask:
    if text == "all":
        return AblationMask.all()
    if text == "without_political":
        return AblationMask.without_political(political)
    if text == "only_political":
        return AblationMask.only_political(political)
    if text.startswith("without:"):
        attr = text.split(":", 1)[1]
        if attr not in names:
            raise ConfigError(f"mask {text!r} names unknown attribute {attr!r}")
        return AblationMask.without(attr)
    raise ConfigError(f"unknown mask {text!r}")


def _fewshot_seed(master: int, case_id: str, respondent_id: str) -> int:
    digest = hashlib.sha256(
        f"{master}|{case_id}|{respondent_id}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _mock_reply_fn(strategy: str, dataset: Dataset):
    if strategy == "majority":
        majority = {}
        for case in dataset.cases:
            counts = [0] * len(case.options)
            for idx in case.answers.values():
                counts[idx] += 1
            majority[case.question_id] = case.options[counts.index(max(counts))]
        return lambda prompt: majority[prompt.case_id]
    if strategy == "truth":
        # oracle mock: answers with the target's true answer (upper-bound probe)
        truth = {
            (c.question_id, rid): c.options[idx]
            for c in dataset.cases
            for rid, idx in c.answers.items()
        }
        return lambda prompt: truth[(prompt.case_id, prompt.target_id)]
    if strategy == "unparseable":
        return lambda prompt: "I cannot say."
    if strategy.startswith("fixed:"):
        label = strategy.split(":", 1)[1]
        return lambda prompt: label
    if strategy == "first_option":
        return None  # MockBackend default
    raise ConfigError(f"unknown mock strategy {strategy!r}")


def _make_backend(entry: dict, dataset: Dataset, cache: ExchangeCache,
                  offline: bool):
    entry = dict(entry)
    strategy = entry.pop("strategy", "first_option")
    kind = entry.get("kind", "mock")
    if offline and kind == "remote":
        entry["kind"] = "replay"
        entry.pop("endpoint", None)
        kind = "replay"
    unknown = set(entry) - {f.name for f in fields(BackendConfig)}
    if unknown:
        raise ConfigError(f"unknown backend fields: {sorted(unknown)}")
    config = BackendConfig(**entry)
    if kind == "mock":
        fn = _mock_reply_fn(strategy, dataset)
        return MockBackend(config, reply_fn=fn)
    return build_backend(config, cache)


@dataclass
class CellResult:
    backend: str
    case_id: str
    variant: str
    mask_label: str
    report: Optional[metrics_mod.MetricReport]
    predictions: list[Prediction]


@dataclass
class ReportBundle:
    baseline: dict[str, metrics_mod.MetricReport]
    cells: list[CellResult]
    equality: dict
    regressions: dict[str, dict]
    manifest: dict
    out_dir: Path


def _select_cases(dataset: Dataset, cfg: ExperimentConfig) -> list[SurveyCase]:
    if cfg.case_ids is None:
        return list(dataset.cases)
    known = {c.question_id for c in dataset.cases}
    for cid in cfg.case_ids:
        if cid not in known:
            raise ConfigError(f"config names unknown question id {cid!r}")
    return [c for c in dataset.cases if c.question_id in cfg.case_ids]


def draw_fewshot(dataset: Dataset, case: SurveyCase, k: int,
                 seed: int) -> dict[str, list[str]]:
    """Each respondent with a known answer mapped to the ids of its k
    few-shot examples.  The draw depends on (seed, case, respondent) only,
    so one draw serves every variant and mask of the case."""
    return {
        rid: sample_fewshot(dataset, case, k, exclude=rid,
                            seed=_fewshot_seed(seed, case.question_id, rid))
        for rid in dataset.answered(case)[0]
    }


def render_case_prompts(
    dataset: Dataset,
    case: SurveyCase,
    variant: PromptVariant,
    mask: AblationMask,
    examples: Optional[Mapping[str, Sequence[str]]],
):
    """Render one prompt per respondent with a known answer, in profile
    order; few-shot variants show the examples that ``examples`` names."""
    prompts = []
    for rid in dataset.answered(case)[0]:
        ids = examples[rid] if variant.uses_fewshot else ()
        fewshot = [(dataset.profile(i), case.answers[i]) for i in ids]
        prompts.append(render(dataset.profile(rid), case, variant, mask, fewshot))
    return prompts


def run_experiment(
    cfg: ExperimentConfig, offline: bool = False,
    seed_override: Optional[int] = None,
) -> ReportBundle:
    if seed_override is not None:
        cfg.seed = seed_override
    dataset = load_dataset(cfg.csv_path, cfg.schema_path)
    cases = _select_cases(dataset, cfg)
    political = frozenset(cfg.political)
    unknown_political = political - set(dataset.schema.names)
    if unknown_political:
        raise ConfigError(
            f"political set names unknown attributes: {sorted(unknown_political)}"
        )
    specs = regression_specs(dataset, cfg)
    for a, b in cfg.equality_pairs:
        for attr in (a, b):
            if attr not in dataset.schema.names:
                raise ConfigError(f"equality pair names unknown attribute {attr!r}")

    if cfg.ablation:
        masks = ablation_plan(dataset.schema, political)
    else:
        masks = [_parse_mask(m, political, dataset.schema.names)
                 for m in cfg.masks]
    variants = [_VARIANTS[v] for v in cfg.variants]

    cache = ExchangeCache(cfg.cache_path)
    backends = [
        (_make_backend(entry, dataset, cache, offline), entry)
        for entry in cfg.backends
    ]

    # forest ceiling, once per case
    params = forest_mod.ForestParams(**cfg.forest_params) if cfg.forest_params \
        else forest_mod.ForestParams()
    baseline: dict[str, metrics_mod.MetricReport] = {}
    for case in cases:
        report, _ = forest_mod.baseline_metrics(
            dataset, case, params, seed=cfg.forest_seed
        )
        baseline[case.question_id] = report

    examples = {
        case.question_id: draw_fewshot(dataset, case, cfg.fewshot_k, cfg.seed)
        if any(v.uses_fewshot for v in variants) else None
        for case in cases
    }
    try:
        cells = [
            _run_cell(dataset, cfg, backend, cache, case, variant, mask,
                      examples[case.question_id], baseline[case.question_id])
            for backend, _ in backends
            for case in cases
            for variant in variants
            for mask in masks
        ]
    finally:
        cache.close()

    # accuracy equality, single attributes and configured intersections,
    # evaluated on the primary cells
    equality: dict = {}
    primary = primary_cells(cells, variants[0].value)
    for cell in primary:
        case = dataset.case(cell.case_id)
        per_case: dict = {}
        for attr in dataset.schema.names:
            acc_map = cell.report.per_group_accuracy[attr]
            verdict = metrics_mod.overall_accuracy_equality(
                acc_map, cfg.equality_tolerance,
                group_sizes=cell.report.group_sizes[attr],
            )
            per_case[attr] = {"verdict": verdict, "accuracy": acc_map}
        for a, b in cfg.equality_pairs:
            acc_map, sizes = intersection_accuracy(
                dataset, cell.predictions, case, a, b,
                policy=cfg.unparseable_policy,
            )
            verdict = metrics_mod.overall_accuracy_equality(
                acc_map, cfg.equality_tolerance, group_sizes=sizes
            )
            per_case[f"{a} x {b}"] = {"verdict": verdict, "accuracy": acc_map}
        equality[(cell.backend, cell.case_id)] = per_case

    regressions = fit_regressions(dataset, specs, primary,
                                  cfg.unparseable_policy)

    manifest = {
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "forest_seed": cfg.forest_seed,
        "cases": [c.question_id for c in cases],
        "backends": [b.config.name for b, _ in backends],
        "variants": [v.value for v in variants],
        "masks": [m.label() for m in masks],
        "fewshot_k": cfg.fewshot_k,
        "unparseable_policy": cfg.unparseable_policy,
        "n_predictions": sum(len(c.predictions) for c in cells),
    }
    bundle = ReportBundle(
        baseline=baseline,
        cells=cells,
        equality=equality,
        regressions=regressions,
        manifest=manifest,
        out_dir=cfg.out_dir,
    )
    write_bundle(bundle, cfg, dataset, cases)
    return bundle


def _run_cell(dataset: Dataset, cfg: ExperimentConfig, backend,
              cache: ExchangeCache, case: SurveyCase, variant: PromptVariant,
              mask: AblationMask, examples: Optional[Mapping[str, Sequence[str]]],
              base: metrics_mod.MetricReport) -> CellResult:
    """Render, dispatch and score one (backend, case, variant, mask) cell;
    ``base`` is the case's forest report."""
    bname = backend.config.name
    prompts = render_case_prompts(dataset, case, variant, mask, examples)
    predictions = run_batch(prompts, {case.question_id: case.options},
                            backend, cache)
    failed = [p.note for p in predictions if p.note]
    if predictions and len(failed) == len(predictions):
        raise BackendUnavailable(
            f"backend {bname!r} gave no parsed reply for case "
            f"{case.question_id!r} ({variant.value}, {mask.label()}): "
            f"{len(failed)} of {len(predictions)} prompts failed: "
            f"{failed[0]}")
    try:
        report = metrics_mod.compute_report(
            dataset, predictions, case, backend=bname,
            policy=cfg.unparseable_policy,
        )
    except AllUnparseable:
        # replies that all fail to parse are scored; a cell with backend
        # failures, or nothing left to score under 'exclude', still aborts
        # the run
        if (cfg.unparseable_policy != metrics_mod.POLICY_INCORRECT
                or any(p.note for p in predictions)):
            raise
        report = metrics_mod.unparsed_report(
            dataset, predictions, case, backend=bname)
    report.relative = {
        "accuracy": metrics_mod.relative_ratio(
            report.accuracy, base.accuracy
        ) if base.accuracy > 0 else None,
        "jss": metrics_mod.relative_ratio(report.jss, base.jss)
        if base.jss > 0 else None,
    }
    return CellResult(
        backend=bname,
        case_id=case.question_id,
        variant=variant.value,
        mask_label=mask.label(),
        report=report,
        predictions=predictions,
    )


def _primary_mask(cells: Sequence[CellResult]) -> Optional[str]:
    """The mask of the primary cells: All when it ran, else the first
    configured mask, which is the mask of the first cell."""
    if any(c.mask_label == "All" for c in cells):
        return "All"
    return cells[0].mask_label if cells else None


def primary_cells(cells: Sequence[CellResult], variant: str) -> list[CellResult]:
    """The cells that the main table, the plots, equality and the
    regressions read: the given (first configured) variant under the
    primary mask."""
    mask = _primary_mask(cells)
    return [c for c in cells if c.variant == variant and c.mask_label == mask]


def regression_specs(dataset: Dataset,
                     cfg: ExperimentConfig) -> list[ModelSpec]:
    """The configured regressions; one that does not fit the schema raises
    ``ConfigError``."""
    names = dataset.schema.names
    specs = []
    for entry in cfg.regressions:
        name = entry.get("name", "model")
        mains = entry.get("main_effects") or ["all"]
        mains = names if mains == ["all"] else tuple(mains)
        for attr in mains:
            if attr not in names:
                raise ConfigError(
                    f"regression {name!r} names unknown attribute {attr!r}")
        interactions = tuple(tuple(i) for i in entry.get("interactions") or [])
        try:
            specs.append(ModelSpec(
                mains, interactions,
                bool(entry.get("question_fixed_effects", True)), name))
        except ValueError as exc:
            raise ConfigError(f"regression {name!r}: {exc}")
    return specs


def fit_regressions(dataset: Dataset, specs: Sequence[ModelSpec],
                    primary: Sequence[CellResult],
                    policy: str) -> dict[str, dict]:
    """Fit every spec once per backend, on that backend's pooled primary
    predictions; keys are ``<name>__<backend>``."""
    pooled: dict[str, list[Prediction]] = {}
    for c in primary:
        pooled.setdefault(c.backend, []).extend(c.predictions)
    regressions: dict[str, dict] = {}
    for spec in specs:
        for bname, predictions in pooled.items():
            design = build_design(dataset, predictions, spec, policy=policy)
            regressions[f"{spec.name}__{bname}"] = {
                "spec": spec, "design": design, "fit": fit_logit(design)}
    return regressions


def read_cells(path: str | Path) -> list[CellResult]:
    """The cells of a ``predictions.jsonl`` written by ``write_bundle``,
    in file order, without their reports."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    cells = itertools.groupby(records, key=lambda r: (
        r["backend"], r["question_id"], r["variant"], r["mask"]))
    return [
        CellResult(*key, report=None, predictions=[
            Prediction(r["respondent_id"], r["question_id"], r["backend"],
                       r["raw_text"], r["parsed"], note=r["note"])
            for r in group
        ])
        for key, group in cells
    ]


def write_regressions(out: Path, regressions: dict[str, dict]) -> None:
    """``regression_<name>__<backend>.md`` and ``.csv`` per fitted model."""
    for key, bits in regressions.items():
        table = summarize(bits["fit"], bits["spec"], bits["design"])
        (out / f"regression_{key}.md").write_text(table + "\n", encoding="utf-8")
        rows = to_csv_rows(bits["fit"])
        lines = ["term,estimate,se,z,p,stars"]
        for r in rows:
            lines.append(
                f"{r['term']},{r['estimate']:.10g},{r['se']:.10g},"
                f"{r['z']:.10g},{r['p']:.10g},{r['stars']}"
            )
        (out / f"regression_{key}.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )


def _dump_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def write_bundle(bundle: ReportBundle, cfg: ExperimentConfig,
                 dataset: Dataset, cases: Sequence[SurveyCase]) -> None:
    out = bundle.out_dir
    out.mkdir(parents=True, exist_ok=True)
    case_ids = [c.question_id for c in cases]

    _dump_json(out / "manifest.json", bundle.manifest)

    with (out / "predictions.jsonl").open("w", encoding="utf-8") as fh:
        for cell in bundle.cells:
            for p in cell.predictions:
                rec = p.to_record()
                rec["variant"] = cell.variant
                rec["mask"] = cell.mask_label
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    metrics_payload = {
        "baseline": {cid: rep.to_dict() for cid, rep in bundle.baseline.items()},
        "cells": [
            {
                "backend": c.backend,
                "case_id": c.case_id,
                "variant": c.variant,
                "mask": c.mask_label,
                "report": c.report.to_dict(),
            }
            for c in bundle.cells
        ],
    }
    _dump_json(out / "metrics.json", metrics_payload)

    # Markdown main table: the primary cells
    default_variant = bundle.manifest["variants"][0]
    primary = primary_cells(bundle.cells, default_variant)
    models: dict[str, dict[str, metrics_mod.MetricReport]] = {}
    for c in primary:
        models.setdefault(c.backend, {})[c.case_id] = c.report
    md = [
        "# Audit report",
        "",
        "## Performance vs. in-sample forest ceiling",
        "",
        reporting.metric_table_markdown(case_ids, bundle.baseline, models),
        "",
        "JSS uses base-2 logarithms. Ratios in parentheses are "
        "model/ceiling, rounded half away from zero to 2 decimals.",
        "",
    ]

    # equality sections
    for (backend, cid), per_case in bundle.equality.items():
        md.append(f"## Accuracy equality: {backend} / {cid}")
        md.append("")
        for attr, info in per_case.items():
            md.append(reporting.equality_matrix_markdown(
                attr, info["verdict"], info["accuracy"]
            ))
            md.append("")
    (out / "metrics.md").write_text("\n".join(md), encoding="utf-8")

    equality_payload = {}
    for (backend, cid), per_case in bundle.equality.items():
        equality_payload[f"{backend}::{cid}"] = {
            attr: {
                "satisfied": info["verdict"].satisfied,
                "max_gap": info["verdict"].max_gap,
                "tolerance": info["verdict"].tolerance,
                "accuracy": {
                    (" x ".join(k) if isinstance(k, tuple) else k): v
                    for k, v in info["accuracy"].items()
                },
                "sizes": {
                    (" x ".join(k) if isinstance(k, tuple) else k): v
                    for k, v in info["verdict"].group_sizes.items()
                },
            }
            for attr, info in per_case.items()
        }
    _dump_json(out / "equality.json", equality_payload)

    # ablation table when more than one mask ran
    mask_labels = bundle.manifest["masks"]
    if len(mask_labels) > 1:
        for bname in bundle.manifest["backends"]:
            rows = []
            for label in mask_labels:
                cells_for = {
                    c.case_id: (c.report.accuracy, c.report.jss)
                    for c in bundle.cells
                    if c.backend == bname and c.mask_label == label
                    and c.variant == default_variant
                }
                rows.append((label, cells_for))
            table = reporting.ablation_table_markdown(case_ids, rows)
            (out / f"ablation_{bname}.md").write_text(
                "# Feature ablation\n\n" + table + "\n", encoding="utf-8"
            )
            _dump_json(out / f"ablation_{bname}.json", [
                {"mask": label,
                 "cells": {cid: list(vals) for cid, vals in cells_for.items()}}
                for label, cells_for in rows
            ])

    # prompt-sensitivity summary when more than one variant ran
    variants = bundle.manifest["variants"]
    if len(variants) > 1:
        rows = []
        payload = []
        mask = _primary_mask(bundle.cells)
        for bname in bundle.manifest["backends"]:
            for variant in variants:
                vals = [
                    c.report.accuracy for c in bundle.cells
                    if c.backend == bname and c.variant == variant
                    and c.mask_label == mask
                ]
                if not vals or any(v <= 0 for v in vals):
                    continue
                hm = metrics_mod.harmonic_mean(vals)
                rows.append((bname, variant, hm, min(vals), max(vals)))
                payload.append({
                    "backend": bname, "variant": variant,
                    "harmonic_mean": hm, "min": min(vals), "max": max(vals),
                })
        (out / "sensitivity.md").write_text(
            "# Prompt sensitivity\n\n" + reporting.sensitivity_markdown(rows)
            + "\n", encoding="utf-8"
        )
        _dump_json(out / "sensitivity.json", payload)

    write_regressions(out, bundle.regressions)

    # per-figure plot data: group series per (backend, case, attribute)
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    for c in primary:
        base = bundle.baseline[c.case_id]
        for attr in dataset.schema.names:
            series = []
            for cat in dataset.schema.attribute(attr).categories:
                acc = c.report.per_group_accuracy[attr][cat]
                jss_v = c.report.per_group_jss[attr][cat]
                b_acc = base.per_group_accuracy[attr][cat]
                b_jss = base.per_group_jss[attr][cat]
                series.append({
                    "group": cat,
                    "accuracy": acc,
                    "jss": jss_v,
                    "relative_accuracy": (
                        acc / b_acc if acc is not None and b_acc else None
                    ),
                    "relative_jss": (
                        jss_v / b_jss if jss_v is not None and b_jss else None
                    ),
                })
            _dump_json(
                plots / f"{c.backend}__{c.case_id}__{attr}.json",
                {"backend": c.backend, "case": c.case_id,
                 "attribute": attr, "series": series},
            )
