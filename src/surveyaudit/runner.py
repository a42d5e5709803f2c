"""Config-driven experiment orchestration in four stages: plan checks the
config against the dataset before the cache, the backends or the forest
are touched; execute fits the forest ceiling per case and renders,
dispatches and scores every (backend, case, variant, mask) cell; score
selects the primary cells once and computes equality and the regressions
on them; ``bundle.write_bundle`` writes.  Every number in the bundle is a
pure function of (config, cache), so reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import yaml

from . import forest as forest_mod
from . import metrics as metrics_mod
from .bundle import CellResult, ReportBundle, write_bundle
from .data import Dataset, SurveyCase, load_dataset
from .errors import BackendUnavailable, ConfigError
from .gateway import (BackendConfig, ExchangeCache, Prediction, build_backend,
                      run_batch)
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
from .regression import ModelSpec, build_design, fit_logit

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


def _backend_config(entry: dict, dataset: Dataset, offline: bool
                    ) -> tuple[BackendConfig, Optional[Callable]]:
    """A backend entry's config, and a mock's reply function (None for the
    first-option mock and for other kinds)."""
    entry = dict(entry)
    strategy = entry.pop("strategy", None)
    what = f"backend {entry.get('name')!r}"
    if offline and entry.get("kind") == "remote":
        entry["kind"] = "replay"
        entry.pop("endpoint", None)
    config = _construct(BackendConfig, entry, what)
    if config.kind == "mock":
        return config, _mock_reply_fn(strategy or "first_option", dataset)
    if strategy is not None:
        raise ConfigError(f"{what}: strategy applies only to mock backends")
    return config, None


def _construct(cls, settings: dict, what: str):
    """``cls(**settings)``; a missing field without a default, an unknown
    key, or a value ``cls`` rejects, raises ``ConfigError`` naming ``what``."""
    missing = [f.name for f in fields(cls) if f.name not in settings
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{what}: missing fields {missing}")
    unknown = set(settings) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{what}: unknown fields {sorted(unknown)}")
    try:
        return cls(**settings)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}")


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


@dataclass
class Plan:
    """A config checked against its dataset: what the run fits, renders
    and scores."""

    dataset: Dataset
    cases: list[SurveyCase]
    variants: list[PromptVariant]
    masks: list[AblationMask]
    backends: list[tuple[BackendConfig, Optional[Callable]]]
    forest: forest_mod.ForestParams
    regressions: list[ModelSpec]


def _plan(cfg: ExperimentConfig, offline: bool) -> Plan:
    """Every config-versus-schema check; a mistake raises ``ConfigError``
    naming it."""
    dataset = load_dataset(cfg.csv_path, cfg.schema_path)
    cases = _select_cases(dataset, cfg)
    names = dataset.schema.names
    political = frozenset(cfg.political)
    unknown_political = political - set(names)
    if unknown_political:
        raise ConfigError(
            f"political set names unknown attributes: {sorted(unknown_political)}"
        )
    specs = regression_specs(dataset, cfg)
    for a, b in cfg.equality_pairs:
        for attr in (a, b):
            if attr not in names:
                raise ConfigError(f"equality pair names unknown attribute {attr!r}")

    if cfg.ablation:
        masks = ablation_plan(dataset.schema, political)
    else:
        masks = [_parse_mask(m, political, names) for m in cfg.masks]
    variants = [_VARIANTS[v] for v in cfg.variants]
    if any(v.uses_fewshot for v in variants):
        if cfg.fewshot_k < 1:
            raise ConfigError(f"fewshot.k must be >= 1 for a few-shot "
                              f"variant, got {cfg.fewshot_k}")
        for case in cases:
            # the examples of a respondent are the other answered respondents
            answered = len(dataset.answered(case)[0])
            if answered and cfg.fewshot_k > answered - 1:
                raise ConfigError(
                    f"fewshot.k is {cfg.fewshot_k}, but case {case.question_id!r} "
                    f"has only {answered - 1} eligible examples per respondent "
                    f"({answered} answered respondents)")
    if PromptVariant.WITH_CONTEXT in variants:
        bare = [c.question_id for c in cases if not c.context_blurb]
        if bare:
            raise ConfigError(
                f"variant with_context needs a context blurb, which "
                f"{len(bare)} of {len(cases)} cases lack: {bare}")
    backends = [_backend_config(e, dataset, offline) for e in cfg.backends]
    # a cell is keyed by (backend, case, variant, mask), so each must be unique
    for kind, labels in (("backend names", [c.name for c, _ in backends]),
                         ("variants", cfg.variants),
                         ("masks", [m.label() for m in masks])):
        repeated = sorted({x for x in labels if labels.count(x) > 1})
        if repeated:
            raise ConfigError(f"duplicate {kind}: {repeated}")
    return Plan(dataset, cases, variants, masks, backends,
                _construct(forest_mod.ForestParams, cfg.forest_params, "forest"),
                specs)


def _execute(plan: Plan, cfg: ExperimentConfig
             ) -> tuple[dict[str, metrics_mod.MetricReport], list[CellResult]]:
    """The forest report of every case, and every cell."""
    dataset = plan.dataset
    cache = ExchangeCache(cfg.cache_path)
    try:
        backends = [build_backend(config, cache, fn)
                    for config, fn in plan.backends]
        baseline = {
            case.question_id: forest_mod.baseline_metrics(
                dataset, case, plan.forest, seed=cfg.forest_seed)[0]
            for case in plan.cases
        }
        fewshot = any(v.uses_fewshot for v in plan.variants)
        examples = {
            case.question_id: draw_fewshot(dataset, case, cfg.fewshot_k, cfg.seed)
            if fewshot else None
            for case in plan.cases
        }
        cells = [
            _run_cell(dataset, cfg, backend, cache, case, variant, mask,
                      examples[case.question_id], baseline[case.question_id])
            for backend in backends
            for case in plan.cases
            for variant in plan.variants
            for mask in plan.masks
        ]
    finally:
        cache.close()
    return baseline, cells


def _score(plan: Plan, cfg: ExperimentConfig, cells: Sequence[CellResult]
           ) -> tuple[list[CellResult], dict, dict[str, dict]]:
    """The primary cells, their accuracy-equality verdicts over single
    attributes and the configured intersections, and the regressions."""
    dataset = plan.dataset
    primary = primary_cells(cells, plan.variants[0].value)
    equality: dict = {}
    for cell in primary:
        case = dataset.case(cell.case_id)
        groups = [(attr, cell.report.per_group_accuracy[attr],
                   cell.report.group_sizes[attr])
                  for attr in dataset.schema.names]
        groups += [(f"{a} x {b}", *intersection_accuracy(
            dataset, cell.predictions, case, a, b,
            policy=cfg.unparseable_policy)) for a, b in cfg.equality_pairs]
        equality[(cell.backend, cell.case_id)] = {
            label: {"verdict": metrics_mod.overall_accuracy_equality(
                        acc_map, cfg.equality_tolerance, group_sizes=sizes),
                    "accuracy": acc_map}
            for label, acc_map, sizes in groups
        }
    regressions = fit_regressions(dataset, plan.regressions, primary,
                                  cfg.unparseable_policy)
    return primary, equality, regressions


def run_experiment(cfg: ExperimentConfig, offline: bool = False) -> ReportBundle:
    """Plan, execute, score and write one audit."""
    plan = _plan(cfg, offline)
    baseline, cells = _execute(plan, cfg)
    primary, equality, regressions = _score(plan, cfg, cells)
    manifest = {
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "forest_seed": cfg.forest_seed,
        "cases": [c.question_id for c in plan.cases],
        "backends": [config.name for config, _ in plan.backends],
        "variants": [v.value for v in plan.variants],
        "masks": [m.label() for m in plan.masks],
        "fewshot_k": cfg.fewshot_k,
        "unparseable_policy": cfg.unparseable_policy,
        "n_predictions": sum(len(c.predictions) for c in cells),
    }
    bundle = ReportBundle(baseline, cells, primary, equality, regressions,
                          manifest, cfg.out_dir)
    write_bundle(bundle, plan.dataset.schema)
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
    refuse_failures(bname, case.question_id, variant.value, mask.label(),
                    predictions)
    if (cfg.unparseable_policy == metrics_mod.POLICY_INCORRECT
            and all(p.parsed is None for p in predictions)):
        # replies that all fail to parse are scored; under 'exclude'
        # compute_report finds nothing to score and stops the run
        report = metrics_mod.unparsed_report(
            dataset, predictions, case, backend=bname)
    else:
        report = metrics_mod.compute_report(
            dataset, predictions, case, backend=bname,
            policy=cfg.unparseable_policy,
        )
    report.relative = {
        m: metrics_mod.relative_ratio(getattr(report, m), getattr(base, m))
        if getattr(base, m) > 0 else None
        for m in ("accuracy", "jss")
    }
    return CellResult(bname, case.question_id, variant.value, mask.label(),
                      report, predictions)


def refuse_failures(backend: str, case_id: str, variant: str, mask: str,
                    predictions: Sequence[Prediction]) -> None:
    """Raise ``BackendUnavailable`` when the backend failed on any prompt of
    the cell, naming the cell, the failed count and the first failure: no
    failure is scored."""
    failed = [p.note for p in predictions if p.failed]
    if failed:
        outcome = ("gave no parsed reply for" if len(failed) == len(predictions)
                   else "failed on")
        raise BackendUnavailable(
            f"backend {backend!r} {outcome} case {case_id!r} ({variant}, "
            f"{mask}): {len(failed)} of {len(predictions)} prompts failed: "
            f"{failed[0]}")


def primary_cells(cells: Sequence[CellResult], variant: str) -> list[CellResult]:
    """The cells that the main table, the plots, equality and the
    regressions read: the given (first configured) variant under the All
    mask when it ran, else under the first configured mask, which is the
    mask of the first cell."""
    if not cells:
        return []
    mask = ("All" if any(c.mask_label == "All" for c in cells)
            else cells[0].mask_label)
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
