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
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import yaml

from . import forest as forest_mod
from . import metrics as metrics_mod
from .bundle import (CellResult, ReportBundle, read_cells, write_bundle,
                     write_regressions)
from .data import Dataset, SocioProfile, SurveyCase, load_dataset
from .errors import BackendUnavailable, ConfigError, Unfittable, expect
from .gateway import (BackendConfig, ExchangeCache, Prediction, Predictions,
                      build_backend, run_batch)
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

_CONFIG_KEYS = ("dataset backends cases variant variants masks ablation fewshot "
                "political forest regressions unparseable equality_tolerance "
                "equality_pairs seed cache output").split()


@dataclass
class ExperimentConfig:
    csv_path: Path
    schema_path: Path
    backends: list[dict]
    case_ids: Optional[list[str]]  # None: every question of the schema
    variants: list[PromptVariant]
    masks: list[str]
    ablation: bool
    fewshot_k: int
    political: Optional[list[str]]  # None: DEFAULT_POLITICAL
    forest: forest_mod.ForestParams
    forest_seed: int
    regressions: list[dict]
    unparseable_policy: str
    equality_tolerance: float
    equality_pairs: list[tuple[str, str]]
    seed: int
    cache_path: Optional[Path]
    out_dir: Path
    config_hash: str


def load_config(path: str | Path, seed: Optional[int] = None
                ) -> ExperimentConfig:
    """The config at ``path``; ``seed``, when given, replaces the config's
    seed, and so also the forest seed when ``forest.seed`` is absent."""
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
    raw = _mapping(raw, "config", _CONFIG_KEYS)

    ds = _mapping(_given(raw, "dataset", {}), "dataset", ("csv", "schema"))
    if "csv" not in ds or "schema" not in ds:
        raise ConfigError("config needs dataset.csv and dataset.schema")
    backends = [_mapping(entry, "backend entry")
                for entry in _list(raw, "backends")]
    if not backends:
        raise ConfigError("config needs at least one backend")

    if "variant" in raw and "variants" in raw:
        raise ConfigError("config gives both variant and variants")
    variants = [_variant(v) for v in (_names(raw, "variants", "variant")
                                      or [raw.get("variant", "original")])]

    # numpy seeds no generator with a negative integer
    config_seed = integer(raw.get("seed", 0), "seed", minimum=0)
    seed = config_seed if seed is None else integer(seed, "--seed", minimum=0)
    fewshot = _mapping(_given(raw, "fewshot", {}), "fewshot", ("k",))
    fewshot_k = integer(fewshot.get("k", DEFAULT_FEWSHOT_K), "fewshot.k")
    forest = _mapping(_given(raw, "forest", {}), "forest")
    forest_seed = integer(forest.pop("seed", seed), "forest.seed", minimum=0)
    ablation = raw.get("ablation", False)
    expect(isinstance(ablation, bool), "ablation", "bool", ablation)
    if ablation and "masks" in raw:
        raise ConfigError("config gives both masks and ablation: true")
    tolerance = raw.get("equality_tolerance", 0.05)
    expect(isinstance(tolerance, (int, float)) and not isinstance(tolerance, bool),
           "equality_tolerance", "float", tolerance)
    tolerance = float(tolerance)
    expect(0 <= tolerance < math.inf,  # false for nan
           "equality_tolerance", "a finite number >= 0", tolerance)
    pairs = _list(raw, "equality_pairs")
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(
                f"equality_pairs: a pair names two attributes, got {pair!r}")
        if pair[0] == pair[1]:
            raise ConfigError(f"equality_pairs: a pair names one attribute "
                              f"twice, got {pair!r}")
    regressions = [_mapping(entry, "regression entry")
                   for entry in _list(raw, "regressions")]
    policy = raw.get("unparseable", metrics_mod.POLICY_INCORRECT)
    if policy not in metrics_mod.POLICIES:
        raise ConfigError(f"unknown unparseable policy {policy!r}")

    base = path.parent

    def resolve(p, key: str):
        expect(isinstance(p, str) and p != "", key, "a path", p)
        return base / p  # an absolute p replaces base

    return ExperimentConfig(
        csv_path=resolve(ds["csv"], "dataset.csv"),
        schema_path=resolve(ds["schema"], "dataset.schema"),
        backends=backends,
        case_ids=_names(raw, "cases", "question id"),
        variants=variants,
        masks=_names(raw, "masks", "mask") or ["all"],
        ablation=ablation,
        fewshot_k=fewshot_k,
        political=_names(raw, "political", "attribute"),
        forest=_construct(forest_mod.ForestParams, forest, "forest"),
        forest_seed=forest_seed,
        regressions=regressions,
        unparseable_policy=policy,
        equality_tolerance=tolerance,
        equality_pairs=[tuple(p) for p in pairs],
        seed=seed,
        cache_path=(None if raw.get("cache") is None
                    else resolve(raw["cache"], "cache")),
        out_dir=resolve(raw.get("output", "out"), "output"),
        config_hash=hashlib.sha256(raw_bytes).hexdigest(),
    )


def _variant(value) -> PromptVariant:
    try:
        return PromptVariant(value)
    except ValueError:
        raise ConfigError(f"unknown prompt variant {value!r}") from None


def _is_names(value) -> bool:
    # a bare string is no list of names: it would read as its characters
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _names(raw: dict, key: str, what: str) -> Optional[list[str]]:
    """``raw[key]``, None or a non-empty list of strings; any other value
    raises ``ConfigError`` naming the key."""
    value = raw.get(key)
    expect(value is None or _is_names(value), key, "a list of names", value)
    expect(value != [], key, f"at least one {what}", value)
    return value


def _given(raw: dict, key: str, default):
    """``raw[key]``, or ``default`` when the key is absent or null: a false
    value such as 0 or [] is a value, checked as any other."""
    value = raw.get(key)
    return default if value is None else value


def _list(raw: dict, key: str, what: str = "") -> list:
    """``raw[key]``, a list (empty when absent or null); any other value
    raises ``ConfigError`` naming ``what`` (when given) and the key."""
    value = _given(raw, key, [])
    expect(isinstance(value, list), f"{what}: {key}" if what else key,
           "a list", value)
    return value


def integer(value, what: str, minimum: Optional[int] = None) -> int:
    """``value`` when it is an integer (a bool is none) of at least
    ``minimum``, else a ``ConfigError`` naming ``what``."""
    expect(isinstance(value, int) and not isinstance(value, bool),
           what, "int", value)
    expect(minimum is None or value >= minimum, what, f"int >= {minimum}",
           value)
    return value


def _mapping(value, what: str, keys: Optional[Sequence[str]] = None) -> dict:
    """A copy of ``value`` when it is a YAML mapping whose keys are all in
    ``keys`` (any keys when None), else a ``ConfigError`` naming ``what``:
    a list of pairs is no mapping."""
    expect(isinstance(value, dict), what, "dict", value)
    unknown = set(value) - set(value if keys is None else keys)
    if unknown:
        raise ConfigError(f"{what}: unknown fields {sorted(map(str, unknown))}")
    return dict(value)


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
        # from the case, not the prompt text: a context may hold a "1. " line
        first = {c.question_id: c.options[0] for c in dataset.cases}
        return lambda prompt: first[prompt.case_id]
    raise ConfigError(f"unknown mock strategy {strategy!r}")


def _backend_config(entry: dict, dataset: Dataset, offline: bool
                    ) -> tuple[BackendConfig, Optional[Callable]]:
    """A backend entry's config, and a mock's reply function (None for
    other kinds)."""
    if offline and entry.get("kind") == "remote":
        entry = dict(entry, kind="replay")
    config = _construct(BackendConfig, entry, f"backend {entry.get('name')!r}")
    if config.kind == "replay":
        # a replay reads the cache by these fields alone; network settings
        # such as parallelism, retries and the rate limit do not apply
        config = BackendConfig(config.name, "replay", config.model_id,
                               temperature=config.temperature)
    if config.kind == "mock":
        return config, _mock_reply_fn(config.strategy or "first_option",
                                      dataset)
    return config, None


def _construct(cls, settings: dict, what: str):
    """``cls(**settings)``; a missing field without a default, an unknown
    key, or a value ``cls`` rejects, raises ``ConfigError`` naming ``what``."""
    missing = [f.name for f in fields(cls) if f.name not in settings
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{what}: missing fields {missing}")
    _mapping(settings, what, [f.name for f in fields(cls)])
    try:
        return cls(**settings)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}")


# each respondent's few-shot examples, as (profile, answer) pairs
Examples = Mapping[str, Sequence[tuple[SocioProfile, int]]]


def draw_fewshot(dataset: Dataset, case: SurveyCase, k: int,
                 seed: int) -> Examples:
    """Each respondent with a known answer mapped to its k few-shot
    examples.  The draw depends on (seed, case, respondent) only, so one
    draw serves every variant and mask of the case.  A respondent's pair is
    built once and shared by every draw that shows it."""
    answered = dataset.answered(case)[0]
    pairs = {rid: (dataset.profile(rid), case.answers[rid]) for rid in answered}
    return {
        rid: [pairs[i] for i in sample_fewshot(
            dataset, case, k, exclude=rid,
            seed=_fewshot_seed(seed, case.question_id, rid))]
        for rid in answered
    }


def render_case_prompts(
    dataset: Dataset,
    case: SurveyCase,
    variant: PromptVariant,
    mask: AblationMask,
    examples: Optional[Examples],
):
    """Render one prompt per respondent with a known answer, in profile
    order; few-shot variants show the examples ``examples`` gives."""
    return [
        render(dataset.profile(rid), case, variant, mask,
               examples[rid] if variant.uses_fewshot else [])
        for rid in dataset.answered(case)[0]
    ]


@dataclass
class Plan:
    """A config checked against its dataset: what the run fits, renders
    and scores, where the schema or ``--offline`` decides it."""

    dataset: Dataset
    cases: list[SurveyCase]
    masks: list[AblationMask]
    backends: list[tuple[BackendConfig, Optional[Callable]]]
    regressions: list[ModelSpec]


def _plan(cfg: ExperimentConfig, offline: bool) -> Plan:
    """Every config-versus-schema check; a mistake raises ``ConfigError``
    naming it."""
    # the bundle is written last, so a file in its way would waste the audit
    taken = next(p for p in (cfg.out_dir, *cfg.out_dir.parents) if p.exists())
    if not taken.is_dir():
        raise ConfigError(f"output: {taken} is a file, not a directory")
    dataset = load_dataset(cfg.csv_path, cfg.schema_path)
    known = [c.question_id for c in dataset.cases]
    if not known:
        raise ConfigError(f"schema {cfg.schema_path} declares no questions, "
                          f"so there is nothing to audit")
    for cid in cfg.case_ids or ():
        if cid not in known:
            raise ConfigError(f"config names unknown question id {cid!r}")
    cases = [c for c in dataset.cases if c.question_id in (cfg.case_ids or known)]
    names = dataset.schema.names
    political = frozenset(cfg.political or DEFAULT_POLITICAL)
    unknown_political = sorted(political - set(names))
    # a given set is always checked, the default only where a mask reads it
    if unknown_political and (cfg.political or cfg.ablation or {
            "without_political", "only_political"} & set(cfg.masks)):
        raise ConfigError(
            f"political set names unknown attributes: {unknown_political}; "
            f"set political to the schema's political attributes")
    specs = regression_specs(dataset, cfg)
    for a, b in cfg.equality_pairs:
        for attr in (a, b):
            if attr not in names:
                raise ConfigError(f"equality pair names unknown attribute {attr!r}")

    if cfg.ablation:
        masks = ablation_plan(dataset.schema, political)
    else:
        masks = [_parse_mask(m, political, names) for m in cfg.masks]
    fewshot = any(v.uses_fewshot for v in cfg.variants)
    if fewshot and cfg.fewshot_k < 1:
        raise ConfigError(f"fewshot.k must be >= 1 for a few-shot "
                          f"variant, got {cfg.fewshot_k}")
    for case in cases:
        answered = len(dataset.answered(case)[0])
        if answered < 2:
            raise ConfigError(
                f"case {case.question_id!r} has {answered} answered "
                f"respondent(s); the forest ceiling needs at least 2")
        # the examples of a respondent are the other answered respondents
        if fewshot and cfg.fewshot_k > answered - 1:
            raise ConfigError(
                f"fewshot.k is {cfg.fewshot_k}, but case {case.question_id!r} "
                f"has only {answered - 1} eligible examples per respondent "
                f"({answered} answered respondents)")
    if PromptVariant.WITH_CONTEXT in cfg.variants:
        bare = [c.question_id for c in cases if not c.context_blurb]
        if bare:
            raise ConfigError(
                f"variant with_context needs a context blurb, which "
                f"{len(bare)} of {len(cases)} cases lack: {bare}")
    backends = [_backend_config(e, dataset, offline) for e in cfg.backends]
    # a cell is keyed by (backend, case, variant, mask) and a regression fit
    # by (name, backend), so each must be unique
    for kind, labels in (("cases", cfg.case_ids or []),
                         ("backend names", [c.name for c, _ in backends]),
                         ("variants", [v.value for v in cfg.variants]),
                         ("masks", [m.label for m in masks]),
                         ("regression names", [s.name for s in specs])):
        repeated = sorted({x for x in labels if labels.count(x) > 1})
        if repeated:
            raise ConfigError(f"duplicate {kind}: {repeated}")
    return Plan(dataset, cases, masks, backends, specs)


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
                dataset, case, cfg.forest, seed=cfg.forest_seed)[0]
            for case in plan.cases
        }
        fewshot = any(v.uses_fewshot for v in cfg.variants)
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
            for variant in cfg.variants
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
    primary = primary_cells(cells, cfg.variants[0].value)
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
            label: metrics_mod.overall_accuracy_equality(
                acc_map, cfg.equality_tolerance, group_sizes=sizes)
            for label, acc_map, sizes in groups
        }
    return primary, equality, fit_regressions(plan, cfg, primary)


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
        "variants": [v.value for v in cfg.variants],
        "masks": [m.label for m in plan.masks],
        "fewshot_k": cfg.fewshot_k,
        "unparseable_policy": cfg.unparseable_policy,
        "n_predictions": sum(len(c.predictions) for c in cells),
    }
    bundle = ReportBundle(baseline, cells, primary, equality, regressions,
                          manifest, cfg.out_dir)
    write_bundle(bundle, plan.dataset.schema)
    return bundle


def refit_regressions(cfg: ExperimentConfig, predictions_path: str | Path
                      ) -> dict[str, dict]:
    """Fit and write the configured regressions on the primary cells of an
    earlier run's prediction log; the config is planned as an offline run
    plans it, so a mistake or a backend failure a run refuses is refused."""
    plan = _plan(cfg, offline=True)
    variant = cfg.variants[0].value
    primary = primary_cells(read_cells(predictions_path), variant)
    if not primary:
        raise ConfigError(f"{predictions_path} has no predictions of "
                          f"variant {variant!r}")
    for c in primary:
        refuse_failures(c.backend, c.case_id, c.variant, c.mask_label,
                        c.predictions)
    regressions = fit_regressions(plan, cfg, primary)
    write_regressions(cfg.out_dir, regressions)
    return regressions


def _run_cell(dataset: Dataset, cfg: ExperimentConfig, backend,
              cache: ExchangeCache, case: SurveyCase, variant: PromptVariant,
              mask: AblationMask, examples: Optional[Examples],
              base: metrics_mod.MetricReport) -> CellResult:
    """Render, dispatch and score one (backend, case, variant, mask) cell;
    ``base`` is the case's forest report."""
    bname = backend.config.name
    prompts = render_case_prompts(dataset, case, variant, mask, examples)
    predictions = run_batch(prompts, {case.question_id: case.options},
                            backend, cache)
    refuse_failures(bname, case.question_id, variant.value, mask.label,
                    predictions)
    report = metrics_mod.compute_report(dataset, predictions, case,
                                        backend=bname,
                                        policy=cfg.unparseable_policy)
    report.relative = {m: metrics_mod.ceiling_ratio(getattr(report, m), getattr(base, m))
                       for m in ("accuracy", "jss")}
    return CellResult(bname, case.question_id, variant.value, mask.label,
                      report, predictions)


def refuse_failures(backend: str, case_id: str, variant: str, mask: str,
                    predictions: Sequence[Prediction]) -> None:
    """Raise ``BackendUnavailable`` when the backend failed on any prompt of
    the cell, naming the cell, the failed count and the first failure: no
    failure is scored."""
    failed = [note for note in Predictions.of(predictions).notes if note]
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
    everything = AblationMask.all().label
    mask = (everything if any(c.mask_label == everything for c in cells)
            else cells[0].mask_label)
    return [c for c in cells if c.variant == variant and c.mask_label == mask]


def regression_specs(dataset: Dataset,
                     cfg: ExperimentConfig) -> list[ModelSpec]:
    """The configured regressions; one that does not fit the schema raises
    ``ConfigError``."""
    names = dataset.schema.names
    specs = []
    for entry in cfg.regressions:
        # a null field, as an absent one, takes its default
        entry = {k: v for k, v in entry.items() if v is not None}
        what = f"regression {entry.get('name', 'model')!r}"
        # no main effects, "all" and ["all"] each mean every attribute
        mains = entry.get("main_effects", "all")
        if mains in ("all", ["all"]):
            mains = names
        else:
            expect(_is_names(mains), f"{what}: main_effects",
                   "'all' or a list of names", mains)
            expect(mains != [], f"{what}: main_effects",
                   "at least one attribute", mains)
        for attr in mains:
            if attr not in names:
                raise ConfigError(f"{what} names unknown attribute {attr!r}")
        interactions = _list(entry, "interactions", what)
        for pair in interactions:
            if not (_is_names(pair) and len(pair) == 2):
                raise ConfigError(f"{what}: an interaction names two "
                                  f"attributes, got {pair!r}")
        specs.append(_construct(ModelSpec, dict(
            entry, main_effects=tuple(mains),
            interactions=tuple(tuple(i) for i in interactions)
        ), what))
    return specs


def fit_regressions(plan: Plan, cfg: ExperimentConfig,
                    primary: Sequence[CellResult]) -> dict[str, dict]:
    """Fit every planned regression once per backend, on that backend's
    pooled primary predictions; keys are ``<name>__<backend>``.  A model the predictions
    cannot identify keeps its error in place of the design and the fit, and
    the others still fit."""
    cells: dict[str, list[Sequence[Prediction]]] = {}
    for c in primary:
        cells.setdefault(c.backend, []).append(c.predictions)
    pooled = {bname: Predictions.join(parts) for bname, parts in cells.items()}
    regressions: dict[str, dict] = {}
    for spec in plan.regressions:
        for bname, predictions in pooled.items():
            key = f"{spec.name}__{bname}"
            try:
                design = build_design(plan.dataset, predictions, spec,
                                      policy=cfg.unparseable_policy)
                regressions[key] = {"design": design, "fit": fit_logit(design)}
            except Unfittable as exc:
                regressions[key] = {"error": exc}
    return regressions
