"""Accuracy, Jensen-Shannon similarity, subgroup weighting, and the
accuracy-equality fairness check.

JSS uses base-2 logarithms so the divergence term lives in [0, 1] and the
similarity score needs no further normalization.  The unparseable policy
("incorrect" or "exclude") is applied identically by every operation that
consumes predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .data import Dataset, SurveyCase, partition_by
from .errors import (
    AllUnparseable,
    EmptyPredictions,
    LengthMismatch,
    NonpositiveValue,
    UnknownRespondent,
    ZeroBaseline,
)
from .gateway import Prediction

POLICY_INCORRECT = "incorrect"
POLICY_EXCLUDE = "exclude"


def round_half_away(value: float, digits: int = 2) -> float:
    """Round half away from zero (table rendering convention)."""
    q = Decimal(1).scaleb(-digits)
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


def accuracy(
    predictions: Sequence[Prediction],
    truth: SurveyCase,
    policy: str = POLICY_INCORRECT,
) -> float:
    """Share of correct predictions (correct count over total count)."""
    if not predictions:
        raise EmptyPredictions("no predictions to score")
    correct = 0
    total = 0
    for p in predictions:
        if p.respondent_id not in truth.answers:
            raise UnknownRespondent(
                f"no true answer for {p.respondent_id!r} in case "
                f"{truth.question_id!r}"
            )
        if p.parsed is None:
            if policy == POLICY_INCORRECT:
                total += 1
            continue
        total += 1
        if p.parsed == truth.answers[p.respondent_id]:
            correct += 1
    if total == 0:
        raise AllUnparseable("every prediction is unparseable under 'exclude'")
    return correct / total


def empirical_distribution(
    items: Iterable[Optional[int]], n_options: int
) -> np.ndarray:
    """Probability vector from parsed option indices; None entries are
    excluded from both numerator and denominator."""
    counts = np.zeros(n_options, dtype=float)
    n = 0
    for item in items:
        if item is None:
            continue
        counts[item] += 1
        n += 1
    if n == 0:
        raise AllUnparseable("no parsed items to build a distribution from")
    return counts / n


def jss(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon similarity: 1 minus the base-2 JS divergence.

    1 means identical distributions, 0 means disjoint supports.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise LengthMismatch(f"length mismatch: {p.shape} vs {q.shape}")
    m = (p + q) / 2.0
    div = 0.5 * (_kl_base2(p, m) + _kl_base2(q, m))
    return float(min(1.0, max(0.0, 1.0 - div)))


def _kl_base2(p: np.ndarray, m: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / m[mask])))


@dataclass(frozen=True)
class GroupStats:
    category: str
    n: int
    n_correct: int
    n_unparseable: int
    accuracy: Optional[float]
    jss: Optional[float]
    all_unparseable: bool


def group_stats(
    dataset: Dataset,
    predictions: Sequence[Prediction],
    case: SurveyCase,
    attribute: str,
    policy: str = POLICY_INCORRECT,
) -> list[GroupStats]:
    """Per-category accuracy and JSS for one attribute.

    Categories without any predictions yield n=0 rows (kept so enumeration
    order stays schema-stable); a group whose predictions are all
    unparseable keeps its weight but scores jss 0 and is flagged.
    """
    by_id = {p.respondent_id: p for p in predictions}
    out = []
    for category, ids in partition_by(dataset, attribute):
        members = [by_id[r] for r in sorted(ids) if r in by_id]
        n_unparseable = sum(1 for p in members if p.parsed is None)
        if policy == POLICY_EXCLUDE:
            scored = [p for p in members if p.parsed is not None]
        else:
            scored = members
        n = len(scored)
        if n == 0:
            out.append(GroupStats(category, 0, 0, n_unparseable, None, None,
                                  bool(members)))
            continue
        n_correct = sum(
            1 for p in scored
            if p.parsed is not None and p.parsed == case.answers[p.respondent_id]
        )
        parsed = [p.parsed for p in members if p.parsed is not None]
        if parsed:
            truth_dist = empirical_distribution(
                (case.answers[p.respondent_id] for p in scored), len(case.options)
            )
            pred_dist = empirical_distribution(parsed, len(case.options))
            group_jss = jss(truth_dist, pred_dist)
            flagged = False
        else:
            group_jss = 0.0
            flagged = True
        out.append(GroupStats(
            category=category,
            n=n,
            n_correct=n_correct,
            n_unparseable=n_unparseable,
            accuracy=n_correct / n,
            jss=group_jss,
            all_unparseable=flagged,
        ))
    return out


def weighted_group_jss(
    dataset: Dataset,
    predictions: Sequence[Prediction],
    case: SurveyCase,
    attribute: str,
    policy: str = POLICY_INCORRECT,
) -> float:
    """Subgroup JSS values weighted by each group's share of the sample."""
    stats = group_stats(dataset, predictions, case, attribute, policy)
    total = sum(g.n for g in stats)
    if total == 0:
        raise EmptyPredictions("no scored predictions for weighting")
    return sum((g.n / total) * (g.jss or 0.0) for g in stats if g.n > 0)


def relative_ratio(model_value: float, baseline_value: float) -> float:
    """Model metric normalized by the in-sample forest ceiling; may
    exceed 1 when the model beats the ceiling."""
    if baseline_value <= 0:
        raise ZeroBaseline("baseline value must be positive")
    return model_value / baseline_value


@dataclass(frozen=True)
class EqualityVerdict:
    satisfied: bool
    max_gap: float
    tolerance: float
    gaps: dict
    group_sizes: dict


def overall_accuracy_equality(
    per_group_acc: Mapping,
    tolerance: float,
    group_sizes: Optional[Mapping] = None,
) -> EqualityVerdict:
    """Check equal prediction accuracy across groups.

    Keys may be single categories or tuples of categories (intersection
    cells).  Groups with accuracy None (no members) are ignored.
    """
    usable = {g: a for g, a in per_group_acc.items() if a is not None}
    gaps = {}
    max_gap = 0.0
    keys = list(usable)
    for i, g in enumerate(keys):
        for h in keys[i + 1:]:
            gap = abs(usable[g] - usable[h])
            gaps[(g, h)] = gap
            max_gap = max(max_gap, gap)
    return EqualityVerdict(
        satisfied=max_gap <= tolerance,
        max_gap=max_gap,
        tolerance=tolerance,
        gaps=gaps,
        group_sizes=dict(group_sizes or {}),
    )


def harmonic_mean(values: Sequence[float]) -> float:
    if not values:
        raise NonpositiveValue("harmonic mean of an empty list")
    if any(v <= 0 for v in values):
        raise NonpositiveValue("harmonic mean requires strictly positive values")
    return len(values) / sum(1.0 / v for v in values)


@dataclass
class MetricReport:
    """Full metric battery for one (backend, case) cell."""

    question_id: str
    backend: str
    accuracy: float
    jss: float
    weighted_jss: dict[str, float]
    per_group_accuracy: dict[str, dict[str, Optional[float]]]
    per_group_jss: dict[str, dict[str, Optional[float]]]
    group_sizes: dict[str, dict[str, int]]
    n_total: int
    n_correct: int
    n_unparseable: int
    flagged_groups: list[tuple[str, str]] = field(default_factory=list)
    # scalar fallback: plain mean of the attribute-level weighted JSS values
    # (the per-attribute figures are the primary output)
    jss_weighted_mean: Optional[float] = None
    relative: Optional[dict[str, float]] = None

    def to_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "backend": self.backend,
            "accuracy": self.accuracy,
            "jss": self.jss,
            "weighted_jss": self.weighted_jss,
            "jss_weighted_mean": self.jss_weighted_mean,
            "per_group_accuracy": self.per_group_accuracy,
            "per_group_jss": self.per_group_jss,
            "group_sizes": self.group_sizes,
            "n_total": self.n_total,
            "n_correct": self.n_correct,
            "n_unparseable": self.n_unparseable,
            "flagged_groups": [list(t) for t in self.flagged_groups],
            "relative": self.relative,
        }


def compute_report(
    dataset: Dataset,
    predictions: Sequence[Prediction],
    case: SurveyCase,
    backend: str = "",
    policy: str = POLICY_INCORRECT,
) -> MetricReport:
    """Compute the full battery for one case's predictions.

    With no parsed prediction there is no predicted distribution, so this
    raises AllUnparseable; ``unparsed_report`` scores such a cell.
    """
    return _report(dataset, predictions, case, backend, policy, strict=True)


def unparsed_report(
    dataset: Dataset,
    predictions: Sequence[Prediction],
    case: SurveyCase,
    backend: str = "",
) -> MetricReport:
    """The battery of a cell in which no prediction parsed, under
    'incorrect': scored like such a group in ``group_stats``, every
    prediction counts as wrong, JSS is 0 and every group is flagged."""
    return _report(dataset, predictions, case, backend, POLICY_INCORRECT,
                   strict=False)


def _report(
    dataset: Dataset,
    predictions: Sequence[Prediction],
    case: SurveyCase,
    backend: str,
    policy: str,
    strict: bool,
) -> MetricReport:
    if not predictions:
        raise EmptyPredictions("no predictions to report on")
    acc = accuracy(predictions, case, policy)
    n_unparseable = sum(1 for p in predictions if p.parsed is None)
    if policy == POLICY_EXCLUDE:
        n_total = len(predictions) - n_unparseable
    else:
        n_total = len(predictions)
    n_correct = sum(
        1 for p in predictions
        if p.parsed is not None and p.parsed == case.answers[p.respondent_id]
    )

    if policy == POLICY_EXCLUDE:
        scored = [p for p in predictions if p.parsed is not None]
    else:
        scored = list(predictions)
    truth_dist = empirical_distribution(
        (case.answers[p.respondent_id] for p in scored), len(case.options)
    )
    if strict or n_unparseable < len(predictions):
        pred_dist = empirical_distribution(
            (p.parsed for p in predictions), len(case.options)
        )
        overall_jss = jss(truth_dist, pred_dist)
    else:
        overall_jss = 0.0

    weighted: dict[str, float] = {}
    pg_acc: dict[str, dict[str, Optional[float]]] = {}
    pg_jss: dict[str, dict[str, Optional[float]]] = {}
    sizes: dict[str, dict[str, int]] = {}
    flagged: list[tuple[str, str]] = []
    for attr in dataset.schema.names:
        stats = group_stats(dataset, predictions, case, attr, policy)
        total = sum(g.n for g in stats)
        weighted[attr] = sum(
            (g.n / total) * (g.jss or 0.0) for g in stats if g.n > 0
        )
        pg_acc[attr] = {g.category: g.accuracy for g in stats}
        pg_jss[attr] = {g.category: g.jss for g in stats}
        sizes[attr] = {g.category: g.n for g in stats}
        flagged.extend((attr, g.category) for g in stats if g.all_unparseable)

    return MetricReport(
        question_id=case.question_id,
        backend=backend,
        accuracy=acc,
        jss=overall_jss,
        weighted_jss=weighted,
        per_group_accuracy=pg_acc,
        per_group_jss=pg_jss,
        group_sizes=sizes,
        n_total=n_total,
        n_correct=n_correct,
        n_unparseable=n_unparseable,
        flagged_groups=flagged,
        jss_weighted_mean=(
            sum(weighted.values()) / len(weighted) if weighted else None
        ),
    )
