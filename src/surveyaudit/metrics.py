"""Accuracy, Jensen-Shannon similarity, subgroup weighting, and the
accuracy-equality fairness check.

JSS uses base-2 logarithms so the divergence term lives in [0, 1] and the
similarity score needs no further normalization.  Every group figure reads
one integer tally, ``group_tally``, which is also the one place the
unparseable policy ("incorrect" or "exclude") is applied.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from decimal import ROUND_HALF_UP, Decimal
from typing import Mapping, Optional, Sequence

import numpy as np

from .data import Dataset, SurveyCase
from .errors import (
    AllUnparseable,
    EmptyPredictions,
    LengthMismatch,
    NonpositiveValue,
    UnknownRespondent,
)
from .gateway import Prediction, Predictions

POLICY_INCORRECT = "incorrect"
POLICY_EXCLUDE = "exclude"
# a tuple, not a set: a list or mapping then compares unequal, not unhashable
POLICIES = (POLICY_INCORRECT, POLICY_EXCLUDE)
# parsed code of a reply that matched no option
UNPARSED = -1


def round_half_away(value: float, digits: int = 2) -> float:
    """Round half away from zero (table rendering convention)."""
    q = Decimal(1).scaleb(-digits)
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class GroupTally:
    """Counts per group; ``truth`` and ``predicted`` are (groups, options)."""

    members: list[int]
    scored: list[int]
    correct: list[int]
    unparseable: list[int]
    truth: np.ndarray
    predicted: np.ndarray


def group_tally(
    groups: np.ndarray,
    n_groups: int,
    truth: np.ndarray,
    parsed: np.ndarray,
    n_options: int,
    policy: str,
) -> GroupTally:
    """Per-group outcome counts over integer codes: group, true option and
    parsed option (UNPARSED where a reply did not parse) per prediction.

    This is the one place the unparseable policy is applied: under
    'incorrect' an unparsed prediction is scored as wrong, under 'exclude'
    it is not scored.  Truth counts cover the scored predictions, predicted
    counts the parsed ones.
    """
    ok = parsed != UNPARSED
    scored = ok if policy == POLICY_EXCLUDE else np.ones_like(ok)

    def count(mask):
        return np.bincount(groups[mask], minlength=n_groups)

    def per_option(mask, options):
        flat = np.bincount(groups[mask] * n_options + options[mask],
                           minlength=n_groups * n_options)
        return flat.reshape(n_groups, n_options)

    members = np.bincount(groups, minlength=n_groups)
    return GroupTally(
        members=members.tolist(),
        scored=count(scored).tolist(),
        correct=count(ok & (parsed == truth)).tolist(),
        unparseable=(members - count(ok)).tolist(),
        truth=per_option(scored, truth),
        predicted=per_option(ok, parsed),
    )


def outcome_codes(
    predictions: Sequence[Prediction], cases: Sequence[SurveyCase]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The position of each prediction's question in ``cases``, and its
    true and parsed option, as integer codes.

    A prediction whose question is not among ``cases``, or whose
    respondent has no true answer for it, raises ``UnknownRespondent``
    naming the question or the respondent.
    """
    predictions = Predictions.of(predictions)
    position = {c.question_id: q for q, c in enumerate(cases)}
    try:
        where = [position[qid] for qid in predictions.question_ids]
    except KeyError as exc:
        raise UnknownRespondent(
            f"question {exc.args[0]!r} is not among the scored cases "
            f"{list(position)}") from None
    answers = [c.answers for c in cases]
    try:
        truth = [answers[q][rid]
                 for q, rid in zip(where, predictions.respondent_ids)]
    except KeyError as exc:
        rows = zip(where, predictions.respondent_ids, predictions.question_ids)
        qid = next(qid for q, rid, qid in rows if rid not in answers[q])
        raise UnknownRespondent(
            f"no true answer for {exc.args[0]!r} in case {qid!r}") from None
    parsed = [UNPARSED if v is None else v for v in predictions.parsed]
    return (np.array(where, dtype=np.intp), np.array(truth, dtype=np.intp),
            np.array(parsed, dtype=np.intp))


def _scores(
    tally: GroupTally, g: int
) -> tuple[Optional[float], Optional[float], bool]:
    """Accuracy, JSS and the all-unparseable flag of group ``g``: with
    nothing scored there is neither figure, and the flag says whether the
    group has members; with no parsed reply JSS is 0 and the group flagged."""
    n = tally.scored[g]
    if n == 0:
        return None, None, tally.members[g] > 0
    n_parsed = tally.members[g] - tally.unparseable[g]
    if n_parsed == 0:
        return tally.correct[g] / n, 0.0, True
    similarity = jss(tally.truth[g] / n, tally.predicted[g] / n_parsed)
    return tally.correct[g] / n, similarity, False


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


def ceiling_ratio(value: Optional[float], ceiling: Optional[float]) -> Optional[float]:
    """Model metric normalized by the in-sample forest ceiling, or None when
    a value is missing or the ceiling is not positive; may exceed 1 when the
    model beats the ceiling."""
    if value is None or ceiling is None or ceiling <= 0:
        return None
    return value / ceiling


@dataclass(frozen=True)
class EqualityVerdict:
    satisfied: bool
    max_gap: float
    tolerance: float
    group_sizes: dict
    accuracy: dict


def overall_accuracy_equality(
    per_group_acc: Mapping,
    tolerance: float,
    group_sizes: Optional[Mapping] = None,
) -> EqualityVerdict:
    """Check equal prediction accuracy across groups.

    Keys may be single categories or tuples of categories (intersection
    cells).  Groups with accuracy None (no members) are ignored.  The
    largest pairwise gap is the spread between the best and the worst
    group.
    """
    usable = [a for a in per_group_acc.values() if a is not None]
    max_gap = max(usable) - min(usable) if usable else 0.0
    return EqualityVerdict(
        satisfied=max_gap <= tolerance,
        max_gap=max_gap,
        tolerance=tolerance,
        group_sizes=dict(group_sizes or {}),
        accuracy=dict(per_group_acc),
    )


def harmonic_mean(values: Sequence[float]) -> float:
    """The harmonic mean of non-negative values; 0 when a value is 0, its
    limit as that value falls to 0."""
    if not values:
        raise NonpositiveValue("harmonic mean of an empty list")
    if any(v < 0 for v in values):
        raise NonpositiveValue("harmonic mean requires non-negative values")
    if 0 in values:
        return 0.0
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
        """Every field by name; the values are shared, not copied."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def compute_report(
    dataset: Dataset,
    predictions: Sequence[Prediction],
    case: SurveyCase,
    backend: str = "",
    policy: str = POLICY_INCORRECT,
) -> MetricReport:
    """Compute the full battery for one case's predictions.

    A cell with no parsed prediction is scored like any other: under
    'incorrect' its accuracy and JSS are 0 and every group with members is
    flagged.  With nothing scored, which happens only under 'exclude', this
    raises AllUnparseable.
    """
    if not predictions:
        raise EmptyPredictions("no predictions to report on")
    predictions = Predictions.of(predictions)
    _, answers, parsed = outcome_codes(predictions, (case,))
    n_options = len(case.options)
    overall = group_tally(np.zeros(len(parsed), np.intp), 1, answers, parsed,
                          n_options, policy)
    if overall.scored[0] == 0:
        raise AllUnparseable("every prediction is unparseable under 'exclude'")
    acc, overall_jss, _ = _scores(overall, 0)

    codes = dataset.coded.of(predictions.respondent_ids)
    weighted: dict[str, float] = {}
    pg_acc: dict[str, dict[str, Optional[float]]] = {}
    pg_jss: dict[str, dict[str, Optional[float]]] = {}
    sizes: dict[str, dict[str, int]] = {}
    flagged: list[tuple[str, str]] = []
    for j, attr in enumerate(dataset.schema.attributes):
        tally = group_tally(codes[:, j], len(attr.categories), answers, parsed,
                            n_options, policy)
        scores = [_scores(tally, g) for g in range(len(attr.categories))]
        total = sum(tally.scored)
        weighted[attr.name] = sum(
            (n / total) * s[1] for n, s in zip(tally.scored, scores) if n > 0
        )
        pg_acc[attr.name] = {c: s[0] for c, s in zip(attr.categories, scores)}
        pg_jss[attr.name] = {c: s[1] for c, s in zip(attr.categories, scores)}
        sizes[attr.name] = dict(zip(attr.categories, tally.scored))
        flagged += [(attr.name, c)
                    for c, s in zip(attr.categories, scores) if s[2]]

    return MetricReport(
        question_id=case.question_id,
        backend=backend,
        accuracy=acc,
        jss=overall_jss,
        weighted_jss=weighted,
        per_group_accuracy=pg_acc,
        per_group_jss=pg_jss,
        group_sizes=sizes,
        n_total=overall.scored[0],
        n_correct=overall.correct[0],
        n_unparseable=overall.unparseable[0],
        flagged_groups=flagged,
        jss_weighted_mean=(
            sum(weighted.values()) / len(weighted) if weighted else None
        ),
    )


def intersection_accuracy(
    dataset: Dataset,
    predictions: Sequence[Prediction],
    case: SurveyCase,
    attr_a: str,
    attr_b: str,
    policy: str = POLICY_INCORRECT,
) -> tuple[dict, dict]:
    """Accuracy per (category_a, category_b) intersection cell.

    The cell of a prediction is coded ``code_a * |B| + code_b``; cells
    with nothing scored have accuracy None.
    """
    schema = dataset.schema
    a, b = schema.attribute(attr_a), schema.attribute(attr_b)
    predictions = Predictions.of(predictions)
    _, answers, parsed = outcome_codes(predictions, (case,))
    codes = dataset.coded.of(predictions.respondent_ids)
    cells = (codes[:, schema.names.index(attr_a)] * len(b.categories)
             + codes[:, schema.names.index(attr_b)])
    tally = group_tally(cells, len(a.categories) * len(b.categories), answers,
                        parsed, len(case.options), policy)
    keys = list(itertools.product(a.categories, b.categories))
    acc = {key: (correct / n if n else None)
           for key, correct, n in zip(keys, tally.correct, tally.scored)}
    return acc, dict(zip(keys, tally.scored))
