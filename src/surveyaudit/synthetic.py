"""Synthetic survey populations with planted biases.

Profiles are drawn from per-attribute marginals, answers from a planted
response process, and a planted correctness process (a logit over the same
dummy coding the regression module uses) decides whether the simulated
"model" got each row right.  Everything is a pure function of the seed, so
generated data doubles as a ground-truth oracle for the whole metric and
estimator stack.

``brute_force_metrics`` recomputes the metric battery by plain tallies and
exact fractions, deliberately sharing no code with the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .data import AttributeSchema, Dataset, SocioProfile, SurveyCase
from .errors import InvalidSpec
from .gateway import Prediction


@dataclass(frozen=True)
class CaseSpec:
    """Planted answer process for one question.

    base_probs is the answer distribution; if depends_on is set, the table
    overrides it per category of that attribute.
    """

    question_id: str
    options: tuple[str, ...]
    base_probs: tuple[float, ...]
    depends_on: Optional[str] = None
    table: Optional[Mapping[str, Sequence[float]]] = None
    country: str = "SYN"
    context_blurb: Optional[str] = None


@dataclass(frozen=True)
class PopulationSpec:
    schema: AttributeSchema
    marginals: Mapping[str, Sequence[float]]  # per-attribute, schema order
    n: int
    cases: tuple[CaseSpec, ...]
    # planted correctness logit: intercept + {"attr=cat": beta}
    correctness_intercept: float = 1.0
    correctness_beta: Mapping[str, float] = field(default_factory=dict)
    unparseable_rate: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidSpec("population size must be >= 1")
        if not 0 <= self.unparseable_rate < 1:
            raise InvalidSpec("unparseable_rate must be in [0, 1)")
        for attr in self.schema.attributes:
            probs = self.marginals.get(attr.name)
            if probs is None or len(probs) != len(attr.categories):
                raise InvalidSpec(f"marginals missing/mis-sized for {attr.name!r}")
            if abs(sum(probs) - 1.0) > 1e-9 or any(p < 0 for p in probs):
                raise InvalidSpec(f"marginals for {attr.name!r} are not a distribution")
        for cs in self.cases:
            if len(cs.base_probs) != len(cs.options):
                raise InvalidSpec(f"case {cs.question_id!r}: probs/options mismatch")
            if abs(sum(cs.base_probs) - 1.0) > 1e-9 or min(cs.base_probs) < 0:
                raise InvalidSpec(f"case {cs.question_id!r}: probs are not a distribution")
            if cs.depends_on is not None:
                attr = self.schema.attribute(cs.depends_on)
                if cs.table is None:
                    raise InvalidSpec(f"case {cs.question_id!r}: depends_on without table")
                for cat in attr.categories:
                    row = cs.table.get(cat)
                    if (row is None or len(row) != len(cs.options)
                            or min(row) < 0 or sum(row) <= 0):
                        raise InvalidSpec(
                            f"case {cs.question_id!r}: table row for {cat!r} "
                            f"is missing or not a set of weights"
                        )
        for key in self.correctness_beta:
            attr_name, _, cat = key.partition("=")
            attr = self.schema.attribute(attr_name)
            if cat not in attr.categories:
                raise InvalidSpec(f"correctness beta names unknown dummy {key!r}")


def _cdf(weights: Sequence[float]) -> np.ndarray:
    """The cdf that ``Generator.choice(k, p=w / w.sum())`` searches."""
    row = np.asarray(weights, dtype=float)
    cdf = (row / row.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def generate(spec: PopulationSpec) -> tuple[Dataset, list[Prediction]]:
    """Draw a population and its simulated model predictions.

    Correct rows predict the truth; incorrect rows predict a uniformly
    chosen wrong option.  Bit-identical across runs for a fixed seed.

    Each draw takes a whole column from the stream a row loop of scalar
    ``rng.choice(k, p=p)`` and ``rng.integers(0, m)`` calls would use: a
    scalar choice takes one ``rng.random()`` and searches its cdf.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    schema = spec.schema
    n = spec.n

    # attribute draws, independent across attributes, as category indices
    codes: dict[str, np.ndarray] = {}
    for attr in schema.attributes:
        probs = np.asarray(spec.marginals[attr.name], dtype=float)
        codes[attr.name] = rng.choice(len(attr.categories), size=n,
                                      p=probs / probs.sum())
    labels = [[attr.categories[i] for i in codes[attr.name].tolist()]
              for attr in schema.attributes]
    ids = [f"r{i:05d}" for i in range(n)]
    names = schema.names
    profiles = tuple(
        SocioProfile(respondent_id=rid, values=dict(zip(names, row)))
        for rid, row in zip(ids, zip(*labels))
    )

    # planted correctness probability per row
    eta = np.full(n, spec.correctness_intercept, dtype=float)
    for key, beta in spec.correctness_beta.items():
        attr_name, _, cat = key.partition("=")
        index = schema.attribute(attr_name).categories.index(cat)
        eta += beta * (codes[attr_name] == index)
    p_correct = 1.0 / (1.0 + np.exp(-eta))

    cases = []
    predictions: list[Prediction] = []
    for cs in spec.cases:
        k = len(cs.options)
        u = rng.random(n)
        if cs.depends_on is None:
            truth = _cdf(cs.base_probs).searchsorted(u, side="right")
        else:
            truth = np.empty(n, dtype=np.intp)
            attr = schema.attribute(cs.depends_on)
            for j, cat in enumerate(attr.categories):
                at = codes[attr.name] == j
                truth[at] = _cdf(cs.table[cat]).searchsorted(u[at], side="right")

        correct = rng.random(n) < p_correct
        unparseable = (
            rng.random(n) < spec.unparseable_rate
            if spec.unparseable_rate > 0
            else np.zeros(n, dtype=bool)
        )
        # a wrong row draws among the k - 1 other options, skipping the truth
        wrong = ~unparseable & ~correct
        s = rng.integers(0, k - 1, size=int(wrong.sum()))
        parsed = np.where(unparseable, -1, truth)
        parsed[wrong] = s + (s >= truth[wrong])
        predictions.extend(
            Prediction(
                respondent_id=rid,
                question_id=cs.question_id,
                backend="synthetic",
                raw_text=cs.options[j] if j >= 0 else "no answer",
                parsed=j if j >= 0 else None,
            )
            for rid, j in zip(ids, parsed.tolist())
        )
        cases.append(
            SurveyCase(
                question_id=cs.question_id,
                question_text=f"Synthetic question {cs.question_id}",
                options=cs.options,
                country=cs.country,
                context_blurb=cs.context_blurb,
                answers=dict(zip(ids, truth.tolist())),
            )
        )

    dataset = Dataset(schema=schema, profiles=profiles, cases=tuple(cases))
    return dataset, predictions


# --- independent reference implementation of the metric battery ---

def _jss_plain(truth_counts: dict[int, int], pred_counts: dict[int, int],
               n_options: int) -> float:
    tn = sum(truth_counts.values())
    pn = sum(pred_counts.values())
    total = 0.0
    for j in range(n_options):
        p = Fraction(truth_counts.get(j, 0), tn)
        q = Fraction(pred_counts.get(j, 0), pn)
        m = (p + q) / 2
        if p > 0:
            total += 0.5 * float(p) * math.log2(float(p) / float(m))
        if q > 0:
            total += 0.5 * float(q) * math.log2(float(q) / float(m))
    return min(1.0, max(0.0, 1.0 - total))


def brute_force_metrics(
    dataset: Dataset,
    predictions: Sequence[Prediction],
    case: SurveyCase,
    policy: str = "incorrect",
) -> dict:
    """Reference tallies for accuracy, JSS, and per-attribute weighted JSS.

    Straight-line loops and exact fractions; shares no code with the
    production metric path.
    """
    preds = [p for p in predictions if p.question_id == case.question_id]
    if policy == "exclude":
        scored = [p for p in preds if p.parsed is not None]
    else:
        scored = list(preds)
    if not scored:
        from .errors import AllUnparseable

        raise AllUnparseable("no prediction is scored")

    n_correct = 0
    for p in scored:
        if p.parsed is not None and p.parsed == case.answers[p.respondent_id]:
            n_correct += 1
    acc = n_correct / len(scored)

    truth_counts: dict[int, int] = {}
    pred_counts: dict[int, int] = {}
    for p in scored:
        t = case.answers[p.respondent_id]
        truth_counts[t] = truth_counts.get(t, 0) + 1
    for p in preds:
        if p.parsed is not None:
            pred_counts[p.parsed] = pred_counts.get(p.parsed, 0) + 1
    overall_jss = (_jss_plain(truth_counts, pred_counts, len(case.options))
                   if pred_counts else 0.0)

    profile_of = {pr.respondent_id: pr for pr in dataset.profiles}
    weighted: dict[str, float] = {}
    per_group_acc: dict[str, dict[str, Optional[float]]] = {}
    per_group_jss: dict[str, dict[str, Optional[float]]] = {}
    for attr in dataset.schema.attributes:
        total_w = 0
        acc_map: dict[str, Optional[float]] = {}
        jss_map: dict[str, Optional[float]] = {}
        pieces: list[tuple[int, float]] = []
        for cat in attr.categories:
            members = [p for p in preds
                       if profile_of[p.respondent_id].values[attr.name] == cat]
            g_scored = (
                [p for p in members if p.parsed is not None]
                if policy == "exclude" else members
            )
            if not g_scored:
                acc_map[cat] = None
                jss_map[cat] = None
                continue
            g_correct = sum(
                1 for p in g_scored
                if p.parsed is not None and p.parsed == case.answers[p.respondent_id]
            )
            tc: dict[int, int] = {}
            pc: dict[int, int] = {}
            for p in g_scored:
                t = case.answers[p.respondent_id]
                tc[t] = tc.get(t, 0) + 1
            for p in members:
                if p.parsed is not None:
                    pc[p.parsed] = pc.get(p.parsed, 0) + 1
            g_jss = _jss_plain(tc, pc, len(case.options)) if pc else 0.0
            acc_map[cat] = g_correct / len(g_scored)
            jss_map[cat] = g_jss if pc else 0.0
            pieces.append((len(g_scored), g_jss))
            total_w += len(g_scored)
        weighted[attr.name] = sum((n / total_w) * v for n, v in pieces)
        per_group_acc[attr.name] = acc_map
        per_group_jss[attr.name] = jss_map

    return {
        "accuracy": acc,
        "jss": overall_jss,
        "weighted_jss": weighted,
        "per_group_accuracy": per_group_acc,
        "per_group_jss": per_group_jss,
    }
