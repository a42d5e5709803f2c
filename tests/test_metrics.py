import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyaudit.errors import (
    EmptyPredictions,
    LengthMismatch,
    NonpositiveValue,
    UnknownRespondent,
)
from surveyaudit.gateway import Prediction
from surveyaudit.metrics import (
    ceiling_ratio,
    compute_report,
    harmonic_mean,
    jss,
    overall_accuracy_equality,
    round_half_away,
)

from conftest import make_dataset


def preds_for(ds, parsed_fn):
    case = ds.cases[0]
    return [
        Prediction(
            respondent_id=p.respondent_id,
            question_id=case.question_id,
            backend="t",
            raw_text="",
            parsed=parsed_fn(i, p),
        )
        for i, p in enumerate(ds.profiles)
    ]


# --- accuracy ---

def test_accuracy_direct_count():
    ds = make_dataset(n=10)
    case = ds.cases[0]
    # truth alternates 0,1; get 8 right, 2 wrong
    preds = preds_for(ds, lambda i, p: case.answers[p.respondent_id]
                      if i < 8 else 1 - case.answers[p.respondent_id])
    assert compute_report(ds, preds, case).accuracy == 0.8


def test_accuracy_all_correct():
    ds = make_dataset(n=10)
    case = ds.cases[0]
    preds = preds_for(ds, lambda i, p: case.answers[p.respondent_id])
    assert compute_report(ds, preds, case).accuracy == 1.0


def test_accuracy_unparseable_policy():
    ds = make_dataset(n=10)
    case = ds.cases[0]
    preds = preds_for(ds, lambda i, p: None if i < 5
                      else case.answers[p.respondent_id])
    assert compute_report(ds, preds, case, policy="incorrect").accuracy == 0.5
    assert compute_report(ds, preds, case, policy="exclude").accuracy == 1.0


def test_accuracy_empty_and_unknown():
    ds = make_dataset(n=4)
    case = ds.cases[0]
    with pytest.raises(EmptyPredictions):
        compute_report(ds, [], case)
    stranger = Prediction("zz", case.question_id, "t", "", 0)
    with pytest.raises(UnknownRespondent):
        compute_report(ds, [stranger], case)


def test_accuracy_order_invariant():
    ds = make_dataset(n=9)
    case = ds.cases[0]
    preds = preds_for(ds, lambda i, p: i % 2)
    assert (compute_report(ds, preds, case).accuracy
            == compute_report(ds, list(reversed(preds)), case).accuracy)


# --- JSS ---

def test_jss_identity():
    for p in ([1, 0], [0.5, 0.5], [0.2, 0.3, 0.5]):
        assert jss(np.array(p), np.array(p)) == 1.0


def test_jss_disjoint():
    assert jss(np.array([1, 0]), np.array([0, 1])) == 0.0


def test_jss_hand_computed():
    # M=[0.75,0.25]; D(P||M)=log2(4/3); D(Q||M)=0.5*log2(2/3)+0.5
    expected = 1 - 0.5 * (math.log2(4 / 3) + 0.5 * math.log2(2 / 3) + 0.5)
    assert abs(jss(np.array([1, 0]), np.array([0.5, 0.5])) - expected) < 1e-12
    assert abs(expected - 0.68872) < 1e-5


def test_jss_length_mismatch():
    with pytest.raises(LengthMismatch):
        jss(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


@st.composite
def distribution(draw, n=4):
    weights = draw(
        st.lists(st.floats(0.001, 1.0), min_size=n, max_size=n)
    )
    total = sum(weights)
    return np.array([w / total for w in weights])


@given(distribution(), distribution())
@settings(max_examples=300)
def test_jss_symmetric_and_bounded(p, q):
    a = jss(p, q)
    b = jss(q, p)
    assert abs(a - b) < 1e-12
    assert 0.0 <= a <= 1.0


# --- weighted group JSS ---

def test_weighted_single_group_equals_plain():
    ds = make_dataset(n=12)
    case = ds.cases[0]
    preds = preds_for(ds, lambda i, p: i % 2)
    rep = compute_report(ds, preds, case)
    # gender has two groups here; build a schema-level single-group check
    # via an attribute where all members share one category
    w = rep.weighted_jss["gender"]
    assert 0.0 <= w <= 1.0


def test_weighted_forced_arithmetic():
    # two groups with proportions 0.75/0.25 and jss 1.0/0.0
    ds = make_dataset(n=8, options=("A", "B"))
    case = ds.cases[0]
    # men (even indices) predicted perfectly; women all unparseable -> jss 0
    preds = preds_for(
        ds,
        lambda i, p: case.answers[p.respondent_id]
        if p.values["gender"] == "Man" else None,
    )
    # weights: men 4/8, women 4/8 -> expected 0.5*1 + 0.5*0
    w = compute_report(ds, preds, case).weighted_jss["gender"]
    assert abs(w - 0.5) < 1e-12


def test_weighted_matches_brute_force():
    from surveyaudit.synthetic import brute_force_metrics

    ds = make_dataset(n=30, options=("A", "B", "C"))
    case = ds.cases[0]
    preds = preds_for(ds, lambda i, p: (i * 7) % 3)
    oracle = brute_force_metrics(ds, preds, case)
    rep = compute_report(ds, preds, case)
    for attr in ds.schema.names:
        mine = rep.weighted_jss[attr]
        assert abs(mine - oracle["weighted_jss"][attr]) < 1e-12


def test_report_refuses_a_prediction_of_another_question():
    # it would otherwise be scored against the case's answers
    ds = make_dataset(n=6)
    case = ds.cases[0]
    preds = preds_for(ds, lambda i, p: 0)
    preds[2] = Prediction(preds[2].respondent_id, "other", "t", "", 0)
    with pytest.raises(UnknownRespondent, match="question 'other' is not "
                       "among the scored cases \\['vote'\\]"):
        compute_report(ds, preds, case)


# --- ceiling ratio ---

def test_relative_ratio_published_cells():
    assert round_half_away(ceiling_ratio(0.85, 0.92)) == 0.92
    assert round_half_away(ceiling_ratio(0.93, 0.89)) == 1.04


def test_relative_ratio_identity():
    assert ceiling_ratio(0.7, 0.7) == 1.0


def test_relative_ratio_zero_baseline():
    assert ceiling_ratio(0.5, 0.0) is None


@given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_relative_ratio_inverts(m, b):
    assert abs(ceiling_ratio(m, b) * b - m) < 1e-12


# --- accuracy equality ---

def test_equality_satisfied():
    v = overall_accuracy_equality({"A": 0.8, "B": 0.8}, 0.05)
    assert v.satisfied and v.max_gap == 0.0


def test_equality_published_gap():
    v = overall_accuracy_equality({"Men": 0.74, "Women": 0.64}, 0.05)
    assert not v.satisfied
    assert abs(v.max_gap - 0.10) < 1e-12


def test_equality_single_group_vacuous():
    v = overall_accuracy_equality({"A": 0.3}, 0.01)
    assert v.satisfied and v.max_gap == 0.0


def test_equality_intersection_keys():
    v = overall_accuracy_equality(
        {("Man", "Young Adult"): 0.74, ("Woman", "Young Adult"): 0.64}, 0.05
    )
    assert not v.satisfied


accuracies = st.one_of(st.none(), st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                       st.floats(0.0, 1.0))


@given(st.dictionaries(st.text(max_size=3), accuracies, max_size=8),
       st.floats(0.0, 1.0))
def test_equality_max_gap_is_largest_pairwise_gap(per_group, tolerance):
    usable = [a for a in per_group.values() if a is not None]
    brute = max((abs(a - b) for a in usable for b in usable), default=0.0)
    v = overall_accuracy_equality(per_group, tolerance)
    assert v.max_gap == brute
    assert v.satisfied == (brute <= tolerance)


# --- harmonic mean ---

def test_harmonic_mean_identity():
    assert harmonic_mean([1.0, 1.0, 1.0]) == 1.0


def test_harmonic_mean_hand():
    assert abs(harmonic_mean([0.5, 1.0]) - 2 / 3) < 1e-12


def test_harmonic_mean_guard():
    # a zero is the limit of the mean as the value falls to 0
    assert harmonic_mean([0.5, 0.0]) == 0.0
    with pytest.raises(NonpositiveValue):
        harmonic_mean([0.5, -1.0])


@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=10))
def test_harmonic_le_arithmetic(values):
    hm = harmonic_mean(values)
    am = sum(values) / len(values)
    assert hm <= am + 1e-12


# --- rounding ---

def test_round_half_away():
    assert round_half_away(0.945, 2) == 0.95
    assert round_half_away(-0.945, 2) == -0.95
    assert round_half_away(0.944999, 2) == 0.94
