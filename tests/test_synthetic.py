import math

import numpy as np
import pytest

from surveyaudit.data import Attribute, AttributeSchema
from surveyaudit.errors import InvalidSpec
from surveyaudit.metrics import compute_report
from surveyaudit.regression import ModelSpec, build_design, fit_logit
from surveyaudit.synthetic import (
    CaseSpec,
    PopulationSpec,
    brute_force_metrics,
    generate,
)


def simple_spec(n=1000, seed=0, **kwargs):
    schema = AttributeSchema(
        attributes=(
            Attribute("gender", ("Man", "Woman"), "Man"),
            Attribute("age", ("Young", "Old"), "Young"),
        ),
        id_column="respondent_id",
        answer_columns=("q1",),
    )
    defaults = dict(
        schema=schema,
        marginals={"gender": [0.5, 0.5], "age": [0.6, 0.4]},
        n=n,
        cases=(CaseSpec("q1", ("A", "B"), (0.6, 0.4)),),
        correctness_intercept=math.log(0.8 / 0.2),
        correctness_beta={},
        seed=seed,
    )
    defaults.update(kwargs)
    return PopulationSpec(**defaults)


def test_generate_deterministic():
    ds1, preds1 = generate(simple_spec(seed=4))
    ds2, preds2 = generate(simple_spec(seed=4))
    assert ds1 == ds2
    assert preds1 == preds2


def test_generate_accuracy_near_planted():
    ds, preds = generate(simple_spec(n=10_000, seed=1))
    case = ds.cases[0]
    rep = compute_report(ds, preds, case)
    assert abs(rep.accuracy - 0.80) < 0.01


def test_group_sizes_binomial():
    ds, _ = generate(simple_spec(n=10_000, seed=2))
    men = sum(1 for p in ds.profiles if p.values["gender"] == "Man")
    sigma = math.sqrt(10_000 * 0.25)
    assert abs(men - 5000) <= 3 * sigma


def test_planted_beta_recovered():
    spec = simple_spec(
        n=20_000, seed=3,
        correctness_intercept=math.log(0.8 / 0.2),
        correctness_beta={"gender=Woman": -0.5},
    )
    ds, preds = generate(spec)
    design = build_design(ds, preds, ModelSpec(main_effects=("gender",)))
    fit = fit_logit(design)
    j = fit.columns.index("gender=Woman")
    assert abs(fit.beta[j] - (-0.5)) <= 3 * fit.se[j]


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        simple_spec(n=0).validate()
    with pytest.raises(InvalidSpec):
        simple_spec(marginals={"gender": [0.7, 0.5], "age": [0.6, 0.4]}).validate()
    with pytest.raises(InvalidSpec):
        simple_spec(correctness_beta={"gender=Alien": 1.0}).validate()
    with pytest.raises(InvalidSpec):
        simple_spec(cases=(CaseSpec("q1", ("A", "B"), (1.2, -0.2)),)).validate()
    for bad_row in ([0.5, -0.5], [0.0, 0.0]):
        with pytest.raises(InvalidSpec):
            simple_spec(cases=(CaseSpec(
                "q1", ("A", "B"), (0.5, 0.5), depends_on="gender",
                table={"Man": [0.5, 0.5], "Woman": bad_row}),)).validate()


def test_answer_table_dependency():
    spec = simple_spec(
        n=4000, seed=9,
        cases=(CaseSpec(
            "q1", ("A", "B"), (0.5, 0.5),
            depends_on="gender",
            table={"Man": [0.9, 0.1], "Woman": [0.1, 0.9]},
        ),),
    )
    ds, _ = generate(spec)
    case = ds.cases[0]
    men_a = [
        case.answers[p.respondent_id] == 0
        for p in ds.profiles if p.values["gender"] == "Man"
    ]
    assert abs(np.mean(men_a) - 0.9) < 0.03


def test_oracle_agrees_with_engine():
    for seed in range(20):
        spec = simple_spec(n=80, seed=seed,
                           correctness_beta={"gender=Woman": -0.7})
        ds, preds = generate(spec)
        case = ds.cases[0]
        engine = compute_report(ds, preds, case)
        oracle = brute_force_metrics(ds, preds, case)
        assert abs(engine.accuracy - oracle["accuracy"]) < 1e-10
        assert abs(engine.jss - oracle["jss"]) < 1e-10
        for attr in ds.schema.names:
            assert abs(
                engine.weighted_jss[attr] - oracle["weighted_jss"][attr]
            ) < 1e-10


def test_oracle_all_correct_identity():
    ds, preds = generate(simple_spec(n=50, seed=5,
                                     correctness_intercept=50.0))
    case = ds.cases[0]
    oracle = brute_force_metrics(ds, preds, case)
    assert oracle["accuracy"] == 1.0
    assert oracle["jss"] == 1.0


def test_oracle_unparseable_parity():
    spec = simple_spec(n=120, seed=8, unparseable_rate=0.3)
    ds, preds = generate(spec)
    case = ds.cases[0]
    engine = compute_report(ds, preds, case)
    oracle = brute_force_metrics(ds, preds, case)
    assert abs(engine.accuracy - oracle["accuracy"]) < 1e-10
    for attr in ds.schema.names:
        assert abs(
            engine.weighted_jss[attr] - oracle["weighted_jss"][attr]
        ) < 1e-10


def test_oracle_empty_category_parity():
    # a category no one occupies
    schema = AttributeSchema(
        attributes=(
            Attribute("gender", ("Man", "Woman", "Ghost"), "Man"),
        ),
        id_column="respondent_id",
        answer_columns=("q1",),
    )
    spec = PopulationSpec(
        schema=schema,
        marginals={"gender": [0.5, 0.5, 0.0]},
        n=60,
        cases=(CaseSpec("q1", ("A", "B"), (0.5, 0.5)),),
        seed=6,
    )
    ds, preds = generate(spec)
    case = ds.cases[0]
    engine = compute_report(ds, preds, case)
    oracle = brute_force_metrics(ds, preds, case)
    assert engine.per_group_accuracy["gender"]["Ghost"] is None
    assert oracle["per_group_accuracy"]["gender"]["Ghost"] is None
    assert abs(
        engine.weighted_jss["gender"] - oracle["weighted_jss"]["gender"]
    ) < 1e-10


# --- reference generator: one draw per row ---------------------------------
#
# The row loop `generate` used before it drew whole columns.  Both consume
# the same rng stream, so they must return equal datasets and predictions.

def _reference_generate(spec):
    from surveyaudit.data import Dataset, SocioProfile, SurveyCase
    from surveyaudit.gateway import Prediction

    spec.validate()
    rng = np.random.default_rng(spec.seed)
    schema = spec.schema
    n = spec.n
    values = {}
    for attr in schema.attributes:
        probs = np.asarray(spec.marginals[attr.name], dtype=float)
        idx = rng.choice(len(attr.categories), size=n, p=probs / probs.sum())
        values[attr.name] = [attr.categories[i] for i in idx]
    profiles = tuple(
        SocioProfile(f"r{i:05d}", {a.name: values[a.name][i]
                                   for a in schema.attributes})
        for i in range(n)
    )
    eta = np.full(n, spec.correctness_intercept, dtype=float)
    for key, beta in spec.correctness_beta.items():
        attr_name, _, cat = key.partition("=")
        eta += beta * np.array([1.0 if values[attr_name][i] == cat else 0.0
                                for i in range(n)])
    p_correct = 1.0 / (1.0 + np.exp(-eta))

    cases, predictions = [], []
    for cs in spec.cases:
        k = len(cs.options)
        answers = {}
        truth = np.empty(n, dtype=np.int64)
        for i in range(n):
            if cs.depends_on is not None:
                row = np.asarray(cs.table[values[cs.depends_on][i]], dtype=float)
            else:
                row = np.asarray(cs.base_probs, dtype=float)
            truth[i] = rng.choice(k, p=row / row.sum())
            answers[profiles[i].respondent_id] = int(truth[i])
        correct = rng.random(n) < p_correct
        unparseable = (rng.random(n) < spec.unparseable_rate
                       if spec.unparseable_rate > 0 else np.zeros(n, dtype=bool))
        for i in range(n):
            if unparseable[i]:
                parsed, raw = None, "no answer"
            elif correct[i]:
                parsed = int(truth[i])
                raw = cs.options[parsed]
            else:
                wrong = [j for j in range(k) if j != truth[i]]
                parsed = int(wrong[rng.integers(0, len(wrong))])
                raw = cs.options[parsed]
            predictions.append(Prediction(profiles[i].respondent_id,
                                          cs.question_id, "synthetic", raw,
                                          parsed))
        cases.append(SurveyCase(
            question_id=cs.question_id,
            question_text=f"Synthetic question {cs.question_id}",
            options=cs.options, country=cs.country,
            context_blurb=cs.context_blurb, answers=answers,
        ))
    return Dataset(schema, profiles, tuple(cases)), predictions


def _reference_spec(seed, n, unparseable_rate):
    schema = AttributeSchema(
        attributes=(
            Attribute("gender", ("Man", "Woman"), "Man"),
            Attribute("region", ("North", "South", "East"), "North"),
        ),
        id_column="respondent_id",
        answer_columns=("five", "pair"),
    )
    five = ("a", "b", "c", "d", "e")
    return PopulationSpec(
        schema=schema,
        marginals={"gender": [0.45, 0.55], "region": [0.2, 0.5, 0.3]},
        n=n,
        cases=(
            CaseSpec("five", five, (0.1, 0.2, 0.3, 0.2, 0.2),
                     depends_on="region",
                     table={"North": [0.5, 0.0, 0.2, 0.2, 0.1],
                            "South": [1, 2, 3, 2, 2],
                            "East": [0.0, 0.25, 0.25, 0.25, 0.25]}),
            CaseSpec("pair", ("A", "B"), (0.75, 0.25)),
        ),
        correctness_intercept=0.4,
        correctness_beta={"gender=Woman": -0.7, "region=East": 0.9},
        unparseable_rate=unparseable_rate,
        seed=seed,
    )


@pytest.mark.parametrize("n", [1, 200])
@pytest.mark.parametrize("unparseable_rate", [0.0, 0.25])
def test_generate_matches_row_loop(n, unparseable_rate):
    for seed in range(30):
        spec = _reference_spec(seed, n, unparseable_rate)
        dataset, predictions = generate(spec)
        expected_dataset, expected_predictions = _reference_generate(spec)
        assert dataset == expected_dataset
        assert predictions == expected_predictions


class _QuarterGenerator(np.random.Generator):
    """Uniforms rounded down to quarters, so draws land on cdf steps."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.floor(super().random(size) * 4) / 4


def test_generate_breaks_ties_like_choice(monkeypatch):
    # a uniform equal to a cdf step picks the option after the step, as
    # Generator.choice does; continuous draws almost never show a tie
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _QuarterGenerator(np.random.PCG64(seed)))
    for seed in range(30):
        spec = _reference_spec(seed, 200, 0.25)
        assert generate(spec) == _reference_generate(spec)
