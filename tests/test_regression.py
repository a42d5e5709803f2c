import math

import numpy as np
import pytest

from surveyaudit.data import Attribute, Dataset, SocioProfile
from surveyaudit.errors import (CollinearColumn, EmptyDesign, Separation,
                               UnknownRespondent)
from surveyaudit.gateway import Prediction
from surveyaudit.regression import (
    DesignMatrix,
    ModelSpec,
    build_design,
    fit_logit,
    stars_for,
    summarize,
    to_csv_rows,
)

from conftest import make_dataset, make_schema, predicted_probabilities


def saturated_design(n_ref=200, n_grp=200, acc_ref=0.5, acc_grp=0.75):
    rows_ref = int(n_ref * acc_ref)
    rows_grp = int(n_grp * acc_grp)
    y = np.concatenate([
        np.ones(rows_ref), np.zeros(n_ref - rows_ref),
        np.ones(rows_grp), np.zeros(n_grp - rows_grp),
    ])
    dummy = np.concatenate([np.zeros(n_ref), np.ones(n_grp)])
    X = np.column_stack([np.ones(n_ref + n_grp), dummy])
    return DesignMatrix(
        X=X, y=y, trials=np.ones(n_ref + n_grp),
        columns=("intercept", "gender=Woman"),
        blocks=((None, ("intercept",)),
                ("gender (ref = Man)", ("gender=Woman",))),
    )


def test_saturated_closed_form():
    fit = fit_logit(saturated_design())
    assert abs(fit.beta[fit.columns.index("intercept")]) < 1e-6
    assert abs(fit.beta[fit.columns.index("gender=Woman")] - math.log(3)) < 1e-6
    assert fit.converged


def test_null_design_closed_form():
    n = 1000
    y = np.concatenate([np.ones(700), np.zeros(300)])
    design = DesignMatrix(
        X=np.ones((n, 1)), y=y, trials=np.ones(n), columns=("question[q1]",),
        blocks=(("Question", ("question[q1]",)),),
    )
    fit = fit_logit(design)
    beta = fit.beta[fit.columns.index("question[q1]")]
    assert abs(beta - math.log(0.7 / 0.3)) < 1e-8


def test_single_class_outcome_rejected():
    design = saturated_design()
    design.y[:] = 1.0
    with pytest.raises(Separation):
        fit_logit(design)


def test_gradient_at_optimum():
    design = saturated_design(313, 217, 0.43, 0.81)
    fit = fit_logit(design)
    mu = predicted_probabilities(design, fit)
    grad = design.X.T @ (design.y - mu)
    assert np.abs(grad).max() < 1e-6


def test_se_matches_finite_difference_hessian():
    design = saturated_design(150, 90, 0.4, 0.7)
    fit = fit_logit(design)

    def loglik(beta):
        eta = design.X @ beta
        return float(design.y @ eta - np.logaddexp(0, eta).sum())

    p = len(fit.beta)
    h = 1e-5
    H = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            bpp = fit.beta.copy(); bpp[i] += h; bpp[j] += h
            bpm = fit.beta.copy(); bpm[i] += h; bpm[j] -= h
            bmp = fit.beta.copy(); bmp[i] -= h; bmp[j] += h
            bmm = fit.beta.copy(); bmm[i] -= h; bmm[j] -= h
            H[i, j] = (loglik(bpp) - loglik(bpm) - loglik(bmp) + loglik(bmm)) / (4 * h * h)
    se_fd = np.sqrt(np.diag(np.linalg.inv(-H)))
    assert np.allclose(se_fd, fit.se, rtol=1e-4)


def test_build_design_reference_dropped():
    ds = make_dataset(n=30)
    case = ds.cases[0]
    preds = [
        Prediction(p.respondent_id, case.question_id, "t", "", i % 2)
        for i, p in enumerate(ds.profiles)
    ]
    spec = ModelSpec(main_effects=("gender", "age"))
    design = build_design(ds, preds, spec)
    assert "gender=Woman" in design.columns
    assert "gender=Man" not in design.columns
    assert "age=Young Adult" not in design.columns
    assert "question[vote]" in design.columns
    assert "intercept" not in design.columns


def test_build_design_interaction_column():
    schema = make_schema(attrs=[
        ("gender", ("Man", "Woman"), "Man"),
        ("religion", ("Not Religious", "Religious", "Other"), "Not Religious"),
    ])
    ds = make_dataset(n=40, schema=schema)
    case = ds.cases[0]
    preds = [
        Prediction(p.respondent_id, case.question_id, "t", "", (i * 3) % 2)
        for i, p in enumerate(ds.profiles)
    ]
    spec = ModelSpec(
        main_effects=("gender", "religion"),
        interactions=(("gender", "religion"),),
    )
    design = build_design(ds, preds, spec)
    assert "gender=Woman x religion=Religious" in design.columns
    j = design.columns.index("gender=Woman x religion=Religious")
    a = design.columns.index("gender=Woman")
    b = design.columns.index("religion=Religious")
    assert np.array_equal(design.X[:, j], design.X[:, a] * design.X[:, b])


def test_build_design_question_dummies_replace_intercept():
    ds = make_dataset(n=24)
    # add two extra cases by cloning answers under new ids
    from surveyaudit.data import Dataset, SurveyCase

    extra = tuple(
        SurveyCase(
            question_id=f"q{k}",
            question_text="t",
            options=("A", "B"),
            answers=dict(ds.cases[0].answers),
        )
        for k in range(2)
    )
    schema = make_schema(questions=("vote", "q0", "q1"))
    ds = Dataset(schema=schema, profiles=ds.profiles,
                 cases=ds.cases + extra)
    preds = [
        Prediction(p.respondent_id, qid, "t", "", i % 2)
        for qid in ("vote", "q0", "q1")
        for i, p in enumerate(ds.profiles)
    ]
    design = build_design(ds, preds, ModelSpec(main_effects=("gender",)))
    qcols = [c for c in design.columns if c.startswith("question[")]
    assert len(qcols) == 3
    assert "intercept" not in design.columns


def test_build_design_empty():
    ds = make_dataset(n=5)
    with pytest.raises(EmptyDesign):
        build_design(ds, [], ModelSpec(main_effects=("gender",)))


def test_build_design_refuses_an_unplaced_prediction():
    ds = make_dataset(n=6)
    case = ds.cases[0]
    other = [Prediction("r001", "other", "t", "", 0)]
    with pytest.raises(UnknownRespondent, match="question 'other'"):
        build_design(ds, other, ModelSpec(main_effects=("gender",)))
    stranger = [Prediction("zz", case.question_id, "t", "", 0)]
    with pytest.raises(UnknownRespondent,
                       match="no true answer for 'zz' in case 'vote'"):
        build_design(ds, stranger, ModelSpec(main_effects=("gender",)))


def test_build_design_collinear_detected():
    schema = make_schema(attrs=[
        ("gender", ("Man", "Woman"), "Man"),
        ("twin", ("Man", "Woman"), "Man"),
    ])
    ds = make_dataset(n=20, schema=schema)
    # both attributes cycle identically -> duplicated dummy columns
    case = ds.cases[0]
    preds = [
        Prediction(p.respondent_id, case.question_id, "t", "", i % 2)
        for i, p in enumerate(ds.profiles)
    ]
    with pytest.raises(CollinearColumn) as caught:
        build_design(ds, preds, ModelSpec(main_effects=("gender", "twin")))
    assert caught.value.columns == ("gender=Woman", "twin=Woman")


def _dataset_with_cells(attrs, cells):
    """One respondent per (category, ...) cell of ``attrs``."""
    ds = make_dataset(n=len(cells), schema=make_schema(attrs=attrs))
    profiles = tuple(
        SocioProfile(p.respondent_id, dict(zip([a[0] for a in attrs], cell)))
        for p, cell in zip(ds.profiles, cells))
    return Dataset(schema=ds.schema, profiles=profiles, cases=ds.cases)


def _predictions(ds):
    case = ds.cases[0]
    return [Prediction(p.respondent_id, case.question_id, "t", "", i % 2)
            for i, p in enumerate(ds.profiles)]


def test_build_design_dependent_columns_detected():
    # no respondent has c's reference R, so c=X + c=Y equals question[vote]
    # although no two columns are equal
    ds = _dataset_with_cells(
        [("gender", ("Man", "Woman"), "Man"), ("c", ("R", "X", "Y"), "R")],
        [("Man", "X"), ("Woman", "X"), ("Man", "Y"), ("Woman", "Y")] * 5)
    with pytest.raises(CollinearColumn) as caught:
        build_design(ds, _predictions(ds),
                     ModelSpec(main_effects=("gender", "c")))
    assert caught.value.columns == ("c=Y",)


def test_design_with_more_columns_than_cells_is_unfittable():
    # 4 cells for 5 independent-looking columns: no column is zero or a
    # duplicate, and the logit is refused for its size
    ds = _dataset_with_cells(
        [("a", ("R", "X", "Y"), "R"), ("b", ("R", "X", "Y"), "R")],
        [("R", "R"), ("X", "X"), ("Y", "Y"), ("X", "Y")] * 3)
    design = build_design(ds, _predictions(ds),
                          ModelSpec(main_effects=("a", "b")))
    assert design.X.shape == (4, 5)
    with pytest.raises(EmptyDesign, match="4 rows for 5 columns"):
        fit_logit(design)


def test_reference_relabeling_preserves_fitted_probabilities():
    ds = make_dataset(n=60, answer_fn=lambda i, p: (i * 5) % 2)
    case = ds.cases[0]
    rng = np.random.default_rng(3)
    preds = [
        Prediction(p.respondent_id, case.question_id, "t", "",
                   case.answers[p.respondent_id] if rng.random() < 0.7
                   else 1 - case.answers[p.respondent_id])
        for p in ds.profiles
    ]
    spec = ModelSpec(main_effects=("gender",))
    design_a = build_design(ds, preds, spec)
    fit_a = fit_logit(design_a)

    from surveyaudit.data import Attribute, AttributeSchema, Dataset

    flipped = AttributeSchema(
        attributes=(
            Attribute("gender", ("Man", "Woman"), "Woman"),
            ds.schema.attributes[1],
        ),
        id_column=ds.schema.id_column,
        answer_columns=ds.schema.answer_columns,
    )
    ds_b = Dataset(schema=flipped, profiles=ds.profiles, cases=ds.cases)
    design_b = build_design(ds_b, preds, spec)
    fit_b = fit_logit(design_b)
    pa = predicted_probabilities(design_a, fit_a)
    pb = predicted_probabilities(design_b, fit_b)
    assert np.allclose(pa, pb, atol=1e-10)


def test_row_permutation_invariance():
    ds = make_dataset(n=50, answer_fn=lambda i, p: (i * 11) % 2)
    case = ds.cases[0]
    preds = [
        Prediction(p.respondent_id, case.question_id, "t", "", (i % 3) % 2)
        for i, p in enumerate(ds.profiles)
    ]
    spec = ModelSpec(main_effects=("gender", "age"))
    fit1 = fit_logit(build_design(ds, preds, spec))
    fit2 = fit_logit(build_design(ds, list(reversed(preds)), spec))
    assert np.allclose(fit1.beta, fit2.beta, atol=1e-10)
    assert np.allclose(fit1.se, fit2.se, atol=1e-10)


def test_stars_thresholds():
    assert stars_for(0.0003) == "***"
    assert stars_for(0.017) == "**"
    assert stars_for(0.07) == "*"
    assert stars_for(0.5) == ""


def test_summary_formatting():
    design = saturated_design()
    fit = fit_logit(design)
    table = summarize(fit, design)
    j = fit.columns.index("gender=Woman")
    p = fit.p_values[j]
    assert f"{fit.beta[j]:.2f} ({p:.3f}){stars_for(p)}" in table
    assert "(ref = Man)" in table


def test_summary_lists_a_label_holding_x_under_its_attribute():
    # " x " also joins the two halves of an interaction column's name
    schema = make_schema(attrs=[
        ("household", ("Single", "Couple x kids"), "Single")])
    ds = make_dataset(n=60, schema=schema)
    case = ds.cases[0]
    preds = [Prediction(p.respondent_id, case.question_id, "t", "",
                        (i % 3) % 2) for i, p in enumerate(ds.profiles)]
    design = build_design(ds, preds, ModelSpec(main_effects=("household",)))
    table = summarize(fit_logit(design), design).splitlines()
    assert "| **Interaction terms** | | |" not in table
    heading = table.index("| **household (ref = Single)** | | |")
    assert table[heading + 1].startswith("| household=Couple x kids | ")


def test_csv_rows_complete():
    fit = fit_logit(saturated_design())
    rows = to_csv_rows(fit)
    assert {r["term"] for r in rows} == {"intercept", "gender=Woman"}
    for r in rows:
        assert set(r) == {"term", "estimate", "se", "z", "p", "stars"}


def _bernoulli_design(dataset, predictions, spec, policy):
    """The design on one Bernoulli row per scored prediction, written
    independently of ``build_design``: the oracle for its binomial rows."""
    scored = [p for p in predictions
              if policy == "incorrect" or p.parsed is not None]
    y = np.array([p.parsed == dataset.case(p.question_id)
                  .answers[p.respondent_id] for p in scored], dtype=float)
    qids = np.array([p.question_id for p in scored])
    codes = dataset.coded.of(p.respondent_id for p in scored)
    columns = {}
    if spec.question_fixed_effects:
        for case in dataset.cases:
            if (qids == case.question_id).any():
                columns[f"question[{case.question_id}]"] = (
                    qids == case.question_id).astype(float)
        blocks = [("Question", tuple(columns))]
    else:
        columns["intercept"] = np.ones(len(scored))
        blocks = [(None, ("intercept",))]
    dummies = {}
    for name in spec.main_effects:
        attr = dataset.schema.attribute(name)
        j = dataset.schema.names.index(name)
        dummies[name] = [(cat, (codes[:, j] == k).astype(float))
                         for k, cat in enumerate(attr.categories)
                         if cat != attr.reference]
        columns.update((f"{name}={cat}", col) for cat, col in dummies[name])
        blocks.append((f"{name} (ref = {attr.reference})",
                       tuple(f"{name}={cat}" for cat, _ in dummies[name])))
    interactions = {}
    for a, b in spec.interactions:
        for ca, col_a in dummies[a]:
            for cb, col_b in dummies[b]:
                interactions[f"{a}={ca} x {b}={cb}"] = col_a * col_b
    if interactions:
        columns.update(interactions)
        blocks.append(("Interaction terms", tuple(interactions)))
    return DesignMatrix(
        X=np.column_stack(list(columns.values())), y=y,
        trials=np.ones(len(scored)), columns=tuple(columns),
        blocks=tuple(blocks),
    )


def _three_attribute_population(seed):
    from surveyaudit.synthetic import CaseSpec, PopulationSpec, generate

    schema = make_schema(
        attrs=[("gender", ("Man", "Woman"), "Man"),
               ("age", ("Young", "Adult", "Senior"), "Adult"),
               ("religion", ("None", "Christian", "Other"), "None")],
        questions=("vote", "trust"))
    return generate(PopulationSpec(
        schema=schema,
        marginals={"gender": [0.5, 0.5], "age": [0.3, 0.4, 0.3],
                   "religion": [0.4, 0.4, 0.2]},
        n=400,
        cases=(CaseSpec("vote", ("A", "B"), (0.6, 0.4)),
               CaseSpec("trust", ("Low", "Mid", "High"), (0.3, 0.4, 0.3))),
        correctness_intercept=0.6,
        correctness_beta={"gender=Woman": -0.4, "age=Senior": 0.5},
        unparseable_rate=0.15,
        seed=seed,
    ))


@pytest.mark.parametrize("policy", ["incorrect", "exclude"])
@pytest.mark.parametrize("spec", [
    ModelSpec(main_effects=("gender", "age", "religion")),
    ModelSpec(main_effects=("gender", "age"),
              interactions=(("gender", "age"),)),
    ModelSpec(main_effects=("religion", "gender"),
              question_fixed_effects=False),
], ids=["mains", "interaction", "no_question_effects"])
def test_binomial_rows_fit_like_bernoulli_rows(policy, spec):
    for seed in (1, 2):
        ds, preds = _three_attribute_population(seed)
        binomial = build_design(ds, preds, spec, policy=policy)
        bernoulli = _bernoulli_design(ds, preds, spec, policy)
        assert binomial.columns == bernoulli.columns
        assert binomial.blocks == bernoulli.blocks
        assert binomial.trials.sum() == len(bernoulli.y)
        assert binomial.y.sum() == bernoulli.y.sum()
        assert len(binomial.y) < len(bernoulli.y)
        fit, oracle = fit_logit(binomial), fit_logit(bernoulli)
        assert np.allclose(fit.beta, oracle.beta, rtol=1e-9, atol=0)
        assert np.allclose(fit.se, oracle.se, rtol=1e-9, atol=0)
        assert math.isclose(fit.log_likelihood, oracle.log_likelihood,
                            rel_tol=1e-9)


def test_binomial_single_class_rejected():
    X = np.column_stack([np.ones(3), [0.0, 1.0, 1.0]])
    for y in ([0.0, 0.0, 0.0], [2.0, 5.0, 1.0]):
        design = DesignMatrix(X=X, y=np.array(y),
                              trials=np.array([2.0, 5.0, 1.0]),
                              columns=("intercept", "g=1"),
                              blocks=((None, ("intercept",)),
                                      ("g (ref = 0)", ("g=1",))))
        with pytest.raises(Separation):
            fit_logit(design)
    # one success out of 2 trials at g=0, five of six at g=1
    design.y[:] = [1.0, 4.0, 1.0]
    fit = fit_logit(design)
    assert abs(fit.beta[fit.columns.index("intercept")]) < 1e-9
    assert abs(fit.beta[fit.columns.index("g=1")] - math.log(5)) < 1e-9
