"""Release acceptance suite.

One test per release criterion, each with an explicit runtime budget and a
PASS line in its output.  Every check here runs fully offline: an autouse
fixture disables outbound sockets for the whole module, so a green run
doubles as proof that the toolkit needs no network access.
"""

import json
import math
import socket
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from mpmath import mp, mpf

from surveyaudit.cli import main as cli_main
from surveyaudit.data import Attribute, AttributeSchema, save_dataset
from surveyaudit.errors import AllUnparseable
from surveyaudit.forest import ForestParams, baseline_metrics, fit_in_sample, predict
from surveyaudit.gateway import Prediction
from surveyaudit.metrics import (
    ceiling_ratio,
    compute_report,
    jss,
    overall_accuracy_equality,
    round_half_away,
)
from surveyaudit.prompts import AblationMask, PromptVariant, render
from surveyaudit.regression import ModelSpec, build_design, fit_logit
from surveyaudit.synthetic import (
    CaseSpec,
    PopulationSpec,
    brute_force_metrics,
    generate,
)

from conftest import make_dataset, partition_by, predicted_probabilities


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("network access attempted during acceptance run")

    monkeypatch.setattr(socket.socket, "connect", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    yield


def _passed(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


# --- criterion 1: distribution similarity correctness ---

def _jss_oracle(p, q) -> float:
    """Independent high-precision reference, 40 significant digits."""
    mp.dps = 40
    pm = [mpf(x) for x in p]
    qm = [mpf(x) for x in q]
    m = [(a + b) / 2 for a, b in zip(pm, qm)]

    def kl(a, b):
        total = mpf(0)
        for ai, bi in zip(a, b):
            if ai > 0:
                total += ai * mp.log(ai / bi) / mp.log(2)
        return total

    return float(1 - (kl(pm, m) + kl(qm, m)) / 2)


def test_distribution_similarity_against_high_precision_oracle():
    started = time.perf_counter()
    for p in ([1.0, 0.0], [0.5, 0.5], [0.2, 0.3, 0.5]):
        assert jss(np.array(p), np.array(p)) == 1.0
    assert jss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    hand = jss(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert abs(hand - 0.68872) < 1e-5
    assert abs(hand - _jss_oracle([1.0, 0.0], [0.5, 0.5])) < 1e-12

    rng = np.random.default_rng(17)
    for i in range(10_000):
        k = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        a = jss(p, q)
        b = jss(q, p)
        assert abs(a - b) < 1e-12
        assert 0.0 <= a <= 1.0
        if i % 50 == 0:
            assert abs(a - _jss_oracle(p, q)) < 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"similarity checks took {elapsed:.1f}s"
    _passed("distribution similarity")


# --- criterion 2: published ratio arithmetic ---

# (model value, ceiling value, printed ratio) for every accuracy and
# similarity cell of the two model rows in the published benchmark table
PUBLISHED_RATIOS = [
    (0.85, 0.92, 0.92), (0.84, 0.89, 0.94),
    (0.62, 0.90, 0.69), (0.86, 0.87, 0.99),
    (0.61, 0.70, 0.87), (0.69, 0.73, 0.95),
    (0.52, 0.97, 0.54), (0.76, 0.99, 0.77),
    (0.67, 0.92, 0.73), (0.89, 0.92, 0.97),
    (0.88, 0.92, 0.96), (0.93, 0.89, 1.04),
    (0.69, 0.90, 0.77), (0.87, 0.87, 1.00),
    (0.61, 0.70, 0.87), (0.89, 0.73, 1.22),
    (0.52, 0.97, 0.54), (0.84, 0.99, 0.85),
    (0.65, 0.92, 0.71), (0.90, 0.92, 0.98),
]


def test_relative_ratio_reproduces_published_cells():
    started = time.perf_counter()
    for value, ceiling, printed in PUBLISHED_RATIOS:
        got = round_half_away(ceiling_ratio(value, ceiling))
        assert got == printed, (value, ceiling, got, printed)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed("ratio arithmetic fixture")


# --- criterion 3: logistic regression oracle ---

def _planted_population(seed: int):
    schema = AttributeSchema(
        attributes=(Attribute("gender", ("Man", "Woman"), "Man"),),
        id_column="respondent_id",
        answer_columns=("q1",),
    )
    spec = PopulationSpec(
        schema=schema,
        marginals={"gender": [0.5, 0.5]},
        n=20_000,
        cases=(CaseSpec("q1", ("A", "B"), (0.6, 0.4)),),
        correctness_intercept=math.log(0.8 / 0.2),
        correctness_beta={"gender=Woman": -0.5},
        seed=seed,
    )
    return generate(spec)


def _finite_difference_se(design, fit):
    # the binomial log-likelihood: s * eta - m * log(1 + e^eta) per row
    def loglik(beta):
        eta = design.X @ beta
        return float(design.y @ eta
                     - (design.trials * np.logaddexp(0, eta)).sum())

    p = len(fit.beta)
    h = 1e-5
    H = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            bpp = fit.beta.copy(); bpp[i] += h; bpp[j] += h
            bpm = fit.beta.copy(); bpm[i] += h; bpm[j] -= h
            bmp = fit.beta.copy(); bmp[i] -= h; bmp[j] += h
            bmm = fit.beta.copy(); bmm[i] -= h; bmm[j] -= h
            H[i, j] = (
                loglik(bpp) - loglik(bpm) - loglik(bmp) + loglik(bmm)
            ) / (4 * h * h)
    return np.sqrt(np.diag(np.linalg.inv(-H)))


def test_logit_oracle():
    started = time.perf_counter()

    # saturated two-group fixture: accuracy 0.5 in the reference group,
    # 0.75 in the other, so the group coefficient is exactly ln 3
    n = 400
    y = np.concatenate([
        np.ones(100), np.zeros(100), np.ones(150), np.zeros(50),
    ])
    X = np.column_stack([
        np.ones(n), np.concatenate([np.zeros(200), np.ones(200)]),
    ])
    from surveyaudit.regression import DesignMatrix

    design = DesignMatrix(
        X=X, y=y, trials=np.ones(n), columns=("intercept", "gender=Woman"),
        blocks=((None, ("intercept",)),
                ("gender (ref = Man)", ("gender=Woman",))),
    )
    fit = fit_logit(design)
    assert abs(fit.beta[fit.columns.index("intercept")]) < 1e-6
    assert abs(fit.beta[fit.columns.index("gender=Woman")] - math.log(3)) < 1e-6

    planted = {
        "question[q1]": math.log(0.8 / 0.2),
        "gender=Woman": -0.5,
    }
    spec = ModelSpec(main_effects=("gender",))
    hits = 0
    for run in range(50):
        ds, preds = _planted_population(seed=1000 + run)
        design = build_design(ds, preds, spec)
        fit = fit_logit(design)
        at = [fit.columns.index(col) for col in planted]
        ok = all(
            abs(fit.beta[j] - truth) <= 3 * fit.se[j]
            for j, truth in zip(at, planted.values())
        )
        hits += ok
        # the weighted score equations X'(s - m * mu) = 0
        mu = predicted_probabilities(design, fit)
        grad = design.X.T @ (design.y - design.trials * mu)
        assert np.abs(grad).max() < 1e-6
        if run < 2:
            se_fd = _finite_difference_se(design, fit)
            assert np.allclose(se_fd, fit.se, rtol=1e-4)
    assert hits >= 48, f"planted coefficients recovered in only {hits}/50 runs"

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"logit oracle took {elapsed:.1f}s"
    _passed("logit oracle")


# --- criterion 4: in-sample forest ceiling ---

def test_forest_ceiling():
    started = time.perf_counter()
    params = ForestParams(n_trees=60)

    noiseless = make_dataset(
        n=150, options=("A", "B"),
        answer_fn=lambda i, p: 0 if p.values["gender"] == "Man" else 1,
    )
    case = noiseless.cases[0]
    model = fit_in_sample(noiseless, case, params, seed=0)
    assert all(
        y == case.answers[p.respondent_id]
        for p, y in zip(noiseless.profiles, predict(model, noiseless.coded.codes))
    )

    params = ForestParams(n_trees=150)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        flip = rng.random(120) < 0.25
        ds = make_dataset(
            n=120, options=("A", "B"),
            answer_fn=lambda i, p: (
                (0 if p.values["gender"] == "Man" else 1) ^ int(flip[i])
            ),
        )
        case = ds.cases[0]
        report, _ = baseline_metrics(ds, case, params, seed=seed)

        # constant-answer mocks and the majority mock never beat the ceiling
        truth = case.answers
        counts = np.bincount(list(truth.values()), minlength=2)
        for mocked in (0, 1, int(counts.argmax())):
            preds = [
                Prediction(p.respondent_id, case.question_id, "mock", "", mocked)
                for p in ds.profiles
            ]
            assert (report.accuracy
                    >= compute_report(ds, preds, case).accuracy - 1e-12)

        for attr in ds.schema.names:
            for cat, ids in partition_by(ds, attr):
                if not ids:
                    continue
                answers = [truth[r] for r in ids]
                share = max(answers.count(0), answers.count(1)) / len(answers)
                assert report.per_group_accuracy[attr][cat] >= share - 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"forest ceiling took {elapsed:.1f}s"
    _passed("forest ceiling")


# --- criterion 5: metric engine vs brute-force oracle ---

def _random_population(rng):
    n_cats = int(rng.integers(2, 4))
    zero_cat = rng.random() < 0.2
    weights = rng.dirichlet(np.ones(n_cats - 1 if zero_cat else n_cats))
    marginals = list(weights)
    cats = [f"g{j}" for j in range(n_cats)]
    if zero_cat:
        marginals.append(0.0)
    schema = AttributeSchema(
        attributes=(
            Attribute("gender", tuple(cats), cats[0]),
            Attribute("age", ("Young", "Old"), "Young"),
        ),
        id_column="respondent_id",
        answer_columns=("q1",),
    )
    n_opts = int(rng.integers(2, 4))
    spec = PopulationSpec(
        schema=schema,
        marginals={
            "gender": marginals,
            "age": [0.5, 0.5],
        },
        n=int(rng.integers(15, 50)),
        cases=(CaseSpec(
            "q1",
            tuple(f"opt{j}" for j in range(n_opts)),
            tuple(rng.dirichlet(np.ones(n_opts))),
        ),),
        correctness_intercept=float(rng.normal(1.0, 0.5)),
        correctness_beta={"age=Old": float(rng.normal(0, 0.5))},
        unparseable_rate=float(rng.choice([0.0, 0.25])),
        seed=int(rng.integers(0, 2**31)),
    )
    return generate(spec)


def test_metric_engine_matches_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    for i in range(1000):
        ds, preds = _random_population(rng)
        case = ds.cases[0]

        blank = i % 100 == 50
        if blank:
            # whole-case all-unparseable edge: under 'exclude' nothing is
            # scored and both paths refuse; under 'incorrect' both score it
            preds = [
                Prediction(p.respondent_id, p.question_id, p.backend, "", None)
                for p in preds
            ]
            with pytest.raises(AllUnparseable):
                compute_report(ds, preds, case, policy="exclude")
            with pytest.raises(AllUnparseable):
                brute_force_metrics(ds, preds, case, policy="exclude")
        elif i % 25 == 0:
            # one whole category unparseable
            drop = {
                p.respondent_id for p in ds.profiles
                if p.values["age"] == "Old"
            }
            preds = [
                Prediction(p.respondent_id, p.question_id, p.backend, "",
                           None if p.respondent_id in drop else p.parsed)
                for p in preds
            ]

        engine = compute_report(ds, preds, case)
        oracle = brute_force_metrics(ds, preds, case)
        if blank:
            assert engine.accuracy == oracle["accuracy"] == 0.0
            assert engine.jss == oracle["jss"] == 0.0
            assert engine.per_group_jss == oracle["per_group_jss"]
        assert abs(engine.accuracy - oracle["accuracy"]) < 1e-10
        assert abs(engine.jss - oracle["jss"]) < 1e-10
        for attr in ds.schema.names:
            assert abs(
                engine.weighted_jss[attr] - oracle["weighted_jss"][attr]
            ) < 1e-10
            for cat, val in oracle["per_group_accuracy"][attr].items():
                mine = engine.per_group_accuracy[attr][cat]
                if val is None:
                    assert mine is None
                else:
                    assert abs(mine - val) < 1e-10

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    _passed("oracle equivalence")


# --- criterion 6: accuracy equality fixture ---

def test_accuracy_equality_fixture():
    verdict = overall_accuracy_equality({"Men": 0.74, "Women": 0.64}, 0.05)
    assert abs(verdict.max_gap - 0.10) < 1e-12
    assert not verdict.satisfied
    _passed("accuracy equality fixture")


# --- criterion 7: end-to-end determinism and ablation shape ---

def _experiment_population(seed=11):
    schema = AttributeSchema(
        attributes=(
            Attribute("gender", ("Man", "Woman"), "Man"),
            Attribute("age", ("Young", "Adult", "Senior"), "Young"),
            Attribute("ideology", ("Left", "Center", "Right"), "Center"),
        ),
        id_column="respondent_id",
        answer_columns=("vote",),
    )
    return PopulationSpec(
        schema=schema,
        marginals={
            "gender": [0.5, 0.5],
            "age": [0.4, 0.4, 0.2],
            "ideology": [0.3, 0.4, 0.3],
        },
        n=200,
        cases=(CaseSpec("vote", ("OptA", "OptB"), (0.6, 0.4),
                        depends_on="gender",
                        table={"Man": [0.8, 0.2], "Woman": [0.3, 0.7]}),),
        correctness_intercept=1.2,
        correctness_beta={"gender=Woman": -0.4},
        seed=seed,
    )


def _write_experiment(tmp_path: Path, parallelism: int = 1) -> Path:
    dataset, _ = generate(_experiment_population())
    save_dataset(dataset, tmp_path / "data.csv", tmp_path / "schema.yaml")
    cfg = tmp_path / f"config_p{parallelism}.yaml"
    cfg.write_text(textwrap.dedent(f"""\
        dataset:
          csv: data.csv
          schema: schema.yaml
        backends:
          - {{name: mock, kind: mock, strategy: majority,
             parallelism: {parallelism}}}
        variant: zeroshot
        political: [ideology]
        forest: {{n_trees: 20, seed: 7}}
        seed: 13
    """))
    return cfg


def _bundle_bytes(out_dir: Path) -> dict:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def test_end_to_end_determinism_and_ablation_shape(tmp_path):
    started = time.perf_counter()
    runner = CliRunner()
    cfg = _write_experiment(tmp_path)

    for tag in ("a", "b"):
        result = runner.invoke(cli_main, [
            "run", "--config", str(cfg), "--offline",
            "--out", str(tmp_path / tag),
        ])
        assert result.exit_code == 0, result.output
    assert _bundle_bytes(tmp_path / "a") == _bundle_bytes(tmp_path / "b")

    # serial vs parallel execution: identical numbers everywhere; the
    # manifests differ only through the hash of the edited config file
    cfg_par = _write_experiment(tmp_path, parallelism=4)
    result = runner.invoke(cli_main, [
        "run", "--config", str(cfg_par), "--offline",
        "--out", str(tmp_path / "par"),
    ])
    assert result.exit_code == 0, result.output
    serial = _bundle_bytes(tmp_path / "a")
    parallel = _bundle_bytes(tmp_path / "par")
    assert set(serial) == set(parallel)
    for name in serial:
        if name == "manifest.json":
            continue
        assert serial[name] == parallel[name], name
    man_s = json.loads(serial["manifest.json"])
    man_p = json.loads(parallel["manifest.json"])
    man_s.pop("config_hash"), man_p.pop("config_hash")
    assert man_s == man_p

    result = runner.invoke(cli_main, [
        "ablation", "--config", str(cfg), "--offline",
        "--out", str(tmp_path / "abl"),
    ])
    assert result.exit_code == 0, result.output
    table = json.loads((tmp_path / "abl" / "ablation_mock.json").read_text())
    d = 3  # attributes in the schema above
    assert len(table) == 3 + d

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"end-to-end took {elapsed:.1f}s"
    _passed("end-to-end determinism")


# --- criterion 8: prompt structure and answer leakage ---

def test_prompt_structure_and_no_leakage():
    started = time.perf_counter()
    sentinel = "Zq7xqueue option"
    ds = make_dataset(
        n=80, options=("Blue", sentinel),
        answer_fn=lambda i, p: 1,  # every target's true answer is the sentinel
        context="A brief background paragraph.",
    )
    case = ds.cases[0]
    masks = [
        AblationMask.all(),
        AblationMask.without("gender"),
        AblationMask.without_political({"gender"}),
        AblationMask.only_political({"gender"}),
    ]
    # examples always answer the non-sentinel option, so any sentinel
    # occurrence beyond the single options line would be leakage
    rendered = 0
    for variant in PromptVariant:
        for mask in masks:
            for profile in ds.profiles:
                if variant is PromptVariant.ZERO_SHOT:
                    fewshot = []
                else:
                    others = [p for p in ds.profiles
                              if p.respondent_id != profile.respondent_id][:3]
                    fewshot = [(p, 0) for p in others]
                prompt = render(profile, case, variant, mask, fewshot)
                text = prompt.text
                rendered += 1

                if variant is PromptVariant.ZERO_SHOT:
                    assert "Answer:" not in text
                    assert "they gave" not in text
                if variant is PromptVariant.SPANISH:
                    assert "Pregunta:" in text
                    assert "Respuesta:" in text
                    assert "Question:" not in text
                if mask == AblationMask.without("gender"):
                    assert "- gender:" not in text

                assert text.count(sentinel) == 1  # the options list only
                assert f"Answer: {sentinel}" not in text
                assert f"Respuesta: {sentinel}" not in text

    assert rendered >= 1000
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"prompt scan took {elapsed:.1f}s"
    _passed("prompt structure and leakage scan")


# --- criterion 9: everything above runs without network access ---

def test_offline_execution(tmp_path):
    # sockets are disabled module-wide by the autouse fixture; a full
    # offline pipeline run under that guard proves zero network use
    cfg = _write_experiment(tmp_path)
    result = CliRunner().invoke(cli_main, [
        "run", "--config", str(cfg), "--offline",
        "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "out" / "manifest.json").exists()
    _passed("offline execution")
