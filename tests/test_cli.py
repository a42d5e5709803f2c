import json
import math
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

from surveyaudit import gateway as gateway_mod
from surveyaudit import runner as runner_mod
from surveyaudit.cli import main
from surveyaudit.data import Attribute, AttributeSchema, save_dataset
from surveyaudit.errors import ConfigError
from surveyaudit.prompts import PromptVariant
from surveyaudit.runner import load_config, run_experiment
from surveyaudit.synthetic import CaseSpec, PopulationSpec, generate

from test_pinned import write_run


def write_population(tmp_path, n=120, seed=3, questions=("vote",),
                     context=None):
    schema = AttributeSchema(
        attributes=(
            Attribute("gender", ("Man", "Woman"), "Man"),
            Attribute("age", ("Young Adult", "Adult", "Senior Adult"),
                      "Young Adult"),
            Attribute("ideology", ("Left", "Center", "Right"), "Center"),
        ),
        id_column="respondent_id",
        answer_columns=tuple(questions),
    )
    spec = PopulationSpec(
        schema=schema,
        marginals={
            "gender": [0.5, 0.5],
            "age": [0.4, 0.4, 0.2],
            "ideology": [0.3, 0.4, 0.3],
        },
        n=n,
        cases=tuple(
            CaseSpec(q, ("OptA", "OptB"), (0.6, 0.4), depends_on="gender",
                     table={"Man": [0.8, 0.2], "Woman": [0.3, 0.7]},
                     context_blurb=context)
            for q in questions
        ),
        correctness_intercept=math.log(0.75 / 0.25),
        correctness_beta={"gender=Woman": -0.4},
        seed=seed,
    )
    dataset, _ = generate(spec)
    save_dataset(dataset, tmp_path / "data.csv", tmp_path / "schema.yaml")
    return dataset


def write_config(tmp_path, extra="", backends=None, out="out"):
    backends = backends or "  - {name: mock, kind: mock, strategy: majority}"
    text = textwrap.dedent(f"""\
        dataset:
          csv: data.csv
          schema: schema.yaml
        backends:
        {backends}
        variants: [zeroshot]
        fewshot: {{k: 3}}
        political: [ideology]
        forest: {{n_trees: 20, seed: 7}}
        seed: 13
        output: {out}
    """) + extra
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


def bundle_bytes(out_dir: Path) -> dict:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def test_run_majority_mock(tmp_path):
    ds = write_population(tmp_path)
    cfg_path = write_config(tmp_path)
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(cfg_path), "--offline"])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    metrics = json.loads((out / "metrics.json").read_text())
    cell = metrics["cells"][0]
    case = ds.cases[0]
    counts = [0, 0]
    for idx in case.answers.values():
        counts[idx] += 1
    majority_share = max(counts) / sum(counts)
    assert abs(cell["report"]["accuracy"] - majority_share) < 1e-12
    assert cell["report"]["relative"]["accuracy"] <= 1.0 + 1e-9


def test_rerun_byte_identical(tmp_path):
    write_population(tmp_path)
    cfg = write_config(tmp_path)
    runner = CliRunner()
    assert runner.invoke(main, ["run", "--config", str(cfg), "--offline",
                                "--out", str(tmp_path / "o1")]).exit_code == 0
    assert runner.invoke(main, ["run", "--config", str(cfg), "--offline",
                                "--out", str(tmp_path / "o2")]).exit_code == 0
    assert bundle_bytes(tmp_path / "o1") == bundle_bytes(tmp_path / "o2")


def test_unknown_question_fails_fast(tmp_path):
    write_population(tmp_path)
    cfg = write_config(tmp_path, extra="cases: [nonexistent]")
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(cfg), "--offline"])
    assert result.exit_code != 0
    assert "nonexistent" in result.output
    assert not (tmp_path / "out").exists()


def test_ablation_rows(tmp_path):
    write_population(tmp_path)
    cfg = write_config(tmp_path)
    runner = CliRunner()
    result = runner.invoke(main, ["ablation", "--config", str(cfg), "--offline"])
    assert result.exit_code == 0, result.output
    table = json.loads((tmp_path / "out" / "ablation_mock.json").read_text())
    # 3 fixed rows + one per attribute
    assert len(table) == 3 + 3
    labels = [row["mask"] for row in table]
    assert labels[:3] == ["All", "Without political variables",
                          "Only political variables"]


def test_prompt_sweep(tmp_path):
    write_population(tmp_path, questions=("vote", "ref"))
    cfg = write_config(tmp_path, extra="variants: [original, zeroshot]")
    runner = CliRunner()
    result = runner.invoke(main, ["prompt-sweep", "--config", str(cfg),
                                  "--offline"])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "sensitivity.json").read_text())
    assert {row["variant"] for row in payload} == {"original", "zeroshot"}
    for row in payload:
        assert row["min"] <= row["harmonic_mean"] <= row["max"]


def test_prompt_sweep_constant_metric_interval():
    from surveyaudit.metrics import harmonic_mean

    vals = [0.5, 1.0]
    assert abs(harmonic_mean(vals) - 2 / 3) < 1e-12
    assert (min(vals), max(vals)) == (0.5, 1.0)


def test_all_unparseable_cell_is_scored(tmp_path):
    write_population(tmp_path, questions=("vote", "trust"))
    cfg = write_config(tmp_path, backends=(
        "  - {name: mock, kind: mock, strategy: unparseable}"))
    result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--offline"])
    assert result.exit_code == 0, result.output
    cells = json.loads((tmp_path / "out" / "metrics.json").read_text())["cells"]
    assert len(cells) == 2
    for cell in cells:
        report = cell["report"]
        assert report["accuracy"] == 0.0 and report["jss"] == 0.0
        assert report["n_unparseable"] == report["n_total"] == 120
        assert ["gender", "Man"] in report["flagged_groups"]


def test_sensitivity_lists_a_backend_with_zero_accuracy(tmp_path):
    # the harmonic mean of accuracies with a 0 among them is 0, the worst
    # row, and is listed like any other
    write_population(tmp_path, questions=("vote", "trust"))
    cfg = write_config(tmp_path, extra=(
        "variants: [zeroshot, original]\n"
        "backends:\n"
        "  - {name: never, kind: mock, strategy: unparseable}\n"
        "  - {name: oracle, kind: mock, strategy: truth}\n"))
    result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--offline"])
    assert result.exit_code == 0, result.output
    rows = json.loads((tmp_path / "out" / "sensitivity.json").read_text())
    assert [(r["backend"], r["variant"], r["harmonic_mean"], r["min"], r["max"])
            for r in rows] == [
        ("never", "zeroshot", 0.0, 0.0, 0.0),
        ("never", "original", 0.0, 0.0, 0.0),
        ("oracle", "zeroshot", 1.0, 1.0, 1.0),
        ("oracle", "original", 1.0, 1.0, 1.0),
    ]
    table = (tmp_path / "out" / "sensitivity.md").read_text()
    assert "| never | zeroshot | 0.00 | 0.00 | 0.00 |" in table


def _mock_run(tmp_path, strategy, extra=""):
    """Run one mock backend of ``strategy``; the metrics.json cells and
    the prediction records."""
    cfg = write_config(tmp_path, extra=extra, backends=(
        f"  - {{name: m, kind: mock, strategy: '{strategy}'}}"))
    result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--offline"])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    cells = json.loads((out / "metrics.json").read_text())["cells"]
    lines = (out / "predictions.jsonl").read_text().splitlines()
    return cells, [json.loads(line) for line in lines]


def test_first_option_mock_ignores_a_numbered_context(tmp_path):
    # with_context puts the context before the options, so its "1. " line
    # comes first in the prompt
    write_population(tmp_path, context="1. Raise pensions.\n2. Cut taxes.")
    cells, predictions = _mock_run(tmp_path, "first_option",
                                   extra="variants: [with_context]\n")
    assert len(predictions) == 120
    assert {(p["raw_text"], p["parsed"]) for p in predictions} == {("OptA", 0)}
    assert cells[0]["report"]["n_unparseable"] == 0


def test_truth_mock_scores_one_in_every_cell(tmp_path):
    write_population(tmp_path, questions=("vote", "trust"))
    cells, _ = _mock_run(tmp_path, "truth", extra="ablation: true\n")
    assert len(cells) == 2 * 6
    for cell in cells:
        assert cell["report"]["accuracy"] == 1.0
        assert cell["report"]["jss"] == 1.0


@pytest.mark.parametrize("label, parsed", [("OptB", 1), ("Neither", None)])
def test_fixed_mock_replies_its_label(tmp_path, label, parsed):
    # a label that is not an option leaves every reply unparseable, and the
    # cell is scored all the same
    write_population(tmp_path)
    cells, predictions = _mock_run(tmp_path, f"fixed:{label}")
    assert len(predictions) == 120
    assert {(p["raw_text"], p["parsed"]) for p in predictions} == {
        (label, parsed)}
    report = cells[0]["report"]
    assert report["n_unparseable"] == (0 if parsed is not None else 120)


def test_regressions_in_bundle(tmp_path):
    write_population(tmp_path, n=200)
    cfg = write_config(tmp_path, extra=textwrap.dedent("""\
        regressions:
          - name: model1
            main_effects: [gender, age]
    """))
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(cfg), "--offline"])
    assert result.exit_code == 0, result.output
    md = (tmp_path / "out" / "regression_model1__mock.md").read_text()
    assert "gender (ref = Man)" in md
    csv_text = (tmp_path / "out" / "regression_model1__mock.csv").read_text()
    assert csv_text.startswith("term,estimate,se,z,p,stars")


def test_scalar_main_effects_all(tmp_path):
    write_population(tmp_path, n=200)
    cfg = write_config(tmp_path, extra=textwrap.dedent("""\
        regressions:
          - name: model1
            main_effects: all
    """))
    result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--offline"])
    assert result.exit_code == 0, result.output
    md = (tmp_path / "out" / "regression_model1__mock.md").read_text()
    for attr in ("gender (ref = Man)", "age (ref = Young Adult)",
                 "ideology (ref = Center)"):
        assert attr in md


def _fails_before_any_work(tmp_path, monkeypatch, extra, args=()):
    write_population(tmp_path)
    cfg = write_config(tmp_path, extra=extra)

    def no_forest(*args, **kwargs):
        raise AssertionError("the forest ran before the config was checked")

    monkeypatch.setattr(runner_mod.forest_mod, "baseline_metrics", no_forest)
    result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--offline",
                                       *args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException
    assert not (tmp_path / "out").exists()
    return result.output


def test_unknown_mask_attribute_fails_before_any_work(tmp_path, monkeypatch):
    output = _fails_before_any_work(
        tmp_path, monkeypatch, 'masks: ["without:nosuch"]\n')
    assert "Error: mask 'without:nosuch' names unknown attribute 'nosuch'" \
        in output


def test_interaction_outside_main_effects_fails_before_any_work(
        tmp_path, monkeypatch):
    output = _fails_before_any_work(tmp_path, monkeypatch, textwrap.dedent("""\
        regressions:
          - name: model1
            main_effects: [gender]
            interactions: [[gender, age]]
    """))
    assert "Error: regression 'model1': interaction ('gender', 'age')" in output


@pytest.mark.parametrize("extra, message", [
    ("forest: {n_tree: 5}\n", "Error: forest: unknown fields ['n_tree']"),
    ("forest: {n_trees: 0}\n", "Error: forest: n_trees must be >= 1, got 0"),
    ("forest: {min_samples_leaf: 0}\n",
     "Error: forest: min_samples_leaf must be >= 1, got 0"),
    ("forest: {max_depth: 0}\n", "Error: forest: max_depth must be >= 1, got 0"),
    ("forest: {features_per_split: -1}\n",
     "Error: forest: features_per_split must be >= 1, got -1"),
    ("backends:\n  - {name: maj, kind: mock, strategy: majority}\n"
     "  - {name: maj, kind: mock}\n", "Error: duplicate backend names: ['maj']"),
    ("backends:\n  - {name: b, kind: nosuch}\n",
     "Error: backend 'b': unknown backend kind 'nosuch'"),
    ("variants: [original]\nfewshot: {k: 0}\n",
     "Error: fewshot.k must be >= 1 for a few-shot variant, got 0"),
    ("variants: [zeroshot, original]\nfewshot: {k: -2}\n",
     "Error: fewshot.k must be >= 1 for a few-shot variant, got -2"),
    ("variants: [zeroshot, zeroshot]\n", "Error: duplicate variants: ['zeroshot']"),
    ("masks: [all, without_political, all]\n", "Error: duplicate masks: ['All']"),
    ("variants: [original]\nfewshot: {k: 500}\n",
     "Error: fewshot.k is 500, but case 'vote' has only 119 eligible examples "
     "per respondent (120 answered respondents)"),
    ("variants: [with_context]\n",
     "Error: variant with_context needs a context blurb, which 1 of 1 cases "
     "lack: ['vote']"),
    ("backends:\n  - {name: m, strategy: majority}\n",
     "Error: backend 'm': missing fields ['kind']"),
    ("backends:\n  - {name: r, kind: remote, strategy: majority,\n"
     "     endpoint: 'http://example.invalid/v1'}\n",
     "Error: backend 'r': strategy applies only to mock backends"),
    ("seed: abc\n", "Error: seed: expected int, got 'abc'"),
    ("fewshot: {k: many}\n", "Error: fewshot.k: expected int, got 'many'"),
    ("equality_tolerance: wide\n",
     "Error: equality_tolerance: expected float, got 'wide'"),
    ("equality_pairs: [[gender]]\n",
     "Error: equality_pairs: a pair names two attributes, got ['gender']"),
    ("fewshot: 3\n", "Error: fewshot: expected dict, got 3"),
    ("unparsable: exclude\n", "Error: config: unknown fields ['unparsable']"),
    ("regressions:\n  - {name: m1, main_effects: [gender],\n"
     "     interaction: [[gender, age]]}\n",
     "Error: regression 'm1': unknown fields ['interaction']"),
    ("backends: [mock]\n", "Error: backend entry: expected dict, got 'mock'"),
    ("backends: mock\n", "Error: backends: expected a list, got 'mock'"),
    ("masks: [5]\n", "Error: masks: expected a list of names, got [5]"),
    ("regressions:\n  - {name: m1, main_effects: [gender, age],\n"
     "     interactions: [5]}\n",
     "Error: regression 'm1': an interaction names two attributes, got 5"),
    ("regressions:\n  - {name: m1, main_effects: gender}\n",
     "Error: regression 'm1': main_effects: expected 'all' or a list of "
     "names, got 'gender'"),
    ("cases: vote\n", "Error: cases: expected a list of names, got 'vote'"),
    ("variants: original\n",
     "Error: variants: expected a list of names, got 'original'"),
    ("political: ideology\n",
     "Error: political: expected a list of names, got 'ideology'"),
    ("unparseable: [a]\n", "Error: unknown unparseable policy ['a']"),
    ("cache: 5\n", "Error: cache: expected a path, got 5"),
    ("output: [x]\n", "Error: output: expected a path, got ['x']"),
    ("dataset: {csv: 5, schema: schema.yaml}\n",
     "Error: dataset.csv: expected a path, got 5"),
    ("forest: {n_trees: 2.5}\n",
     "Error: forest: n_trees must be an integer, got 2.5"),
    ("forest: {n_trees: true}\n",
     "Error: forest: n_trees must be an integer, got True"),
    ("seed: 1.7\n", "Error: seed: expected int, got 1.7"),
    ("seed: true\n", "Error: seed: expected int, got True"),
    ("fewshot: {k: 2.9}\n", "Error: fewshot.k: expected int, got 2.9"),
    ("forest: {seed: 1.5}\n", "Error: forest.seed: expected int, got 1.5"),
    ("ablation: 'false'\n", "Error: ablation: expected bool, got 'false'"),
    ("cases: []\n", "Error: cases: expected at least one question id, got []"),
    ("equality_tolerance: -1\n",
     "Error: equality_tolerance: expected a finite number >= 0, got -1.0"),
    ("equality_tolerance: .nan\n",
     "Error: equality_tolerance: expected a finite number >= 0, got nan"),
    ("backends:\n  - {name: r, kind: remote, max_retries: -1,\n"
     "     endpoint: 'http://example.invalid/v1'}\n",
     "Error: backend 'r': max_retries must be >= 0, got -1"),
    ("backends:\n  - {name: r, kind: remote, max_retries: 2.5,\n"
     "     endpoint: 'http://example.invalid/v1'}\n",
     "Error: backend 'r': max_retries must be an integer, got 2.5"),
    ("backends:\n  - {name: r, kind: remote, max_retries: true,\n"
     "     endpoint: 'http://example.invalid/v1'}\n",
     "Error: backend 'r': max_retries must be an integer, got True"),
    ("backends:\n  - {name: m, kind: mock, parallelism: 1.5}\n",
     "Error: backend 'm': parallelism must be an integer, got 1.5"),
    ("backends:\n  - {name: m, kind: mock, parallelism: true}\n",
     "Error: backend 'm': parallelism must be an integer, got True"),
    ("backends:\n  - {name: r, kind: remote, rate_limit: -60,\n"
     "     endpoint: 'http://example.invalid/v1'}\n",
     "Error: backend 'r': rate_limit must be None or a finite number > 0, "
     "got -60"),
    ("backends:\n  - {name: r, kind: remote, rate_limit: fast,\n"
     "     endpoint: 'http://example.invalid/v1'}\n",
     "Error: backend 'r': rate_limit must be None or a finite number > 0, "
     "got 'fast'"),
    ("backends:\n  - {name: r, kind: remote, rate_limit: .inf,\n"
     "     endpoint: 'http://example.invalid/v1'}\n",
     "Error: backend 'r': rate_limit must be None or a finite number > 0, "
     "got inf"),
    ("backends:\n  - {name: m, kind: mock, temperature: true}\n",
     "Error: backend 'm': temperature must be a finite number >= 0, got True"),
    ("backends:\n  - {name: m, kind: mock, temperature: .nan}\n",
     "Error: backend 'm': temperature must be a finite number >= 0, got nan"),
    ("backends:\n  - {name: m, kind: mock, temperature: hot}\n",
     "Error: backend 'm': temperature must be a finite number >= 0, "
     "got 'hot'"),
    ("equality_tolerance: true\n",
     "Error: equality_tolerance: expected float, got True"),
    ("equality_tolerance: '0.1'\n",
     "Error: equality_tolerance: expected float, got '0.1'"),
    ("variants: []\n", "Error: variants: expected at least one variant, got []"),
    ("masks: []\n", "Error: masks: expected at least one mask, got []"),
    ("political: []\n",
     "Error: political: expected at least one attribute, got []"),
    ("variant: original\n", "Error: config gives both variant and variants"),
    ("dataset: [[csv, data.csv], [schema, schema.yaml]]\n",
     "Error: dataset: expected dict, got [['csv', 'data.csv'], "
     "['schema', 'schema.yaml']]"),
    ("fewshot: [[k, 3]]\n", "Error: fewshot: expected dict, got [['k', 3]]"),
    ("forest: [[n_trees, 7]]\n",
     "Error: forest: expected dict, got [['n_trees', 7]]"),
    ("backends:\n  - [[name, m], [kind, mock]]\n",
     "Error: backend entry: expected dict, got [['name', 'm'], "
     "['kind', 'mock']]"),
    ("regressions:\n  - [[name, m1], [main_effects, [gender]]]\n",
     "Error: regression entry: expected dict, got [['name', 'm1'], "
     "['main_effects', ['gender']]]"),
    ("regressions:\n  - {main_effects: [gender]}\n"
     "  - {main_effects: [age, ideology]}\n",
     "Error: duplicate regression names: ['model']"),
    ("ablation: true\nmasks: [without:nosuch]\n",
     "Error: config gives both masks and ablation: true"),
    ("equality_pairs: [[gender, gender]]\n",
     "Error: equality_pairs: a pair names one attribute twice, got "
     "['gender', 'gender']"),
    ("fewshot: {kk: 2}\n", "Error: fewshot: unknown fields ['kk']"),
    ("dataset: {csv: data.csv, schema: schema.yaml, weights: w}\n",
     "Error: dataset: unknown fields ['weights']"),
    ("forest: {n_trees: 20, seed: -4}\n",
     "Error: forest.seed: expected int >= 0, got -4"),
    ("seed: -1\nforest: {n_trees: 20}\n",
     "Error: seed: expected int >= 0, got -1"),
    ("seed: -1\n", "Error: seed: expected int >= 0, got -1"),
    ("dataset: {csv: '', schema: schema.yaml}\n",
     "Error: dataset.csv: expected a path, got ''"),
    ("dataset: {csv: data.csv, schema: ''}\n",
     "Error: dataset.schema: expected a path, got ''"),
    ("output: ''\n", "Error: output: expected a path, got ''"),
    ("cache: ''\n", "Error: cache: expected a path, got ''"),
    ("backends:\n  - {name: 5, kind: mock}\n",
     "Error: backend 5: name must be a non-empty string, got 5"),
    ("backends:\n  - {name: '', kind: mock}\n",
     "Error: backend '': name must be a non-empty string, got ''"),
    ("backends:\n  - {name: m, kind: mock, strategy: 5}\n",
     "Error: backend 'm': strategy: expected a non-empty string, got 5"),
    ("backends:\n  - {name: m, kind: mock, strategy: ''}\n",
     "Error: backend 'm': strategy: expected a non-empty string, got ''"),
    ("backends:\n  - {name: m, kind: mock, credential_env: 5}\n",
     "Error: backend 'm': credential_env must be a string, got 5"),
    ("backends:\n  - {name: m, kind: mock, model_id: 5}\n",
     "Error: backend 'm': model_id must be a string, got 5"),
    ("backends:\n  - {name: m, kind: mock, endpoint: 5}\n",
     "Error: backend 'm': endpoint must be a string, got 5"),
    ("regressions:\n  - {name: 5, main_effects: [gender]}\n",
     "Error: regression 5: name must be a non-empty string, got 5"),
    ("regressions:\n  - {name: m1, main_effects: [gender],\n"
     "     question_fixed_effects: 'no'}\n",
     "Error: regression 'm1': question_fixed_effects must be a bool, "
     "got 'no'"),
    ("regressions:\n  - {name: m1, main_effects: []}\n",
     "Error: regression 'm1': main_effects: expected at least one "
     "attribute, got []"),
    ("regressions:\n  - {name: m1, main_effects: [gender], interactions: 0}\n",
     "Error: regression 'm1': interactions: expected a list, got 0"),
    ("regressions:\n  - {name: m1, main_effects: [gender], interactions: {}}\n",
     "Error: regression 'm1': interactions: expected a list, got {}"),
    ("forest: false\n", "Error: forest: expected dict, got False"),
    ("forest: []\n", "Error: forest: expected dict, got []"),
    ("fewshot: 0\n", "Error: fewshot: expected dict, got 0"),
    ("fewshot: []\n", "Error: fewshot: expected dict, got []"),
    ("regressions: {}\n", "Error: regressions: expected a list, got {}"),
    ("equality_pairs: 0\n", "Error: equality_pairs: expected a list, got 0"),
    ("equality_pairs: {}\n",
     "Error: equality_pairs: expected a list, got {}"),
    ("political: [ideology, nosuch]\nmasks: [all]\n",
     "Error: political set names unknown attributes: ['nosuch']"),
    # null, as absent, means the default set, which names attributes that
    # the population's schema lacks
    ("political: null\nmasks: [all, without_political]\n",
     "Error: political set names unknown attributes: ['party', "
     "'political_interest']; set political to the schema's political "
     "attributes"),
    ("political: null\nmasks: [only_political]\n",
     "Error: political set names unknown attributes: ['party', "
     "'political_interest']; set political"),
    ("political: null\nablation: true\n",
     "Error: political set names unknown attributes: ['party', "
     "'political_interest']; set political"),
    ("backends:\n  - {name: a/b, kind: mock}\n",
     "Error: backend 'a/b': name must not hold '/', which no file name can, "
     "got 'a/b'"),
    ('backends:\n  - {name: "a\\0b", kind: mock}\n',
     "Error: backend 'a\\x00b': name must not hold '\\x00', which no file "
     "name can, got 'a\\x00b'"),
    ("regressions:\n  - {name: m/1, main_effects: [gender]}\n",
     "Error: regression 'm/1': name must not hold '/', which no file name "
     "can, got 'm/1'"),
    ("backends:\n  - {name: m, kind: mock, strategy: 'fixed:'}\n",
     "Error: backend 'm': strategy: 'fixed:' needs a label, as in "
     "'fixed:Agree'"),
], ids=["forest_key", "n_trees", "min_samples_leaf", "max_depth",
        "features_per_split", "backend_name", "backend_kind", "fewshot_k_0",
        "fewshot_k_negative", "variant", "mask", "fewshot_k_above_eligible",
        "with_context_without_blurb", "backend_without_kind",
        "strategy_on_remote", "seed_not_int", "fewshot_k_not_int",
        "tolerance_not_float", "equality_pair_of_one", "fewshot_not_mapping",
        "unknown_top_level_key", "unknown_regression_key",
        "backend_not_mapping", "backends_not_list", "mask_not_name",
        "interaction_not_pair", "main_effects_not_list", "cases_not_list",
        "variants_not_list", "political_not_list", "unparseable_not_name",
        "cache_not_path", "output_not_path", "dataset_csv_not_path",
        "n_trees_not_int", "n_trees_bool", "seed_float", "seed_bool",
        "fewshot_k_float", "forest_seed_float", "ablation_not_bool",
        "cases_empty", "tolerance_negative", "tolerance_nan",
        "max_retries_negative", "max_retries_float", "max_retries_bool",
        "parallelism_float", "parallelism_bool", "rate_limit_negative",
        "rate_limit_not_number", "rate_limit_inf", "temperature_bool",
        "temperature_nan", "temperature_not_number", "tolerance_bool",
        "tolerance_string", "variants_empty", "masks_empty",
        "political_empty", "variant_and_variants", "dataset_pairs",
        "fewshot_pairs", "forest_pairs", "backend_entry_pairs",
        "regression_entry_pairs", "regression_names", "masks_and_ablation",
        "equality_pair_of_one_attribute", "fewshot_unknown_key",
        "dataset_unknown_key", "forest_seed_negative", "seed_negative",
        "seed_negative_with_forest_seed", "dataset_csv_empty",
        "dataset_schema_empty", "output_empty", "cache_empty",
        "backend_name_int", "backend_name_empty", "strategy_int",
        "strategy_empty", "credential_env_int", "model_id_int", "endpoint_int",
        "regression_name_int", "question_fixed_effects_string",
        "main_effects_empty", "interactions_zero", "interactions_mapping",
        "forest_false", "forest_empty_list", "fewshot_zero",
        "fewshot_empty_list", "regressions_mapping", "equality_pairs_zero",
        "equality_pairs_mapping", "political_unknown",
        "default_political_without", "default_political_only",
        "default_political_ablation", "backend_name_slash", "backend_name_nul",
        "regression_name_slash", "fixed_without_label"])
def test_config_mistake_fails_before_any_work(tmp_path, monkeypatch, extra,
                                              message):
    # a key repeated in ``extra`` overrides write_config's, as YAML loads it
    assert message in _fails_before_any_work(tmp_path, monkeypatch, extra)


def test_default_political_set_unchecked_when_no_mask_reads_it(tmp_path):
    # the population's schema has neither party nor political_interest
    write_population(tmp_path)
    cfg = write_config(tmp_path, extra="masks: [all]\n")
    cfg.write_text(cfg.read_text().replace("political: [ideology]\n", ""))
    result = CliRunner().invoke(main, ["run", "--config", str(cfg),
                                       "--offline"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "out" / "metrics.json").exists()


def test_null_regression_fields_take_their_defaults(tmp_path):
    write_population(tmp_path)
    cfg = write_config(tmp_path, extra=(
        "regressions:\n  - {name: null, main_effects: null, "
        "interactions: null, question_fixed_effects: null}\n"))
    result = CliRunner().invoke(main, ["run", "--config", str(cfg),
                                       "--offline"])
    assert result.exit_code == 0, result.output
    table = (tmp_path / "out" / "regression_model__mock.md").read_text()
    assert "| **Question** | | |" in table
    assert "| **ideology (ref = Center)** | | |" in table


def test_empty_out_option_fails_before_any_work(tmp_path, monkeypatch):
    output = _fails_before_any_work(tmp_path, monkeypatch, "",
                                    args=["--out", ""])
    assert "Error: --out: expected a path, got ''" in output


@pytest.mark.parametrize("command", [
    ["ablation", "--offline"], ["prompt-sweep", "--offline"], ["report"],
    ["regress", "--predictions", "config.yaml"]])
def test_every_command_refuses_an_empty_out(tmp_path, command):
    write_population(tmp_path)
    cfg = write_config(tmp_path)
    command = [str(tmp_path / a) if a == "config.yaml" else a for a in command]
    result = CliRunner().invoke(main, [command[0], "--config", str(cfg),
                                       *command[1:], "--out", ""])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException
    assert "Error: --out: expected a path, got ''" in result.output
    assert not (tmp_path / "out").exists()


def test_malformed_schema_fails_before_any_work(tmp_path, monkeypatch):
    write_population(tmp_path)
    cfg = write_config(tmp_path)
    schema = tmp_path / "schema.yaml"
    schema.write_text(schema.read_text().replace("id_column:", "id_col:"))

    def no_forest(*args, **kwargs):
        raise AssertionError("the forest ran before the schema was checked")

    monkeypatch.setattr(runner_mod.forest_mod, "baseline_metrics", no_forest)
    result = CliRunner().invoke(main, ["run", "--config", str(cfg),
                                       "--offline"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException
    assert f"Error: schema {schema}: missing key 'id_column'" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dataset, missing, kind", [
    ("{csv: data.csv, schema: nosuch.yaml}", "nosuch.yaml", "schema file"),
    ("{csv: nosuch.csv, schema: schema.yaml}", "nosuch.csv", "CSV file"),
], ids=["schema", "csv"])
def test_missing_dataset_file_fails_before_any_work(tmp_path, monkeypatch,
                                                    dataset, missing, kind):
    output = _fails_before_any_work(tmp_path, monkeypatch,
                                    f"dataset: {dataset}\n")
    assert (f"Error: {kind} {tmp_path / missing}: No such file or directory"
            in output)


@pytest.mark.parametrize("dataset, name, text, kind", [
    ("{csv: data.csv, schema: latin.yaml}", "latin.yaml",
     b"id_column: \xff\xfe\n", "schema file"),
    ("{csv: latin.csv, schema: schema.yaml}", "latin.csv",
     b"respondent_id,gender\nr1,\xff\n", "CSV file"),
], ids=["schema", "csv"])
def test_dataset_file_not_utf8_fails_before_any_work(tmp_path, monkeypatch,
                                                      dataset, name, text,
                                                      kind):
    (tmp_path / name).write_bytes(text)
    output = _fails_before_any_work(tmp_path, monkeypatch,
                                    f"dataset: {dataset}\n")
    assert (f"Error: {kind} {tmp_path / name}: not UTF-8: 'utf-8' codec "
            "can't decode byte 0xff" in output)


NAMES_SCHEMA = """\
id_column: respondent_id
attributes:
  - {name: gender, categories: [Man, Woman], reference: Man}
questions:
  - {id: vote, options: [OptA, OptB]}
"""


@pytest.mark.parametrize("old, new, key", [
    ("name: gender", "name: race/eth", "attributes[0].name"),
    ("id: vote", "id: vote/2024", "questions[0].id"),
], ids=["attribute", "question"])
def test_schema_name_with_a_slash_fails_before_any_work(tmp_path, monkeypatch,
                                                         old, new, key):
    # attribute names and question ids become parts of plot file names
    (tmp_path / "names.yaml").write_text(NAMES_SCHEMA.replace(old, new))
    output = _fails_before_any_work(
        tmp_path, monkeypatch, "dataset: {csv: data.csv, schema: names.yaml}\n")
    value = new.split(": ")[1]
    assert (f"Error: schema {tmp_path / 'names.yaml'}: {key} must not hold "
            f"'/', which no file name can, got {value!r}") in output


def test_case_with_one_respondent_fails_before_any_work(tmp_path, monkeypatch):
    write_population(tmp_path)
    lines = (tmp_path / "data.csv").read_text().splitlines()
    (tmp_path / "one.csv").write_text("\n".join(lines[:2]) + "\n")
    output = _fails_before_any_work(
        tmp_path, monkeypatch, "dataset: {csv: one.csv, schema: schema.yaml}\n")
    assert ("Error: case 'vote' has 1 answered respondent(s); the forest "
            "ceiling needs at least 2") in output


def test_regress_names_a_missing_dataset_file(tmp_path):
    write_population(tmp_path)
    cfg = write_config(tmp_path, extra="dataset: {csv: nosuch.csv, "
                                       "schema: schema.yaml}\n")
    result = CliRunner().invoke(main, [
        "regress", "--config", str(cfg), "--predictions", str(cfg)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException
    assert (f"Error: CSV file {tmp_path / 'nosuch.csv'}: No such file or "
            "directory") in result.output


RECORD = json.dumps({"key": "k", "raw_text": "OptA"})


@pytest.mark.parametrize("lines, number, message", [
    ([RECORD, "not json", RECORD], 2, "not JSON: Expecting value"),
    ([RECORD, '{"key": "a"}', RECORD], 2, "missing fields ['raw_text']"),
    ([RECORD, RECORD, '{"key": "a"}'], 3, "missing fields ['raw_text']"),
    (["[1]", RECORD], 1, "expected a JSON object"),
], ids=["not_json", "no_raw_text", "last_no_raw_text", "not_an_object"])
def test_malformed_cache_line_fails_before_any_work(tmp_path, monkeypatch,
                                                    lines, number, message):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("".join(line + "\n" for line in lines))
    output = _fails_before_any_work(tmp_path, monkeypatch,
                                    "cache: cache.jsonl\n")
    assert f"Error: {cache}, line {number}: {message}" in output


def test_negative_seed_option_fails_before_any_work(tmp_path, monkeypatch):
    output = _fails_before_any_work(tmp_path, monkeypatch, "",
                                    args=["--seed", "-2"])
    assert "Error: --seed: expected int >= 0, got -2" in output


# The names perfbench's tracer wraps on runner: each must stay a global of
# runner that a run calls.
TRACED = ("load_dataset", "render_case_prompts", "sample_fewshot", "render",
          "run_batch", "ExchangeCache", "intersection_accuracy",
          "build_design", "fit_logit", "write_bundle")


# The names it wraps on forest and metrics, by the module each is looked
# up in: forest imported compute_report by name.
TRACED_ELSEWHERE = (
    (runner_mod.forest_mod, ("baseline_metrics", "fit_in_sample", "predict",
                             "compute_report")),
    (runner_mod.metrics_mod, ("compute_report", "overall_accuracy_equality")),
)


def test_run_calls_the_traced_names(tmp_path, monkeypatch):
    calls = []

    def count(owner, name):
        fn = getattr(owner, name)
        label = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"

        def counted(*args, **kwargs):
            calls.append(label)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return label

    expected = {count(runner_mod, name) for name in TRACED}
    for owner, names in TRACED_ELSEWHERE:
        expected |= {count(owner, name) for name in names}
    write_population(tmp_path)
    cfg = write_config(tmp_path, extra=textwrap.dedent("""\
        variants: [original]
        equality_pairs: [[gender, age]]
        regressions:
          - {name: model1, main_effects: [gender]}
    """))
    run_experiment(load_config(cfg), offline=True)
    assert set(calls) == expected


def test_run_renders_each_prompt_once(tmp_path, monkeypatch):
    # perfbench counts the prompts of a run as its calls of runner.render
    rendered = []
    render = runner_mod.render

    def counted(*args, **kwargs):
        rendered.append(render(*args, **kwargs))
        return rendered[-1]

    monkeypatch.setattr(runner_mod, "render", counted)
    write_population(tmp_path, questions=("vote", "ref"))
    cfg = write_config(tmp_path, extra="variants: [original, zeroshot]\n"
                                        "ablation: true\n")
    bundle = run_experiment(load_config(cfg), offline=True)
    assert len(rendered) == bundle.manifest["n_predictions"] == 2 * 2 * 6 * 120
    assert [(p.target_id, p.case_id) for p in rendered] == [
        (p.respondent_id, p.question_id)
        for c in bundle.cells for p in c.predictions]


def test_equality_pairs(tmp_path):
    write_population(tmp_path)
    cfg = write_config(tmp_path, extra="equality_pairs: [[gender, age]]")
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(cfg), "--offline"])
    assert result.exit_code == 0, result.output
    eq = json.loads((tmp_path / "out" / "equality.json").read_text())
    block = next(iter(eq.values()))
    assert "gender x age" in block
    assert "Man x Young Adult" in block["gender x age"]["accuracy"]


def test_synth_command(tmp_path):
    cfg = tmp_path / "synth.yaml"
    cfg.write_text(textwrap.dedent("""\
        synthetic:
          n: 150
          seed: 2
          attributes:
            - {name: gender, categories: [Man, Woman], reference: Man,
               marginals: [0.5, 0.5]}
          cases:
            - {id: q1, options: [A, B], probs: [0.6, 0.4]}
          correctness: {intercept: 1.2, beta: {gender=Woman: -0.5}}
    """))
    runner = CliRunner()
    result = runner.invoke(main, ["synth", "--config", str(cfg),
                                  "--out", str(tmp_path / "synthout")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "synthout" / "synthetic.csv").exists()
    assert "agree" in result.output


@pytest.mark.parametrize("text, message", [
    ("synthetic:\n  n: 10\n  cases: []\n",
     "Error: synthetic: missing key 'attributes'"),
    ("synthetic:\n  n: ten\n  attributes: []\n  cases: []\n",
     "Error: synthetic.n: expected int, got 'ten'"),
    ("- synthetic\n", "Error: config needs a 'synthetic' section"),
    ("synthetic:\n  n: 50\n  seed: -3\n  attributes:\n"
     "    - {name: g, categories: [M, W], reference: M, marginals: [.5, .5]}\n"
     "  cases:\n    - {id: q1, options: [A, B], probs: [.6, .4]}\n",
     "Error: synthetic.seed: expected int >= 0, got -3"),
], ids=["missing_attributes", "n_not_int", "top_level_list", "seed_negative"])
def test_synth_config_mistake_is_a_cli_error(tmp_path, text, message):
    cfg = tmp_path / "synth.yaml"
    cfg.write_text(text)
    result = CliRunner().invoke(main, ["synth", "--config", str(cfg),
                                       "--out", str(tmp_path / "synthout")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException
    assert message in result.output


def test_seed_option_also_seeds_the_forest(tmp_path):
    # with no forest.seed, the forest follows the seed, --seed included
    write_population(tmp_path)
    runner = CliRunner()
    outs = {}
    for tag, extra, option in (("flag", "", ["--seed", "5"]),
                               ("config", "seed: 5\n", [])):
        cfg = write_config(tmp_path, extra="forest: {n_trees: 20}\n" + extra,
                           out=tag)
        result = runner.invoke(main, ["run", "--config", str(cfg),
                                      "--offline", *option])
        assert result.exit_code == 0, result.output
        outs[tag] = tmp_path / tag
    manifests = [json.loads((out / "manifest.json").read_text())
                 for out in outs.values()]
    assert [(m["seed"], m["forest_seed"]) for m in manifests] == [(5, 5)] * 2
    assert ((outs["flag"] / "metrics.json").read_bytes()
            == (outs["config"] / "metrics.json").read_bytes())


def test_config_validation_errors(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("dataset: {csv: x.csv}\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_offline_converts_remote_to_replay(tmp_path):
    write_population(tmp_path)
    backends = (
        "  - {name: gpt, kind: remote, model_id: gpt-x,\n"
        "     endpoint: 'http://example.invalid/v1'}"
    )
    cfg = write_config(tmp_path, backends=backends)
    runner = CliRunner()
    # replay cache is empty, so every prompt fails closed without touching
    # the network and the run aborts loudly instead of reporting zeros
    result = runner.invoke(main, ["run", "--config", str(cfg), "--offline"])
    assert result.exit_code != 0
    assert "no parsed" in result.output


def test_replay_starts_no_thread_pool(tmp_path, monkeypatch):
    """A replay reads the cache serially, whatever parallelism its remote
    entry asks for, and writes the bundle a serial replay writes."""
    write_population(tmp_path)

    def reply(self, prompt):
        # a reply that varies with the prompt, so the bundle has content
        return "OptA" if len(prompt.text) % 3 else "OptB"

    monkeypatch.setenv("SURVEYAUDIT_API_KEY", "k")
    monkeypatch.setattr(gateway_mod.RemoteChatBackend, "complete", reply)
    runs = {}
    for parallelism in (8, 1):
        cfg = write_config(tmp_path, extra="cache: cache.jsonl\n", backends=(
            "  - {name: gpt, kind: remote, model_id: gpt-x, endpoint: "
            f"'http://example.invalid/v1', parallelism: {parallelism}}}"))
        if not runs:
            live = CliRunner().invoke(main, ["run", "--config", str(cfg),
                                             "--out", str(tmp_path / "live")])
            assert live.exit_code == 0, live.output

        def no_pool(*args, **kwargs):
            raise AssertionError("a replay started a thread pool")

        monkeypatch.setattr(gateway_mod, "ThreadPoolExecutor", no_pool)
        out = tmp_path / f"replay{parallelism}"
        result = CliRunner().invoke(main, ["run", "--config", str(cfg),
                                           "--offline", "--out", str(out)])
        assert result.exit_code == 0, result.output
        runs[parallelism] = bundle_bytes(out)
    assert runs[8] == bundle_bytes(tmp_path / "live")
    # the two configs differ in parallelism, so only their hashes differ
    for files in runs.values():
        manifest = json.loads(files["manifest.json"])
        del manifest["config_hash"]
        files["manifest.json"] = manifest
    assert runs[8] == runs[1]


def test_backend_failure_names_the_cause(tmp_path):
    write_population(tmp_path)
    backends = (
        "  - {name: gpt, kind: remote, model_id: gpt-x,\n"
        "     endpoint: 'http://example.invalid/v1'}"
    )
    cfg = write_config(tmp_path, backends=backends)
    result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--offline"])
    assert result.exit_code != 0
    assert ("backend 'gpt' gave no parsed reply for case 'vote' "
            "(zeroshot, All): 120 of 120 prompts failed: backend failure: "
            "replay cache has no entry") in result.output


def test_partial_backend_failure_stops_the_run(tmp_path, monkeypatch):
    """One failed prompt in ten stops the run instead of being scored as a
    wrong answer."""
    def flaky_reply_fn(strategy, dataset):
        position = dataset.coded.rows

        def reply(prompt):
            if position[prompt.target_id] % 10 == 9:
                raise TimeoutError("endpoint timed out")
            return "OptA"

        return reply

    monkeypatch.setattr(runner_mod, "_mock_reply_fn", flaky_reply_fn)
    write_population(tmp_path)
    cfg = write_config(tmp_path)
    result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--offline"])
    assert result.exit_code == 1
    assert ("backend 'mock' failed on case 'vote' (zeroshot, All): "
            "12 of 120 prompts failed: backend failure: endpoint timed out"
            ) in result.output
    assert not (tmp_path / "out").exists()


def test_exclude_with_no_parsed_reply_stops_the_run(tmp_path):
    write_population(tmp_path)
    cfg = write_config(
        tmp_path, extra="unparseable: exclude\n",
        backends="  - {name: mock, kind: mock, strategy: unparseable}")
    result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--offline"])
    assert result.exit_code == 1
    assert "every prediction is unparseable under 'exclude'" in result.output
    assert not (tmp_path / "out").exists()


def test_regress_refuses_a_log_with_a_backend_failure(tmp_path):
    write_population(tmp_path)
    cfg = write_config(tmp_path, extra=textwrap.dedent("""\
        regressions:
          - {name: model1, main_effects: [gender]}
    """))
    runner = CliRunner()
    assert runner.invoke(main, ["run", "--config", str(cfg),
                                "--offline"]).exit_code == 0
    log = tmp_path / "out" / "predictions.jsonl"
    records = [json.loads(line) for line in log.read_text().splitlines()]
    # older versions scored failures, so their logs can hold one
    records[5].update(raw_text="", parsed=None,
                      note="backend failure: endpoint timed out")
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    result = runner.invoke(main, [
        "regress", "--config", str(cfg), "--out", str(tmp_path / "refit"),
        "--predictions", str(log)])
    assert result.exit_code == 1
    assert ("backend 'mock' failed on case 'vote' (zeroshot, All): "
            "1 of 120 prompts failed: backend failure: endpoint timed out"
            ) in result.output
    assert not (tmp_path / "refit").exists()


def test_regress_names_an_unknown_respondent(tmp_path):
    write_population(tmp_path)
    cfg = write_config(tmp_path, extra=textwrap.dedent("""\
        regressions:
          - {name: model1, main_effects: [gender]}
    """))
    runner = CliRunner()
    assert runner.invoke(main, ["run", "--config", str(cfg),
                                "--offline"]).exit_code == 0
    log = tmp_path / "out" / "predictions.jsonl"
    records = [json.loads(line) for line in log.read_text().splitlines()]
    records[0]["respondent_id"] = "nosuch"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    result = runner.invoke(main, [
        "regress", "--config", str(cfg), "--out", str(tmp_path / "refit"),
        "--predictions", str(log)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException
    assert ("Error: no true answer for 'nosuch' in case 'vote'"
            in result.output)
    assert "Traceback" not in result.output
    assert not (tmp_path / "refit").exists()


@pytest.mark.parametrize("damage, line, message", [
    # a write cut short: the last line loses its closing bytes
    (lambda text: text[:-40], 120, "not JSON: Unterminated string"),
    (lambda text: text.replace(text.splitlines()[2], '{"a": 1}'), 3,
     "missing fields ['respondent_id', 'question_id', 'backend', 'raw_text', "
     "'parsed', 'note', 'variant', 'mask']"),
], ids=["torn_last_line", "not_a_record"])
def test_regress_names_a_malformed_log_line(tmp_path, damage, line, message):
    write_population(tmp_path)
    cfg = write_config(tmp_path, extra=textwrap.dedent("""\
        regressions:
          - {name: model1, main_effects: [gender]}
    """))
    runner = CliRunner()
    assert runner.invoke(main, ["run", "--config", str(cfg),
                                "--offline"]).exit_code == 0
    log = tmp_path / "out" / "predictions.jsonl"
    log.write_text(damage(log.read_text()))
    result = runner.invoke(main, [
        "regress", "--config", str(cfg), "--out", str(tmp_path / "refit"),
        "--predictions", str(log)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException
    assert f"Error: {log}, line {line}: {message}" in result.output
    assert not (tmp_path / "refit").exists()


def test_regress_reproduces_run_regressions(tmp_path):
    write_population(tmp_path, n=200, questions=("vote", "ref"))
    backends = (
        "  - {name: maj, kind: mock, strategy: majority}\n"
        "          - {name: first, kind: mock, strategy: first_option}"
    )
    cfg = write_config(tmp_path, backends=backends, extra=textwrap.dedent("""\
        variants: [zeroshot, original]
        ablation: true
        regressions:
          - name: model1
            main_effects: [gender, age]
            interactions: [[gender, age]]
    """))
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(cfg), "--offline"])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, [
        "regress", "--config", str(cfg), "--out", str(tmp_path / "refit"),
        "--predictions", str(tmp_path / "out" / "predictions.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    ran = {name: data for name, data in bundle_bytes(tmp_path / "out").items()
           if name.startswith("regression_")}
    assert sorted(ran) == [
        "regression_model1__first.csv", "regression_model1__first.md",
        "regression_model1__maj.csv", "regression_model1__maj.md",
    ]
    assert bundle_bytes(tmp_path / "refit") == ran

    # a log without the first configured variant is refused, not pooled
    cfg.write_text(cfg.read_text().replace(
        "variants: [zeroshot, original]", "variants: [spanish]"))
    result = runner.invoke(main, [
        "regress", "--config", str(cfg), "--out", str(tmp_path / "none"),
        "--predictions", str(tmp_path / "out" / "predictions.jsonl"),
    ])
    assert result.exit_code != 0
    assert "no predictions of variant 'spanish'" in result.output


def test_unfittable_regression_keeps_the_audit(tmp_path):
    # a backend that is always right leaves its logit unidentified; the
    # audit and the other backend's model are written all the same
    write_population(tmp_path)
    backends = (
        "  - {name: truth, kind: mock, strategy: truth}\n"
        "          - {name: maj, kind: mock, strategy: majority}"
    )
    cfg = write_config(tmp_path, backends=backends, extra=textwrap.dedent("""\
        regressions:
          - {name: m, main_effects: [gender]}
    """))
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(cfg), "--offline"])
    assert result.exit_code == 0, result.output
    assert ("regression m__truth not fitted: outcome is single-class"
            in result.output)
    out = tmp_path / "out"
    assert (out / "metrics.md").is_file()
    assert (out / "regression_m__truth.md").read_text() == (
        "Not fitted: Separation: outcome is single-class; the logit is "
        "unidentified\n\nColumns: question[vote], gender=Woman\n")
    assert not (out / "regression_m__truth.csv").exists()
    assert (out / "regression_m__maj.csv").is_file()
    result = runner.invoke(main, [
        "regress", "--config", str(cfg), "--out", str(tmp_path / "refit"),
        "--predictions", str(out / "predictions.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    assert "m__truth: not fitted: outcome is single-class" in result.output
    assert bundle_bytes(tmp_path / "refit") == {
        name: data for name, data in bundle_bytes(out).items()
        if name.startswith("regression_")}


@pytest.mark.parametrize("option", [["--offline"], ["--seed", "1"]])
def test_regress_takes_no_run_options(tmp_path, option):
    write_population(tmp_path)
    cfg = write_config(tmp_path)
    (tmp_path / "predictions.jsonl").write_text("")
    result = CliRunner().invoke(main, [
        "regress", "--config", str(cfg),
        "--predictions", str(tmp_path / "predictions.jsonl"), *option])
    assert result.exit_code == 2
    assert "No such option" in result.output and option[0] in result.output


def test_report_takes_no_offline_option(tmp_path):
    # report always replays, so --offline would change nothing
    write_population(tmp_path)
    cfg = write_config(tmp_path)
    result = CliRunner().invoke(main, ["report", "--config", str(cfg),
                                       "--offline"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--offline" in result.output


def test_primary_cells_without_all_mask(tmp_path, monkeypatch):
    """Without the All mask, the main table, the plots, the sensitivity
    summary, equality and the regressions all read the first configured
    variant under the first configured mask."""
    def variant_reply_fn(strategy, dataset):
        options = {c.question_id: c.options for c in dataset.cases}
        # the last option for original prompts, the first for the rest
        return lambda p: options[p.case_id][
            -1 if p.variant is PromptVariant.ORIGINAL else 0]

    monkeypatch.setattr(runner_mod, "_mock_reply_fn", variant_reply_fn)
    outs = {}
    for name, settings in (
        ("both", "masks: [without_political, only_political]"),
        ("first", "masks: [without_political]"),
    ):
        d = tmp_path / name
        d.mkdir()
        cfg = write_run(d)
        text = cfg.read_text().replace("ablation: true", settings)
        if name == "first":
            text = text.replace("variants: [original, zeroshot]",
                                "variants: [original]")
        cfg.write_text(text)
        run_experiment(load_config(cfg), offline=True)
        outs[name] = bundle_bytes(d / "out")
    both, first = outs["both"], outs["first"]

    plots = sorted(k for k in both if k.startswith("plots/"))
    assert len(plots) == 2 * 2 * 3  # backends x cases x attributes
    shared = ["metrics.md", "equality.json", *plots,
              *(k for k in both if k.startswith("regression_"))]
    assert {k: both[k] for k in shared} == {k: first[k] for k in shared}
    table = both["metrics.md"].decode()
    assert "\n| maj |" in table and "\n| first |" in table
    sensitivity = json.loads(both["sensitivity.json"])
    assert [(r["backend"], r["variant"]) for r in sensitivity] == [
        ("maj", "original"), ("maj", "zeroshot"),
        ("first", "original"), ("first", "zeroshot")]
    assert sensitivity[0]["harmonic_mean"] != sensitivity[1]["harmonic_mean"]
