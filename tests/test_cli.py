import json
import math
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

from surveyaudit import runner as runner_mod
from surveyaudit.cli import main
from surveyaudit.data import Attribute, AttributeSchema, save_dataset
from surveyaudit.errors import ConfigError
from surveyaudit.prompts import PromptVariant
from surveyaudit.runner import load_config, run_experiment
from surveyaudit.synthetic import CaseSpec, PopulationSpec, generate

from test_pinned import write_run


def write_population(tmp_path, n=120, seed=3, questions=("vote",)):
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
                     table={"Man": [0.8, 0.2], "Woman": [0.3, 0.7]})
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
        variant: zeroshot
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


def _fails_before_any_work(tmp_path, monkeypatch, extra):
    write_population(tmp_path)
    cfg = write_config(tmp_path, extra=extra)

    def no_forest(*args, **kwargs):
        raise AssertionError("the forest ran before the config was checked")

    monkeypatch.setattr(runner_mod.forest_mod, "baseline_metrics", no_forest)
    result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--offline"])
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
], ids=["forest_key", "n_trees", "min_samples_leaf", "max_depth",
        "features_per_split", "backend_name", "backend_kind", "fewshot_k_0",
        "fewshot_k_negative", "variant", "mask", "fewshot_k_above_eligible",
        "with_context_without_blurb", "backend_without_kind",
        "strategy_on_remote"])
def test_config_mistake_fails_before_any_work(tmp_path, monkeypatch, extra,
                                              message):
    # a key repeated in ``extra`` overrides write_config's, as YAML loads it
    assert message in _fails_before_any_work(tmp_path, monkeypatch, extra)


# The names perfbench's tracer wraps on runner: each must stay a global of
# runner that a run calls.
TRACED = ("load_dataset", "render_case_prompts", "sample_fewshot", "render",
          "run_batch", "ExchangeCache", "intersection_accuracy",
          "build_design", "fit_logit", "write_bundle")


def test_run_calls_the_traced_names(tmp_path, monkeypatch):
    calls = []

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in TRACED:
        count(runner_mod, name)
    count(runner_mod.forest_mod, "baseline_metrics")
    write_population(tmp_path)
    cfg = write_config(tmp_path, extra=textwrap.dedent("""\
        variants: [original]
        equality_pairs: [[gender, age]]
        regressions:
          - {name: model1, main_effects: [gender]}
    """))
    run_experiment(load_config(cfg), offline=True)
    assert set(calls) == {*TRACED, "baseline_metrics"}


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
