"""Byte pins on the metric battery and on a whole run bundle.

The digests were taken with the per-routine group counting that preceded
the single integer tally in ``metrics``; any drift in a figure, a key
order or a float changes them.
"""

import hashlib
import json
import textwrap

from surveyaudit import runner
from surveyaudit.data import Attribute, AttributeSchema, save_dataset
from surveyaudit.gateway import Prediction
from surveyaudit.metrics import compute_report
from surveyaudit.runner import load_config, run_experiment
from surveyaudit.synthetic import CaseSpec, PopulationSpec, generate


def _population(seed):
    """Three attributes, one category nobody is drawn into, a quarter of
    the replies unparseable and every reply of age=Old unparseable."""
    schema = AttributeSchema(
        attributes=(
            Attribute("gender", ("g0", "g1", "g2", "g3"), "g0"),
            Attribute("age", ("Young", "Old"), "Young"),
            Attribute("region", ("North", "South", "East"), "North"),
        ),
        id_column="respondent_id",
        answer_columns=("q1",),
    )
    spec = PopulationSpec(
        schema=schema,
        marginals={
            "gender": [0.5, 0.3, 0.2, 0.0],
            "age": [0.6, 0.4],
            "region": [0.3, 0.3, 0.4],
        },
        n=60 + 15 * seed,
        cases=(CaseSpec("q1", ("A", "B", "C"), (0.5, 0.3, 0.2),
                        depends_on="region",
                        table={"North": [0.7, 0.2, 0.1],
                               "South": [0.2, 0.6, 0.2],
                               "East": [0.1, 0.3, 0.6]}),),
        correctness_intercept=0.8,
        correctness_beta={"age=Old": -0.5, "gender=g1": 0.4},
        unparseable_rate=0.25,
        seed=seed,
    )
    ds, preds = generate(spec)
    old = {p.respondent_id for p in ds.profiles if p.values["age"] == "Old"}
    preds = [
        Prediction(p.respondent_id, p.question_id, p.backend, p.raw_text,
                   None if p.respondent_id in old else p.parsed)
        for p in preds
    ]
    return ds, preds


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def test_report_digest_pinned():
    digests = {}
    for policy in ("incorrect", "exclude"):
        dumps = []
        for seed in (1, 2, 3):
            ds, preds = _population(seed)
            report = compute_report(ds, preds, ds.cases[0], backend="syn",
                                    policy=policy)
            dumps.append(json.dumps(report.to_dict(), sort_keys=True))
        digests[policy] = _digest(dumps)
    assert digests == {
        "incorrect":
            "11644b7957e922b76200be8832437e1484aa74eec6bb8cf438000eb82f300a6d",
        "exclude":
            "73820ba8deb4e9e9e3b485c13f03944f87d55c84e7ec392952fb26ba79e8ab0e",
    }


def test_intersection_accuracy_pinned():
    dumps = []
    for policy in ("incorrect", "exclude"):
        for seed in (1, 2, 3):
            ds, preds = _population(seed)
            for a, b in (("gender", "age"), ("region", "gender")):
                acc, sizes = runner.intersection_accuracy(
                    ds, preds, ds.cases[0], a, b, policy=policy)
                assert list(acc) == list(sizes)
                dumps.append(json.dumps(
                    [[list(k), acc[k], sizes[k]] for k in acc]))
    assert _digest(dumps) == (
        "187ce290b76e428fdbdf0295fb4bff89fe85dd49a63dee1574935c0b337e6e2d")


def write_run(tmp_path, out="out"):
    """A two-backend ablation run over two variants with equality pairs and
    one regression with an interaction; returns the config path."""
    schema = AttributeSchema(
        attributes=(
            Attribute("gender", ("Man", "Woman"), "Man"),
            Attribute("age", ("Young Adult", "Adult", "Senior Adult"),
                      "Young Adult"),
            Attribute("ideology", ("Left", "Center", "Right"), "Center"),
        ),
        id_column="respondent_id",
        answer_columns=("vote", "trust"),
    )
    spec = PopulationSpec(
        schema=schema,
        marginals={"gender": [0.5, 0.5], "age": [0.4, 0.4, 0.2],
                   "ideology": [0.3, 0.4, 0.3]},
        n=150,
        cases=(
            CaseSpec("vote", ("OptA", "OptB"), (0.6, 0.4), depends_on="gender",
                     table={"Man": [0.8, 0.2], "Woman": [0.3, 0.7]}),
            CaseSpec("trust", ("Low", "Mid", "High"), (0.3, 0.4, 0.3),
                     depends_on="age",
                     table={"Young Adult": [0.5, 0.3, 0.2],
                            "Adult": [0.3, 0.4, 0.3],
                            "Senior Adult": [0.2, 0.3, 0.5]}),
        ),
        seed=5,
    )
    dataset, _ = generate(spec)
    save_dataset(dataset, tmp_path / "data.csv", tmp_path / "schema.yaml")
    path = tmp_path / "config.yaml"
    path.write_text(textwrap.dedent(f"""\
        dataset: {{csv: data.csv, schema: schema.yaml}}
        backends:
          - {{name: maj, kind: mock, strategy: majority}}
          - {{name: first, kind: mock, strategy: first_option}}
        variants: [original, zeroshot]
        ablation: true
        fewshot: {{k: 3}}
        political: [ideology]
        forest: {{n_trees: 10, seed: 3}}
        equality_pairs: [[gender, age], [ideology, gender]]
        regressions:
          - name: inter
            main_effects: [gender, age]
            interactions: [[gender, age]]
        seed: 21
        output: {out}
    """))
    return path


def bundle_digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out_dir)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_run_bundle_digest_pinned(tmp_path):
    run_experiment(load_config(write_run(tmp_path)), offline=True)
    assert bundle_digest(tmp_path / "out") == (
        "46c1796e6d4f513d8ffee049273e991e4bd293e63d1c115c60520fc8b3ef4987")
