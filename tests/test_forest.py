import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import surveyaudit.forest as forest_mod
from surveyaudit.data import Attribute, AttributeSchema, save_dataset
from surveyaudit.forest import (
    ForestParams,
    _gini_rows,
    baseline_metrics,
    fit_in_sample,
    predict,
)
from surveyaudit.runner import load_config, run_experiment
from surveyaudit.synthetic import CaseSpec, PopulationSpec, generate

from conftest import make_dataset, partition_by

FAST = ForestParams(n_trees=30)


def noiseless_dataset(n=200):
    # answer is an exact function of gender
    return make_dataset(
        n=n,
        options=("A", "B"),
        answer_fn=lambda i, p: 0 if p.values["gender"] == "Man" else 1,
    )


def test_noiseless_mapping_memorized():
    ds = noiseless_dataset()
    case = ds.cases[0]
    model = fit_in_sample(ds, case, FAST, seed=3)
    predicted = predict(model, ds.coded.codes)
    correct = sum(
        y == case.answers[p.respondent_id] for p, y in zip(ds.profiles, predicted)
    )
    assert correct == len(ds.profiles)
    assert not model.degenerate


def test_degenerate_single_class():
    ds = make_dataset(n=20, options=("A", "B"), answer_fn=lambda i, p: 0)
    case = ds.cases[0]
    model = fit_in_sample(ds, case, FAST, seed=1)
    assert model.degenerate
    assert all(y == 0 for y in predict(model, ds.coded.codes))


def test_same_seed_identical_predictions():
    ds = make_dataset(n=60, options=("A", "B"),
                      answer_fn=lambda i, p: (i * 13) % 2)
    case = ds.cases[0]
    a = fit_in_sample(ds, case, FAST, seed=9)
    b = fit_in_sample(ds, case, FAST, seed=9)
    for ya, yb in zip(predict(a, ds.coded.codes), predict(b, ds.coded.codes)):
        assert ya == yb


def test_in_sample_beats_majority_share():
    rng = np.random.default_rng(5)
    for seed in range(5):
        ds = make_dataset(
            n=120, options=("A", "B"),
            answer_fn=lambda i, p: int(rng.random() < 0.5),
        )
        case = ds.cases[0]
        report, model = baseline_metrics(ds, case, FAST, seed=seed)
        counts = np.bincount(list(case.answers.values()), minlength=2)
        majority_share = counts.max() / counts.sum()
        assert report.accuracy >= majority_share - 1e-12


def test_noisy_upper_bound_vs_mock():
    # 30% label noise on a gender-driven target: in-sample forest accuracy
    # must dominate a plain mock scored on the same rows
    rng = np.random.default_rng(11)
    flip = rng.random(300) < 0.3
    ds = make_dataset(
        n=300, options=("A", "B"),
        answer_fn=lambda i, p: (0 if p.values["gender"] == "Man" else 1) ^ int(flip[i]),
    )
    case = ds.cases[0]
    report, _ = baseline_metrics(ds, case, FAST, seed=2)
    # mock: always option 0
    mock_acc = sum(1 for v in case.answers.values() if v == 0) / len(case.answers)
    assert report.accuracy >= mock_acc


def test_deterministic_target_metrics():
    ds = noiseless_dataset(100)
    report, _ = baseline_metrics(ds, ds.cases[0], FAST, seed=7)
    assert report.accuracy == 1.0
    assert report.jss == 1.0
    for attr in ds.schema.names:
        for acc in report.per_group_accuracy[attr].values():
            assert acc in (None, 1.0)


def test_per_group_accuracy_at_least_group_majority():
    rng = np.random.default_rng(23)
    ds = make_dataset(
        n=150, options=("A", "B"),
        answer_fn=lambda i, p: int(rng.random() < 0.4),
    )
    case = ds.cases[0]
    report, _ = baseline_metrics(ds, case, ForestParams(n_trees=60), seed=4)
    for attr in ds.schema.names:
        for cat, ids in partition_by(ds, attr):
            if not ids:
                continue
            answers = [case.answers[r] for r in ids]
            share = max(answers.count(0), answers.count(1)) / len(answers)
            acc = report.per_group_accuracy[attr][cat]
            assert acc >= share - 1e-12, (attr, cat)


def test_row_shuffle_reproducible():
    ds = make_dataset(n=80, options=("A", "B"),
                      answer_fn=lambda i, p: (i * 7) % 2)
    case = ds.cases[0]
    report1, _ = baseline_metrics(ds, case, FAST, seed=6)
    report2, _ = baseline_metrics(ds, case, FAST, seed=6)
    assert report1.accuracy == report2.accuracy
    assert report1.jss == report2.jss


# --- reference grower: one gini_gain call per candidate feature -----------
#
# A per-feature grower with a queue of pending nodes.  It shares no code
# with the production grower and serves as its oracle: both draw the
# bootstrap and then one permutation per scanned node in level order, so
# they must build identical trees.

def _reference_gini_gain(y, mask, n_classes):
    n = len(y)
    left = y[~mask]
    right = y[mask]
    if len(left) == 0 or len(right) == 0:
        return -1.0

    def gini(part):
        counts = np.bincount(part, minlength=n_classes)
        p = counts / len(part)
        return 1.0 - float(np.sum(p * p))

    parent = gini(y)
    weighted = (len(left) / n) * gini(left) + (len(right) / n) * gini(right)
    return parent - weighted


def _reference_grow_tree(X, y, n_classes, params, rng):
    n, d = X.shape
    k = params.features_per_split or int(np.ceil(np.sqrt(d)))
    nodes = []  # [feature, left, right, counts], level by level
    # pending nodes: rows, depth, and the parent's record and child slot
    queue = deque([(rng.integers(0, n, n), 0, None, None)])
    while queue:
        idx, depth, parent, slot = queue.popleft()
        if parent is not None:
            nodes[parent][slot] = len(nodes)
        nodes.append([-1, -1, -1, np.bincount(y[idx], minlength=n_classes)])
        labels = y[idx]
        if (
            len(idx) < 2 * params.min_samples_leaf
            or len(np.unique(labels)) == 1
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            continue
        order = rng.permutation(d)
        best_feature = -1
        best_gain = 0.0
        for tried, f in enumerate(order, 1):
            gain = _reference_gini_gain(labels, X[idx, f] == 1, n_classes)
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_feature = f
            if tried >= k and best_feature >= 0:
                break
        if best_feature < 0:
            continue
        mask = X[idx, best_feature] == 1
        left_idx = idx[~mask]
        right_idx = idx[mask]
        if (
            len(left_idx) < params.min_samples_leaf
            or len(right_idx) < params.min_samples_leaf
        ):
            continue
        nodes[-1][0] = int(best_feature)
        queue.append((left_idx, depth + 1, len(nodes) - 1, 1))
        queue.append((right_idx, depth + 1, len(nodes) - 1, 2))
    return nodes


def _one_hot(dataset):
    blocks = []
    for attr in dataset.schema.attributes:
        block = np.zeros((len(dataset.profiles), len(attr.categories)),
                         dtype=np.uint8)
        for i, p in enumerate(dataset.profiles):
            block[i, attr.categories.index(p.values[attr.name])] = 1
        blocks.append(block)
    return np.hstack(blocks)


def _six_attribute_population(seed, n, options):
    attrs = (
        Attribute("gender", ("Man", "Woman"), "Man"),
        Attribute("age", ("Young", "Adult", "Senior"), "Young"),
        Attribute("education", ("Primary", "Secondary", "Tertiary"), "Primary"),
        Attribute("region", ("North", "South", "East", "West"), "North"),
        Attribute("ideology", ("Left", "Center", "Right"), "Center"),
        Attribute("interest", ("Low", "Medium", "High"), "Medium"),
    )
    k = len(options)
    skew = tuple((j + 1) / (k * (k + 1) / 2) for j in range(k))
    cases = (
        CaseSpec("vote", options, tuple([1 / k] * k), depends_on="ideology",
                 table={"Left": skew, "Center": tuple([1 / k] * k),
                        "Right": skew[::-1]}),
        CaseSpec("policy", options, skew, depends_on="age",
                 table={"Young": skew, "Adult": skew[::-1],
                        "Senior": tuple([1 / k] * k)}),
        CaseSpec("news", options, skew),
    )
    schema = AttributeSchema(attrs, "respondent_id",
                             tuple(c.question_id for c in cases))
    marginals = {a.name: tuple([1 / len(a.categories)] * len(a.categories))
                 for a in attrs}
    dataset, _ = generate(PopulationSpec(schema, marginals, n, cases,
                                         seed=seed))
    return dataset


def test_gini_rows_equals_gini():
    # split choices stay bit-identical only if every impurity equals
    # numpy's sum over one tally
    rng = np.random.default_rng(1)
    for n_classes in range(2, 13):
        counts = rng.integers(0, 60, (300, n_classes))
        counts[:, 0] += 1
        totals = counts.sum(axis=1)
        expected = []
        for c, t in zip(counts, totals):
            p = c / t
            expected.append(1.0 - float(np.sum(p * p)))
        assert _gini_rows(counts, totals).tolist() == expected
        # a (nodes, columns, classes) tally as a split holds it, in float64
        # and with classes some nodes lack altogether
        tally = rng.integers(0, 60, (40, 7, n_classes)).astype(float)
        tally *= rng.random((40, 1, n_classes)) >= 0.3
        tally[:, :, 0] += 1
        totals = tally.sum(axis=2)
        expected = [[1.0 - float(np.sum((c / t) * (c / t)))
                     for c, t in zip(node, node_totals)]
                    for node, node_totals in zip(tally, totals)]
        assert _gini_rows(tally, totals).tolist() == expected


def _assert_reference_trees(trees, X, y, n_classes, params, seed):
    # every tree equals the reference grower's tree for its index
    for tree_idx, tree in enumerate(trees):
        expected = _reference_grow_tree(
            X, y, n_classes, params, np.random.default_rng((seed, tree_idx)))
        assert len(tree.nodes) == len(expected)
        for node, (feature, left, right, counts) in zip(tree.nodes, expected):
            assert (node["feature"], node["left"], node["right"]) == \
                (feature, left, right)
            assert np.array_equal(node["counts"], counts)


@pytest.mark.parametrize("params, n_options", [
    (ForestParams(n_trees=8), 3),
    (ForestParams(n_trees=8, min_samples_leaf=3), 3),
    (ForestParams(n_trees=8, max_depth=4), 3),
    (ForestParams(n_trees=8, features_per_split=2), 3),
    # ten classes: an impurity then sums more terms than numpy adds in order
    (ForestParams(n_trees=4), 10),
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trees_match_reference_grower(params, n_options, seed):
    # a tree is the same in a small forest and in a 20-tree one
    options = tuple(f"o{j}" for j in range(n_options))
    ds = _six_attribute_population(seed, n=160, options=options)
    X = _one_hot(ds)
    for case in ds.cases:
        y = np.array([case.answers[p.respondent_id] for p in ds.profiles])
        small = fit_in_sample(ds, case, params, seed=seed)
        large = fit_in_sample(ds, case, replace(params, n_trees=20), seed=seed)
        assert len(large.trees) == 20
        _assert_reference_trees(large.trees, X, y, n_options, params, seed)
        _assert_reference_trees(small.trees, X, y, n_options, params, seed)


def _reference_predict(model, X):
    # one profile and one tree at a time, reading the one-hot columns
    votes = np.zeros((len(X), model.n_classes), dtype=int)
    for tree in model.trees:
        feature, left, right = (tree.nodes[k].tolist()
                                for k in ("feature", "left", "right"))
        for i, x in enumerate(X.tolist()):
            at = 0
            while feature[at] >= 0:
                at = right[at] if x[feature[at]] else left[at]
            votes[i, np.argmax(tree.nodes["counts"][at])] += 1
    return np.argmax(votes, axis=1).tolist()


@pytest.mark.parametrize("bounded", [False, True], ids=["one_pass", "bounded"])
def test_small_forest_trees_equal_large_forest_trees(bounded, monkeypatch):
    if bounded:  # many small tallies and prediction passes
        monkeypatch.setattr(forest_mod, "_TALLY_CODES", 64)
        monkeypatch.setattr(forest_mod, "_PREDICT_PAIRS", 100)
    # a tree is keyed by (seed, tree index), so the first trees of a
    # large forest are the trees of a small one
    ds = _six_attribute_population(5, n=300, options=("A", "B", "C", "D"))
    X = _one_hot(ds)
    for case in ds.cases:
        y = np.array([case.answers[p.respondent_id] for p in ds.profiles])
        small = fit_in_sample(ds, case, ForestParams(n_trees=8), seed=5)
        large = fit_in_sample(ds, case, ForestParams(n_trees=20), seed=5)
        for a, b in zip(small.trees, large.trees[:8]):
            assert a.nodes.dtype == b.nodes.dtype
            assert np.array_equal(a.nodes, b.nodes)
        _assert_reference_trees(large.trees, X, y, 4, ForestParams(), 5)
        assert predict(large, ds.coded.codes) == _reference_predict(large, X)
        assert predict(small, ds.coded.codes) == _reference_predict(small, X)


def test_fit_memory_peak_bounded():
    # A level's tallies are bounded by _TALLY_CODES cells.  At that bound,
    # (..., classes) temporaries per impurity would lift the peak of this fit
    # from about 2.9 MB to about 3.8 MB.
    ds = _six_attribute_population(1, n=160, options=("A", "B", "C"))
    case = ds.cases[0]
    fit_in_sample(ds, case, ForestParams(n_trees=2), seed=1)  # warm imports
    tracemalloc.start()
    try:
        fit_in_sample(ds, case, ForestParams(n_trees=100), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.3e6


def test_fit_memory_peak_bounded_at_n1000():
    # int32 node records, row indices and bootstrap weights of the smallest
    # type that holds n, and permutations drawn per tally group keep this
    # fit near 5.5 MB; 8-byte node fields, 4-byte rows and weights and a
    # permutation table per level took it to about 8.6 MB.
    ds = _six_attribute_population(1, n=1000, options=("A", "B", "C"))
    case = ds.cases[0]
    fit_in_sample(ds, case, ForestParams(n_trees=2), seed=1)  # warm imports
    tracemalloc.start()
    try:
        fit_in_sample(ds, case, ForestParams(n_trees=100), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6


def test_forest_heavy_bundle_bytes_pinned(tmp_path):
    # one digest over the files the forest does not touch and one over those
    # it does, so a change to the forest ceiling re-takes only the second
    ds = _six_attribute_population(7, n=120, options=("A", "B", "C"))
    save_dataset(ds, tmp_path / "data.csv", tmp_path / "schema.yaml")
    (tmp_path / "config.yaml").write_text(textwrap.dedent("""\
        dataset: {csv: data.csv, schema: schema.yaml}
        backends:
          - {name: mock, kind: mock, strategy: majority}
        variant: zeroshot
        political: [ideology, interest]
        forest: {n_trees: 40, min_samples_leaf: 2, seed: 5}
        seed: 11
        output: out
    """))
    run_experiment(load_config(tmp_path / "config.yaml"), offline=True)
    out = tmp_path / "out"
    forest_files = {"metrics.json", "metrics.md", "plots"}
    elsewhere, forest = hashlib.sha256(), hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            name = path.relative_to(out)
            digest = forest if name.parts[0] in forest_files else elsewhere
            digest.update(str(name).encode())
            digest.update(path.read_bytes())
    # manifest.json, predictions.jsonl and equality.json
    assert elsewhere.hexdigest() == (
        "e7081f97cf71f1e6cc8b346765e50ddf5142c347e893f2742d45f724d2f8542f")
    # metrics.json, metrics.md and plots/, taken with the level-by-level grower
    assert forest.hexdigest() == (
        "c849c048b9692f3820b3608dc4acfa1d23cdc511c2ffae526b8d1b434b6d7e7f")


def test_run_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, a module no step of a run needs
    ds = _six_attribute_population(7, n=120, options=("A", "B", "C"))
    save_dataset(ds, tmp_path / "data.csv", tmp_path / "schema.yaml")
    (tmp_path / "config.yaml").write_text(textwrap.dedent(f"""\
        dataset: {{csv: data.csv, schema: schema.yaml}}
        backends:
          - {{name: mock, kind: mock, strategy: majority}}
        variants: [original, zeroshot]
        ablation: true
        political: [ideology, interest]
        forest: {{n_trees: 20, seed: 5}}
        regressions:
          - {{name: m1, main_effects: all}}
        output: out
    """))
    script = ("import sys\n"
              "from surveyaudit.runner import load_config, run_experiment\n"
              "run_experiment(load_config(sys.argv[1]), offline=True)\n"
              "print('numpy.ma' in sys.modules)")
    src = Path(forest_mod.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "config.yaml")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120, check=True)
    assert (tmp_path / "out" / "predictions.jsonl").is_file()
    assert out.stdout.strip() == "False"
