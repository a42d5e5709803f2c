"""In-sample random forest: the per-question predictability ceiling.

The forest is trained on the same rows it predicts, so its accuracy acts
as an upper bound that normalizes every model metric.  Categorical
attributes are one-hot encoded; splits minimize Gini impurity over a
random feature subset; all randomness flows from an integer seed stream so
runs are bit-reproducible, serial or parallel.

Every attribute has exactly one active one-hot column per row, so a row is
stored as the index of its active column per attribute: its category code
in ``Dataset.coded`` plus the attribute's first column.  A node tallies
the classes of all its rows, weighted by bootstrap multiplicity, for every
feature at once with one ``np.bincount``; a feature's right side is its
tally and its left side the node total minus it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import AttributeSchema, Dataset, SocioProfile, SurveyCase
from .errors import SchemaMismatch
from .gateway import Prediction
from .metrics import MetricReport, compute_report


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 500
    features_per_split: Optional[int] = None  # default: ceil(sqrt(d))
    min_samples_leaf: int = 1
    max_depth: Optional[int] = None

    def __post_init__(self):
        for name in ("n_trees", "features_per_split", "min_samples_leaf",
                     "max_depth"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


def _node_dtype(n_classes: int) -> np.dtype:
    return np.dtype([("feature", np.intp), ("left", np.intp),
                     ("right", np.intp), ("counts", np.int64, (n_classes,))])


@dataclass
class _Tree:
    """Nodes in depth-first pre-order, one record each: the split column
    (-1 at a leaf), the left and right child (-1 at a leaf) and the class
    tally of the node's bootstrap rows."""

    nodes: np.ndarray

    def evaluate(self, active: np.ndarray,
                 attribute_of: np.ndarray) -> np.ndarray:
        """Leaf class of every row of ``active`` (each row's active column
        per attribute); a tie goes to the lowest option index."""
        feature, left, right = (self.nodes[k] for k in ("feature", "left", "right"))
        rows = np.arange(len(active))
        at = np.zeros(len(active), dtype=np.intp)
        while True:
            f = feature[at]
            inner = f >= 0
            if not inner.any():
                return np.argmax(self.nodes["counts"][at], axis=1)
            # a row already at its leaf reads column -1 and stays put
            step = np.where(active[rows, attribute_of[f]] == f,
                            right[at], left[at])
            at = np.where(inner, step, at)


@dataclass
class ForestModel:
    trees: list[_Tree]
    schema: AttributeSchema
    n_classes: int
    params: ForestParams
    seed: int
    degenerate: bool = False  # single answer class in the training data


def _columns(schema: AttributeSchema) -> tuple[np.ndarray, np.ndarray]:
    """Each attribute's first one-hot column, and each column's attribute."""
    sizes = [len(a.categories) for a in schema.attributes]
    return np.cumsum([0] + sizes[:-1]), np.repeat(np.arange(len(sizes)), sizes)


def _codes(schema: AttributeSchema,
           profiles: Sequence[SocioProfile]) -> np.ndarray:
    """(profiles x attributes) category index, as in ``Dataset.coded``."""
    codes = np.empty((len(profiles), len(schema.attributes)), dtype=np.intp)
    for j, attr in enumerate(schema.attributes):
        for i, profile in enumerate(profiles):
            code = attr.index.get(profile.values.get(attr.name))
            if code is None:
                raise SchemaMismatch(
                    f"profile {profile.respondent_id!r} does not match the "
                    f"training schema at attribute {attr.name!r}"
                )
            codes[i, j] = code
    return codes


def _gini(counts: Sequence[float], n: float) -> float:
    """1 - sum((c/n)^2), summed in the order ``np.sum`` uses, so that gains
    and hence split choices match a per-feature numpy computation bit for
    bit: fewer than 8 terms are added left to right, more go to np.sum."""
    squares = [(c / n) * (c / n) for c in counts]
    if len(squares) < 8:
        total = 0.0
        for s in squares:
            total += s
    else:
        total = float(np.sum(squares))
    return 1.0 - total


def _grow_tree(
    active: np.ndarray,
    codes: np.ndarray,
    attribute_of: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    params: ForestParams,
    rng: np.random.Generator,
) -> _Tree:
    """Grow one tree on a bootstrap of the training rows.

    ``active`` holds each row's active one-hot column per attribute,
    ``codes`` is ``active * n_classes + y`` and ``attribute_of`` maps a
    column to its attribute.  Rows are kept once, weighted by how often the
    bootstrap drew them.
    """
    n, n_attrs = active.shape
    d, C = len(attribute_of), n_classes
    k = params.features_per_split or int(np.ceil(np.sqrt(d)))
    nodes: list = []  # (feature, left, right, counts) per node

    def leaf(counts: list) -> int:
        nodes.append((-1, -1, -1, counts))
        return len(nodes) - 1

    def build(rows: np.ndarray, w: np.ndarray, counts: list, total: float,
              depth: int) -> int:
        if (
            total < 2 * params.min_samples_leaf
            or sum(1 for c in counts if c) == 1
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            return leaf(counts)
        # random candidate subset first; fall back to the remaining features
        # so a pure split is never missed when one exists
        order = rng.permutation(d)
        tally = np.bincount(codes[rows].ravel(), weights=np.repeat(w, n_attrs),
                            minlength=d * C).reshape(d, C).tolist()
        parent = _gini(counts, total)
        best_feature = -1
        best_gain = 0.0
        for tried, f in enumerate(order.tolist(), 1):
            right = tally[f]
            n_right = sum(right)
            n_left = total - n_right
            if n_left and n_right:
                left = [c - r for c, r in zip(counts, right)]
                gain = parent - ((n_left / total) * _gini(left, n_left)
                                 + (n_right / total) * _gini(right, n_right))
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_feature = f
            if tried >= k and best_feature >= 0:
                break
        if best_feature < 0:
            return leaf(counts)
        right = tally[best_feature]
        n_right = sum(right)
        n_left = total - n_right
        if n_left < params.min_samples_leaf or n_right < params.min_samples_leaf:
            return leaf(counts)
        goes_right = active[rows, attribute_of[best_feature]] == best_feature
        node_pos = len(nodes)
        nodes.append(None)
        left_pos = build(rows[~goes_right], w[~goes_right],
                         [c - r for c, r in zip(counts, right)], n_left,
                         depth + 1)
        right_pos = build(rows[goes_right], w[goes_right], right, n_right,
                          depth + 1)
        nodes[node_pos] = (best_feature, left_pos, right_pos, counts)
        return node_pos

    weights = np.bincount(rng.integers(0, n, n), minlength=n)
    rows = np.flatnonzero(weights)
    w = weights[rows]
    counts = np.bincount(y[rows], weights=w, minlength=C).tolist()
    build(rows, w, counts, float(n), 0)
    return _Tree(np.array(nodes, dtype=_node_dtype(C)))


def fit_in_sample(
    dataset: Dataset,
    case: SurveyCase,
    params: ForestParams = ForestParams(),
    seed: int = 0,
) -> ForestModel:
    """Fit a forest on every respondent with an answer for the case.

    Deterministic for a fixed seed: each tree draws from its own generator
    keyed by (seed, tree index), so serial and parallel fits agree.
    """
    ids = dataset.answered(case)[0]
    if len(ids) < 2:
        raise ValueError("need at least 2 answered respondents to fit")
    offsets, attribute_of = _columns(dataset.schema)
    active = dataset.coded.of(ids) + offsets
    y = np.array([case.answers[rid] for rid in ids], dtype=np.int64)
    n_classes = len(case.options)
    # column * n_classes + class: one bincount tallies every column's classes
    codes = active * n_classes + y[:, None]

    trees = [
        _grow_tree(active, codes, attribute_of, y, n_classes, params,
                   np.random.default_rng((seed, tree_idx)))
        for tree_idx in range(params.n_trees)
    ]
    return ForestModel(
        trees=trees,
        schema=dataset.schema,
        n_classes=n_classes,
        params=params,
        seed=seed,
        degenerate=len(np.unique(y)) == 1,
    )


def predict(model: ForestModel, profiles: Sequence[SocioProfile]) -> list[int]:
    """Majority vote over trees for every profile; ties break to the lowest
    option index."""
    offsets, attribute_of = _columns(model.schema)
    active = _codes(model.schema, profiles) + offsets
    rows = np.arange(len(profiles))
    votes = np.zeros((len(profiles), model.n_classes), dtype=np.int64)
    for tree in model.trees:
        votes[rows, tree.evaluate(active, attribute_of)] += 1
    return np.argmax(votes, axis=1).tolist()


def baseline_metrics(
    dataset: Dataset,
    case: SurveyCase,
    params: ForestParams = ForestParams(),
    seed: int = 0,
) -> tuple[MetricReport, ForestModel]:
    """Fit in-sample, predict every training row, and run the same metric
    battery applied to model predictions."""
    model = fit_in_sample(dataset, case, params, seed)
    ids = dataset.answered(case)[0]
    answered = [dataset.profile(rid) for rid in ids]
    predictions = [
        Prediction(
            respondent_id=rid,
            question_id=case.question_id,
            backend="in_sample_forest",
            raw_text="",
            parsed=parsed,
        )
        for rid, parsed in zip(ids, predict(model, answered))
    ]
    report = compute_report(dataset, predictions, case, backend="in_sample_forest")
    return report, model
