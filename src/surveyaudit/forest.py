"""In-sample random forest: the per-question predictability ceiling.

The forest is trained on the same rows it predicts, so its accuracy acts
as an upper bound that normalizes every model metric.  Categorical
attributes are one-hot encoded; splits minimize Gini impurity over a
random feature subset; all randomness flows from an integer seed stream so
runs are bit-reproducible.

Every attribute has exactly one active one-hot column per row, so a row is
stored as the index of its active column per attribute: its category code
in ``Dataset.coded`` plus the attribute's first column.  A node tallies
the classes of all its rows, weighted by bootstrap multiplicity, for every
feature at once with one ``np.bincount``; a feature's right side is its
tally and its left side the node total minus it, written over the tally
once the right sides' impurities are taken.  An impurity adds one class's
squared share at a time, so no (..., classes) temporary is built.

All trees of a forest grow level by level (``_grow_forest``): one
vectorised step scans every node at the current depth of every tree, so
the steps are as many as the deepest tree has levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import AttributeSchema, Dataset, SurveyCase, distinct_rows
from .gateway import Predictions
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
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


# bound on the (row, attribute) codes plus (column, class) gain cells one
# tally gathers
_TALLY_CODES = 1 << 16
# bound on the (tree, profile) pairs one prediction pass walks
_PREDICT_PAIRS = 1 << 12


def _node_dtype(n_classes: int) -> np.dtype:
    # a node index, a column and a tally (at most n rows) all fit in int32
    return np.dtype([("feature", np.int32), ("left", np.int32),
                     ("right", np.int32), ("counts", np.int32, (n_classes,))])


@dataclass
class _Tree:
    """Nodes level by level, left to right, one record each: the split column
    (-1 at a leaf), the left and right child (-1 at a leaf) and the class
    tally of the node's bootstrap rows."""

    nodes: np.ndarray


@dataclass
class ForestModel:
    trees: list[_Tree]
    schema: AttributeSchema
    n_classes: int


def _columns(schema: AttributeSchema) -> tuple[np.ndarray, np.ndarray]:
    """Each attribute's first one-hot column, and each column's attribute."""
    sizes = [len(a.categories) for a in schema.attributes]
    return np.cumsum([0] + sizes[:-1]), np.repeat(np.arange(len(sizes)), sizes)


def _gini_rows(counts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """1 - sum((c/n)^2) of every class tally along the last axis of
    ``counts``, summed in the order ``np.sum`` uses on one tally (fewer
    than 8 terms left to right), so that gains and hence split choices
    match a per-feature numpy computation bit for bit."""
    if counts.shape[-1] >= 8:
        p = counts / n[..., None]
        return 1.0 - np.sum(p * p, axis=-1)
    total = np.zeros(n.shape)  # 0.0 + x is x, so the first term is exact
    for j in range(counts.shape[-1]):
        p = counts[..., j] / n
        total += p * p
    return 1.0 - total


def _grow_forest(
    active: np.ndarray,
    codes: np.ndarray,
    attribute_of: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    params: ForestParams,
    rngs: Sequence[np.random.Generator],
) -> list[_Tree]:
    """Grow one tree per generator of ``rngs``, all of them level by level.

    ``active`` holds each row's active one-hot column per attribute,
    ``codes`` is ``active * n_classes + y`` and ``attribute_of`` maps a
    column to its attribute.  A tree keeps its bootstrap rows once,
    weighted by how often the bootstrap drew them.

    A step takes every node at the current depth of every tree, tree by
    tree and left to right.  The stop rules make some of them leaves; the
    others are scanned in groups of consecutive nodes, each with a
    permutation its tree's generator draws when its group is scanned, and
    split or stay leaves.  So a tree draws its bootstrap and then one
    permutation per scanned node in level order, whatever the size of the
    forest.  The bootstrap rows of all trees sit in one flat array in which
    each node owns a segment; a split partitions its segment stably, left
    rows first.  A row index is below n and a row is drawn at most n times,
    so both fit the smallest unsigned type that holds n.
    """
    n, n_attrs = active.shape
    d, C = len(attribute_of), n_classes
    k = params.features_per_split or int(np.ceil(np.sqrt(d)))
    msl = params.min_samples_leaf
    n_trees = len(rngs)

    # Rows of one profile never part, so every leaf holds a profile of its
    # own and a tree has at most 2 * profiles - 1 nodes.
    profile = distinct_rows(active)[0]
    capacity = np.empty(n_trees, dtype=np.intp)
    flat_rows = np.empty(n_trees * n, dtype=np.min_scalar_type(n))
    flat_w = np.empty(n_trees * n, dtype=np.min_scalar_type(n))
    # the nodes of the current level: tree, row segment and class tally
    tree = np.arange(n_trees, dtype=np.int32)
    start = np.empty(n_trees, dtype=np.int32)
    end = np.empty(n_trees, dtype=np.int32)
    counts = np.empty((n_trees, C), dtype=np.int32)
    filled = 0
    for t, rng in enumerate(rngs):
        w = np.bincount(rng.integers(0, n, n), minlength=n)
        r = np.flatnonzero(w)
        start[t], filled = filled, filled + len(r)
        end[t] = filled
        flat_rows[start[t]:filled], flat_w[start[t]:filled] = r, w[r]
        counts[t] = np.bincount(y[r], weights=w[r], minlength=C)
        capacity[t] = 2 * np.count_nonzero(np.bincount(profile[r])) - 1

    def split(start, end, counts, total, order):
        """The chosen column of each node (-1: it stays a leaf), the class
        tally right of it and the node's rows left of it; the rows of every
        node that splits are partitioned in place."""
        m = len(start)
        lengths = end - start
        at = np.arange(lengths.sum()) + np.repeat(
            start - (np.cumsum(lengths) - lengths), lengths)
        r, w = flat_rows[at], flat_w[at]
        slot = np.repeat(np.arange(m, dtype=np.int32), lengths)
        # np.bincount counts intp codes with float64 weights.  Both share one
        # block, freed before the gains are taken: with glibc, freeing a
        # block this large lifts the mmap threshold above a step's
        # temporaries, so the heap is not trimmed and faulted in again after
        # every tally.
        block = np.empty((2, len(r), n_attrs))
        x = block[0].view(np.intp)
        np.add(codes[r], (slot * (d * C))[:, None], out=x)
        block[1] = w[:, None]
        tally = np.bincount(x.ravel(), weights=block[1].ravel(),
                            minlength=m * d * C).reshape(m, d, C)
        del block, x
        n_right = tally.sum(axis=2)
        n_left = total[:, None] - n_right
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_right = _gini_rows(tally, n_right)
            left = np.subtract(counts[:, None], tally, out=tally)
            gain = _gini_rows(counts, total)[:, None] - (
                (n_left / total[:, None]) * _gini_rows(left, n_left)
                + (n_right / total[:, None]) * gini_right)
        gain[(n_left == 0) | (n_right == 0)] = -np.inf
        nodes = np.arange(m)
        g = gain[nodes[:, None], order]  # in scan order
        # the scan stops after k tries once a gain beats 0 by 1e-12
        beat = g > 1e-12
        found = np.where(beat.any(axis=1), beat.argmax(axis=1), d - 1)
        g[np.arange(d) > np.maximum(found, k - 1)[:, None]] = -np.inf
        pick = g.argmax(axis=1)
        best = g[nodes, pick]
        feature = np.where(best > 1e-12, order[nodes, pick], -1)
        # The scan keeps a gain only if it beats the best so far by 1e-12,
        # so it ends on the first maximum unless a gain lies just below the
        # maximum; replay the scan for such nodes.
        near = ((g > best[:, None] - 2e-12) & (g < best[:, None])).any(axis=1)
        for i in np.flatnonzero(near):
            top, feature[i] = 0.0, -1
            for j in range(d):
                if g[i, j] > top + 1e-12:
                    top, feature[i] = g[i, j], order[i, j]
        chosen = np.maximum(feature, 0)
        right = counts - left[nodes, chosen]
        n_r = n_right[nodes, chosen]
        feature[(total - n_r < msl) | (n_r < msl)] = -1
        f = feature[slot]
        # a row of a leaf reads column -1, which no row has active
        goes_right = active[r, attribute_of[f]] == f
        moved = np.argsort(slot * 2 + goes_right, kind="stable")
        flat_rows[at], flat_w[at] = r[moved], w[moved]
        return feature, right, lengths - np.bincount(slot[goes_right],
                                                     minlength=m)

    # tree t records its nodes level by level, left to right, in
    # out[first[t]:first[t] + recorded[t]]
    first = np.cumsum(capacity) - capacity
    out = np.empty(capacity.sum(), dtype=_node_dtype(C))
    recorded = np.zeros(n_trees, dtype=np.intp)
    depth = 0
    while tree.size:
        total = counts.sum(axis=1)
        scan = (total >= 2 * msl) & ((counts != 0).sum(axis=1) > 1)
        if params.max_depth is not None and depth >= params.max_depth:
            scan[:] = False
        # each node's column (-1: a leaf), the class tally right of it and
        # its rows left of it
        feature = np.full(len(tree), -1, dtype=np.int32)
        right = np.zeros((len(tree), C), dtype=np.int32)
        n_left = np.zeros(len(tree), dtype=np.int32)
        s = np.flatnonzero(scan)
        if s.size:
            # bound the codes and the gain cells one tally gathers
            cost = (end[s] - start[s]) * n_attrs + d * C
            group = (np.cumsum(cost) - cost) // _TALLY_CODES
            cuts = [0, *(np.flatnonzero(np.diff(group)) + 1), len(s)]
            # permuted() shuffles each row of base with the draws that as
            # many consecutive permutation(d) calls make, in the same order,
            # so a tree whose nodes span two groups draws as if in one
            base = np.tile(np.arange(d, dtype=np.int16),
                           (np.bincount(tree[s]).max(), 1))
            parts = []
            for a, b in zip(cuts, cuts[1:]):
                g = s[a:b]
                # each tree's nodes in the group, in order
                runs = [0, *(np.flatnonzero(np.diff(tree[g])) + 1), len(g)]
                order = np.empty((len(g), d), dtype=np.int16)
                for i, j in zip(runs, runs[1:]):
                    order[i:j] = rngs[tree[g[i]]].permuted(base[:j - i],
                                                           axis=1)
                parts.append(split(start[g], end[g], counts[g], total[g],
                                   order))
            feature[s], right[s], n_left[s] = (np.concatenate(x)
                                               for x in zip(*parts))
        s = np.flatnonzero(feature >= 0)
        # record the level; a tree's children follow its last record
        rank = np.arange(len(tree)) - np.searchsorted(tree, tree)
        at = first[tree] + recorded[tree] + rank
        recorded += np.bincount(tree, minlength=n_trees)
        kid = recorded[tree[s]] + 2 * (np.arange(len(s))
                                       - np.searchsorted(tree[s], tree[s]))
        out["feature"][at] = feature
        out["left"][at], out["right"][at] = -1, -1
        out["left"][at[s]], out["right"][at[s]] = kid, kid + 1
        out["counts"][at] = counts
        # the next level: the left and then the right child of each split
        mid = start[s] + n_left[s]
        tree = np.repeat(tree[s], 2)
        start = np.column_stack([start[s], mid]).ravel()
        end = np.column_stack([mid, end[s]]).ravel()
        counts = np.stack([counts[s] - right[s], right[s]],
                          axis=1).reshape(-1, C)
        depth += 1
    return [_Tree(out[a:a + size]) for a, size in zip(first, recorded)]


def fit_in_sample(
    dataset: Dataset,
    case: SurveyCase,
    params: ForestParams = ForestParams(),
    seed: int = 0,
) -> ForestModel:
    """Fit a forest on every respondent with an answer for the case.

    Deterministic for a fixed seed: each tree draws from its own generator
    keyed by (seed, tree index), so a tree is the same however many trees
    the forest has.
    """
    ids = dataset.answered(case)[0]
    if len(ids) < 2:
        raise ValueError("need at least 2 answered respondents to fit")
    offsets, attribute_of = _columns(dataset.schema)
    active = dataset.coded.of(ids) + offsets
    y = np.array([case.answers[rid] for rid in ids], dtype=np.int64)
    n_classes = len(case.options)
    # column * n_classes + class: one bincount tallies every column's classes;
    # int32, so that the codes a tally gathers take 4 bytes each
    codes = (active * n_classes + y[:, None]).astype(np.int32)

    rngs = [np.random.default_rng((seed, tree_idx))
            for tree_idx in range(params.n_trees)]
    return ForestModel(
        trees=_grow_forest(active, codes, attribute_of, y, n_classes, params,
                           rngs),
        schema=dataset.schema,
        n_classes=n_classes,
    )


def predict(model: ForestModel, codes: np.ndarray) -> list[int]:
    """Majority vote over trees for every row of category codes, rows as
    ``Dataset.coded`` holds them; ties break to the lowest option index.

    The trees go in passes of up to ``_PREDICT_PAIRS`` (tree, row) pairs.
    A pass stacks the node tables of its trees, and all its pairs descend
    together, one level per step, each following the row's active column
    per attribute.
    """
    offsets, attribute_of = _columns(model.schema)
    active = codes + offsets
    n, C = len(codes), model.n_classes
    votes = np.zeros(n * C, dtype=np.int64)
    per_pass = max(1, _PREDICT_PAIRS // max(n, 1))
    for a in range(0, len(model.trees), per_pass):
        trees = model.trees[a:a + per_pass]
        sizes = [len(t.nodes) for t in trees]
        roots = np.cumsum([0] + sizes[:-1])
        # widened to intp once, so the walk indexes without casting
        feature, left, right = (np.concatenate([t.nodes[name] for t in trees],
                                               dtype=np.intp)
                                for name in ("feature", "left", "right"))
        # a leaf leads to itself, so the pairs that reached one stay put
        inner = feature >= 0
        node = np.arange(len(feature))
        left = np.where(inner, left + np.repeat(roots, sizes), node)
        right = np.where(inner, right + np.repeat(roots, sizes), node)
        # a leaf votes for the first class with the most rows
        vote = np.concatenate([np.argmax(t.nodes["counts"], axis=1)
                               for t in trees])
        at = np.repeat(roots, n)
        row = np.tile(np.arange(n), len(trees))
        while True:
            f = feature[at]
            if not (f >= 0).any():
                break
            # a leaf reads column -1, which no row has active
            at = np.where(active[row, attribute_of[f]] == f, right[at],
                          left[at])
        votes += np.bincount(row * C + vote[at], minlength=n * C)
    return np.argmax(votes.reshape(n, C), axis=1).tolist()


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
    n = len(ids)
    predictions = Predictions(
        ids, (case.question_id,) * n, ("in_sample_forest",) * n, ("",) * n,
        tuple(predict(model, dataset.coded.of(ids))))
    report = compute_report(dataset, predictions, case, backend="in_sample_forest")
    return report, model
