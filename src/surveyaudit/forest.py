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
tally and its left side the node total minus it.

A forest of ``LOCKSTEP_MIN_TREES`` trees or more is grown in lockstep
(``_grow_lockstep``): one vectorised step builds the next pre-order node of
every tree.  Smaller forests grow tree by tree (``_grow_tree``), because a
lockstep step has a fixed cost that only many trees amortise.  Both build
the same trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import AttributeSchema, Dataset, SurveyCase, distinct_rows
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
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


# Forests of at least this many trees grow in lockstep.  A lockstep step
# has a fixed cost that only many trees amortise; the crossover is measured
# in README.md ("The forest ceiling").
LOCKSTEP_MIN_TREES = 20
# permutations a tree draws at a time in lockstep
_PERMUTATIONS = 32
# bound on the (row, attribute) codes one lockstep tally gathers
_TALLY_CODES = 1 << 13
# bound on the (tree, profile) pairs one prediction pass walks
_PREDICT_PAIRS = 1 << 12


def _node_dtype(n_classes: int) -> np.dtype:
    return np.dtype([("feature", np.intp), ("left", np.intp),
                     ("right", np.intp), ("counts", np.int64, (n_classes,))])


@dataclass
class _Tree:
    """Nodes in depth-first pre-order, one record each: the split column
    (-1 at a leaf), the left and right child (-1 at a leaf) and the class
    tally of the node's bootstrap rows."""

    nodes: np.ndarray


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


def _gini_rows(counts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``_gini`` of every class tally along the last axis of ``counts``,
    with the same summation order, so each value equals ``_gini``'s."""
    p = counts / n[..., None]
    squares = p * p
    if squares.shape[-1] >= 8:
        return 1.0 - np.sum(squares, axis=-1)
    total = squares[..., 0].copy()
    for j in range(1, squares.shape[-1]):
        total += squares[..., j]
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


def _pending_dtype(n_classes: int) -> np.dtype:
    # a node on its tree's stack: its segment of the flat row array, its
    # depth and class tally, whether the stop rules make it a leaf, and for
    # a right child the position of its parent's record (else -1)
    return np.dtype([("start", np.int32), ("end", np.int32),
                     ("depth", np.int32), ("parent", np.int64),
                     ("leaf", np.bool_), ("counts", np.int32, (n_classes,))])


def _grow_lockstep(
    active: np.ndarray,
    codes: np.ndarray,
    attribute_of: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    params: ForestParams,
    rngs: Sequence[np.random.Generator],
) -> list[_Tree]:
    """Grow one tree per generator of ``rngs``, all of them at once.

    Every tree keeps its pending nodes on an explicit stack, a right child
    below its left sibling.  A step pops and scans the top node of every
    tree whose stack is not empty, and the leaves that then come to the top
    are recorded at once.  So every tree records its nodes in depth-first
    pre-order and draws its bootstrap and then one permutation per scanned
    node in the order ``_grow_tree`` does: the trees are the same.  The
    bootstrap rows of all trees sit in one flat array in which each pending
    node owns a segment; a split partitions its segment stably, left rows
    first.
    """
    n, n_attrs = active.shape
    d, C = len(attribute_of), n_classes
    k = params.features_per_split or int(np.ceil(np.sqrt(d)))
    msl = params.min_samples_leaf
    n_trees = len(rngs)
    pending = _pending_dtype(C)

    # Rows of one profile never part, so every leaf holds a profile of its
    # own and a tree has at most 2 * profiles - 1 nodes.
    profile = distinct_rows(active)[0]
    flat_rows = np.empty(n_trees * n, dtype=np.int32)
    flat_w = np.empty(n_trees * n, dtype=np.int32)
    roots = np.zeros(n_trees, dtype=pending)
    capacity = np.empty(n_trees, dtype=np.intp)
    end = 0
    for t, rng in enumerate(rngs):
        w = np.bincount(rng.integers(0, n, n), minlength=n)
        r = np.flatnonzero(w)
        roots["start"][t], end = end, end + len(r)
        roots["end"][t] = end
        roots["counts"][t] = np.bincount(y[r], weights=w[r], minlength=C)
        flat_rows[end - len(r):end], flat_w[end - len(r):end] = r, w[r]
        capacity[t] = 2 * np.count_nonzero(np.bincount(profile[r])) - 1
    flat_rows, flat_w = flat_rows[:end], flat_w[:end]
    roots["parent"] = -1

    # Each tree draws its permutations _PERMUTATIONS at a time: permuted()
    # shuffles the rows of ``base`` with the draws that as many consecutive
    # permutation(d) calls make, in the same order.
    base = np.tile(np.arange(d, dtype=np.int16), (_PERMUTATIONS, 1))
    perms = np.empty((n_trees, _PERMUTATIONS, d), dtype=np.int16)
    perm_at = np.full(n_trees, _PERMUTATIONS)

    # tree t records its nodes in out[first[t]:first[t] + recorded[t]]
    out = np.empty(capacity.sum(), dtype=_node_dtype(C))
    first = np.cumsum(capacity) - capacity
    out["right"] = -1  # until a right child is recorded
    recorded = np.zeros(n_trees, dtype=np.intp)
    stack = np.zeros((n_trees, 16), dtype=pending)
    height = np.zeros(n_trees, dtype=np.intp)

    def record(trees, node, feature):
        """Record ``node`` as the next node of each of ``trees``; return
        where the records went."""
        pos = recorded[trees]
        at = first[trees] + pos
        out["feature"][at] = feature
        out["left"][at] = np.where(feature >= 0, pos + 1, -1)
        out["counts"][at] = node["counts"]
        right = node["parent"] >= 0
        out["right"][node["parent"][right]] = pos[right]
        recorded[trees] = pos + 1
        return at

    def push(trees, new):
        """Push ``new``, one node per tree of ``trees``, marking the nodes
        the stop rules make leaves."""
        nonlocal stack
        total = new["counts"].sum(axis=1)
        new["leaf"] = ((total < 2 * msl)
                       | ((new["counts"] != 0).sum(axis=1) == 1))
        if params.max_depth is not None:
            new["leaf"] |= new["depth"] >= params.max_depth
        if height[trees].max() >= stack.shape[1]:
            stack = np.concatenate([stack, np.zeros_like(stack)], axis=1)
        stack[trees, height[trees]] = new
        height[trees] += 1

    def record_leaves(trees):
        """Record the leaves on top of the stacks of ``trees``: each is the
        next node of its tree in pre-order."""
        trees = trees[height[trees] > 0]
        while trees.size:
            top = stack[trees, height[trees] - 1]
            trees, top = trees[top["leaf"]], top[top["leaf"]]
            height[trees] -= 1
            record(trees, top, np.full(len(trees), -1))
            trees = trees[height[trees] > 0]

    def split(start, end, counts, total, order):
        """The chosen column of each node (-1: it stays a leaf), the class
        tally right of it and the node's rows left of it; the rows of every
        node that splits are partitioned in place."""
        m = len(start)
        lengths = end - start
        at = np.arange(lengths.sum()) + np.repeat(
            start - (np.cumsum(lengths) - lengths), lengths)
        r, w = flat_rows[at], flat_w[at]
        slot = np.repeat(np.arange(m), lengths)
        tally = np.bincount((codes[r] + (slot * (d * C))[:, None]).ravel(),
                            weights=np.repeat(w, n_attrs),
                            minlength=m * d * C).reshape(m, d, C)
        n_right = tally.sum(axis=2)
        n_left = total[:, None] - n_right
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = _gini_rows(counts, total)[:, None] - (
                (n_left / total[:, None]) * _gini_rows(counts[:, None] - tally,
                                                       n_left)
                + (n_right / total[:, None]) * _gini_rows(tally, n_right))
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
        right = tally[nodes, chosen]
        n_r = n_right[nodes, chosen]
        feature[(total - n_r < msl) | (n_r < msl)] = -1
        f = feature[slot]
        # a row of a leaf reads column -1, which no row has active
        goes_right = active[r, attribute_of[f]] == f
        moved = np.argsort(slot * 2 + goes_right, kind="stable")
        flat_rows[at], flat_w[at] = r[moved], w[moved]
        return feature, right, lengths - np.bincount(slot[goes_right],
                                                     minlength=m)

    push(np.arange(n_trees), roots)
    record_leaves(np.arange(n_trees))

    live = np.flatnonzero(height)
    while live.size:
        height[live] -= 1
        node = stack[live, height[live]]
        empty = live[perm_at[live] == _PERMUTATIONS]
        for t in empty:
            perms[t] = rngs[t].permuted(base, axis=1)
        perm_at[empty] = 0
        order = perms[live, perm_at[live]]
        perm_at[live] += 1
        start, end, counts = node["start"], node["end"], node["counts"]
        total = counts.sum(axis=1)
        lengths = end - start
        if lengths.sum() * n_attrs <= _TALLY_CODES:
            feature, right, n_left = split(start, end, counts, total, order)
        else:  # bound the rows one tally gathers
            group = (np.cumsum(lengths) - lengths) * n_attrs // _TALLY_CODES
            cuts = [0, *(np.flatnonzero(np.diff(group)) + 1), len(live)]
            parts = [split(start[a:b], end[a:b], counts[a:b], total[a:b],
                           order[a:b]) for a, b in zip(cuts, cuts[1:])]
            feature, right, n_left = (np.concatenate(x) for x in zip(*parts))
        at = record(live, node, feature)
        s = np.flatnonzero(feature >= 0)
        if s.size:
            t = live[s]
            kid = np.zeros(len(s), dtype=pending)
            kid["depth"] = node["depth"][s] + 1
            mid = start[s] + n_left[s]
            # the right child first, so that the left one is popped first
            kid["start"], kid["end"], kid["parent"] = mid, end[s], at[s]
            kid["counts"] = right[s]
            push(t, kid)
            kid["start"], kid["end"], kid["parent"] = start[s], mid, -1
            kid["counts"] = counts[s] - right[s]
            push(t, kid)
        record_leaves(live)
        live = live[height[live] > 0]
    return [_Tree(out[a:a + size]) for a, size in zip(first, recorded)]


def fit_in_sample(
    dataset: Dataset,
    case: SurveyCase,
    params: ForestParams = ForestParams(),
    seed: int = 0,
) -> ForestModel:
    """Fit a forest on every respondent with an answer for the case.

    Deterministic for a fixed seed: each tree draws from its own generator
    keyed by (seed, tree index), so a tree is the same whichever grower
    builds it and however many trees the forest has.
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

    rngs = [np.random.default_rng((seed, tree_idx))
            for tree_idx in range(params.n_trees)]
    if params.n_trees >= LOCKSTEP_MIN_TREES:
        trees = _grow_lockstep(active, codes, attribute_of, y, n_classes,
                               params, rngs)
    else:
        trees = [_grow_tree(active, codes, attribute_of, y, n_classes, params,
                            rng) for rng in rngs]
    return ForestModel(
        trees=trees,
        schema=dataset.schema,
        n_classes=n_classes,
        params=params,
        seed=seed,
        degenerate=bool(y.min() == y.max()),
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
        feature, left, right = (np.concatenate([t.nodes[name] for t in trees])
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
    predictions = [
        Prediction(
            respondent_id=rid,
            question_id=case.question_id,
            backend="in_sample_forest",
            raw_text="",
            parsed=parsed,
        )
        for rid, parsed in zip(ids, predict(model, dataset.coded.of(ids)))
    ]
    report = compute_report(dataset, predictions, case, backend="in_sample_forest")
    return report, model
