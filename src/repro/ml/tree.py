"""CART regression tree.

Axis-aligned binary splits chosen by variance (sum-of-squared-error)
reduction, with the usual depth / sample-count stopping rules and
optional per-split feature subsampling (used by the random forest).

Trees grow one level at a time, and any number of trees grow in the
same level loop: a forest stacks a group of bootstrap samples and each
sample's root is one node of the first level (one root is a plain
``fit``). Every node of a level, whatever its tree, is handled in the
same few array passes:

* leaf values are pairwise sums over each node's rows in row order,
  taken for all nodes of one size at once; the parent SSE squares the
  node's sum with scalar libm ``pow``;
* a row table holds, for each feature, the level's rows grouped by
  node and in (value, row) order within a node, NaN last: every node's
  own stable sort. Built once per fit from one argsort per feature and
  tree, it is kept valid by a stable partition by child after each
  level (a radix sort of small child ids);
* batches of nodes of similar size gather their sorted rows into one
  ``(position, feature, node)`` block, padded past a node's end; the
  running sums down the position axis are every candidate threshold's
  left sums. Each node takes its first best split, features compared
  in order with a strict ``>``;
* the chosen splits partition all rows in one mask.

Each tree's nodes are then numbered in depth-first creation order (a
node's children get consecutive ids when it is popped off a stack,
right child first). The node arrays equal those of a node-at-a-time
depth-first fit bit for bit; the test suite keeps one as its oracle.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.errors import InvalidConfiguration, NotFittedError

_NO_CHILD = -1

#: Cells of one padded ``(position, feature, node)`` block of the split
#: search; bounds its scratch at about half a MB whatever the level.
_BATCH_CELLS = 1 << 13

#: Fewest (feature, node) columns of a batch whose left sums are added
#: one position at a time; narrower batches take numpy's ``cumsum``.
_STEPPED_COLUMNS = 128

#: Longest node whose rows numpy's pairwise ``sum`` adds in plain
#: sequence (it unrolls from eight values on).
_SEQUENTIAL_SUM = 7


def check_count(name: str, value, least: int, *, optional: bool = False) -> None:
    """Raise unless ``value`` is an integer ``>= least`` (or an optional ``None``).

    Any integer type passes (numpy's too); bools and floats do not.
    """
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidConfiguration(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidConfiguration(f"{name} must be >= {least}, got {value!r}")


class DecisionTreeRegressor:
    """Regression tree with variance-reduction splitting.

    Args:
        max_depth: maximum depth; ``None`` grows until leaves are pure
            or too small.
        min_samples_split: minimum samples required to attempt a split.
        min_samples_leaf: minimum samples each child must retain.
        max_features: number of features examined per split; ``None``
            uses all (classic CART), smaller values decorrelate trees
            inside a forest.
        random_state: seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        random_state: int | None = None,
    ) -> None:
        check_count("max_depth", max_depth, 1, optional=True)
        check_count("min_samples_split", min_samples_split, 2)
        check_count("min_samples_leaf", min_samples_leaf, 1)
        check_count("max_features", max_features, 1, optional=True)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._nodes: dict[str, np.ndarray] | None = None

    # -- fitting ---------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "DecisionTreeRegressor":
        """Grow the tree on ``features`` (n, d) and ``targets`` (n,)."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2:
            raise InvalidConfiguration("features must be 2-D (n_samples, n_features)")
        if targets.shape != (features.shape[0],):
            raise InvalidConfiguration("targets must be 1-D matching features rows")
        if features.shape[0] == 0:
            raise InvalidConfiguration("cannot fit on zero samples")
        if sample_weight is None:
            sample_weight = np.ones(features.shape[0], dtype=np.float64)
        else:
            sample_weight = np.asarray(sample_weight, dtype=np.float64)
            if sample_weight.shape != targets.shape or sample_weight.min() < 0:
                raise InvalidConfiguration("bad sample_weight")
        _grow([self], features, targets, sample_weight)
        return self

    # -- inference ---------------------------------------------------------------

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` (n, d)."""
        if self._nodes is None:
            raise NotFittedError("DecisionTreeRegressor is not fitted")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        nodes = self._nodes
        out = np.zeros(features.shape[0], dtype=np.float64)
        current = np.zeros(features.shape[0], dtype=np.int64)
        active = np.arange(features.shape[0])
        while active.size:
            node_ids = current[active]
            feats = nodes["feature"][node_ids]
            leaf = feats == _NO_CHILD
            if leaf.any():
                done = active[leaf]
                out[done] = nodes["value"][current[done]]
                active = active[~leaf]
                node_ids = current[active]
                feats = nodes["feature"][node_ids]
            if not active.size:
                break
            x = features[active, feats]
            go_left = x <= nodes["threshold"][node_ids]
            current[active] = np.where(
                go_left, nodes["left"][node_ids], nodes["right"][node_ids]
            )
        return out

    @property
    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        if self._nodes is None:
            raise NotFittedError("DecisionTreeRegressor is not fitted")
        return int(self._nodes["value"].size)

    @property
    def depth(self) -> int:
        """Depth of the fitted tree (root-only tree has depth 0)."""
        if self._nodes is None:
            raise NotFittedError("DecisionTreeRegressor is not fitted")
        nodes = self._nodes
        depth = 0
        stack = [(0, 0)]
        while stack:
            node, d = stack.pop()
            depth = max(depth, d)
            if nodes["feature"][node] != _NO_CHILD:
                stack.append((int(nodes["left"][node]), d + 1))
                stack.append((int(nodes["right"][node]), d + 1))
        return depth


def _grow(
    trees: list[DecisionTreeRegressor],
    features: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Grow every tree of ``trees`` in one level loop; sets each ``_nodes``.

    The rows are split into ``len(trees)`` equal consecutive blocks and
    tree ``t`` grows on block ``t``. All trees share the stopping rules
    and ``max_features`` of ``trees[0]``; each draws its candidate
    features from its own ``random_state``, node by node in its level
    order.
    """
    proto = trees[0]
    k = len(trees)
    n_rows, d = features.shape
    n = n_rows // k
    rngs = [np.random.default_rng(tree.random_state) for tree in trees]
    subsample = proto.max_features is not None and proto.max_features < d
    # The level's rows, one table row per feature and a last row in row
    # order, grouped by node. In a feature's row a node's rows are in
    # (value, row) order, NaN last: the node's own stable sort. A stable
    # partition by child after each split keeps both orders.
    table = np.empty((d + 1, n_rows), dtype=np.int64)
    table[:d] = (
        np.argsort(features.reshape(k, n, d), axis=1, kind="stable")
        + (n * np.arange(k))[:, None, None]
    ).transpose(2, 0, 1).reshape(d, n_rows)
    table[d] = np.arange(n_rows)
    wy = weights * targets
    stats = np.stack((weights, wy, wy * targets, targets))
    levels: list[tuple[np.ndarray, ...]] = []
    sizes = np.full(k, n)
    tree_of = np.arange(k)
    depth = 0
    while sizes.size:
        m = sizes.size
        rows = table[d]
        starts = np.cumsum(sizes) - sizes
        node_of = np.repeat(np.arange(m), sizes)
        sum_w, sum_wy, sum_wy2, sum_y = _node_sums(stats, rows, starts, sizes)
        value = sum_y / sizes
        np.divide(sum_wy, sum_w, out=value, where=sum_w > 0)
        y = targets[rows]
        varied = np.logical_or.reduceat(y != y[starts][node_of], starts)
        searched = np.flatnonzero(varied & (sizes >= proto.min_samples_split))
        if proto.max_depth is not None and depth >= proto.max_depth:
            searched = searched[:0]

        feature = np.full(m, _NO_CHILD, dtype=np.int64)
        threshold = np.zeros(m)
        if searched.size and d:
            if subsample:
                candidates = np.array(
                    [
                        rngs[t].choice(d, size=proto.max_features, replace=False)
                        for t in tree_of[searched].tolist()
                    ]
                )
            else:
                candidates = np.broadcast_to(np.arange(d), (searched.size, d))
            feature[searched], threshold[searched] = _best_splits(
                proto,
                features,
                stats,
                table,
                starts[searched],
                sizes[searched],
                _parent_sse(sum_w[searched], sum_wy[searched], sum_wy2[searched]),
                candidates,
            )

        # Partition every split node's rows at once; a split that
        # leaves a child under min_samples_leaf makes a leaf.
        inside = feature[node_of] != _NO_CHILD
        rows, node_of = rows[inside], node_of[inside]
        go_right = ~(features[rows, feature[node_of]] <= threshold[node_of])
        n_left = np.bincount(node_of[~go_right], minlength=m)
        keep = (
            (feature != _NO_CHILD)
            & (n_left >= proto.min_samples_leaf)
            & (sizes - n_left >= proto.min_samples_leaf)
        )
        feature[~keep] = _NO_CHILD
        threshold[~keep] = 0.0
        levels.append((feature, threshold, value, tree_of))

        kept = keep[node_of]
        children = 2 * (np.cumsum(keep) - 1)[node_of[kept]] + go_right[kept]
        # Rows of leaves get an id past every child and drop off the end.
        # The smallest unsigned type that holds the ids is 16 bits or
        # fewer on all but huge levels, where numpy's stable sort is a
        # radix sort.
        child = np.full(n_rows, 2 * m, dtype=np.min_scalar_type(2 * m))
        child[rows[kept]] = children
        regroup = np.argsort(np.take(child, table), axis=1, kind="stable")
        row_start = table.shape[1] * np.arange(d + 1)[:, None]
        table = np.take(table, regroup[:, : children.size] + row_start)
        sizes = np.bincount(children, minlength=2 * int(keep.sum()))
        tree_of = np.repeat(tree_of[keep], 2)
        depth += 1

    # Each tree's nodes in its own level order, then depth-first.
    feature, threshold, value, tree_of = (np.concatenate(a) for a in zip(*levels))
    by_tree = np.argsort(tree_of, kind="stable")
    bounds = np.cumsum(np.bincount(tree_of, minlength=k))[:-1]
    for tree, nodes in zip(trees, np.split(by_tree, bounds)):
        tree._nodes = _depth_first(feature[nodes], threshold[nodes], value[nodes])


def _parent_sse(
    sum_w: np.ndarray, sum_wy: np.ndarray, sum_wy2: np.ndarray
) -> np.ndarray:
    """Each node's SSE ``wy2.sum() - wy.sum() ** 2 / w.sum()`` from its sums.

    The square is scalar libm ``pow``, as the node-at-a-time fit took
    it: an array square (``x * x``, or ``np.power``'s SIMD loop) differs
    from it in the last bit for some values. A square past the float
    range is ``inf``.
    """
    square = np.array([_libm_square(value) for value in sum_wy.tolist()])
    with np.errstate(over="ignore", invalid="ignore"):
        return sum_wy2 - square / np.maximum(sum_w, 1e-300)


def _libm_square(value: float) -> float:
    """``value ** 2`` by libm ``pow``; ``inf`` past the float range."""
    try:
        return math.pow(value, 2.0)
    except OverflowError:
        return math.inf


def _best_splits(
    tree: DecisionTreeRegressor,
    features: np.ndarray,
    stats: np.ndarray,
    table: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    parent_sse: np.ndarray,
    candidates: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each node's (feature, threshold) with the largest SSE reduction.

    Node ``i`` owns columns ``starts[i]:starts[i] + sizes[i]`` of
    ``table`` and may split on the features ``candidates[i]``. Nodes
    with no split gaining more than 1e-12 get feature ``-1``.
    """
    k = sizes.size
    d = features.shape[1]
    gains = np.full((k, d), -np.inf)
    # The feature values either side of each best split position.
    neighbours = np.zeros((2, k, d))
    # Batches of nodes of similar size keep the padding small.
    by_size = np.argsort(-sizes, kind="stable")
    lo = 0
    while lo < k:
        room = _BATCH_CELLS // (d * int(sizes[by_size[lo]]))
        batch = by_size[lo : lo + max(1, room)]
        lo += batch.size
        searched = np.unique(candidates[batch])
        gain, neighbour = _search_batch(
            tree,
            features,
            stats,
            table,
            starts[batch],
            sizes[batch],
            parent_sse[batch],
            searched,
        )
        gains[batch[:, None], searched] = gain
        neighbours[:, batch[:, None], searched] = neighbour
    best_gain = np.full(k, 1e-12)
    best_feature = np.full(k, _NO_CHILD, dtype=np.int64)
    best_threshold = np.zeros(k)
    nodes = np.arange(k)
    for column in candidates.T:
        gain = gains[nodes, column]
        better = gain > best_gain
        best_gain[better] = gain[better]
        best_feature[better] = column[better]
    split = np.flatnonzero(best_feature != _NO_CHILD)
    below, above = neighbours[:, split, best_feature[split]]
    # ±inf neighbours give a NaN midpoint: a split nothing passes.
    with np.errstate(invalid="ignore", over="ignore"):
        best_threshold[split] = 0.5 * (below + above)
    return best_feature, best_threshold


def _search_batch(
    tree: DecisionTreeRegressor,
    features: np.ndarray,
    stats: np.ndarray,
    table: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    parent_sse: np.ndarray,
    searched: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First best split of every node of a batch, per searched feature.

    Returns the gains, shape ``(nodes, features)``, and the feature
    values either side of each best position, ``(2, nodes, features)``;
    a node with no admissible position gets gain ``-inf``. Each node's
    rows, sorted by each searched feature's value, fill a
    ``(position, feature, node)`` block of ``max(sizes)`` positions;
    past a node's last row the block repeats that row, which no
    admissible split reads. The left sums add the positions one after
    another, as the node's own cumsum does, so they are equal bit for
    bit.
    """
    k = sizes.size
    width = int(sizes.max())
    member = starts + np.minimum(np.arange(width)[:, None], sizes - 1)
    # Flat ``np.take`` gathers: several times faster than fancy indexing.
    order = np.take(table, searched[:, None] * table.shape[1] + member[:, None, :])
    x = np.take(features, order * features.shape[1] + searched[:, None])
    cums = np.take(stats[:3], order, axis=1)
    if searched.size * k >= _STEPPED_COLUMNS:
        # Many short columns: one vector add per position beats numpy's
        # per-column accumulate; the operands are in cumsum's order.
        for i in range(1, width):
            np.add(cums[:, i - 1], cums[:, i], out=cums[:, i])
    else:
        cums = np.cumsum(cums, axis=1)
    totals = np.take_along_axis(cums, (sizes - 1)[None, None, None, :], axis=1)[:, 0]

    # Candidate positions: between distinct values, each side at
    # least min_samples_leaf rows and positive weight. Only those
    # lanes go on to the gain arithmetic.
    pos = np.arange(1, width)[:, None]
    ok = (pos >= tree.min_samples_leaf) & (pos <= sizes - tree.min_samples_leaf)
    left_w = cums[0, :-1]
    ok = ok[:, None, :] & (x[1:] > x[:-1]) & (left_w > 0)
    ok &= totals[0] - left_w > 0
    # A lane's flat index is its left sums' flat index in ``cums``.
    lane = np.flatnonzero(ok)
    column = lane % (searched.size * k)  # feature * k + node
    lw, lwy, lwy2 = cums.reshape(3, -1)[:, lane]
    total_w, total_wy, total_wy2 = totals.reshape(3, -1)[:, column]
    left_sse = lwy2 - (lwy**2) / lw
    right_sse = (total_wy2 - lwy2) - ((total_wy - lwy) ** 2) / (total_w - lw)
    gain = np.full(ok.shape, -np.inf)
    gain.ravel()[lane] = parent_sse[column % k] - (left_sse + right_sse)
    best = np.argmax(gain, axis=0)[None]
    gains = np.take_along_axis(gain, best, axis=0)[0]
    below = np.take_along_axis(x, best, axis=0)[0]
    above = np.take_along_axis(x, best + 1, axis=0)[0]
    return gains.T, np.stack((below.T, above.T))


def _node_sums(
    stats: np.ndarray, rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Each node's sum of every ``stats`` row over its rows, ``(len(stats), nodes)``.

    Each group of nodes is gathered into one C-contiguous block and
    summed along its last axis, which numpy adds with the same pairwise
    tree as a 1-D ``sum`` over one node's rows alone. That tree depends
    on the row count, so larger nodes are grouped by size. numpy adds
    fewer than eight values in plain sequence from ``+0.0``, so all
    nodes of up to ``_SEQUENTIAL_SUM`` rows share one zero-padded block:
    trailing zeros change no such sum.
    """
    out = np.empty((stats.shape[0], sizes.size))
    small = sizes <= _SEQUENTIAL_SUM
    groups = [np.flatnonzero(small)]
    groups += [np.flatnonzero(sizes == size) for size in np.unique(sizes[~small])]
    for nodes in groups:
        if not nodes.size:
            continue
        column = np.arange(sizes[nodes].max())
        inside = column < sizes[nodes, None]
        members = rows[np.where(inside, starts[nodes, None] + column, 0)]
        block = np.take(stats, members, axis=1)
        block[:, ~inside] = 0.0
        out[:, nodes] = np.ascontiguousarray(block).sum(axis=2)
    return out


def _depth_first(
    feature: np.ndarray, threshold: np.ndarray, value: np.ndarray
) -> dict[str, np.ndarray]:
    """Node arrays renumbered from level order into depth-first order.

    In level order the ``i``-th split node's children are ``2i + 1``
    and ``2i + 2``. Depth-first numbering gives a node's children the
    next two ids when it is popped off a stack, right child popped
    first.
    """
    split = np.flatnonzero(feature != _NO_CHILD)
    first_child = np.full(feature.size, _NO_CHILD, dtype=np.int64)
    first_child[split] = 2 * np.arange(split.size) + 1
    children = first_child.tolist()
    new_id = [0] * feature.size
    stack = [0]
    next_id = 1
    while stack:
        left = children[stack.pop()]
        if left != _NO_CHILD:
            new_id[left] = next_id
            new_id[left + 1] = next_id + 1
            next_id += 2
            stack.append(left)
            stack.append(left + 1)
    new_id = np.array(new_id, dtype=np.int64)
    old_id = np.empty_like(new_id)
    old_id[new_id] = np.arange(new_id.size)
    is_split = feature[old_id] != _NO_CHILD
    left = np.where(is_split, new_id[first_child[old_id]], _NO_CHILD)
    right = np.where(is_split, new_id[first_child[old_id] + 1], _NO_CHILD)
    return {
        "feature": feature[old_id],
        "threshold": threshold[old_id],
        "left": left,
        "right": right,
        "value": value[old_id],
    }
