"""CART regression tree.

Axis-aligned binary splits chosen by variance (sum-of-squared-error)
reduction, with the usual depth / sample-count stopping rules and
optional per-split feature subsampling (used by the random forest).

The tree grows one level at a time, and every node of a level is
handled in the same few array passes:

* leaf values and the parent SSE are pairwise sums over each node's
  rows in row order, taken for all nodes of one size at once;
* each feature's rows are argsorted once per fit (stable, NaN last);
  regrouped by node, that order is every node's own stable sort. A
  node's sorted rows fill one zero-padded row of a
  ``(features, nodes, max_size)`` block whose row cumsums give every
  candidate threshold's left sums; each node takes its first best
  split, features compared in order with a strict ``>``;
* the chosen splits partition all rows in one mask.

Nodes are then numbered in depth-first creation order (a node's
children get consecutive ids when it is popped off a stack, right
child first). The node arrays equal those of a node-at-a-time
depth-first fit bit for bit; the test suite keeps one as its oracle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidConfiguration, NotFittedError

_NO_CHILD = -1

#: Cells of one padded ``(features, nodes, max_size)`` block of the
#: split search; bounds its scratch at a few MB whatever the level.
_BATCH_CELLS = 1 << 16

#: Longest node whose rows numpy's pairwise ``sum`` adds in plain
#: sequence (it unrolls from eight values on).
_SEQUENTIAL_SUM = 7


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
        if max_depth is not None and max_depth < 1:
            raise InvalidConfiguration("max_depth must be >= 1")
        if min_samples_split < 2:
            raise InvalidConfiguration("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise InvalidConfiguration("min_samples_leaf must be >= 1")
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

        n, d = features.shape
        rng = np.random.default_rng(self.random_state)
        # Each feature's rows in (value, row) order, NaN last: a node's
        # rows taken in this order are that node's stable sort.
        orders = np.argsort(features, axis=0, kind="stable").T
        wy = sample_weight * targets
        stats = np.stack((sample_weight, wy, wy * targets, targets))
        levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # The current level: its nodes' rows, grouped by node and
        # ascending within a node, and each node's row count.
        rows = np.arange(n)
        sizes = np.array([n])
        depth = 0
        while sizes.size:
            m = sizes.size
            starts = np.cumsum(sizes) - sizes
            node_of = np.repeat(np.arange(m), sizes)
            sum_w, sum_wy, sum_wy2, sum_y = _node_sums(stats, rows, starts, sizes)
            value = sum_y / sizes
            np.divide(sum_wy, sum_w, out=value, where=sum_w > 0)
            y = targets[rows]
            varied = np.logical_or.reduceat(y != y[starts][node_of], starts)
            searched = np.flatnonzero(varied & (sizes >= self.min_samples_split))
            if self.max_depth is not None and depth >= self.max_depth:
                searched = searched[:0]

            feature = np.full(m, _NO_CHILD, dtype=np.int64)
            threshold = np.zeros(m)
            if searched.size and d:
                # ``wy2.sum() - wy.sum() ** 2 / w.sum()`` in numpy scalar
                # arithmetic, whose ``** 2`` is libm pow, not a square
                # (and overflows to inf where a Python float raises).
                parent_sse = np.array(
                    [
                        s2 - s1**2 / max(s0, 1e-300)
                        for s0, s1, s2 in zip(
                            sum_w[searched], sum_wy[searched], sum_wy2[searched]
                        )
                    ]
                )
                feature[searched], threshold[searched] = self._best_splits(
                    features,
                    orders,
                    stats,
                    rows,
                    starts[searched],
                    sizes[searched],
                    parent_sse,
                    rng,
                )

            # Partition every split node's rows at once; a split that
            # leaves a child under min_samples_leaf makes a leaf.
            inside = feature[node_of] != _NO_CHILD
            rows, node_of = rows[inside], node_of[inside]
            go_right = ~(features[rows, feature[node_of]] <= threshold[node_of])
            n_left = np.bincount(node_of[~go_right], minlength=m)
            keep = (
                (feature != _NO_CHILD)
                & (n_left >= self.min_samples_leaf)
                & (sizes - n_left >= self.min_samples_leaf)
            )
            feature[~keep] = _NO_CHILD
            threshold[~keep] = 0.0
            levels.append((feature, threshold, value))

            kept = keep[node_of]
            child = 2 * (np.cumsum(keep) - 1)[node_of[kept]] + go_right[kept]
            rows = rows[kept][np.argsort(child, kind="stable")]
            sizes = np.bincount(child, minlength=2 * int(keep.sum()))
            depth += 1

        feature, threshold, value = (np.concatenate(a) for a in zip(*levels))
        self._nodes = _depth_first(feature, threshold, value)
        return self

    def _best_splits(
        self,
        features: np.ndarray,
        orders: np.ndarray,
        stats: np.ndarray,
        rows: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
        parent_sse: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each node's (feature, threshold) with the largest SSE reduction.

        Node ``i`` owns ``rows[starts[i]:starts[i] + sizes[i]]``. Nodes
        with no split gaining more than 1e-12 get feature ``-1``.
        Subsampled candidate features are drawn node by node in level
        order.
        """
        k = sizes.size
        d = features.shape[1]
        if self.max_features is not None and self.max_features < d:
            candidates = np.array(
                [rng.choice(d, size=self.max_features, replace=False) for _ in range(k)]
            )
        else:
            candidates = np.broadcast_to(np.arange(d), (k, d))
        gains = np.full((k, d), -np.inf)
        thresholds = np.zeros((k, d))
        # Batches of nodes of similar size keep the padding small.
        by_size = np.argsort(-sizes, kind="stable")
        lo = 0
        while lo < k:
            room = _BATCH_CELLS // (d * int(sizes[by_size[lo]]))
            batch = by_size[lo : lo + max(1, room)]
            lo += batch.size
            searched = np.unique(candidates[batch])
            cells = np.ix_(batch, searched)
            gains[cells], thresholds[cells] = self._search_batch(
                features,
                orders,
                stats,
                rows,
                starts[batch],
                sizes[batch],
                parent_sse[batch],
                searched,
            )
        best_gain = np.full(k, 1e-12)
        best_feature = np.full(k, _NO_CHILD, dtype=np.int64)
        best_threshold = np.zeros(k)
        nodes = np.arange(k)
        for column in candidates.T:
            gain = gains[nodes, column]
            better = gain > best_gain
            best_gain[better] = gain[better]
            best_feature[better] = column[better]
            best_threshold[better] = thresholds[nodes, column][better]
        return best_feature, best_threshold

    def _search_batch(
        self,
        features: np.ndarray,
        orders: np.ndarray,
        stats: np.ndarray,
        rows: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
        parent_sse: np.ndarray,
        searched: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """First best split of every node of a batch, per searched feature.

        Returns ``(gains, thresholds)``, shape ``(nodes, features)``; a
        node with no admissible position gets gain ``-inf``. For each
        feature, each node's rows sorted by value fill one zero-padded
        row of width ``max(sizes)``; numpy's row cumsum adds in
        sequence, so its left sums equal the node's own cumsum bit for
        bit.
        """
        k = sizes.size
        width = int(sizes.max())
        offsets = np.cumsum(sizes) - sizes
        owner = np.repeat(np.arange(k), sizes)
        members = np.repeat(starts - offsets, sizes) + np.arange(owner.size)
        owner_of = np.full(features.shape[0], -1)
        owner_of[rows[members]] = owner
        # Each searched feature's batch rows in value order, regrouped
        # by node; the sort is stable, so value order holds in a node.
        order = orders[searched]
        by_owner = owner_of[order]
        inside = by_owner >= 0
        order = order[inside].reshape(searched.size, owner.size)
        by_owner = by_owner[inside].reshape(order.shape)
        regroup = np.argsort(by_owner, axis=1, kind="stable")
        order = np.take_along_axis(order, regroup, axis=1)
        cell = owner * width + np.arange(owner.size) - offsets[owner]
        x = np.zeros((searched.size, k * width))
        x[:, cell] = features[order, searched[:, None]]
        x = x.reshape(searched.size, k, width)
        sums = np.zeros((3, searched.size, k * width))
        sums[:, :, cell] = stats[:3, order]
        cums = np.cumsum(sums.reshape(3, searched.size, k, width), axis=3)
        totals = cums[:, :, np.arange(k), sizes - 1]

        # Candidate positions: between distinct values, each side at
        # least min_samples_leaf rows and positive weight. Only those
        # lanes go on to the gain arithmetic.
        pos = np.arange(1, width)
        ok = (pos >= self.min_samples_leaf) & (
            pos <= (sizes - self.min_samples_leaf)[:, None]
        )
        left_w = cums[0, ..., :-1]
        ok = ok & (x[..., 1:] > x[..., :-1]) & (left_w > 0)
        ok &= totals[0][..., None] - left_w > 0
        lane = np.flatnonzero(ok)
        row = lane // (width - 1)  # feature * k + node
        lw, lwy, lwy2 = cums.reshape(3, -1)[:, lane + row]
        total_w, total_wy, total_wy2 = totals.reshape(3, -1)[:, row]
        left_sse = lwy2 - (lwy**2) / lw
        right_sse = (total_wy2 - lwy2) - ((total_wy - lwy) ** 2) / (total_w - lw)
        gain = np.full(ok.shape, -np.inf)
        gain.ravel()[lane] = np.tile(parent_sse, searched.size)[row] - (
            left_sse + right_sse
        )
        best = np.argmax(gain, axis=2)[..., None]
        gains = np.take_along_axis(gain, best, axis=2)[..., 0]
        # ±inf neighbours give a NaN midpoint: a split nothing passes.
        with np.errstate(invalid="ignore", over="ignore"):
            thresholds = 0.5 * (
                np.take_along_axis(x, best, axis=2)
                + np.take_along_axis(x, best + 1, axis=2)
            )[..., 0]
        return gains.T, thresholds.T

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
        block = stats[:, rows[np.where(inside, starts[nodes, None] + column, 0)]]
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
