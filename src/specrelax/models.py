"""Desk-scale target and drafter models with cheap, exactly reproducible evaluation.

Two target families stand in for large autoregressive image models: an
order-k tabular model (the exact-oracle workhorse) and a grid-world model
whose token clusters and spatial regions inject feature redundancy by
construction. The drafter is a linear softmax model conditioned on the last
token and the grid position only, deliberately weaker than either target.

Every model reads a prefix at one position, its sequence index
`len(prefix)`; a gridded model lays that index out on its own N x N grid in
raster order.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import stat
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Protocol, Sequence, TextIO, runtime_checkable

import numpy as np

from .core import (
    ConfigError,
    EngineError,
    FeatureVec,
    InvalidValue,
    ModelFormatError,
    NonFinite,
    ProbDist,
    TokenId,
    TooLarge,
    UnknownWindow,
    _check_seed,
    _mix64,
    _mix64_array,
)

if TYPE_CHECKING:
    from .tree import DraftTree

FORMAT_VERSION = 1
ENUMERATION_GUARD = 1_000_000
# The most entries a linear drafter's softmax table, (V+1) * N^2 * V of them, may
# hold: 256 MiB of float64. V=512 at N=8 (16.8M entries, 128 MiB) fits; V=2,048
# at N=8 (2 GiB) does not.
_MAX_TABLE_ENTRIES = 2**25

Window = tuple[int, ...]


class TargetEval(NamedTuple):
    """One target forward: next-token law plus the hidden-state feature."""

    dist: ProbDist
    feature: FeatureVec


@runtime_checkable
class Drafter(Protocol):
    grid_side: int | None
    # How many trailing tokens of a prefix `conditionals` reads.
    context: int

    def distribution(self, prefix: Sequence[TokenId]) -> ProbDist: ...

    def conditionals(self, contexts: np.ndarray, index: np.ndarray) -> np.ndarray:
        """The next-token conditionals of many prefixes, as the rows of one `(n, V)` array.

        Prefix j (never empty) has length `index[j]`, and `contexts[j]` holds
        its last `context` tokens, -1 before its start. Row j equals the mass
        of `distribution(prefix)` bit for bit.
        """
        ...


class LawTable(NamedTuple):
    """Next-token laws stacked once: row i of the read-only `(rows, V)` array `mass` is `dists[i].mass`.

    `index` maps each listed `ProbDist` object (by identity) to its row.
    """

    dists: Sequence[ProbDist]
    mass: np.ndarray
    index: dict[ProbDist, int]

    @classmethod
    def stack(cls, dists: Sequence[ProbDist]) -> "LawTable":
        mass = np.array([d.mass for d in dists])
        mass.flags.writeable = False
        return cls(dists, mass, {dist: row for row, dist in enumerate(dists)})

    def rows_of(self, dists: Sequence[ProbDist]) -> tuple["LawTable", list[int]]:
        """Each law's row: its own if listed, else a row stacked after the table's (a copy then)."""
        index = self.index
        rows = [index.get(dist, -1) for dist in dists]
        if -1 not in rows:
            return self, rows
        extra = list(dict.fromkeys(d for d, row in zip(dists, rows) if row < 0))
        table = LawTable.stack([*self.dists, *extra])
        return table, [table.index[dist] for dist in dists]


# One batch: the model's own law table, each node's row of it as an int
# array, the nodes' features as the rows of one read-only (nodes, h) float64
# array, and each feature's own norm.
BatchEval = tuple[LawTable, np.ndarray, np.ndarray, np.ndarray]


@runtime_checkable
class Target(Protocol):
    grid_side: int | None

    def evaluate(self, prefix: Sequence[TokenId]) -> TargetEval: ...

    def evaluate_batch(self, tree: DraftTree) -> BatchEval:
        """Evaluate every node of a draft forest in one call.

        Node i sits at its path's length, `tree.index[i]`. Its law is row
        `rows[i]` of the returned table, which the model owns and shares
        across calls; that law and feature row i equal `evaluate(tree.path(i))`
        bit for bit.
        """
        ...


def _decode_side(model: Target | Drafter, length: int) -> int:
    """The side of a `length`-token decode's grid: the model's own, else the smallest square holding it."""
    return model.grid_side or math.isqrt(max(length - 1, 0)) + 1


def _check_on_grid(index: int, side: int, reach: int = 0) -> None:
    """Raise UnknownWindow unless sequence index `index` lies on the `side` x `side` grid
    or at most `reach` steps past its end."""
    if index >= side * side + reach:
        raise UnknownWindow(f"sequence index {index} lies past the {side}x{side} grid")


def _windows(vocab: int, order: int) -> Iterator[Window]:
    """Every window of 0 to `order` tokens: shorter windows first, each length in lexicographic order."""
    return (w for length in range(order + 1) for w in itertools.product(range(vocab), repeat=length))


def _check_tabular_shape(vocab: int, order: int, h: int) -> None:
    """Refuse a tabular model without tokens, context or features, or with more cells than the guard.

    Each of the `vocab**length` windows of each length 0 to `order` holds
    `vocab` masses, `h` feature values and its `length` tokens, so the table
    has `windows * (vocab + h)` cells plus the window tokens. The count
    stops once it passes ENUMERATION_GUARD, so a huge shape costs nothing.
    """
    if vocab < 1 or order < 1 or h < 1:
        raise ConfigError("vocab, order and h must be positive")
    cells, windows = 0, 1
    for length in range(order + 1):
        cells += windows * (vocab + h + length)
        if cells > ENUMERATION_GUARD:
            raise TooLarge(
                f"tabular model with vocab {vocab}, order {order} and h {h} holds more than "
                f"{ENUMERATION_GUARD} table cells"
            )
        windows *= vocab


class TabularModel:
    """Order-k lookup model: each length-k context window owns its next-token law.

    The table covers every full window of length `order` plus every shorter
    start-padding window, so lookups can never miss for valid prefixes.
    """

    kind = "tabular"
    grid_side: int | None = None

    def __init__(
        self,
        vocab: int,
        order: int,
        table: Mapping[Window, ProbDist | Sequence[float]],
        feature_table: Mapping[Window, FeatureVec | Sequence[float]],
        h: int,
    ) -> None:
        _check_tabular_shape(vocab, order, h)
        self.vocab = vocab
        self.order = order
        self.h = h
        windows = list(_windows(vocab, order))
        columns = []
        for name, mapping, kind, size in (
            ("table", table, ProbDist, vocab),
            ("feature table", feature_table, FeatureVec, h),
        ):
            column: list = [None] * len(windows)
            for window, value in mapping.items():
                key = tuple(int(t) for t in window)
                if len(key) > order:
                    raise UnknownWindow(f"{name} window {key} is longer than order {order}")
                # `_row_of` refuses a token outside the vocabulary.
                item = column[self._row_of(key)] = value if isinstance(value, kind) else kind(value)
                if len(item) != size:
                    raise ConfigError(f"{name} entry for window {key} has size {len(item)} != {size}")
            if None in column:
                raise UnknownWindow(f"{name} missing window {windows[column.index(None)]}")
            columns.append(column)
        # Every window's evaluation, listed in `_row_of` order.
        self._evals = list(map(TargetEval, *columns))
        # The laws, feature values and norms stacked, and the powers of V
        # that read a window; built on first batch use.
        self._stack: tuple[LawTable, np.ndarray, np.ndarray, np.ndarray] | None = None

    def _row_of(self, window: Sequence[TokenId]) -> int:
        """The window's row: windows of length m follow all shorter ones in
        lexicographic order, so the row is (V^m - 1) / (V - 1), the start of
        the length-m block, plus the window read in base V. That sum is the
        window read in base V with digits token + 1."""
        row = 0
        for token in window:
            if not 0 <= token < self.vocab:
                raise UnknownWindow(f"no table row for window {tuple(window)}")
            row = row * self.vocab + token + 1
        return row

    def evaluate(self, prefix: Sequence[TokenId]) -> TargetEval:
        return self._evals[self._row_of(prefix[-self.order :])]

    def _stacked(self) -> tuple[LawTable, np.ndarray, np.ndarray, np.ndarray]:
        if self._stack is None:
            values = np.array([ev.feature.values for ev in self._evals])
            values.flags.writeable = False
            norms = np.array([ev.feature.norm for ev in self._evals])
            powers = self.vocab ** np.arange(self.order - 1, -1, -1)
            self._stack = (LawTable.stack([ev.dist for ev in self._evals]), values, norms, powers)
        return self._stack

    def _window_ids(self, tails: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Each window's `_row_of`, for a batch: row j of `tails` ends with a
        window of `lengths[j]` tokens (at most `order`)."""
        k, v = self.order, self.vocab
        inside = np.arange(k) >= (k - np.minimum(lengths, k))[:, None]
        window = np.where(inside, tails, 0)
        if np.minimum.reduce(window, axis=None, initial=0) < 0 or np.maximum.reduce(window, axis=None, initial=0) >= v:
            bad = ((tails < 0) | (tails >= v)) & inside
            j = int(np.flatnonzero(bad.any(axis=1))[0])
            raise UnknownWindow(f"no table row for window {tuple(tails[j][inside[j]].tolist())}")
        return (window + inside) @ self._stacked()[3]

    def evaluate_batch(self, tree: DraftTree) -> BatchEval:
        """`Target.evaluate_batch`; a tabular law ignores the grid, so only the windows are read."""
        ids = self._window_ids(tree.tail(self.order, np.arange(len(tree.token))), tree.index)
        laws, values, norms, _ = self._stacked()
        features = values.take(ids, axis=0)
        features.flags.writeable = False
        return laws, ids, features, norms.take(ids)

    @property
    def context(self) -> int:
        return self.order

    def conditionals(self, contexts: np.ndarray, index: np.ndarray) -> np.ndarray:
        """`Drafter.conditionals`: each prefix's window row."""
        return self._stacked()[0].mass.take(self._window_ids(contexts, index), axis=0)

    def distribution(self, prefix: Sequence[TokenId]) -> ProbDist:
        return self.evaluate(prefix).dist

    def to_dict(self) -> dict:
        keys = [_window_key(w) for w in _windows(self.vocab, self.order)]
        return {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "V": self.vocab,
            "order": self.order,
            "h": self.h,
            "table": {key: ev.dist.mass.tolist() for key, ev in zip(keys, self._evals)},
            "featureTable": {key: ev.feature.values.tolist() for key, ev in zip(keys, self._evals)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TabularModel":
        vocab, order, h = _json_int(data, "V"), _json_int(data, "order"), _json_int(data, "h")
        table = {_parse_window_key(k): _json_array(v, "table") for k, v in data["table"].items()}
        features = {_parse_window_key(k): _json_array(v, "featureTable") for k, v in data["featureTable"].items()}
        return cls(vocab, order, table, features, h)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """`np.linalg.norm` of each row, bit for bit: the same BLAS dot product, then its square root."""
    return np.sqrt(np.vecdot(rows, rows))


class _GridTable(NamedTuple):
    """A gridworld's arrays. Row region * (clusters + 1) of `values`, `norms`
    and `evals` is the region's root feature, with no last token; the next
    rows follow a token of each cluster in turn. A row whose anchors cancel
    has no evaluation (None)."""

    regions: np.ndarray  # each cell's region
    clusters: np.ndarray  # each token's cluster
    laws: LawTable  # the region laws
    values: np.ndarray  # every unjittered feature, read-only
    norms: np.ndarray
    evals: list[TargetEval | None]


class GridWorldModel:
    """Grid target whose next-token law depends on the spatial region only.

    Each region prefers one token cluster: `in_cluster_mass` is spread
    uniformly over the preferred cluster and the remainder uniformly over all
    other tokens. The hidden-state feature is the normalized sum of the
    region anchor and `feature_mix` times the last token's cluster anchor, so
    same-cluster continuations at one position are feature-identical.
    """

    kind = "gridworld"
    context = 0  # as a drafter, a gridworld reads only the cell

    def __init__(
        self,
        side: int,
        vocab: int,
        h: int,
        clusters: Sequence[int],
        regions: Sequence[int],
        region_clusters: Sequence[int],
        region_anchors: Sequence[Sequence[float] | FeatureVec],
        cluster_anchors: Sequence[Sequence[float] | FeatureVec],
        in_cluster_mass: float = 0.8,
        feature_mix: float = 0.2,
        feature_jitter: float = 0.0,
    ) -> None:
        if side < 1 or vocab < 2:
            raise ConfigError("side must be >= 1 and vocab >= 2")
        if len(clusters) != vocab:
            raise ConfigError("clusters must assign every token")
        if len(regions) != side * side:
            raise ConfigError("regions must cover every grid cell")
        if not 0.0 < in_cluster_mass < 1.0:
            raise ConfigError("in_cluster_mass must lie in (0, 1)")
        if not 0.0 <= feature_jitter <= 0.05:
            raise ConfigError("feature_jitter must lie in [0, 0.05]")
        self.side = side
        self.grid_side: int | None = side
        self.vocab = vocab
        self.h = h
        self.clusters = tuple(int(c) for c in clusters)
        self.regions = tuple(int(r) for r in regions)
        self.region_clusters = tuple(int(c) for c in region_clusters)
        self.in_cluster_mass = float(in_cluster_mass)
        self.feature_mix = float(feature_mix)
        self.feature_jitter = float(feature_jitter)

        region_count = len(region_clusters)
        n_clusters = max(self.clusters) + 1
        if min(self.regions) < 0 or min(self.clusters) < 0:
            raise ConfigError("region and cluster ids must be non-negative")
        if len(region_anchors) != region_count:
            raise ConfigError("one region anchor required per region")
        if len(cluster_anchors) < n_clusters:
            raise ConfigError("one cluster anchor required per cluster")
        if max(self.regions) >= region_count:
            raise ConfigError("region map references a region without an anchor")
        if any(not 0 <= c < n_clusters for c in self.region_clusters):
            raise ConfigError("region_clusters references an unknown cluster")

        def _anchor(vec) -> np.ndarray:
            arr = np.asarray(
                vec.values if isinstance(vec, FeatureVec) else vec, dtype=np.float64
            )
            if arr.shape != (h,) or not np.all(np.isfinite(arr)):
                raise NonFinite(f"anchor must be a finite vector of dim {h}")
            return arr

        def _unit(vec) -> np.ndarray:
            arr = _anchor(vec)
            with np.errstate(over="ignore"):
                norm = math.sqrt(arr.dot(arr))  # `np.linalg.norm(arr)`, bit for bit
            if not math.isfinite(norm):
                raise NonFinite("region anchor norm overflows")
            if norm <= 0.0:
                raise ConfigError("region anchors must be non-zero")
            return arr / norm

        self._region_anchors = np.array([_unit(v) for v in region_anchors])
        self._cluster_anchors = np.array([_anchor(v) for v in cluster_anchors])

        self._dist_by_region = [self._build_region_dist(r) for r in range(region_count)]
        self._n_clusters = n_clusters
        self._grid_table: _GridTable | None = None  # built on first use

    def _build_region_dist(self, region: int) -> ProbDist:
        preferred = self.region_clusters[region]
        members = [t for t in range(self.vocab) if self.clusters[t] == preferred]
        if not members or len(members) == self.vocab:
            raise ConfigError("each region needs a proper, non-empty preferred cluster")
        mass = np.full(self.vocab, (1.0 - self.in_cluster_mass) / (self.vocab - len(members)))
        mass[members] = self.in_cluster_mass / len(members)
        return ProbDist(mass)

    def _feature_rows(
        self, regions: np.ndarray, clusters: np.ndarray, jitter: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The feature of each (region, cluster) pair, plus row j of `jitter` if given, and its norm.

        Cluster -1 (a root, with no last token) adds no cluster anchor. Where
        the anchors cancel, or their sum's norm overflows, the row and its
        norm are not finite.
        """
        raw = self._region_anchors[regions]
        mixed = self.feature_mix * self._cluster_anchors[clusters]
        np.add(raw, mixed, out=raw, where=(clusters >= 0)[:, None])
        if jitter is not None:
            raw += jitter
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            norms = _row_norms(raw)
            raw /= np.where(norms < np.inf, norms, np.nan)[:, None]
        return raw, _row_norms(raw)

    def _table(self) -> _GridTable:
        if self._grid_table is None:
            region_count, width = len(self._dist_by_region), self._n_clusters + 1
            regions = np.arange(region_count).repeat(width)
            values, norms = self._feature_rows(regions, np.tile(np.arange(-1, width - 1), region_count), None)
            values.flags.writeable = False
            evals = [
                TargetEval(self._dist_by_region[region], FeatureVec(row)) if math.isfinite(norm) else None
                for region, row, norm in zip(regions.tolist(), values, norms.tolist())
            ]
            self._grid_table = _GridTable(
                np.array(self.regions), np.array(self.clusters), LawTable.stack(self._dist_by_region),
                values, norms, evals,
            )
        return self._grid_table

    def _jitter(self, prefix: Sequence[TokenId], cell: int) -> np.ndarray:
        # Deterministic per (prefix, cell): fold tokens through a 64-bit mixer.
        # Python ints: for one path they beat `_jitters`' per-token numpy passes.
        acc = _mix64(cell + 0x9E37)
        for tok in prefix:
            acc = _mix64(acc ^ (tok + 0x100))
        comps = np.empty(self.h)
        for i in range(self.h):
            acc = _mix64(acc + 1)
            comps[i] = (acc >> 11) * 1.1102230246251565e-16 - 0.5
        norm = float(np.linalg.norm(comps))
        return comps * (self.feature_jitter / norm) if norm > 0 else comps * 0.0

    def _jitters(self, paths: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """`_jitter` of many paths at once, bit for bit, one row per path.

        Row j of `paths` holds path j's tokens, left-padded with -1, and
        `cells[j]` is its cell. The fold runs in uint64 arrays, one
        numpy pass per token column for every path.
        """
        acc = _mix64_array(np.asarray(cells, dtype=np.uint64) + np.uint64(0x9E37))
        columns = paths.T.astype(np.uint64)
        columns += np.uint64(0x100)
        for column, live in zip(columns, paths.T >= 0):
            np.copyto(acc, _mix64_array(acc ^ column), where=live)
        comps = np.empty((len(acc), self.h))
        for i in range(self.h):
            acc += np.uint64(1)
            comps[:, i] = _mix64_array(acc) >> np.uint64(11)
        comps *= 1.1102230246251565e-16  # 2**-53
        comps -= 0.5
        # A zero norm needs all h mixer outputs in [2**63, 2**63 + 2**11): `_jitter`'s guard is left out.
        return comps * (self.feature_jitter / _row_norms(comps))[:, None]

    def evaluate(self, prefix: Sequence[TokenId]) -> TargetEval:
        """`Target.evaluate`; a prefix of N^2 tokens is read at the last cell."""
        _check_on_grid(len(prefix), self.side, reach=1)
        cell = min(len(prefix), self.side * self.side - 1)
        region = self.regions[cell]
        cluster = self.clusters[prefix[-1]] if len(prefix) > 0 else -1
        if self.feature_jitter > 0.0:
            jitter = self._jitter(prefix, cell)[None]
            values, _ = self._feature_rows(np.array([region]), np.array([cluster]), jitter)
            return TargetEval(self._dist_by_region[region], FeatureVec(values[0]))
        ev = self._table().evals[region * (self._n_clusters + 1) + cluster + 1]
        if ev is None:
            raise NonFinite("feature vector contains non-finite entries")
        return ev

    def evaluate_batch(self, tree: DraftTree) -> BatchEval:
        """`Target.evaluate_batch`: laws by region; unjittered features come from one table,
        jittered ones from one fold over every node's path."""
        table = self._table()
        deepest = int(tree.index.max(initial=0))
        _check_on_grid(deepest, self.side, reach=1)
        cells = np.minimum(tree.index, self.side * self.side - 1)
        regions = table.regions[cells]
        clusters = table.clusters[tree.token]
        if self.feature_jitter > 0.0:
            tails = tree.tail(deepest, np.arange(len(tree.token)))
            jitter = self._jitters(tails, cells)
            features, norms = self._feature_rows(regions, clusters, jitter)
        else:
            rows = regions * (self._n_clusters + 1) + clusters + 1
            features, norms = table.values.take(rows, axis=0), table.norms.take(rows)
        if not np.all(np.isfinite(norms)):
            raise NonFinite("feature vector contains non-finite entries")
        features.flags.writeable = False
        return table.laws, regions, features, norms

    def distribution(self, prefix: Sequence[TokenId]) -> ProbDist:
        _check_on_grid(len(prefix), self.side)
        return self._dist_by_region[self.regions[len(prefix)]]

    def conditionals(self, contexts: np.ndarray, index: np.ndarray) -> np.ndarray:
        """`Drafter.conditionals`: each prefix's region law."""
        _check_on_grid(int(index.max(initial=0)), self.side)
        table = self._table()
        return table.laws.mass.take(table.regions[index], axis=0)

    @classmethod
    def default(cls, feature_jitter: float = 0.0) -> "GridWorldModel":
        """Stock desk configuration: 8x8 grid, 32 tokens in 4 clusters, 3 row bands."""
        side, vocab, h = 8, 32, 8
        clusters = [t // 8 for t in range(vocab)]
        regions = []
        for row in range(side):
            band = 0 if row <= 2 else (1 if row <= 5 else 2)
            regions.extend([band] * side)
        region_clusters = [0, 1, 2]
        eye = np.eye(h)
        region_anchors = [eye[r] for r in range(3)]
        cluster_anchors = [eye[3 + c] for c in range(4)]
        return cls(
            side,
            vocab,
            h,
            clusters,
            regions,
            region_clusters,
            region_anchors,
            cluster_anchors,
            feature_jitter=feature_jitter,
        )

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "N": self.side,
            "V": self.vocab,
            "h": self.h,
            "clusters": list(self.clusters),
            "regions": list(self.regions),
            "regionClusters": list(self.region_clusters),
            "regionAnchors": [a.tolist() for a in self._region_anchors],
            "clusterAnchors": [a.tolist() for a in self._cluster_anchors],
            "inClusterMass": self.in_cluster_mass,
            "featureMix": self.feature_mix,
            "featureJitter": self.feature_jitter,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridWorldModel":
        return cls(
            _json_int(data, "N"),
            _json_int(data, "V"),
            _json_int(data, "h"),
            _json_ints(data, "clusters"),
            _json_ints(data, "regions"),
            _json_ints(data, "regionClusters"),
            [_json_array(anchor, "regionAnchors") for anchor in data["regionAnchors"]],
            [_json_array(anchor, "clusterAnchors") for anchor in data["clusterAnchors"]],
            in_cluster_mass=_json_number(data, "inClusterMass"),
            feature_mix=_json_number(data, "featureMix"),
            feature_jitter=_json_number(data, "featureJitter", 0.0),
        )


class LinearDrafter:
    """Softmax drafter over one-hot features of (last token, grid row, grid col).

    The feature dimension is V + 2N. The first position (empty prefix) drops
    the last-token one-hot and uses only the positional terms. Every
    conditional is a read-only row of one softmax table, built and checked in
    a single numpy pass by the first `distribution` call; a shape whose table
    would pass `_MAX_TABLE_ENTRIES` raises InvalidValue. A token outside the
    vocabulary or a sequence index past the N x N grid raises UnknownWindow.
    """

    kind = "linear_drafter"
    context = 1  # the last token

    def __init__(
        self,
        weights: np.ndarray | Sequence[Sequence[float]],
        bias: np.ndarray | Sequence[float],
        vocab: int,
        side: int,
    ) -> None:
        if side < 1:
            raise InvalidValue(f"drafter grid side must be >= 1, got {side}")
        w = np.asarray(weights, dtype=np.float64)
        b = np.asarray(bias, dtype=np.float64)
        d = vocab + 2 * side
        if w.shape != (vocab, d):
            raise InvalidValue(f"weights must have shape ({vocab}, {d}), got {w.shape}")
        if b.shape != (vocab,):
            raise InvalidValue(f"bias must have shape ({vocab},), got {b.shape}")
        entries = (vocab + 1) * side * side * vocab
        if entries > _MAX_TABLE_ENTRIES:
            raise InvalidValue(
                f"a drafter with V={vocab} and N={side} has a softmax table of {entries} entries, "
                f"above the cap of {_MAX_TABLE_ENTRIES}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise NonFinite("drafter parameters must be finite")
        self.weights = w
        self.bias = b
        self.vocab = vocab
        self.side = side
        self.grid_side: int | None = side
        self._table: np.ndarray | None = None
        self._rows: list[ProbDist | None] = []

    @classmethod
    def zeros(cls, vocab: int, side: int) -> "LinearDrafter":
        return cls(np.zeros((vocab, vocab + 2 * side)), np.zeros(vocab), vocab, side)

    def _build_table(self) -> np.ndarray:
        """Every conditional's softmax as one C-contiguous ((V+1)*N*N, V) table.

        Row ((last + 1) * N + row) * N + col follows token `last` at (row, col);
        the first N*N rows follow the empty prefix. Logits add up in the order
        ((bias + row term) + col term) + last-token term, and each row is
        reduced along axis 1 of the 2-D table, so a row equals, bit for bit,
        the softmax of its logit vector computed on its own.
        """
        v, n = self.vocab, self.side
        wt = self.weights.T
        table = np.empty(((v + 1) * n * n, v))
        grid = table.reshape(v + 1, n, n, v)
        # A logit sum that overflows to inf leaves inf - inf = nan in its row;
        # the row-sum check below turns that into NonFinite instead of a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(self.bias, wt[v : v + n, None, :], out=grid[0])
            grid[0] += wt[None, v + n : v + 2 * n, :]
            np.add(grid[0], wt[:v, None, None, :], out=grid[1:])
            table -= table.max(axis=1, keepdims=True)
            np.exp(table, out=table)
            sums = table.sum(axis=1, keepdims=True)
        # Each row's largest entry is exp(0) = 1, so a finite sum of true exponentials lies in [1, V].
        if not np.all(np.isfinite(sums)):
            raise NonFinite("drafter logits overflow: softmax table has non-finite entries")
        if not np.minimum.reduce(sums, axis=None) > 0.0:
            raise InvalidValue("a drafter softmax row does not have a positive sum")
        table /= sums
        table.flags.writeable = False
        return table

    def _softmax_table(self) -> np.ndarray:
        if self._table is None:
            self._table = self._build_table()
            self._rows = [None] * len(self._table)
        return self._table

    def distribution(self, prefix: Sequence[TokenId]) -> ProbDist:
        self._softmax_table()
        last = prefix[-1] + 1 if len(prefix) > 0 else 0
        if not (0 < last <= self.vocab or len(prefix) == 0):
            raise UnknownWindow(f"last token {prefix[-1]} outside the drafter's {self.vocab} tokens")
        _check_on_grid(len(prefix), self.side)
        row = last * self.side * self.side + len(prefix)
        dist = self._rows[row]
        if dist is None:
            dist = self._rows[row] = ProbDist._of_checked_row(self._table[row])
        return dist

    def conditionals(self, contexts: np.ndarray, index: np.ndarray) -> np.ndarray:
        """`Drafter.conditionals`: one gather from the softmax table."""
        table = self._softmax_table()
        cells = self.side * self.side
        _check_on_grid(int(index.max(initial=0)), self.side)
        # Block `last + 1` of N*N rows follows token `last`; the cell's offset in it is the index.
        rows = (contexts[:, 0] + 1) * cells + index
        # Row r follows token r // (N*N) - 1, which must be one of the V tokens.
        if len(rows) and (rows.min() < cells or rows.max() >= len(table)):
            raise UnknownWindow(f"a last token lies outside the drafter's {self.vocab} tokens")
        return table.take(rows, axis=0)

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "V": self.vocab,
            "N": self.side,
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinearDrafter":
        weights, bias = _json_array(data["weights"], "weights"), _json_array(data["bias"], "bias")
        return cls(weights, bias, _json_int(data, "V"), _json_int(data, "N"))


# A model file's fields hold numbers of their own JSON type; a reader refuses
# any other, instead of coercing it into another model.


def _json_int(data: dict, key: str) -> int:
    """`data[key]`, a count or id: a JSON integer, not a bool, a float or a string."""
    value = data[key]
    if type(value) is not int:
        raise ModelFormatError(f"{key} must be a JSON integer, got {value!r}")
    return value


def _json_ints(data: dict, key: str) -> list[int]:
    """`data[key]`, a list of JSON integers; the entries' types are read in one pass of `map`."""
    value = data[key]
    if type(value) is not list or not set(map(type, value)) <= {int}:
        raise ModelFormatError(f"{key} must be a list of JSON integers")
    return value


def _json_number(data: dict, key: str, default: float | None = None) -> float:
    """`data[key]` as a float, or `default` when given and the key is absent: a JSON number, not a bool or a string."""
    value = data[key] if default is None else data.get(key, default)
    if type(value) not in (int, float):
        raise ModelFormatError(f"{key} must be a JSON number, got {value!r}")
    return float(value)


def _json_array(value, key: str) -> np.ndarray:
    """`value` as an array whose dtype must be integer or float: no bools, strings or other objects."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise ModelFormatError(f"{key} must hold JSON numbers, got an array of {array.dtype}")
    return array


_MODEL_KINDS = {
    "tabular": TabularModel,
    "gridworld": GridWorldModel,
    "linear_drafter": LinearDrafter,
}


def _window_key(window: Window) -> str:
    return ",".join(str(t) for t in window)


def _parse_window_key(key: str) -> Window:
    if key == "":
        return ()
    return tuple(int(part) for part in key.split(","))


class _OutputFiles:
    """Output files written together: every one appears, or none changes.

    `open(path, newline="\n")` opens `path` for writing UTF-8 text. A
    regular file, or a path with no file yet, is written to a new temporary
    file in the same directory (its symlink target's), keeping an existing
    file's permissions; the temporaries replace their outputs only once the
    `with` block ends without an error, and any error removes them. Each
    replacement unlinks the old file and renames its temporary into place,
    so a crash between the two leaves that output missing. An existing file
    that is not a regular file, such as /dev/null or a FIFO, is written in
    place: a rename would replace the device node itself. An OSError from
    opening, writing, closing or renaming (a full disk, a missing
    permission) becomes an EngineError that names the path.
    """

    def __init__(self) -> None:
        self.staged: list[tuple[str, str | Path, str | Path]] = []  # (temporary, output, path as given)

    def __enter__(self) -> "_OutputFiles":
        return self

    def __exit__(self, kind, value, traceback) -> None:
        renamed = 0
        try:
            if kind is None:
                for temporary, real, path in self.staged:
                    try:
                        # Unlinked, not renamed over: ext4 flushes a file renamed onto
                        # another (`auto_da_alloc`), about 0.1 ms for a small file.
                        with contextlib.suppress(FileNotFoundError):
                            os.unlink(real)
                        os.rename(temporary, real)
                    except OSError as exc:
                        raise EngineError(f"cannot write {path}: {exc}") from exc
                    renamed += 1
        finally:
            for temporary, _, _ in self.staged[renamed:]:
                with contextlib.suppress(OSError):
                    os.remove(temporary)

    @contextlib.contextmanager
    def open(self, path: str | Path, newline: str = "\n") -> Iterator[TextIO]:
        try:
            with self._staged(path, newline) as out:
                yield out
        except OSError as exc:
            raise EngineError(f"cannot write {path}: {exc}") from exc

    def _staged(self, path: str | Path, newline: str) -> TextIO:
        # One lstat decides the common case; only a symlink is resolved.
        real = path
        try:
            st = os.lstat(path)
            if stat.S_ISLNK(st.st_mode):
                real = os.path.realpath(path)
                st = os.stat(real)
        except FileNotFoundError:
            st = None
        if st is not None and not stat.S_ISREG(st.st_mode):
            return open(path, "w", encoding="utf-8", newline=newline)
        temporary = f"{real}.{os.urandom(8).hex()}.tmp"
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        self.staged.append((temporary, real, path))
        # A chmod costs the file system more than a stat: only a differing mode is copied.
        if st is not None and os.fstat(fd).st_mode != st.st_mode:
            os.chmod(fd, stat.S_IMODE(st.st_mode))
        return open(fd, "w", encoding="utf-8", newline=newline)


def save_model(model, path: str | Path) -> None:
    """Write any model to its JSON file form (format_version 1), whole or not at all."""
    with _OutputFiles() as outputs, outputs.open(path) as out:
        out.write(json.dumps(model.to_dict(), sort_keys=True))


def load_model(path: str | Path):
    """Load a model file, dispatching on its `kind` field.

    Every way a file can fail to describe a valid model, from a missing key or
    an ill-typed value to a failed model invariant, raises ModelFormatError.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelFormatError(f"{path}: expected a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format_version {version!r}, expected {FORMAT_VERSION}"
        )
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    try:
        return _MODEL_KINDS[kind].from_dict(data)
    except (KeyError, TypeError, ValueError, AttributeError, EngineError) as exc:
        raise ModelFormatError(f"{path}: malformed {kind} model: {exc!r}") from exc


def random_tabular_model(vocab: int, order: int, seed: int, h: int = 4) -> TabularModel:
    """Seeded tabular fixture: flat-Dirichlet rows and unit random features per window."""
    _check_tabular_shape(vocab, order, h)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    table: dict[Window, ProbDist] = {}
    features: dict[Window, FeatureVec] = {}
    for window in _windows(vocab, order):
        table[window] = ProbDist(rng.dirichlet(np.ones(vocab)))
        raw = rng.normal(size=h)
        features[window] = FeatureVec(raw / np.linalg.norm(raw))
    return TabularModel(vocab, order, table, features, h)


def tempered_table_drafter(model: TabularModel, exponent: float = 0.5) -> TabularModel:
    """Drafter stand-in: the target's rows raised to `exponent` and renormalized.

    Flattens every conditional, so verification sees real rejections while the
    support of each row is preserved.
    """
    if not 0.0 < exponent <= 1.0:
        raise ConfigError("exponent must lie in (0, 1]")
    windows = list(_windows(model.vocab, model.order))
    table = {w: ProbDist.normalized(np.power(ev.dist.mass, exponent)) for w, ev in zip(windows, model._evals)}
    features = {w: ev.feature for w, ev in zip(windows, model._evals)}
    return TabularModel(model.vocab, model.order, table, features, model.h)
