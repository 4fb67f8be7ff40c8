"""Desk-scale target and drafter models with cheap, exactly reproducible evaluation.

Two target families stand in for large autoregressive image models: an
order-k tabular model (the exact-oracle workhorse) and a grid-world model
whose token clusters and spatial regions inject feature redundancy by
construction. The drafter is a linear softmax model conditioned on the last
token and the grid position only, deliberately weaker than either target.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import Mapping, NamedTuple, Protocol, Sequence, runtime_checkable

import numpy as np

from .core import (
    EngineError,
    FeatureVec,
    GridPos,
    ModelFormatError,
    NonFinite,
    PROB_ATOL,
    ProbDist,
    TokenId,
    TooLarge,
    UnknownWindow,
    _mix64,
)

FORMAT_VERSION = 1
ENUMERATION_GUARD = 1_000_000

Window = tuple[int, ...]


def _power_exceeds_guard(base: int, exponent: int) -> bool:
    """Whether base**exponent > ENUMERATION_GUARD, decided without building a huge power."""
    if base <= 1:
        return False  # 0**n and 1**n never exceed 1
    power = 1
    for _ in range(exponent):
        power *= base
        if power > ENUMERATION_GUARD:
            return True
    return False


class TargetEval(NamedTuple):
    """One target forward: next-token law plus the hidden-state feature."""

    dist: ProbDist
    feature: FeatureVec


@runtime_checkable
class Drafter(Protocol):
    grid_side: int | None

    def distribution(self, prefix: Sequence[TokenId], pos: GridPos) -> ProbDist: ...


# Per node of a batch: its next-token laws, its features as the rows of one
# read-only (nodes, h) float64 array, and each feature's own norm.
BatchEval = tuple[list[ProbDist], np.ndarray, np.ndarray]


@runtime_checkable
class Target(Protocol):
    grid_side: int | None

    def evaluate(self, prefix: Sequence[TokenId], pos: GridPos) -> TargetEval: ...

    def evaluate_batch(
        self,
        paths: Sequence[Sequence[TokenId]],
        level_starts: Sequence[int],
        start_index: int,
        side: int,
    ) -> BatchEval:
        """Evaluate every node of a level-major draft tree in one call.

        Node i has prefix `paths[i]` (never empty). Level l (1-based) holds
        ids `level_starts[l-1] .. level_starts[l]-1` and sits at sequence
        index `start_index + l` of a `side` x `side` grid, clamped to its last
        cell. Row i of the result equals `evaluate(paths[i], pos)` bit for bit.
        """
        ...


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
        if vocab < 1 or order < 1:
            raise ValueError("vocab and order must be positive")
        if _power_exceeds_guard(vocab, order):
            raise TooLarge(f"tabular model with {vocab}^{order} windows")
        self.vocab = vocab
        self.order = order
        self.h = h
        self._table: dict[Window, ProbDist] = {}
        self._features: dict[Window, FeatureVec] = {}
        for window, row in table.items():
            key = tuple(int(t) for t in window)
            dist = row if isinstance(row, ProbDist) else ProbDist(row)
            if len(dist) != vocab:
                raise ValueError(f"row for window {key} has size {len(dist)} != {vocab}")
            self._table[key] = dist
        for window, vec in feature_table.items():
            key = tuple(int(t) for t in window)
            feat = vec if isinstance(vec, FeatureVec) else FeatureVec(vec)
            if len(feat) != h:
                raise ValueError(f"feature for window {key} has dim {len(feat)} != {h}")
            self._features[key] = feat
        for length in range(order + 1):
            for window in itertools.product(range(vocab), repeat=length):
                if window not in self._table:
                    raise UnknownWindow(f"table missing window {window}")
                if window not in self._features:
                    raise UnknownWindow(f"feature table missing window {window}")
        self._evals: dict[Window, TargetEval] = {
            w: TargetEval(self._table[w], self._features[w]) for w in self._table
        }

    def window(self, prefix: Sequence[TokenId]) -> Window:
        if len(prefix) >= self.order:
            return tuple(prefix[len(prefix) - self.order :])
        return tuple(prefix)

    def evaluate(self, prefix: Sequence[TokenId], pos: GridPos) -> TargetEval:
        key = self.window(prefix)
        try:
            return self._evals[key]
        except KeyError:
            raise UnknownWindow(f"no table row for window {key}") from None

    def evaluate_batch(
        self,
        paths: Sequence[Sequence[TokenId]],
        level_starts: Sequence[int],
        start_index: int,
        side: int,
    ) -> BatchEval:
        """`Target.evaluate_batch`; a tabular law ignores the grid, so only `paths` is read."""
        dists: list[ProbDist] = []
        values: list[np.ndarray] = []
        norms: list[float] = []
        for path in paths:
            key = self.window(path)
            ev = self._evals.get(key)
            if ev is None:
                raise UnknownWindow(f"no table row for window {key}")
            dists.append(ev.dist)
            values.append(ev.feature.values)
            norms.append(ev.feature.norm)
        features = np.array(values)
        features.flags.writeable = False
        return dists, features, np.array(norms)

    def distribution(self, prefix: Sequence[TokenId], pos: GridPos) -> ProbDist:
        return self.evaluate(prefix, pos).dist

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "V": self.vocab,
            "order": self.order,
            "h": self.h,
            "table": {_window_key(w): d.mass.tolist() for w, d in sorted(self._table.items())},
            "featureTable": {
                _window_key(w): f.values.tolist() for w, f in sorted(self._features.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TabularModel":
        table = {_parse_window_key(k): v for k, v in data["table"].items()}
        features = {_parse_window_key(k): v for k, v in data["featureTable"].items()}
        return cls(int(data["V"]), int(data["order"]), table, features, int(data["h"]))


class GridWorldModel:
    """Grid target whose next-token law depends on the spatial region only.

    Each region prefers one token cluster: `in_cluster_mass` is spread
    uniformly over the preferred cluster and the remainder uniformly over all
    other tokens. The hidden-state feature is the normalized sum of the
    region anchor and `feature_mix` times the last token's cluster anchor, so
    same-cluster continuations at one position are feature-identical.
    """

    kind = "gridworld"

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
            raise ValueError("side must be >= 1 and vocab >= 2")
        if len(clusters) != vocab:
            raise ValueError("clusters must assign every token")
        if len(regions) != side * side:
            raise ValueError("regions must cover every grid cell")
        if not 0.0 < in_cluster_mass < 1.0:
            raise ValueError("in_cluster_mass must lie in (0, 1)")
        if not 0.0 <= feature_jitter <= 0.05:
            raise ValueError("feature_jitter must lie in [0, 0.05]")
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

        n_regions = len(region_clusters)
        n_clusters = max(self.clusters) + 1
        if len(region_anchors) != n_regions:
            raise ValueError("one region anchor required per region")
        if len(cluster_anchors) < n_clusters:
            raise ValueError("one cluster anchor required per cluster")
        if max(self.regions) >= n_regions:
            raise ValueError("region map references a region without an anchor")
        if any(not 0 <= c < n_clusters for c in self.region_clusters):
            raise ValueError("region_clusters references an unknown cluster")

        def _unit(vec) -> np.ndarray:
            arr = np.asarray(
                vec.values if isinstance(vec, FeatureVec) else vec, dtype=np.float64
            )
            if arr.shape != (h,) or not np.all(np.isfinite(arr)):
                raise NonFinite(f"anchor must be a finite vector of dim {h}")
            norm = float(np.linalg.norm(arr))
            if norm <= 0.0:
                raise ValueError("region anchors must be non-zero")
            return arr / norm

        self._region_anchors = [_unit(v) for v in region_anchors]
        self._cluster_anchors = [
            np.asarray(
                v.values if isinstance(v, FeatureVec) else v, dtype=np.float64
            )
            for v in cluster_anchors
        ]

        self._dist_by_region = [self._build_region_dist(r) for r in range(n_regions)]
        self._n_clusters = n_clusters
        self._feature_cache: dict[tuple[int, int | None], FeatureVec] = {}
        # `_build_feature_table`'s result, built by the first `evaluate_batch`.
        self._feature_table: tuple[np.ndarray, np.ndarray, frozenset[int]] | None = None

    def _build_region_dist(self, region: int) -> ProbDist:
        preferred = self.region_clusters[region]
        members = [t for t in range(self.vocab) if self.clusters[t] == preferred]
        if not members or len(members) == self.vocab:
            raise ValueError("each region needs a proper, non-empty preferred cluster")
        mass = np.full(self.vocab, (1.0 - self.in_cluster_mass) / (self.vocab - len(members)))
        mass[members] = self.in_cluster_mass / len(members)
        return ProbDist(mass)

    def region_of(self, pos: GridPos) -> int:
        return self.regions[pos.flatten(self.side)]

    def cluster_of(self, token: TokenId) -> int:
        return self.clusters[token]

    def _cached_feature(self, region: int, cluster: int | None) -> FeatureVec:
        """The unjittered feature of (region, cluster), built once."""
        key = (region, cluster)
        feat = self._feature_cache.get(key)
        if feat is None:
            feat = self._feature_cache[key] = self._make_feature(region, cluster, None)
        return feat

    def _make_feature(
        self, region: int, cluster: int | None, jitter: np.ndarray | None
    ) -> FeatureVec:
        raw = self._region_anchors[region].copy()
        if cluster is not None:
            raw += self.feature_mix * self._cluster_anchors[cluster]
        if jitter is not None:
            raw += jitter
        return FeatureVec(raw / np.linalg.norm(raw))

    def _build_feature_table(self) -> tuple[np.ndarray, np.ndarray, frozenset[int]]:
        """Every unjittered (region, cluster) feature as one read-only table, with its norms.

        Row region * clusters + cluster holds that pair's `FeatureVec` bytes.
        A pair whose anchors cancel has no feature: its row is NaN and listed
        in the returned set, so that gathering it raises as `evaluate` does.
        """
        values = np.full((len(self._dist_by_region) * self._n_clusters, self.h), np.nan)
        norms = np.full(len(values), np.nan)
        undefined: set[int] = set()
        for row in range(len(values)):
            try:
                feat = self._cached_feature(*divmod(row, self._n_clusters))
            except NonFinite:
                undefined.add(row)
                continue
            values[row] = feat.values
            norms[row] = feat.norm
        values.flags.writeable = False
        return values, norms, frozenset(undefined)

    def _jitter(self, prefix: Sequence[TokenId], pos: GridPos) -> np.ndarray:
        # Deterministic per (prefix, pos): fold tokens through a 64-bit mixer.
        acc = _mix64(pos.flatten(self.side) + 0x9E37)
        for tok in prefix:
            acc = _mix64(acc ^ (tok + 0x100))
        comps = np.empty(self.h)
        for i in range(self.h):
            acc = _mix64(acc + 1)
            comps[i] = (acc >> 11) * 1.1102230246251565e-16 - 0.5
        norm = float(np.linalg.norm(comps))
        return comps * (self.feature_jitter / norm) if norm > 0 else comps * 0.0

    def evaluate(self, prefix: Sequence[TokenId], pos: GridPos) -> TargetEval:
        region = self.region_of(pos)
        cluster = self.cluster_of(prefix[-1]) if len(prefix) > 0 else None
        if self.feature_jitter > 0.0:
            feat = self._make_feature(region, cluster, self._jitter(prefix, pos))
        else:
            feat = self._cached_feature(region, cluster)
        return TargetEval(self._dist_by_region[region], feat)

    def evaluate_batch(
        self,
        paths: Sequence[Sequence[TokenId]],
        level_starts: Sequence[int],
        start_index: int,
        side: int,
    ) -> BatchEval:
        """`Target.evaluate_batch`: one law per level; unjittered rows come from one table."""
        jittered = self.feature_jitter > 0.0
        if not jittered and self._feature_table is None:
            self._feature_table = self._build_feature_table()
        cap = side * side - 1
        clusters = self.clusters
        dists: list[ProbDist] = []
        rows: list[int] = []
        feats: list[FeatureVec] = []
        for level in range(1, len(level_starts)):
            lo, hi = level_starts[level - 1], level_starts[level]
            pos = GridPos.from_index(min(start_index + level, cap), side)
            region = self.region_of(pos)
            dists += [self._dist_by_region[region]] * (hi - lo)
            if jittered:
                feats += [
                    self._make_feature(region, clusters[path[-1]], self._jitter(path, pos))
                    for path in paths[lo:hi]
                ]
            else:
                base = region * self._n_clusters
                rows += [base + clusters[path[-1]] for path in paths[lo:hi]]
        if jittered:
            features = np.array([feat.values for feat in feats])
            norms = np.array([feat.norm for feat in feats])
        else:
            table, table_norms, undefined = self._feature_table
            if undefined and not undefined.isdisjoint(rows):
                first_bad = next(row for row in rows if row in undefined)
                self._cached_feature(*divmod(first_bad, self._n_clusters))  # raises NonFinite
            features, norms = table.take(rows, axis=0), table_norms.take(rows)
        features.flags.writeable = False
        return dists, features, norms

    def distribution(self, prefix: Sequence[TokenId], pos: GridPos) -> ProbDist:
        return self._dist_by_region[self.region_of(pos)]

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
            int(data["N"]),
            int(data["V"]),
            int(data["h"]),
            data["clusters"],
            data["regions"],
            data["regionClusters"],
            data["regionAnchors"],
            data["clusterAnchors"],
            in_cluster_mass=float(data["inClusterMass"]),
            feature_mix=float(data["featureMix"]),
            feature_jitter=float(data.get("featureJitter", 0.0)),
        )


class LinearDrafter:
    """Softmax drafter over one-hot features of (last token, grid row, grid col).

    The feature dimension is V + 2N. The first position (empty prefix) drops
    the last-token one-hot and uses only the positional terms. Every
    conditional is a read-only row of one softmax table, built and checked in
    a single numpy pass by the first `distribution` call. A token outside the
    vocabulary or a cell outside the N x N grid raises UnknownWindow.
    """

    kind = "linear_drafter"

    def __init__(
        self,
        weights: np.ndarray | Sequence[Sequence[float]],
        bias: np.ndarray | Sequence[float],
        vocab: int,
        side: int,
    ) -> None:
        w = np.asarray(weights, dtype=np.float64)
        b = np.asarray(bias, dtype=np.float64)
        d = vocab + 2 * side
        if w.shape != (vocab, d):
            raise ValueError(f"weights must have shape ({vocab}, {d}), got {w.shape}")
        if b.shape != (vocab,):
            raise ValueError(f"bias must have shape ({vocab},), got {b.shape}")
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
        # the check below turns that into NonFinite instead of a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(self.bias, wt[v : v + n, None, :], out=grid[0])
            grid[0] += wt[None, v + n : v + 2 * n, :]
            np.add(grid[0], wt[:v, None, None, :], out=grid[1:])
            table -= table.max(axis=1, keepdims=True)
            np.exp(table, out=table)
        if not np.all(np.isfinite(table)):
            raise NonFinite("drafter logits overflow: softmax table has non-finite entries")
        norms = table.sum(axis=1, keepdims=True)
        if np.any(table < 0.0) or not np.all(np.isfinite(norms) & (norms > 0.0)):
            raise ValueError("softmax table needs non-negative entries and positive finite row sums")
        table /= norms
        if np.any(np.abs(table.sum(axis=1) - 1.0) > PROB_ATOL):
            raise ValueError("a drafter softmax row does not sum to 1.0")
        table.flags.writeable = False
        return table

    def distribution(self, prefix: Sequence[TokenId], pos: GridPos) -> ProbDist:
        if self._table is None:
            self._table = self._build_table()
            self._rows = [None] * len(self._table)
        n = self.side
        row, col = pos
        last = prefix[-1] + 1 if len(prefix) > 0 else 0
        if not ((0 < last <= self.vocab or len(prefix) == 0) and 0 <= row < n and 0 <= col < n):
            raise UnknownWindow(f"last token {prefix[-1:]} or cell ({row}, {col}) outside "
                                f"the drafter's {self.vocab} tokens and {n}x{n} grid")
        index = (last * n + row) * n + col
        dist = self._rows[index]
        if dist is None:
            dist = self._rows[index] = ProbDist._of_checked_row(self._table[index])
        return dist

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
        return cls(data["weights"], data["bias"], int(data["V"]), int(data["N"]))


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


def save_model(model, path: str | Path) -> None:
    """Write any model to its JSON file form (format_version 1)."""
    Path(path).write_text(json.dumps(model.to_dict(), sort_keys=True), encoding="utf-8")


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
    rng = np.random.default_rng(seed)
    table: dict[Window, ProbDist] = {}
    features: dict[Window, FeatureVec] = {}
    for length in range(order + 1):
        for window in itertools.product(range(vocab), repeat=length):
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
        raise ValueError("exponent must lie in (0, 1]")
    table = {
        w: ProbDist.normalized(np.power(d.mass, exponent)) for w, d in model._table.items()
    }
    return TabularModel(model.vocab, model.order, table, model._features, model.h)


def enumerate_ar_distribution(
    model: Target, length: int, side: int | None = None
) -> dict[tuple[int, ...], float]:
    """Exact chain-rule law of every length-L sequence under the target.

    Guarded at V^L <= 10^6 states; the result sums to 1 within 1e-9.
    """
    vocab = getattr(model, "vocab")
    if _power_exceeds_guard(vocab, length):
        raise TooLarge(f"{vocab}^{length} sequences exceed enumeration guard")
    grid = side if side is not None else (model.grid_side or max(1, math.isqrt(max(length - 1, 0)) + 1))
    result: dict[tuple[int, ...], float] = {(): 1.0}
    for t in range(length):
        pos = GridPos.from_index(t, grid)
        step: dict[tuple[int, ...], float] = {}
        for seq, prob in result.items():
            dist = model.evaluate(seq, pos).dist
            for token in range(vocab):
                step[seq + (token,)] = prob * dist[token]
        result = step
    return result
