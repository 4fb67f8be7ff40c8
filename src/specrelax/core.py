"""Foundational value types and exact probability utilities.

Everything in this module is either a small immutable value (probability
vectors, feature vectors, grid positions, a counter-based random stream)
or a pure function over those values. All heavier machinery builds on top.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

TokenId = int

# Absolute tolerance for every probability comparison in the package.
PROB_ATOL = 1e-9
# Vectors with norm at or below this floor cannot enter a cosine.
NORM_FLOOR = 1e-12
# Total excess mass at or below this floor makes a residual degenerate.
RESIDUAL_FLOOR = 1e-12


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class LengthMismatch(EngineError):
    """Two distributions of different vocabulary size were combined."""


class ZeroNormFeature(EngineError):
    """A feature vector with (near-)zero norm reached a cosine computation."""


class DegenerateResidual(EngineError):
    """q - p has no positive part anywhere; there is nothing to correct with."""


class UnknownWindow(EngineError):
    """A model was asked about a context window (prefix or grid cell) it does not cover."""


class TooLarge(EngineError):
    """An exact enumeration was requested beyond the configured size guard."""


class VocabExhausted(EngineError):
    """A tree level requests more sibling candidates than the vocabulary holds."""


class RowOutOfRange(EngineError):
    """A heatmap export referenced a grid row outside the model's grid."""


class NonFinite(EngineError):
    """A numeric quantity that must be finite was not."""


class ModelFormatError(EngineError):
    """A model file could not be parsed or has an unsupported format version."""


class ConfigError(EngineError):
    """An experiment or CLI configuration is invalid or incomplete."""


class InvalidValue(EngineError, ValueError):
    """A value type or model was built from malformed numbers: a wrong shape, a
    negative mass, a sum off 1, an index off the grid. Also a ValueError, so
    callers that catch the builtin still see it."""


class ProbDist:
    """Normalized probability mass over a finite token vocabulary.

    Instances are immutable; the cdf is built on the first draw, so a row
    that is only read never pays for it.
    """

    __slots__ = ("mass", "_cdf")

    def __init__(self, mass: Sequence[float] | np.ndarray) -> None:
        arr = np.asarray(mass, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidValue("probability mass must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise NonFinite("probability mass contains non-finite entries")
        if np.any(arr < 0.0):
            raise InvalidValue("probability mass must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_ATOL:
            raise InvalidValue(f"probability mass sums to {total!r}, expected 1.0")
        arr = arr.copy()
        arr.flags.writeable = False
        self.mass = arr
        self._cdf: tuple[float, ...] | None = None

    @classmethod
    def _of_checked_row(cls, row: np.ndarray) -> "ProbDist":
        """Wrap a read-only row whose caller already ran the checks of __init__."""
        dist = cls.__new__(cls)
        dist.mass = row
        dist._cdf = None
        return dist

    @classmethod
    def normalized(cls, raw: Sequence[float] | np.ndarray) -> "ProbDist":
        """Build a distribution from non-negative weights, dividing by their sum."""
        arr = np.asarray(raw, dtype=np.float64)
        total = float(arr.sum())
        if not np.isfinite(total) or total <= 0.0:
            raise InvalidValue("weights must be non-negative with a positive sum")
        return cls(arr / total)

    def __len__(self) -> int:
        return int(self.mass.size)

    def __getitem__(self, token: TokenId) -> float:
        return float(self.mass[token])

    def __iter__(self) -> Iterator[float]:
        return iter(self.mass.tolist())

    def __repr__(self) -> str:
        return f"ProbDist({self.mass.tolist()})"

    def sample(self, rng: "RngStream") -> TokenId:
        """Inverse-CDF draw using one uniform from the stream."""
        if self._cdf is None:
            self._cdf = tuple(np.cumsum(self.mass).tolist())
        r = rng.next_real()
        idx = bisect_right(self._cdf, r)
        if idx >= len(self._cdf):
            # Cumulative rounding left the final cdf entry a hair below 1.
            idx = len(self._cdf) - 1
            while idx > 0 and self.mass[idx] == 0.0:
                idx -= 1
        return idx


class FeatureVec:
    """Real-valued hidden-state vector used for similarity measurements."""

    __slots__ = ("values", "norm")

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidValue("feature vector must be a non-empty 1-d array")
        # `np.linalg.norm(arr)`, bit for bit; a non-finite entry leaves it non-finite too.
        with np.errstate(over="ignore", invalid="ignore"):
            norm = math.sqrt(arr.dot(arr))
        if not math.isfinite(norm):
            if not np.all(np.isfinite(arr)):
                raise NonFinite("feature vector contains non-finite entries")
            raise NonFinite("feature vector norm overflows")
        arr = arr.copy()
        arr.flags.writeable = False
        self.values = arr
        self.norm = norm

    def __len__(self) -> int:
        return int(self.values.size)

    def __repr__(self) -> str:
        return f"FeatureVec({self.values.tolist()})"


def cosine_sim(a: FeatureVec, b: FeatureVec) -> float:
    """Cosine of the angle between two feature vectors, clamped to [-1, 1]."""
    na, nb = a.norm, b.norm
    if na <= NORM_FLOOR or nb <= NORM_FLOOR:
        raise ZeroNormFeature(f"cosine undefined for norms ({na!r}, {nb!r})")
    value = float(np.dot(a.values, b.values)) / (na * nb)
    return max(-1.0, min(1.0, value))


def _pair_cosines(values: np.ndarray, norms: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """`cosine_sim` of each row pair `values[first[k]]`, `values[second[k]]`, bit for bit.

    `norms[i]` is row i's own norm. Each dot product runs through the same
    BLAS kernel as `cosine_sim`'s, and the clamp is its scalar one: `fmin`
    turns a NaN into 1.0, as `min(1.0, value)` does. The first pair holding
    a norm at or below NORM_FLOOR goes to `cosine_sim`, which raises.
    """
    if np.minimum.reduce(norms) <= NORM_FLOOR:
        zero = (norms[first] <= NORM_FLOOR) | (norms[second] <= NORM_FLOOR)
        if zero.any():
            k = int(zero.argmax())
            cosine_sim(FeatureVec(values[first[k]]), FeatureVec(values[second[k]]))
    cos = np.vecdot(values[first], values[second])
    cos /= norms[first] * norms[second]
    np.fmin(cos, 1.0, out=cos)
    np.maximum(cos, -1.0, out=cos)
    return cos


def tvd(a: ProbDist, b: ProbDist) -> float:
    """Total variation distance: half the L1 distance between mass vectors."""
    if len(a) != len(b):
        raise LengthMismatch(f"distributions of size {len(a)} and {len(b)}")
    return 0.5 * float(np.abs(a.mass - b.mass).sum())


def _residual_rows(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Each row's renormalized positive part of `q - p`, and which rows are degenerate.

    A row whose excess sums to RESIDUAL_FLOOR or less is degenerate, and its
    row of the result is `q`'s own; the mask is None when no row is.
    """
    excess = np.subtract(q, p)
    np.maximum(excess, 0.0, out=excess)
    total = np.add.reduce(excess, axis=1)
    degenerate = None
    if np.minimum.reduce(total) <= RESIDUAL_FLOOR:
        degenerate = total <= RESIDUAL_FLOOR
        excess[degenerate] = q[degenerate]
        total[degenerate] = 1.0
    excess /= total[:, None]
    return excess, degenerate


def residual_dist(q: ProbDist, p: ProbDist) -> ProbDist:
    """Renormalized positive part of q - p, the correction law on rejection."""
    if len(q) != len(p):
        raise LengthMismatch(f"distributions of size {len(q)} and {len(p)}")
    mass, degenerate = _residual_rows(q.mass[None], p.mass[None])
    if degenerate is not None:
        raise DegenerateResidual("q and p coincide; residual mass is zero")
    # Finite, non-negative and summing to 1 by construction: skip re-checking.
    mass = mass[0]
    mass.flags.writeable = False
    return ProbDist._of_checked_row(mass)


def first_hits(mass: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """The inverse-CDF pick of every row of `mass`; drafting and corrections both draw through it.

    `hit[j]` marks where row j's prefix sums pass its threshold, so the pick
    is the row's first hit; a row without one, where rounding left its sums
    at or below the threshold, takes its last positive token (0 if none).
    """
    token = hit.argmax(axis=1)
    if not np.logical_and.reduce(hit[:, -1]):
        missed = ~hit[:, -1]
        pos = mass[missed] > 0.0
        last = mass.shape[1] - 1 - pos[:, ::-1].argmax(axis=1)
        token[missed] = np.where(pos.any(axis=1), last, 0)
    return token


def sample_corrections(q: np.ndarray, p: np.ndarray, r: np.ndarray) -> list[TokenId]:
    """One correction token per row: row j draws `residual_dist(q[j], p[j])` with uniform `r[j]`.

    A degenerate row draws from `q[j]` itself. Each draw is `ProbDist.sample`'s,
    bit for bit: the `first_hits` pick of the first cdf entry above `r[j]`.
    """
    mass, _ = _residual_rows(q, p)
    return first_hits(mass, mass.cumsum(axis=1) > r[:, None]).tolist()


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _check_seed(seed: int) -> None:
    """Raise ConfigError unless `seed` lies in a stream's seed space, [0, 2**64).

    `RngStream` masks its seed to 64 bits, so a seed outside would silently
    decode another seed's stream.
    """
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")


def derive_seed(base: int, index: int) -> int:
    """Deterministic child seed for sub-streams (per sequence, per worker)."""
    return _mix64((_mix64(base & _MASK64) + ((index & _MASK64) * _GAMMA)) & _MASK64)


class RngStream:
    """Counter-based uniform stream owned by exactly one generation session.

    Draw i is a pure function of (seed, i), so a stream can be replayed or
    resumed from any counter value and never depends on traversal order.
    """

    __slots__ = ("seed", "counter", "_key")

    def __init__(self, seed: int, counter: int = 0) -> None:
        self.seed = seed & _MASK64
        self.counter = counter
        self._key = _mix64(self.seed)

    @classmethod
    def _of_checked_key(cls, seed: int, key: int) -> "RngStream":
        """A stream at counter 0 whose caller already masked `seed` and mixed it into `key`."""
        rng = cls.__new__(cls)
        rng.seed = seed
        rng.counter = 0
        rng._key = key
        return rng

    def next_real(self) -> float:
        """Next uniform double in [0, 1)."""
        self.counter += 1
        z = (self._key + (self.counter * _GAMMA & _MASK64)) & _MASK64
        # _mix64(z), inlined: this is the hottest call of a decode.
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * 1.1102230246251565e-16  # 2**-53

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, counter={self.counter})"


# The SplitMix64 constants as numpy scalars, for uint64 arrays (Python ints convert per call).
_GAMMA_U64 = np.uint64(_GAMMA)
_MIX1_U64 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2_U64 = np.uint64(0x94D049BB133111EB)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """`_mix64` of every entry of the uint64 array `z`, in place: uint64 lanes wrap modulo 2**64."""
    z ^= z >> 30
    z *= _MIX1_U64
    z ^= z >> 27
    z *= _MIX2_U64
    z ^= z >> 31
    return z


def derive_streams(base: int, lo: int, hi: int) -> list[RngStream]:
    """`[RngStream(derive_seed(base, i)) for i in range(lo, hi)]`, from one numpy uint64 pass.

    Each child seed mixes `_mix64(base) + i * gamma`, and each stream's key
    mixes its seed once more; `derive_seed` stays the scalar reference.
    """
    z = np.arange(hi - lo, dtype=np.uint64)
    z += np.uint64(lo & _MASK64)
    z *= _GAMMA_U64
    z += np.uint64(_mix64(base & _MASK64))
    seeds = _mix64_array(z)
    keys = _mix64_array(seeds.copy())
    return list(map(RngStream._of_checked_key, seeds.tolist(), keys.tolist()))


def peek_reals(rngs: Sequence[RngStream], counts: Sequence[int]) -> np.ndarray:
    """The next `counts[k]` uniforms of each stream `rngs[k]`, concatenated, moving no counter.

    One numpy uint64 SplitMix64 pass over every stream, bit for bit the
    values `next_real` would return: uniform j (from 1) of stream k is the
    draw at counter `rngs[k].counter + j`, and uint64 arithmetic wraps
    modulo 2**64 where `next_real` masks.
    """
    # Draw i of the block (1-based) mixes `key + (counter + i - start) * gamma`,
    # so each stream contributes one offset and the block one arange.
    starts = list(accumulate(counts, initial=0))
    offsets, keys = np.array(
        [[(rng.counter - start) & _MASK64 for rng, start in zip(rngs, starts)], [rng._key for rng in rngs]],
        dtype=np.uint64,
    )
    offsets *= _GAMMA_U64
    offsets += keys
    z = np.arange(1, starts[-1] + 1, dtype=np.uint64)
    z *= _GAMMA_U64
    z += offsets.repeat(counts)
    z = _mix64_array(z)
    z >>= 11
    return z * 1.1102230246251565e-16  # 2**-53
