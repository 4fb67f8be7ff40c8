from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrelax import (
    DegenerateResidual,
    EngineError,
    FeatureVec,
    LengthMismatch,
    ProbDist,
    RngStream,
    ZeroNormFeature,
    cosine_sim,
    derive_seed,
    enumerate_ar_distribution,
    residual_dist,
    tvd,
)
from specrelax.core import derive_streams, peek_reals, sample_corrections

from conftest import small_gridworld

ATOL = 1e-9


def dist(*mass: float) -> ProbDist:
    return ProbDist(list(mass))


def vec(*values: float) -> FeatureVec:
    return FeatureVec(list(values))


# --- cosine_sim -------------------------------------------------------------


def test_cosine_identical_vectors():
    assert cosine_sim(vec(1, 0), vec(1, 0)) == 1.0


def test_cosine_orthogonal_vectors():
    assert cosine_sim(vec(1, 0), vec(0, 1)) == 0.0


def test_cosine_hand_value():
    # dot = 24, norms 5 * 5
    assert cosine_sim(vec(3, 4), vec(4, 3)) == pytest.approx(24 / 25, abs=1e-12)


def test_cosine_zero_norm_raises():
    with pytest.raises(ZeroNormFeature):
        cosine_sim(vec(0, 0), vec(1, 0))
    with pytest.raises(ZeroNormFeature):
        cosine_sim(vec(1, 0), vec(1e-13, 0))


def test_cosine_clamped_against_rounding():
    a = vec(1e8, 1.0)
    assert cosine_sim(a, a) <= 1.0


finite_components = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(finite_components, min_size=2, max_size=6),
    st.lists(finite_components, min_size=2, max_size=6),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_cosine_symmetry_and_positive_scaling(a_vals, b_vals, k):
    n = min(len(a_vals), len(b_vals))
    a_arr, b_arr = np.array(a_vals[:n]), np.array(b_vals[:n])
    if np.linalg.norm(a_arr) <= 1e-6 or np.linalg.norm(b_arr) <= 1e-6:
        return
    a, b = FeatureVec(a_arr), FeatureVec(b_arr)
    assert cosine_sim(a, b) == pytest.approx(cosine_sim(b, a), abs=1e-12)
    assert cosine_sim(a, FeatureVec(k * a_arr)) == pytest.approx(1.0, abs=1e-9)


# --- tvd ---------------------------------------------------------------------


def test_tvd_identical():
    assert tvd(dist(1, 0), dist(1, 0)) == 0.0


def test_tvd_disjoint_support():
    assert tvd(dist(1, 0), dist(0, 1)) == 1.0


def test_tvd_hand_value():
    assert tvd(dist(0.4, 0.6), dist(0.6, 0.4)) == pytest.approx(0.2, abs=ATOL)


def test_tvd_length_mismatch():
    with pytest.raises(LengthMismatch):
        tvd(dist(1, 0), dist(1, 0, 0))


simplex_weights = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=3, max_size=3
).filter(lambda w: sum(w) > 1e-6)


@settings(max_examples=80, deadline=None)
@given(simplex_weights, simplex_weights, simplex_weights)
def test_tvd_is_a_metric(wa, wb, wc):
    a = ProbDist.normalized(wa)
    b = ProbDist.normalized(wb)
    c = ProbDist.normalized(wc)
    assert 0.0 <= tvd(a, b) <= 1.0
    assert tvd(a, b) == pytest.approx(tvd(b, a), abs=1e-12)
    assert tvd(a, a) == 0.0
    assert tvd(a, c) <= tvd(a, b) + tvd(b, c) + 1e-12
    if tvd(a, b) == 0.0:
        assert np.allclose(a.mass, b.mass, atol=1e-12)


# --- residual_dist -----------------------------------------------------------


def test_residual_single_excess_index():
    out = residual_dist(dist(0.5, 0.3, 0.2), dist(0.2, 0.5, 0.3))
    assert np.allclose(out.mass, [1.0, 0.0, 0.0], atol=ATOL)


def test_residual_degenerate_equal():
    with pytest.raises(DegenerateResidual):
        residual_dist(dist(0.5, 0.5), dist(0.5, 0.5))


def test_residual_renormalizes_excess():
    out = residual_dist(dist(0.9, 0.1), dist(0.5, 0.5))
    assert np.allclose(out.mass, [1.0, 0.0], atol=ATOL)


@settings(max_examples=80, deadline=None)
@given(simplex_weights, simplex_weights)
def test_residual_is_valid_distribution_when_distinct(wq, wp):
    q = ProbDist.normalized(wq)
    p = ProbDist.normalized(wp)
    if tvd(q, p) <= 1e-9:
        return
    out = residual_dist(q, p)
    assert np.all(out.mass >= 0.0)
    assert out.mass.sum() == pytest.approx(1.0, abs=ATOL)
    assert np.all(out.mass[q.mass <= p.mass] == 0.0)


class OneUniform:
    """A stream that yields one given uniform."""

    def __init__(self, value: float) -> None:
        self.value = value

    def next_real(self) -> float:
        return self.value


def residual_sample(q: np.ndarray, p: np.ndarray, r: float) -> int:
    """The correction the walk drew before corrections were batched: the residual law's own
    `ProbDist.sample`, or the target row's when the residual is degenerate."""
    q_dist, p_dist = ProbDist(q), ProbDist(p)
    try:
        law = residual_dist(q_dist, p_dist)
    except DegenerateResidual:
        law = q_dist
    return law.sample(OneUniform(r))


@pytest.mark.parametrize("vocab", [4, 32])
def test_batched_corrections_equal_residual_samples_bit_for_bit(vocab):
    gen = np.random.default_rng(vocab)
    rows = 300
    q = gen.dirichlet(np.full(vocab, 0.4), size=rows)
    p = gen.dirichlet(np.full(vocab, 0.4), size=rows)
    p[::7] = q[::7]  # q == p: a degenerate residual, drawn from q itself
    p[3::7, -1] = 0.0  # an excess on the last token
    p[3::7] /= p[3::7].sum(axis=1, keepdims=True)
    q[5::7, vocab // 2 :] = 0.0  # no excess past the middle: the last positive token comes early
    q[5::7] /= q[5::7].sum(axis=1, keepdims=True)
    r = gen.random(rows)
    r[11::13] = 0.0
    # Where a row's cdf ends below 1, a uniform at its end falls past every entry.
    beyond = 0
    for j in range(rows):
        law = q[j] if np.array_equal(q[j], p[j]) else residual_dist(ProbDist(q[j]), ProbDist(p[j])).mass
        end = float(np.cumsum(law)[-1])
        if end < 1.0 and j % 2:
            r[j] = end
            beyond += 1
    assert beyond > 0 and any(np.array_equal(q[j], p[j]) for j in range(rows))
    expected = [residual_sample(q[j], p[j], float(r[j])) for j in range(rows)]
    assert sample_corrections(q, p, r) == expected
    # One row at a time is the same pass.
    assert [sample_corrections(q[j : j + 1], p[j : j + 1], r[j : j + 1])[0] for j in range(rows)] == expected


def test_batched_correction_past_the_cdf_takes_the_last_positive_token():
    # Ten masses of 0.1 sum, left to right, to 0.9999999999999999; the rest are zero.
    q = np.array([[0.1] * 10 + [0.0] * 22])
    end = float(np.cumsum(q[0])[-1])
    assert end < 1.0
    for p in (q.copy(), np.eye(32)[[31]]):  # a degenerate residual, and q renormalized
        assert sample_corrections(q, p, np.array([end])) == [9] == [residual_sample(q[0], p[0], end)]


# --- ProbDist ----------------------------------------------------------------


def test_probdist_rejects_bad_mass():
    with pytest.raises(ValueError):
        ProbDist([0.5, 0.6])
    with pytest.raises(ValueError):
        ProbDist([-0.1, 1.1])


def test_non_finite_inputs_are_rejected():
    from specrelax import NonFinite

    with pytest.raises(NonFinite):
        ProbDist([float("nan"), 1.0])
    with pytest.raises(NonFinite):
        FeatureVec([float("inf"), 0.0])


def test_probdist_sampling_matches_inverse_cdf():
    d = dist(0.5, 0.3, 0.2)

    class Fixed:
        def __init__(self, value):
            self.value = value

        def next_real(self):
            return self.value

    assert d.sample(Fixed(0.0)) == 0
    assert d.sample(Fixed(0.499999)) == 0
    assert d.sample(Fixed(0.5)) == 1
    assert d.sample(Fixed(0.799999)) == 1
    assert d.sample(Fixed(0.8)) == 2
    assert d.sample(Fixed(0.999999)) == 2


# --- RngStream ---------------------------------------------------------------


def test_rng_replay_is_exact():
    a = RngStream(123)
    b = RngStream(123)
    seq_a = [a.next_real() for _ in range(100)]
    seq_b = [b.next_real() for _ in range(100)]
    assert seq_a == seq_b


def test_rng_is_counter_based():
    a = RngStream(9)
    head = [a.next_real() for _ in range(10)]
    resumed = RngStream(9, counter=4)
    assert [resumed.next_real() for _ in range(6)] == head[4:]


def test_rng_values_in_unit_interval():
    rng = RngStream(2024)
    values = [rng.next_real() for _ in range(5000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(np.mean(values) - 0.5) < 0.02


def test_rng_distinct_seeds_decorrelate():
    a = RngStream(0)
    b = RngStream(1)
    matches = sum(a.next_real() == b.next_real() for _ in range(1000))
    assert matches == 0


# Counters at the start, the middle and the wrap of the 64-bit counter space.
COUNTERS = st.sampled_from([0, 1, 2**63, 2**64 - 3]) | st.integers(0, 2**64 + 5)
LANE = st.tuples(st.integers(0, 2**64 - 1), COUNTERS, st.integers(0, 9))


@settings(max_examples=150, deadline=None)
@given(lanes=st.lists(LANE, min_size=1, max_size=5), equal=st.booleans())
def test_peek_reals_matches_next_real_and_moves_no_counter(lanes, equal):
    if equal:  # every lane asks for as many uniforms as the first
        lanes = [(seed, counter, lanes[0][2]) for seed, counter, _ in lanes]
    rngs = [RngStream(seed, counter) for seed, counter, _ in lanes]
    counts = [count for _, _, count in lanes]
    block = peek_reals(rngs, counts)
    assert [rng.counter for rng in rngs] == [counter for _, counter, _ in lanes]
    expected = []
    for seed, counter, count in lanes:
        rng = RngStream(seed, counter)
        expected += [rng.next_real() for _ in range(count)]
    assert block.dtype == np.float64 and len(block) == sum(counts)
    assert block.tobytes() == np.array(expected, dtype=np.float64).tobytes()


def test_peek_reals_across_the_counter_wrap():
    # Draws 2**64 - 2 .. 2**64 + 2: the counter's product with the gamma wraps.
    rng = RngStream(2**64 - 1, 2**64 - 3)
    block = peek_reals([rng, RngStream(5)], [5, 0])
    assert rng.counter == 2**64 - 3
    assert block.tolist() == [rng.next_real() for _ in range(5)]


BASES = st.sampled_from([0, 1, -1, 2**63, 2**64 - 1, 2**64, -(2**70)]) | st.integers(-(2**65), 2**65)
# Starts whose ranges cross 2**32 and 2**64, and starts near 10**9.
STARTS = st.sampled_from([0, 2**32 - 3, 10**9, 10**9 + 7, 2**64 - 2]) | st.integers(0, 2**40)


@settings(max_examples=150, deadline=None)
@given(base=BASES, lo=STARTS, size=st.integers(0, 6))
def test_derive_streams_equal_derive_seed_streams(base, lo, size):
    streams = derive_streams(base, lo, lo + size)
    expected = [RngStream(derive_seed(base, i)) for i in range(lo, lo + size)]
    assert [(s.seed, s._key, s.counter) for s in streams] == [(e.seed, e._key, e.counter) for e in expected]
    assert all(type(s.seed) is int and type(s._key) is int for s in streams)
    for stream, ref in zip(streams, expected):
        assert [stream.next_real() for _ in range(3)] == [ref.next_real() for _ in range(3)]


def test_derive_seed_is_deterministic_and_spread():
    children = {derive_seed(42, i) for i in range(1000)}
    assert len(children) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)


# --- library errors ----------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: ProbDist([[0.5, 0.5]]),
        lambda: ProbDist([]),
        lambda: ProbDist([-0.1, 1.1]),
        lambda: ProbDist([0.5, 0.6]),
        lambda: ProbDist.normalized([0.0, 0.0]),
        lambda: FeatureVec([]),
        lambda: enumerate_ar_distribution(small_gridworld(), 5),  # 5 tokens on a 2x2 grid
    ],
    ids=["probdist-shape", "probdist-empty", "probdist-negative", "probdist-sum", "normalized-zero-sum",
         "featurevec-empty", "enumeration-off-grid"],
)
def test_value_types_raise_engine_errors_that_are_value_errors(build):
    with pytest.raises(EngineError) as info:
        build()
    assert isinstance(info.value, ValueError)
