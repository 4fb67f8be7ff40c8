from __future__ import annotations

import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrelax import (
    FeatureVec,
    GridPos,
    GridWorldModel,
    LinearDrafter,
    ProbDist,
    TrainConfig,
    TrainSample,
    ZeroNormFeature,
    cosine_sim,
    loss_and_grad,
    mark_convergent,
    random_tabular_model,
    train_drafter,
)
from specrelax.train import build_training_samples, convergence_flags, held_out_convergent_kl


def sample(last, pos, q, feat, gt) -> TrainSample:
    return TrainSample(last, pos, ProbDist(q), FeatureVec(feat), gt)


def constant_feature_samples(n: int, c_dim: int = 3) -> list[TrainSample]:
    feat = [1.0, 0.0, 0.0]
    return [
        sample(None if k == 0 else 0, GridPos(0, k % 2), [0.5, 0.5], feat, 0)
        for k in range(n)
    ]


# --- mark_convergent ----------------------------------------------------------


def test_identical_features_weight_everything_but_the_tail():
    samples = constant_feature_samples(5)
    cfg = TrainConfig(c=2.0, tau_seq_train=0.5)
    assert mark_convergent(samples, cfg).tolist() == [2.0, 2.0, 2.0, 2.0, 1.0]


def test_unsatisfiable_threshold_marks_nothing():
    samples = constant_feature_samples(4)
    cfg = TrainConfig(c=2.0, tau_seq_train=1.01)
    assert mark_convergent(samples, cfg).tolist() == [1.0, 1.0, 1.0, 1.0]


def test_weights_take_only_the_two_allowed_values(gridworld):
    cfg = TrainConfig(c=3.5, seed=2, num_sequences=2)
    for seq in build_training_samples(gridworld, 2, 64, 8, seed=2):
        weights = mark_convergent(seq, cfg)
        assert set(weights.tolist()) <= {1.0, 3.5}


def test_gridworld_weights_drop_exactly_at_region_boundaries(gridworld):
    cfg = TrainConfig(c=2.0, tau_seq_train=0.5, seed=0)
    (seq,) = build_training_samples(gridworld, 1, 64, 8, seed=0)
    weights = mark_convergent(seq, cfg)
    # Row bands 0-2 / 3-5 / 6-7: successors cross regions after positions
    # 23 and 47; position 63 has no successor.
    drops = [k for k, w in enumerate(weights) if w == 1.0]
    assert drops == [23, 47, 63]


# --- loss_and_grad ------------------------------------------------------------


def test_weighted_soft_term_by_hand():
    drafter = LinearDrafter.zeros(2, 2)
    batch = [sample(None, GridPos(0, 0), [1.0, 0.0], [1.0, 0.0], 0)]
    cfg = TrainConfig(hard_ce_weight=0.0)
    loss, _ = loss_and_grad(drafter, batch, np.array([2.0]), cfg)
    assert loss == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_c_equal_one_matches_unweighted_baseline(gridworld):
    cfg = TrainConfig(c=1.0, seed=4, num_sequences=2)
    sequences = build_training_samples(gridworld, 2, 64, 8, seed=4)
    batch = [s for seq in sequences for s in seq]
    marked = np.concatenate([mark_convergent(seq, cfg) for seq in sequences])
    drafter = LinearDrafter.zeros(32, 8)
    loss_marked, (gw_m, gb_m) = loss_and_grad(drafter, batch, marked, cfg)
    loss_plain, (gw_p, gb_p) = loss_and_grad(drafter, batch, np.ones(len(batch)), cfg)
    assert abs(loss_marked - loss_plain) <= 1e-12
    assert np.array_equal(gw_m, gw_p) and np.array_equal(gb_m, gb_p)


def test_soft_gradient_vanishes_when_drafter_matches_targets():
    rng = np.random.default_rng(0)
    drafter = LinearDrafter(rng.normal(scale=0.3, size=(3, 3 + 4)), rng.normal(size=3), 3, 2)
    batch = []
    for last, pos in ((None, GridPos(0, 0)), (1, GridPos(0, 1)), (2, GridPos(1, 0))):
        p = drafter.distribution([] if last is None else [last], pos)
        batch.append(sample(last, pos, p.mass, [1.0, 0.0], 0))
    cfg = TrainConfig(hard_ce_weight=0.0)
    _, (grad_w, grad_b) = loss_and_grad(drafter, batch, np.ones(3), cfg)
    assert np.max(np.abs(grad_w)) <= 1e-12
    assert np.max(np.abs(grad_b)) <= 1e-12


def numeric_gradient(drafter, batch, weights, cfg, step=1e-5):
    base_w, base_b = drafter.weights.copy(), drafter.bias.copy()

    def loss_at(w, b):
        value, _ = loss_and_grad(
            LinearDrafter(w, b, drafter.vocab, drafter.side), batch, weights, cfg
        )
        return value

    grad_w = np.zeros_like(base_w)
    grad_b = np.zeros_like(base_b)
    for idx in np.ndindex(base_w.shape):
        w_hi, w_lo = base_w.copy(), base_w.copy()
        w_hi[idx] += step
        w_lo[idx] -= step
        grad_w[idx] = (loss_at(w_hi, base_b) - loss_at(w_lo, base_b)) / (2 * step)
    for i in range(base_b.size):
        b_hi, b_lo = base_b.copy(), base_b.copy()
        b_hi[i] += step
        b_lo[i] -= step
        grad_b[i] = (loss_at(base_w, b_hi) - loss_at(base_w, b_lo)) / (2 * step)
    return grad_w, grad_b


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def random_batch(rng: np.random.Generator, vocab: int, side: int, size: int):
    batch = []
    for _ in range(size):
        last = None if rng.random() < 0.2 else int(rng.integers(vocab))
        pos = GridPos(int(rng.integers(side)), int(rng.integers(side)))
        q = rng.dirichlet(np.ones(vocab))
        feat = rng.normal(size=3)
        batch.append(sample(last, pos, q, feat / np.linalg.norm(feat), int(rng.integers(vocab))))
    weights = np.where(rng.random(size) < 0.5, 2.0, 1.0)
    return batch, weights


def test_analytic_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    vocab, side = 4, 2
    for _ in range(5):
        drafter = LinearDrafter(
            rng.normal(scale=0.4, size=(vocab, vocab + 2 * side)),
            rng.normal(scale=0.4, size=vocab),
            vocab,
            side,
        )
        batch, weights = random_batch(rng, vocab, side, size=6)
        cfg = TrainConfig(hard_ce_weight=1.0)
        _, (grad_w, grad_b) = loss_and_grad(drafter, batch, weights, cfg)
        num_w, num_b = numeric_gradient(drafter, batch, weights, cfg)
        assert relative_error(grad_w, num_w) <= 1e-4
        assert relative_error(grad_b, num_b) <= 1e-4


def test_scaling_all_weights_scales_loss_and_gradient():
    rng = np.random.default_rng(3)
    drafter = LinearDrafter(rng.normal(scale=0.2, size=(3, 3 + 4)), np.zeros(3), 3, 2)
    batch, weights = random_batch(rng, 3, 2, size=5)
    cfg = TrainConfig(hard_ce_weight=0.0)
    loss1, (gw1, gb1) = loss_and_grad(drafter, batch, weights, cfg)
    loss3, (gw3, gb3) = loss_and_grad(drafter, batch, 3.0 * weights, cfg)
    assert loss3 == pytest.approx(3.0 * loss1, rel=1e-12)
    assert np.allclose(gw3, 3.0 * gw1, rtol=1e-12, atol=0)
    assert np.allclose(gb3, 3.0 * gb1, rtol=1e-12, atol=0)


# --- train_drafter ------------------------------------------------------------


def test_zero_epochs_returns_uniform_drafter(gridworld):
    drafter = train_drafter(gridworld, TrainConfig(epochs=0, num_sequences=2))
    p = drafter.distribution([5], GridPos(0, 0))
    assert np.allclose(p.mass, np.full(32, 1 / 32), atol=1e-12)


def test_training_is_deterministic_and_c_changes_result(gridworld):
    cfg1 = TrainConfig(c=1.0, epochs=6, num_sequences=4, seed=9)
    cfg2 = TrainConfig(c=2.0, epochs=6, num_sequences=4, seed=9)
    d1a = train_drafter(gridworld, cfg1)
    d1b = train_drafter(gridworld, cfg1)
    d2 = train_drafter(gridworld, cfg2)
    assert np.array_equal(d1a.weights, d1b.weights)
    assert np.array_equal(d1a.bias, d1b.bias)
    assert not np.array_equal(d1a.weights, d2.weights)
    # Identical seeds draw identical rollouts regardless of c.
    seq1 = build_training_samples(gridworld, 4, 64, 8, seed=9)
    seq2 = build_training_samples(gridworld, 4, 64, 8, seed=9)
    assert [[s.ground_truth for s in seq] for seq in seq1] == [
        [s.ground_truth for s in seq] for seq in seq2
    ]


def test_full_batch_loss_is_monotone_at_small_learning_rate(gridworld):
    history: list[float] = []
    cfg = TrainConfig(c=2.0, epochs=25, learning_rate=1e-2, num_sequences=4, seed=1)
    train_drafter(gridworld, cfg, history=history)
    assert len(history) == 25
    for before, after in zip(history, history[1:]):
        assert after <= before + 1e-12


def test_reweighting_improves_held_out_convergent_kl(gridworld):
    kls = {}
    for c in (1.0, 2.0):
        cfg = TrainConfig(c=c, epochs=40, learning_rate=0.5, num_sequences=24, seed=0)
        drafter = train_drafter(gridworld, cfg)
        kls[c] = held_out_convergent_kl(gridworld, drafter, cfg, seed=777, num_sequences=8)
    assert kls[2.0] < kls[1.0]


def test_convergence_flags_never_flag_the_tail(gridworld):
    (seq,) = build_training_samples(gridworld, 1, 64, 8, seed=3)
    flags = convergence_flags(seq, 0.0)
    assert not flags[-1]
    assert flags[:-1].all()  # cosine >= 0 everywhere on this model


@functools.lru_cache(maxsize=None)
def rollout(kind: str, seed: int) -> tuple[TrainSample, ...]:
    """One training rollout: a jittered gridworld's cosines crowd just below 1,
    a random tabular target's spread over [-1, 1]."""
    if kind == "grid-jitter":
        target, side = GridWorldModel.default(feature_jitter=0.05), 8
    else:
        target, side = random_tabular_model(5, 1, seed=seed), 4
    (seq,) = build_training_samples(target, 1, side * side, side, seed=seed)
    return tuple(seq)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["grid-jitter", "tabular"]),
    seed=st.integers(0, 3),
    length=st.integers(0, 64),
    pick=st.integers(0, 63),
    ulps=st.integers(-2, 2),
)
def test_convergence_flags_equal_scalar_cosine_decisions(kind, seed, length, pick, ulps):
    seq = rollout(kind, seed)[:length]
    cosines = [cosine_sim(a.target_feature, b.target_feature) for a, b in zip(seq, seq[1:])]
    # A threshold at an observed cosine or a few ulps either side of it.
    tau = cosines[pick % len(cosines)] if cosines else 0.5
    for _ in range(abs(ulps)):
        tau = float(np.nextafter(tau, math.copysign(math.inf, ulps)))
    assert convergence_flags(seq, tau).tolist() == ([c >= tau for c in cosines] + [False])[: len(seq)]


@pytest.mark.parametrize("length", [1, 2, 5])
@pytest.mark.parametrize("norm", [0.0, 1e-13])
def test_zero_norm_feature_raises_the_scalar_message(length, norm):
    for zero_at in range(length):
        samples = constant_feature_samples(length)
        samples[zero_at] = sample(0, GridPos(0, 0), [0.5, 0.5], [norm, 0.0, 0.0], 0)
        if length == 1:
            assert convergence_flags(samples, 0.5).tolist() == [False]
            continue
        k = max(zero_at - 1, 0)
        with pytest.raises(ZeroNormFeature) as scalar:
            cosine_sim(samples[k].target_feature, samples[k + 1].target_feature)
        with pytest.raises(ZeroNormFeature) as vectorized:
            convergence_flags(samples, 0.5)
        assert str(vectorized.value) == str(scalar.value)


# SHA-256 of the default fit's weights, bias and loss-history bytes. A change
# that moves it changes every drafter the benchmark and the CLI train.
DEFAULT_FIT_SHA256 = "6f3fd19d18a643673f2bbdb9c635438f20383bb0b019ec878b05424c71044cf4"


def test_default_fit_is_bit_identical(gridworld):
    history: list[float] = []
    drafter = train_drafter(gridworld, TrainConfig(), history=history)
    digest = hashlib.sha256()
    for arr in (drafter.weights, drafter.bias, np.asarray(history)):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    assert len(history) == 80
    assert digest.hexdigest() == DEFAULT_FIT_SHA256


def test_mismatched_sample_weights_raise_an_engine_error():
    from specrelax import EngineError

    batch, weights = random_batch(np.random.default_rng(0), 3, 2, size=4)
    with pytest.raises(EngineError, match="one weight per sample"):
        loss_and_grad(LinearDrafter.zeros(3, 2), batch, weights[:3], TrainConfig())


def test_held_out_kl_without_marked_positions_raises_an_engine_error(gridworld):
    from specrelax import EngineError

    # A threshold above 1 marks no position, so there is nothing to average.
    cfg = TrainConfig(tau_seq_train=1.01)
    with pytest.raises(EngineError, match="no convergence-marked positions"):
        held_out_convergent_kl(gridworld, LinearDrafter.zeros(32, 8), cfg, seed=1, num_sequences=1)
