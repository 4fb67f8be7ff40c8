from __future__ import annotations

import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrelax import (
    FeatureVec,
    GridWorldModel,
    LinearDrafter,
    NonFinite,
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
from specrelax.core import InvalidValue
from specrelax.train import (
    LOG_FLOOR,
    _fit_arrays,
    build_training_samples,
    convergence_flags,
    held_out_convergent_kl,
)


def sample(last, index, q, feat, gt) -> TrainSample:
    return TrainSample(last, index, ProbDist(q), FeatureVec(feat), gt)


def constant_feature_samples(n: int, c_dim: int = 3) -> list[TrainSample]:
    feat = [1.0, 0.0, 0.0]
    return [
        sample(None if k == 0 else 0, k % 2, [0.5, 0.5], feat, 0)
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
    for seq in build_training_samples(gridworld, 2, 64, seed=2):
        weights = mark_convergent(seq, cfg)
        assert set(weights.tolist()) <= {1.0, 3.5}


def test_gridworld_weights_drop_exactly_at_region_boundaries(gridworld):
    cfg = TrainConfig(c=2.0, tau_seq_train=0.5, seed=0)
    (seq,) = build_training_samples(gridworld, 1, 64, seed=0)
    weights = mark_convergent(seq, cfg)
    # Row bands 0-2 / 3-5 / 6-7: successors cross regions after positions
    # 23 and 47; position 63 has no successor.
    drops = [k for k, w in enumerate(weights) if w == 1.0]
    assert drops == [23, 47, 63]


# --- loss_and_grad ------------------------------------------------------------


def test_weighted_soft_term_by_hand():
    drafter = LinearDrafter.zeros(2, 2)
    batch = [sample(None, 0, [1.0, 0.0], [1.0, 0.0], 0)]
    cfg = TrainConfig(hard_ce_weight=0.0)
    loss, _ = loss_and_grad(drafter, batch, np.array([2.0]), cfg)
    assert loss == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_c_equal_one_matches_unweighted_baseline(gridworld):
    cfg = TrainConfig(c=1.0, seed=4, num_sequences=2)
    sequences = build_training_samples(gridworld, 2, 64, seed=4)
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
    # Indices 0, 1 and 2 of the 2x2 grid: cells (0, 0), (0, 1) and (1, 0).
    for prefix in ([], [1], [0, 2]):
        p = drafter.distribution(prefix)
        batch.append(sample(prefix[-1] if prefix else None, len(prefix), p.mass, [1.0, 0.0], 0))
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
        row = int(rng.integers(side))
        index = row * side + int(rng.integers(side))
        q = rng.dirichlet(np.ones(vocab))
        feat = rng.normal(size=3)
        batch.append(sample(last, index, q, feat / np.linalg.norm(feat), int(rng.integers(vocab))))
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


def reference_loss_and_grad(drafter, batch, weights, cfg):
    """`loss_and_grad` with fresh temporaries, `probs.max(axis=1)` and one-hot labels."""
    n, vocab, side = len(batch), drafter.vocab, drafter.side
    rows = np.arange(n)
    phi = np.zeros((n, vocab + 2 * side))
    for i, s in enumerate(batch):
        if s.last_token is not None:
            phi[i, s.last_token] = 1.0
        row, col = divmod(s.index, side)
        phi[i, vocab + row] = 1.0
        phi[i, vocab + side + col] = 1.0
    target_rows = np.array([s.target_dist.mass for s in batch])
    ground_truth = np.array([s.ground_truth for s in batch])
    onehot = np.zeros((n, vocab))
    onehot[rows, ground_truth] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        probs = phi @ drafter.weights.T
        probs += drafter.bias
        probs -= probs.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        log_p = np.maximum(probs, LOG_FLOOR)
        np.log(log_p, out=log_p)
        soft = -(target_rows * log_p).sum(axis=1)
        hard = -log_p[rows, ground_truth]
        loss = float((weights * soft + cfg.hard_ce_weight * hard).sum() / n)
        if not math.isfinite(loss):
            raise NonFinite("training loss is not finite")
        dz = probs - target_rows
        dz *= weights[:, None]
        probs -= onehot
        probs *= cfg.hard_ce_weight
        dz += probs
        dz /= n
        return loss, (dz.T @ phi, dz.sum(axis=0))


def fit_outcome(fn, *args):
    """A call's loss and gradients as bytes, or the message of the NonFinite it raised."""
    try:
        loss, (grad_w, grad_b) = fn(*args)
    except NonFinite as exc:
        return ("NonFinite", str(exc))
    return tuple(
        (a.shape, a.dtype.str, a.tobytes()) for a in (np.float64(loss), grad_w, grad_b)
    )


def extreme_drafter(rng, vocab, side, extreme):
    """Random parameters at a random scale; with `extreme`, some but not all
    tokens' logits are ±inf."""
    scale = float(rng.choice([0.3, 30.0, 1e306]))
    weights = rng.normal(scale=scale, size=(vocab, vocab + 2 * side))
    bias = rng.normal(scale=scale, size=vocab)
    if extreme:
        # Bias plus any weight of the same sign sums past the largest double.
        hit = rng.random(vocab) < 0.4
        always, never = rng.permutation(vocab)[:2]
        hit[always], hit[never] = True, False
        weights[hit] = extreme * 1e308
        bias[hit] = extreme * 1e308
    return LinearDrafter(weights, bias, vocab, side)


@pytest.mark.parametrize("extreme", [0.0, -1.0, 1.0], ids=["finite", "neg-inf", "pos-inf"])
@pytest.mark.parametrize("hard_ce_weight", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("c", [1.0, 2.0, 7.0])
def test_scratch_loss_and_grad_equal_the_fresh_array_reference_bytewise(c, hard_ce_weight, extreme):
    cfg = TrainConfig(c=c, hard_ce_weight=hard_ce_weight)
    rng = np.random.default_rng([int(c), int(2 * hard_ce_weight), int(extreme) + 1])
    outcomes = set()
    for _ in range(6):
        vocab, side, size = int(rng.integers(2, 40)), int(rng.integers(1, 7)), int(rng.integers(1, 90))
        batch, _ = random_batch(rng, vocab, side, size)
        fit = _fit_arrays(batch, vocab, side)
        # Two calls in a row on one fit's scratch, with different parameters
        # and sample weights.
        for _ in range(2):
            drafter = extreme_drafter(rng, vocab, side, extreme)
            weights = np.where(rng.random(size) < 0.5, c, 1.0)
            got = fit_outcome(loss_and_grad, drafter, fit, weights, cfg)
            assert got == fit_outcome(reference_loss_and_grad, drafter, batch, weights, cfg)
            assert got == fit_outcome(loss_and_grad, drafter, batch, weights, cfg)
            outcomes.add(got[0] == "NonFinite")
            if got[0] == "NonFinite":
                continue
            _, (grad_w, grad_b) = loss_and_grad(drafter, fit, weights, cfg)
            for field in dataclasses.fields(fit):
                scratch = getattr(fit, field.name)
                assert not np.shares_memory(grad_w, scratch)
                assert not np.shares_memory(grad_b, scratch)
    # A +inf logit leaves inf - inf in its row; a -inf one only zero mass.
    assert outcomes == {extreme > 0}


@pytest.mark.parametrize("make_batch", [lambda: [], lambda: _fit_arrays([], 3, 2)], ids=["list", "arrays"])
def test_empty_batch_raises_invalid_value_naming_it(make_batch):
    with np.errstate(all="raise"):
        with pytest.raises(InvalidValue, match="empty training batch"):
            loss_and_grad(LinearDrafter.zeros(3, 2), make_batch(), np.array([]), TrainConfig())


# --- train_drafter ------------------------------------------------------------


def test_zero_epochs_returns_uniform_drafter(gridworld):
    drafter = train_drafter(gridworld, TrainConfig(epochs=0, num_sequences=2))
    p = drafter.distribution([5])
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
    seq1 = build_training_samples(gridworld, 4, 64, seed=9)
    seq2 = build_training_samples(gridworld, 4, 64, seed=9)
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
    (seq,) = build_training_samples(gridworld, 1, 64, seed=3)
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
    (seq,) = build_training_samples(target, 1, side * side, seed=seed)
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
        samples[zero_at] = sample(0, 0, [0.5, 0.5], [norm, 0.0, 0.0], 0)
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


def test_a_fit_above_the_position_cap_is_refused_before_any_rollout(monkeypatch, gridworld):
    from specrelax import ConfigError, train as train_module
    from specrelax.train import _MAX_FIT_CELLS

    def no_rollout(*args, **kwargs):
        raise AssertionError("the rollout ran")

    monkeypatch.setattr(train_module, "build_training_samples", no_rollout)
    # 64 positions a rollout, each a row of V + 2N = 48 cells on the gridworld.
    at_cap = _MAX_FIT_CELLS // (64 * 48)
    assert at_cap == 8192
    over = f"make {(at_cap + 1) * 64 * 48} fit cells, above the cap of {_MAX_FIT_CELLS}"
    with pytest.raises(ConfigError, match=over):
        train_drafter(gridworld, TrainConfig(num_sequences=at_cap + 1))
    with pytest.raises(AssertionError, match="the rollout ran"):
        train_drafter(gridworld, TrainConfig(num_sequences=at_cap))
    # A wider vocabulary makes wider rows: 8,192 rollouts of a V=64 target are 41.9M cells.
    with pytest.raises(ConfigError, match="over V=64 and N=8 make 41943040 fit cells"):
        train_drafter(random_tabular_model(64, 1, seed=0), TrainConfig(num_sequences=at_cap))
    # A drafter whose table passes its cap is refused before the rollout too: V=800 at N=8.
    with pytest.raises(InvalidValue, match="above the cap"):
        train_drafter(random_tabular_model(800, 1, seed=0), TrainConfig(num_sequences=1))
