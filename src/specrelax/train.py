"""Drafter training with convergence-reweighted soft cross-entropy.

Training rolls the target model autoregressively to collect full sequences,
marks positions whose hidden state aligns with the next position's, then fits
the linear drafter by full-batch gradient descent on

    sum_k w_k * softCE(q_k, p_k) + hard_ce_weight * CE(ground_truth_k, p_k)

averaged over the batch, where w_k = c on convergence-marked positions and 1
elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    FeatureVec,
    GridPos,
    InvalidValue,
    NonFinite,
    ProbDist,
    RngStream,
    TokenId,
    cosine_sim,
    derive_seed,
)
from .models import LinearDrafter, Target

LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for drafter distillation."""

    c: float = 2.0
    tau_seq_train: float = 0.5
    learning_rate: float = 0.5
    epochs: int = 80
    hard_ce_weight: float = 1.0
    seed: int = 0
    num_sequences: int = 24

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c >= 1.0):
            raise ConfigError("convergence weight c must be finite and >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError("learning rate must be finite and positive")
        if self.epochs < 0 or self.num_sequences < 1:
            raise ConfigError("epochs must be >= 0 and num_sequences >= 1")
        if not 0.0 <= self.tau_seq_train <= 1.01:
            raise ConfigError("tau_seq_train must lie in [0, 1.01]")
        if not (math.isfinite(self.hard_ce_weight) and self.hard_ce_weight >= 0.0):
            raise ConfigError("hard_ce_weight must be finite and >= 0")


@dataclass(frozen=True)
class TrainSample:
    """One supervised position from a target rollout."""

    last_token: TokenId | None
    pos: GridPos
    target_dist: ProbDist
    target_feature: FeatureVec
    ground_truth: TokenId


def build_training_samples(
    target: Target, num_sequences: int, length: int, side: int, seed: int
) -> list[list[TrainSample]]:
    """Roll the target autoregressively; one ordered sample list per sequence."""
    sequences: list[list[TrainSample]] = []
    for i in range(num_sequences):
        rng = RngStream(derive_seed(seed, i))
        tokens: list[TokenId] = []
        samples: list[TrainSample] = []
        for t in range(length):
            pos = GridPos.from_index(t, side)
            ev = target.evaluate(tokens, pos)
            token = ev.dist.sample(rng)
            samples.append(
                TrainSample(tokens[-1] if tokens else None, pos, ev.dist, ev.feature, token)
            )
            tokens.append(token)
        sequences.append(samples)
    return sequences


def convergence_flags(samples: Sequence[TrainSample], tau: float) -> np.ndarray:
    """True where a position's feature aligns with its successor's (cosine >= tau).

    The final position has no successor and is never flagged.
    """
    n = len(samples)
    flags = np.zeros(n, dtype=bool)
    for k in range(n - 1):
        flags[k] = (
            cosine_sim(samples[k].target_feature, samples[k + 1].target_feature) >= tau
        )
    return flags


def mark_convergent(samples: Sequence[TrainSample], cfg: TrainConfig) -> np.ndarray:
    """Per-position weights: c on convergence-flagged positions, 1 elsewhere."""
    return np.where(convergence_flags(samples, cfg.tau_seq_train), cfg.c, 1.0)


def _featurize(
    samples: Sequence[TrainSample], vocab: int, side: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense one-hot design matrix plus stacked target rows and ground truths."""
    n = len(samples)
    d = vocab + 2 * side
    phi = np.zeros((n, d))
    target_rows = np.empty((n, vocab))
    ground_truth = np.empty(n, dtype=np.int64)
    for i, s in enumerate(samples):
        if s.last_token is not None:
            phi[i, s.last_token] = 1.0
        phi[i, vocab + s.pos.row] = 1.0
        phi[i, vocab + side + s.pos.col] = 1.0
        target_rows[i] = s.target_dist.mass
        ground_truth[i] = s.ground_truth
    return phi, target_rows, ground_truth


def _forward(weights: np.ndarray, bias: np.ndarray, phi: np.ndarray) -> np.ndarray:
    logits = phi @ weights.T + bias
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def loss_and_grad(
    drafter: LinearDrafter,
    batch: Sequence[TrainSample],
    weights: np.ndarray,
    cfg: TrainConfig,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Batch-averaged loss and its analytic gradient w.r.t. (weights, bias)."""
    if len(batch) != len(weights):
        raise InvalidValue("one weight per sample required")
    vocab, side = drafter.vocab, drafter.side
    phi, target_rows, ground_truth = _featurize(batch, vocab, side)
    probs = _forward(drafter.weights, drafter.bias, phi)
    n = len(batch)

    log_p = np.log(np.maximum(probs, LOG_FLOOR))
    soft = -(target_rows * log_p).sum(axis=1)
    hard = -log_p[np.arange(n), ground_truth]
    loss = float((weights * soft + cfg.hard_ce_weight * hard).sum() / n)
    if not math.isfinite(loss):
        raise NonFinite("training loss is not finite")

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), ground_truth] = 1.0
    dz = (weights[:, None] * (probs - target_rows) + cfg.hard_ce_weight * (probs - onehot)) / n
    grad_w = dz.T @ phi
    grad_b = dz.sum(axis=0)
    return loss, (grad_w, grad_b)


def train_drafter(
    target: Target,
    cfg: TrainConfig,
    history: list[float] | None = None,
) -> LinearDrafter:
    """Fit a fresh linear drafter against target rollouts; deterministic per seed."""
    side = target.grid_side or 8
    sequences = build_training_samples(target, cfg.num_sequences, side * side, side, cfg.seed)
    batch: list[TrainSample] = [s for seq in sequences for s in seq]
    weight_arr = np.concatenate([mark_convergent(seq, cfg) for seq in sequences])

    vocab = getattr(target, "vocab")
    drafter = LinearDrafter.zeros(vocab, side)
    w = drafter.weights.copy()
    b = drafter.bias.copy()
    for _ in range(cfg.epochs):
        working = LinearDrafter(w, b, vocab, side)
        loss, (grad_w, grad_b) = loss_and_grad(working, batch, weight_arr, cfg)
        if history is not None:
            history.append(loss)
        w = w - cfg.learning_rate * grad_w
        b = b - cfg.learning_rate * grad_b
    return LinearDrafter(w, b, vocab, side)


def held_out_convergent_kl(
    target: Target,
    drafter: LinearDrafter,
    cfg: TrainConfig,
    seed: int,
    num_sequences: int = 8,
) -> float:
    """Mean KL(q || p) over convergence-marked positions of fresh rollouts."""
    side = target.grid_side or drafter.side
    sequences = build_training_samples(target, num_sequences, side * side, side, seed)
    total, count = 0.0, 0
    for seq in sequences:
        flags = convergence_flags(seq, cfg.tau_seq_train)
        for sample, flagged in zip(seq, flags):
            if not flagged:
                continue
            p = drafter.distribution(
                [sample.last_token] if sample.last_token is not None else [], sample.pos
            )
            q = sample.target_dist.mass
            support = q > 0.0
            total += float(
                (q[support] * (np.log(q[support]) - np.log(np.maximum(p.mass[support], LOG_FLOOR)))).sum()
            )
            count += 1
    if count == 0:
        raise InvalidValue("no convergence-marked positions in the held-out rollouts")
    return total / count
