"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines live.
"""

from __future__ import annotations

import math
import time

import numpy as np

from specrelax import (
    LinearDrafter,
    RelaxConfig,
    RngStream,
    TrainConfig,
    TreeMask,
    decode_sequence,
    decode_with_metrics,
    export_similarity_heatmap,
    loss_and_grad,
    mark_convergent,
    mc_distribution_test,
    random_tabular_model,
    save_model,
    tempered_table_drafter,
    train_drafter,
    tvd,
)
from specrelax.train import build_training_samples, held_out_convergent_kl

from test_train import numeric_gradient, random_batch, relative_error
from test_verify import step_emission

TOL = 1e-9


def _verdict(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def _elapsed_ok(number: int, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s, limit {limit}s"


def test_criterion_1_exactness_analytic():
    started = time.perf_counter()
    worst = 0.0
    for vocab, seed in ((2, 101), (3, 202), (4, 303)):
        target = random_tabular_model(vocab, 1, seed=seed)
        drafter = tempered_table_drafter(target)
        prefixes = [[]] + [[t] for t in range(vocab)]
        for prefix in prefixes:
            q_row = target.evaluate(prefix).dist
            p_row = drafter.evaluate(prefix).dist
            emission = step_emission(q_row, p_row)
            worst = max(worst, float(np.max(np.abs(emission - q_row.mass))))
    _elapsed_ok(1, started, 1.0)
    _verdict(1, worst <= TOL, f"max per-step emission deviation {worst:.3e} <= 1e-9")


def test_criterion_2_exactness_monte_carlo():
    started = time.perf_counter()
    target = random_tabular_model(4, 1, seed=11)
    drafter = tempered_table_drafter(target)
    distance, bound_ok = mc_distribution_test(target, drafter, "vanilla", 500_000, 3)
    _elapsed_ok(2, started, 60.0)
    _verdict(
        2,
        bound_ok and distance <= 0.01,
        f"TVD to exact law {distance:.5f} <= 0.01 over 5e5 decodes",
    )


def test_criterion_3_equivalence_switches(gridworld, grid_drafter):
    started = time.perf_counter()
    tabular = random_tabular_model(4, 1, seed=11)
    tab_drafter = tempered_table_drafter(tabular)
    mask = TreeMask.default()
    off_tau = RelaxConfig(tau_pos=1.01, tau_seq=1.01)
    off_budget = RelaxConfig(tvd_budget=0.0)
    mismatches = 0
    for target, drafter, length in (
        (tabular, tab_drafter, 16),
        (gridworld, grid_drafter, 64),
    ):
        for seed in range(100):
            base, _ = decode_sequence(
                target, drafter, "vanilla", mask, RelaxConfig(), length, RngStream(seed)
            )
            a, _ = decode_sequence(
                target, drafter, "cascade", mask, off_tau, length, RngStream(seed)
            )
            b, _ = decode_sequence(
                target, drafter, "cascade", mask, off_budget, length, RngStream(seed)
            )
            if a != base or b != base:
                mismatches += 1
    _elapsed_ok(3, started, 30.0)
    _verdict(
        3,
        mismatches == 0,
        "thresholds 1.01 and budget 0 both replay vanilla bit-identically "
        f"({mismatches} mismatching sequences across 200 runs)",
    )


def test_criterion_4_budget_soundness(gridworld):
    started = time.perf_counter()
    cfg = RelaxConfig()  # tvd_budget 0.5
    drafter = LinearDrafter.zeros(32, 8)
    worst_call = 0.0
    relaxation_checks = 0
    sound = True
    for seed in range(200):
        outcomes = []
        decode_sequence(
            gridworld, drafter, "cascade", TreeMask.default(), cfg, 64, RngStream(seed),
            on_outcome=lambda _, o: outcomes.append(o),
        )
        for outcome in outcomes:
            worst_call = max(worst_call, outcome.tvd_consumed)
            if outcome.tvd_consumed > cfg.tvd_budget + TOL:
                sound = False
            for relaxed in outcome.trace:
                relaxation_checks += 1
                donated = math.fsum(m for _, m in relaxed.transfers)
                if abs(relaxed.added_mass - donated) > 1e-12:
                    sound = False
                if relaxed.boosted_prob() > 1.0 + TOL:
                    sound = False
                if any(m > relaxed.q_dist[t] + 1e-15 for t, m in relaxed.transfers):
                    sound = False
                if relaxed.added_mass > 0.0:
                    implied = tvd(relaxed.transfer_dist(), relaxed.q_dist)
                    if abs(implied - relaxed.added_mass) > 1e-12:
                        sound = False
    _elapsed_ok(4, started, 60.0)
    _verdict(
        4,
        sound,
        f"max per-call TVD {worst_call:.6f} <= 0.5; transfer invariant exact over "
        f"{relaxation_checks} relaxations in 200 decodes",
    )


def test_criterion_5_redundancy_gain(gridworld):
    started = time.perf_counter()
    # Untrained drafter: the saturation regime of a well-fitted drafter leaves
    # no headroom for relaxation, so the gain is probed where rejections occur.
    drafter = LinearDrafter.zeros(32, 8)
    cfg = RelaxConfig(tau_pos=0.85, tau_seq=0.5)
    mask = TreeMask.default()
    alpha_v, alpha_c, speed_v, speed_c = [], [], [], []
    for seed in range(200):
        _, mv = decode_with_metrics(gridworld, drafter, "vanilla", mask, cfg, 64, RngStream(seed))
        _, mc = decode_with_metrics(gridworld, drafter, "cascade", mask, cfg, 64, RngStream(seed))
        alpha_v.append(mv.mean_alpha)
        alpha_c.append(mc.mean_alpha)
        speed_v.append(mv.speedup_proxy)
        speed_c.append(mc.speedup_proxy)
    mean_av, mean_ac = float(np.mean(alpha_v)), float(np.mean(alpha_c))
    mean_sv, mean_sc = float(np.mean(speed_v)), float(np.mean(speed_c))
    _elapsed_ok(5, started, 120.0)
    _verdict(
        5,
        mean_ac >= 1.2 * mean_av and mean_sc > mean_sv,
        f"mean alpha {mean_ac:.3f} >= 1.2 x {mean_av:.3f} "
        f"and speedup {mean_sc:.3f} > {mean_sv:.3f} over 200 seeds",
    )


def test_criterion_6_training(gridworld):
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_rel = 0.0
    for _ in range(20):
        vocab, side = 4, 2
        drafter = LinearDrafter(
            rng.normal(scale=0.4, size=(vocab, vocab + 2 * side)),
            rng.normal(scale=0.4, size=vocab),
            vocab,
            side,
        )
        batch, weights = random_batch(rng, vocab, side, size=5)
        cfg = TrainConfig(hard_ce_weight=1.0)
        _, (grad_w, grad_b) = loss_and_grad(drafter, batch, weights, cfg)
        num_w, num_b = numeric_gradient(drafter, batch, weights, cfg)
        worst_rel = max(worst_rel, relative_error(grad_w, num_w), relative_error(grad_b, num_b))
    grad_ok = worst_rel <= 1e-4

    kls = {}
    for c in (1.0, 2.0):
        cfg = TrainConfig(c=c, epochs=40, learning_rate=0.5, num_sequences=24, seed=0)
        trained = train_drafter(gridworld, cfg)
        kls[c] = held_out_convergent_kl(gridworld, trained, cfg, seed=777, num_sequences=8)
    kl_ok = kls[2.0] < kls[1.0]

    cfg1 = TrainConfig(c=1.0, seed=4, num_sequences=2)
    sequences = build_training_samples(gridworld, 2, 64, seed=4)
    batch = [s for seq in sequences for s in seq]
    marked = np.concatenate([mark_convergent(seq, cfg1) for seq in sequences])
    probe = LinearDrafter.zeros(32, 8)
    loss_marked, _ = loss_and_grad(probe, batch, marked, cfg1)
    loss_plain, _ = loss_and_grad(probe, batch, np.ones(len(batch)), cfg1)
    baseline_ok = abs(loss_marked - loss_plain) <= 1e-12

    _elapsed_ok(6, started, 120.0)
    _verdict(
        6,
        grad_ok and kl_ok and baseline_ok,
        f"(a) max grad rel err {worst_rel:.2e} <= 1e-4; "
        f"(b) held-out convergent KL c=2 {kls[2.0]:.4f} < c=1 {kls[1.0]:.4f}; "
        f"(c) c=1 loss gap {abs(loss_marked - loss_plain):.1e} <= 1e-12",
    )


def test_criterion_7_heatmap_structure(tmp_path, gridworld):
    started = time.perf_counter()
    tokens, _ = decode_sequence(
        gridworld, None, "ar", TreeMask.chain(1), RelaxConfig(), 64, RngStream(0)
    )
    matrix = export_similarity_heatmap(gridworld, tokens, range(8), tmp_path / "hm.csv")
    regions = np.array([gridworld.regions[p] for p in range(64)])
    same = regions[:, None] == regions[None, :]
    off_diag = ~np.eye(64, dtype=bool)
    within = float(matrix[same & off_diag].mean())
    cross = float(matrix[~same].mean())
    _elapsed_ok(7, started, 10.0)
    _verdict(
        7,
        within >= cross + 0.2,
        f"within-region mean cosine {within:.3f} exceeds cross-region {cross:.3f} by >= 0.2",
    )


def test_criterion_8_cli_replay_determinism(tmp_path, gridworld):
    started = time.perf_counter()
    from specrelax.cli import main as cli_main

    model_path = tmp_path / "grid.json"
    drafter_path = tmp_path / "drafter.json"
    save_model(gridworld, model_path)
    save_model(LinearDrafter.zeros(32, 8), drafter_path)
    args = [
        "decode", "--model", str(model_path), "--drafter", str(drafter_path),
        "--mode", "cascade", "--tree", "4,2,2,1,1", "--tau-pos", "0.85",
        "--tau-seq", "0.5", "--tvd-budget", "0.5", "--seeds", "0..9",
    ]
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    trace_a, trace_b = tmp_path / "ta.jsonl", tmp_path / "tb.jsonl"
    assert cli_main(args + ["--out", str(out_a), "--trace", str(trace_a)]) == 0
    assert cli_main(args + ["--out", str(out_b), "--trace", str(trace_b)]) == 0
    metrics_identical = out_a.read_bytes() == out_b.read_bytes()
    trace_identical = trace_a.read_bytes() == trace_b.read_bytes()
    _elapsed_ok(8, started, 10.0)
    _verdict(
        8,
        metrics_identical and trace_identical,
        "repeated CLI invocations produce byte-identical metrics and trace JSONL",
    )
