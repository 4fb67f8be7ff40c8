from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import stat
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specrelax import (
    ConfigError,
    ExperimentConfig,
    GridWorldModel,
    LinearDrafter,
    Metrics,
    ProbDist,
    RelaxConfig,
    RngStream,
    RowOutOfRange,
    TabularModel,
    TrainConfig,
    TreeMask,
    cosine_sim,
    decode_lanes,
    decode_sequence,
    decode_with_metrics,
    exact_sequence_law,
    export_similarity_heatmap,
    load_model,
    mc_distribution_test,
    random_tabular_model,
    run_experiment,
    save_model,
    train_drafter,
)
from specrelax import harness
from specrelax import train as train_module
from specrelax.cli import build_parser, main as cli_main, parse_seed_spec
from specrelax.core import InvalidValue, derive_streams
from specrelax.harness import law_tvd, read_metrics_jsonl
from specrelax.models import _decode_side
from specrelax.tree import STOCHASTIC, TOPK
from specrelax.verify import TraceRecord

from conftest import ar_law, make_tabular_v2, small_gridworld


# --- metrics ------------------------------------------------------------------


def test_ar_mode_metrics_are_unit_by_convention(tabular_v4):
    _, metrics = decode_with_metrics(
        tabular_v4, None, "ar", TreeMask.chain(3), RelaxConfig(), 9, RngStream(0)
    )
    assert metrics.mean_alpha == 1.0
    assert metrics.speedup_proxy == 1.0
    assert metrics.target_calls == 9
    assert metrics.drafter_calls == 0
    assert metrics.accumulated_tvd == 0.0


def test_self_drafting_chain_mean_alpha_is_depth(tabular_v4):
    _, metrics = decode_with_metrics(
        tabular_v4, tabular_v4, "vanilla", TreeMask.chain(5), RelaxConfig(), 30, RngStream(1)
    )
    assert metrics.mean_alpha == 5.0
    assert metrics.tokens_emitted == 30
    assert metrics.target_calls == 6
    assert metrics.drafter_calls == 30  # five drafted levels per cycle


def test_speedup_proxy_cost_model(tabular_v4, tabular_v4_drafter):
    _, metrics = decode_with_metrics(
        tabular_v4, tabular_v4_drafter, "vanilla", TreeMask.chain(3), RelaxConfig(), 12,
        RngStream(2), kappa=0.5,
    )
    expected = metrics.tokens_emitted / (metrics.target_calls + 0.5 * metrics.drafter_calls)
    assert metrics.speedup_proxy == pytest.approx(expected, abs=1e-12)


def test_metrics_jsonl_round_trip():
    metrics = Metrics(2.5, 10, 50, 1.75, 0.875, 0.0136, 64)
    parsed = Metrics.from_record(json.loads(json.dumps(metrics.to_record())))
    assert parsed == metrics


def test_aggregate_sums_seeds_left_to_right_on_every_interpreter():
    # Ten seeds of 0.1 sum to 0.9999999999999999 left to right but to 1.0 under
    # compensated summation (Python's own `sum` from 3.12 on, and `math.fsum`).
    tenths = [0.1] * 10
    assert math.fsum(tenths) == 1.0
    per_seed = [Metrics(0.1, 3, 5, 0.1, 0.1, 0.1, 8)] * 10
    tenth = 0.9999999999999999 / 10
    assert tenth != 1.0 / 10
    assert Metrics.aggregate(per_seed) == Metrics(tenth, 3.0, 5.0, tenth, tenth, tenth, 8.0)


def test_aggregating_no_runs_raises_an_engine_error():
    from specrelax import EngineError

    with pytest.raises(EngineError, match="cannot aggregate zero runs"):
        Metrics.aggregate([])


def test_cascade_zero_budget_metrics_match_vanilla(gridworld, grid_drafter):
    for seed in (0, 1, 2):
        _, vanilla = decode_with_metrics(
            gridworld, grid_drafter, "vanilla", TreeMask.default(), RelaxConfig(), 64,
            RngStream(seed),
        )
        _, cascade = decode_with_metrics(
            gridworld, grid_drafter, "cascade", TreeMask.default(),
            RelaxConfig(tvd_budget=0.0), 64, RngStream(seed),
        )
        assert cascade == vanilla


def test_accumulated_tvd_bounded_by_budget_times_calls(gridworld, grid_drafter):
    cfg = RelaxConfig()
    _, metrics = decode_with_metrics(
        gridworld, grid_drafter, "cascade", TreeMask.default(), cfg, 64, RngStream(5)
    )
    assert metrics.accumulated_tvd <= cfg.tvd_budget * metrics.target_calls + 1e-9
    assert metrics.per_token_tvd == pytest.approx(
        metrics.accumulated_tvd / metrics.tokens_emitted, abs=1e-12
    )


def test_cascade_speedup_not_below_vanilla_with_trained_drafter(gridworld, grid_drafter):
    speed_v, speed_c = [], []
    for seed in range(30):
        _, mv = decode_with_metrics(
            gridworld, grid_drafter, "vanilla", TreeMask.default(), RelaxConfig(), 64,
            RngStream(seed),
        )
        _, mc = decode_with_metrics(
            gridworld, grid_drafter, "cascade", TreeMask.default(), RelaxConfig(), 64,
            RngStream(seed),
        )
        speed_v.append(mv.speedup_proxy)
        speed_c.append(mc.speedup_proxy)
    assert float(np.mean(speed_c)) >= float(np.mean(speed_v))


def test_per_token_tvd_stays_small_on_default_config(gridworld):
    # Default thresholds and mask with the untrained (uniform) drafter.
    from specrelax import LinearDrafter

    drafter = LinearDrafter.zeros(32, 8)
    values = []
    for seed in range(50):
        _, metrics = decode_with_metrics(
            gridworld, drafter, "cascade", TreeMask.default(), RelaxConfig(), 64,
            RngStream(seed),
        )
        values.append(metrics.per_token_tvd)
    assert float(np.mean(values)) < 0.05


# --- mc_distribution_test -------------------------------------------------------


def test_mc_ar_mode_matches_enumeration():
    model = make_tabular_v2({(): [0.7, 0.3], (0,): [0.6, 0.4], (1,): [0.2, 0.8]})
    distance, passed = mc_distribution_test(model, None, "ar", 30_000, 2)
    assert passed
    assert distance <= 0.015


def test_mc_vanilla_chain_matches_enumeration():
    model = make_tabular_v2({(): [0.7, 0.3], (0,): [0.6, 0.4], (1,): [0.2, 0.8]})
    drafter = make_tabular_v2({(): [0.4, 0.6], (0,): [0.5, 0.5], (1,): [0.7, 0.3]})
    distance, passed = mc_distribution_test(model, drafter, "vanilla", 30_000, 2)
    assert passed
    assert distance <= 0.015


def test_mc_oracle_result_does_not_depend_on_the_lane_block(monkeypatch, tabular_v4, tabular_v4_drafter):
    # Lanes are independent, so the samples may be decoded in blocks of any size.
    args = (tabular_v4, tabular_v4_drafter, "vanilla", 40, 3)
    whole = mc_distribution_test(*args, base_seed=9)
    monkeypatch.setattr(harness, "LANE_BLOCK", 7)
    assert mc_distribution_test(*args, base_seed=9) == whole


def test_mc_cascade_records_distance_without_pass_requirement(gridworld):
    from specrelax import LinearDrafter

    drafter = LinearDrafter.zeros(32, 8)
    distance, _ = mc_distribution_test(
        gridworld, drafter, "cascade", 400, 2, mask=TreeMask((2, 1)), relax=RelaxConfig()
    )
    assert 0.0 <= distance <= 1.0  # deviation is allowed, only recorded


# --- exact laws -------------------------------------------------------------------


def sha256_of_law(law) -> str:
    return hashlib.sha256(repr(list(law.items())).encode()).hexdigest()


# Each `ar` law's digest, as the autoregressive enumeration it replaced gave it.
AR_LAW_PINS = {
    "tabular-v4": (lambda: random_tabular_model(4, 1, seed=11), 3,
                   "4a99d67d4cb8664a92436b9436397156564d3c0f064e2597c7d2ad72ef68fea3"),
    "tabular-v3-order-2": (lambda: random_tabular_model(3, 2, seed=5), 4,
                           "4aaa3ace35da5994ac7201b6b4553576af51bb0faeba98a219a681dcf6cc96bc"),
    "small-gridworld": (small_gridworld, 4, "9eb8c4bd85b90552e1655221beed939ef8fc60af717280e41a82d70694638eee"),
    "jittered-gridworld": (lambda: GridWorldModel.default(0.05), 2,
                           "29e469a27ae29e09bf315bd077fc04f4556655fd62767f81922c31069310964f"),
}


@pytest.mark.parametrize("case", sorted(AR_LAW_PINS))
def test_ar_law_keys_order_and_values_are_pinned(case):
    make_target, length, digest = AR_LAW_PINS[case]
    assert sha256_of_law(ar_law(make_target(), length)) == digest


def test_topk_laws_are_the_greedy_sequence_at_one_distance_from_the_target(tabular_v4, tabular_v4_drafter):
    # The tempered drafter's top token is the target's, with less mass, so it is always accepted.
    target_law = ar_law(tabular_v4, 2)
    masks = ("1", "1,1", "2", "2,2", "3", "4,2")
    distances = {
        (mode, text): law_tvd(target_law, exact_sequence_law(
            tabular_v4, tabular_v4_drafter, mode, TreeMask.parse(text), RelaxConfig(), 2))
        for mode in ("vanilla", "cascade")
        for text in masks
    }
    print(f"[top-k, V=4, 2 tokens] TVD to the target: {max(distances.values()):.6f} "
          f"for masks {', '.join(masks)} in both modes")
    assert all(abs(distance - 0.729787) <= 1e-6 for distance in distances.values()), distances


def two_region_gridworld() -> GridWorldModel:
    """A 2x2 grid of 8 tokens in 4 clusters of 2; the top row prefers cluster 0, the bottom row cluster 1."""
    eye = np.eye(8)
    return GridWorldModel(
        side=2, vocab=8, h=8, clusters=[t // 2 for t in range(8)], regions=[0, 0, 1, 1], region_clusters=[0, 1],
        region_anchors=[eye[0], eye[1]], cluster_anchors=[eye[3 + c] for c in range(4)],
    )


@pytest.mark.parametrize("mode", ["vanilla", "cascade"])
def test_exact_topk_law_matches_the_engine_on_a_two_region_gridworld(mode):
    target, drafter, mask = two_region_gridworld(), LinearDrafter.zeros(8, 2), TreeMask((4, 2))
    exact = exact_sequence_law(target, drafter, mode, mask, RelaxConfig(), 4)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    samples = 20_000
    counts: dict[tuple[int, ...], int] = {}
    for tokens, _ in decode_lanes(target, drafter, mode, mask, RelaxConfig(), 4, derive_streams(0, 0, samples)):
        counts[tuple(tokens)] = counts.get(tuple(tokens), 0) + 1
    assert law_tvd(exact, {key: n / samples for key, n in counts.items()}) <= 0.02


# --- heatmap --------------------------------------------------------------------


def test_heatmap_constant_features_is_all_ones(tmp_path):
    features = {(): [1.0, 0.0], (0,): [1.0, 0.0], (1,): [1.0, 0.0]}
    model = TabularModel(
        2, 1, {(): [0.5, 0.5], (0,): [0.5, 0.5], (1,): [0.5, 0.5]}, features, 2
    )
    tokens, _ = decode_sequence(model, None, "ar", TreeMask.chain(1), RelaxConfig(), 4, RngStream(0))
    matrix = export_similarity_heatmap(model, tokens, [0, 1], tmp_path / "hm.csv")
    assert matrix.shape == (4, 4)
    assert np.allclose(matrix, 1.0, atol=1e-12)


def test_heatmap_region_block_structure(tmp_path, gridworld):
    tokens, _ = decode_sequence(
        gridworld, None, "ar", TreeMask.chain(1), RelaxConfig(), 64, RngStream(0)
    )
    matrix = export_similarity_heatmap(gridworld, tokens, [2, 3], tmp_path / "hm.csv")
    # Rows 2 and 3 straddle the region-0/region-1 boundary: 8 positions each.
    within = np.concatenate([matrix[:8, :8].ravel(), matrix[8:, 8:].ravel()])
    cross = matrix[:8, 8:].ravel()
    assert within.mean() > cross.mean() + 0.2


def test_heatmap_empty_rows_writes_header_only(tmp_path, gridworld):
    tokens, _ = decode_sequence(
        gridworld, None, "ar", TreeMask.chain(1), RelaxConfig(), 64, RngStream(0)
    )
    path = tmp_path / "hm.csv"
    matrix = export_similarity_heatmap(gridworld, tokens, [], path)
    assert matrix.shape == (0, 0)
    lines = path.read_text().strip().splitlines()
    assert lines == ["pos"]


def test_heatmap_rejects_out_of_range_rows(tmp_path, gridworld):
    tokens, _ = decode_sequence(
        gridworld, None, "ar", TreeMask.chain(1), RelaxConfig(), 64, RngStream(0)
    )
    with pytest.raises(RowOutOfRange):
        export_similarity_heatmap(gridworld, tokens, [8], tmp_path / "hm.csv")
    # Row 2 ends at position 23, past the first 20 tokens.
    with pytest.raises(RowOutOfRange, match="past the decoded sequence"):
        export_similarity_heatmap(gridworld, tokens[:20], [0, 2], tmp_path / "hm.csv")
    assert not (tmp_path / "hm.csv").exists()


def scalar_heatmap(target, tokens, positions) -> list[list[float]]:
    """The heatmap as a scalar loop: `cosine_sim` of each pair `i <= j`, mirrored."""
    feats = [target.evaluate(tokens[:p]).feature for p in positions]
    n = len(positions)
    return [[cosine_sim(feats[min(i, j)], feats[max(i, j)]) for j in range(n)] for i in range(n)]


def test_heatmap_csv_matches_matrix(tmp_path, gridworld, tabular_v4):
    jittered = GridWorldModel.default(feature_jitter=0.05)
    path = tmp_path / "hm.csv"
    for target, length, rows in ((gridworld, 64, [1]), (jittered, 64, [0, 3, 5]), (tabular_v4, 16, [1, 2])):
        tokens, _ = decode_sequence(target, None, "ar", TreeMask.chain(1), RelaxConfig(), length, RngStream(0))
        matrix = export_similarity_heatmap(target, tokens, rows, path)
        side = _decode_side(target, length)
        positions = [row * side + col for row in rows for col in range(side)]
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == ["pos"] + [str(p) for p in positions]
        assert [line[0] for line in lines[1:]] == [str(p) for p in positions]
        expected = scalar_heatmap(target, tokens, positions)
        assert [line[1:] for line in lines[1:]] == [[repr(v) for v in row] for row in expected]
        parsed = np.array([[float(v) for v in line[1:]] for line in lines[1:]])
        assert np.array_equal(parsed, matrix)
        if target is not gridworld:
            assert ((0.0 < np.abs(matrix)) & (np.abs(matrix) < 1.0)).any()

    # A one-row heatmap evaluates the row's positions, each once, and no other.
    target = GridWorldModel.default()
    tokens, _ = decode_sequence(target, None, "ar", TreeMask.chain(1), RelaxConfig(), 64, RngStream(0))
    evaluate, evaluated = target.evaluate, []

    def counting(prefix):
        evaluated.append(len(prefix))
        return evaluate(prefix)

    target.evaluate = counting
    export_similarity_heatmap(target, tokens, [2], path)
    assert evaluated == list(range(16, 24))


# --- run_experiment and CLI ------------------------------------------------------


@pytest.fixture()
def model_files(tmp_path, gridworld, grid_drafter, tabular_v4, tabular_v4_drafter):
    paths = {
        "grid": tmp_path / "grid.json",
        "grid_drafter": tmp_path / "grid_drafter.json",
        "tab": tmp_path / "tab.json",
        "tab_drafter": tmp_path / "tab_drafter.json",
    }
    save_model(gridworld, paths["grid"])
    save_model(grid_drafter, paths["grid_drafter"])
    save_model(tabular_v4, paths["tab"])
    save_model(tabular_v4_drafter, paths["tab_drafter"])
    return paths


def test_run_experiment_writes_per_seed_and_aggregate(tmp_path, model_files):
    metrics_path = tmp_path / "metrics.jsonl"
    cfg = ExperimentConfig(
        model_path=str(model_files["grid"]),
        drafter_path=str(model_files["grid_drafter"]),
        mode="cascade",
        seeds=(0, 1, 2),
        metrics_path=str(metrics_path),
        trace_path=str(tmp_path / "trace.jsonl"),
        heatmap_path=str(tmp_path / "hm.csv"),
    )
    aggregate = run_experiment(cfg)
    per_seed, parsed_aggregate = read_metrics_jsonl(metrics_path)
    assert [seed for seed, _ in per_seed] == [0, 1, 2]
    assert parsed_aggregate == aggregate

    trace_lines = Path(tmp_path / "trace.jsonl").read_text().strip().splitlines()
    keys = {"seed", "cycle", "level", "sibling", "q", "p", "addedMassI", "addedMassC", "r", "decision",
            "budgetLeft"}
    for line in trace_lines[:20]:
        record = json.loads(line)
        assert set(record) == keys
        assert record["decision"] in ("accept", "reject")
    assert (tmp_path / "hm.csv").exists()


@pytest.mark.parametrize("candidate_mode", [TOPK, STOCHASTIC])
@pytest.mark.parametrize("mode", ["vanilla", "cascade"])
@pytest.mark.parametrize("family,length", [("grid", 64), ("tab", 16)])
def test_trace_lines_are_the_sorted_json_of_each_decision(tmp_path, model_files, family, length, mode,
                                                          candidate_mode):
    seeds = (3, 4, 5, 6)
    target_path, drafter_path = model_files[family], model_files[f"{family}_drafter"]
    trace_path = tmp_path / "trace.jsonl"
    run_experiment(ExperimentConfig(
        model_path=str(target_path), drafter_path=str(drafter_path), mode=mode, seeds=seeds,
        length=length, candidate_mode=candidate_mode, trace_path=str(trace_path),
    ))

    expected: list[list[str]] = [[] for _ in seeds]

    def collect(lane, cycle, outcome):
        expected[lane].extend(
            json.dumps({"seed": seeds[lane], "cycle": cycle, **rec.to_record()}, sort_keys=True)
            for rec in outcome.trace
        )

    decode_lanes(load_model(target_path), load_model(drafter_path), mode, TreeMask.default(), RelaxConfig(),
                 length, [RngStream(seed) for seed in seeds], candidate_mode=candidate_mode,
                 on_outcome=collect)
    text = trace_path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text[:-1].split("\n") == [line for lane in expected for line in lane]
    if family == "grid" and mode == "cascade":
        assert any(json.loads(line)["addedMassI"] > 0.0 for lane in expected for line in lane)


EXTREME_FLOATS = st.sampled_from([5e-324, 1e-300, 1e16, 0.1 + 0.2, 1.0, 0.0, -0.0, 2.0**53 + 2, 1 / 3])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    values=st.lists(st.one_of(EXTREME_FLOATS, st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=6, max_size=6),
    numpy_floats=st.booleans(),
    ints=st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=4),
    decision=st.sampled_from(["accept", "reject"]),
)
def test_trace_line_is_the_sorted_json_of_extreme_values(values, numpy_floats, ints, decision):
    if numpy_floats:
        values = [np.float64(v) for v in values]
    q, p, added_i, added_c, r, budget = values
    level, sibling, seed, cycle = ints
    rec = TraceRecord(level, sibling, q, p, added_i, added_c, r, decision, budget, 0, ProbDist([1.0]), ())
    expected = json.dumps({"seed": seed, "cycle": cycle, **rec.to_record()}, sort_keys=True) + "\n"
    assert rec.to_line(seed, cycle) == expected


def test_run_experiment_decodes_seeds_in_blocks(monkeypatch, tmp_path, model_files):
    # Seeds are decoded LANE_BLOCK at a time; the outputs do not depend on the block.
    def config(tag):
        return ExperimentConfig(
            model_path=str(model_files["grid"]), drafter_path=str(model_files["grid_drafter"]),
            mode="cascade", seeds=tuple(range(10, 17)), length=20, candidate_mode=STOCHASTIC,
            metrics_path=str(tmp_path / f"{tag}.metrics.jsonl"), trace_path=str(tmp_path / f"{tag}.trace.jsonl"),
        )

    whole = run_experiment(config("whole"))
    lanes_per_call = []
    decode = harness.decode_lanes

    def counting_decode(*args, **kwargs):
        lanes_per_call.append(len(args[6]))
        return decode(*args, **kwargs)

    monkeypatch.setattr(harness, "decode_lanes", counting_decode)
    monkeypatch.setattr(harness, "LANE_BLOCK", 3)
    assert run_experiment(config("blocked")) == whole
    assert lanes_per_call == [3, 3, 1]
    for suffix in ("metrics.jsonl", "trace.jsonl"):
        assert (tmp_path / f"blocked.{suffix}").read_bytes() == (tmp_path / f"whole.{suffix}").read_bytes()


def test_run_experiment_validates_inputs(tmp_path, model_files):
    with pytest.raises(ConfigError):
        ExperimentConfig(model_path=str(tmp_path / "missing.json"), mode="ar", seeds=(0,))
    with pytest.raises(ConfigError):
        ExperimentConfig(model_path=str(model_files["grid"]), mode="ar", seeds=())
    with pytest.raises(ConfigError):
        ExperimentConfig(model_path=str(model_files["grid"]), mode="vanilla", seeds=(0,))


def test_kappa_must_be_finite_and_non_negative(tmp_path, model_files, tabular_v4, tabular_v4_drafter):
    base = dict(model_path=str(model_files["grid"]), drafter_path=str(model_files["grid_drafter"]),
                mode="vanilla", seeds=(0,))
    for kappa in (-1.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="kappa"):
            ExperimentConfig(**base, kappa=kappa)
        with pytest.raises(ConfigError, match="kappa"):
            decode_with_metrics(tabular_v4, tabular_v4_drafter, "vanilla", TreeMask.chain(2),
                                RelaxConfig(), 4, RngStream(0), kappa=kappa)
    assert ExperimentConfig(**base, kappa=0.0).kappa == 0.0
    _, metrics = decode_with_metrics(tabular_v4, tabular_v4_drafter, "vanilla", TreeMask.chain(2),
                                     RelaxConfig(), 4, RngStream(0), kappa=0.0)
    assert metrics.speedup_proxy == metrics.tokens_emitted / metrics.target_calls


def test_mismatched_drafter_is_refused_before_decoding(tmp_path, model_files, tabular_v4):
    cases = [
        (tabular_v4, LinearDrafter.zeros(32, 8), "vocabulary"),  # V=4 target, V=32 drafter
        (GridWorldModel.default(), LinearDrafter.zeros(32, 4), "grid side"),  # 8x8 vs side 4
    ]
    for target, drafter, what in cases:
        with pytest.raises(ConfigError, match=what):
            mc_distribution_test(target, drafter, "vanilla", 10, 2)
        target_path, drafter_path = tmp_path / "target.json", tmp_path / "drafter.json"
        save_model(target, target_path)
        save_model(drafter, drafter_path)
        cfg = ExperimentConfig(
            model_path=str(target_path), drafter_path=str(drafter_path), mode="cascade",
            seeds=(0,), length=4, metrics_path=str(tmp_path / "m.jsonl"),
        )
        with pytest.raises(ConfigError, match=what):
            run_experiment(cfg)
        assert not (tmp_path / "m.jsonl").exists()


def test_cli_mismatched_drafter_exits_2(tmp_path, model_files, capsys):
    code = run_cli(["decode", "--model", model_files["tab"], "--drafter", model_files["grid_drafter"],
                    "--mode", "vanilla", "--len", "4", "--out", tmp_path / "m.jsonl"])
    assert code == 2
    assert "vocabulary" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["decode", "--mode", "ar", "--len", "8", "--out", "{out}"],
        ["decode", "--drafter", "{drafter}", "--len", "8", "--out", "{out}"],
        ["oracle", "--samples", "10"],
        ["oracle", "--mode", "ar", "--len", "2", "--samples", "10"],
        ["oracle", "--drafter", "{drafter}", "--len", "2", "--samples", "10"],
        ["train", "--epochs", "1", "--sequences", "1", "--out", "{out}"],
    ],
)
def test_cli_refuses_a_drafter_file_as_the_target(tmp_path, model_files, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a drafter file given as the target")

    monkeypatch.setattr(harness, "decode_lanes", no_work)
    monkeypatch.setattr(train_module, "build_training_samples", no_work)
    out = tmp_path / "out.json"
    values = {"out": str(out), "drafter": str(model_files["grid_drafter"])}
    name, *rest = command
    code = run_cli([name, "--model", model_files["grid_drafter"], *(arg.format(**values) for arg in rest)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(model_files["grid_drafter"]) in err and "'linear_drafter'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["decode", "--out", "{missing}"],
        ["decode", "--out", "{dir}"],
        ["decode", "--out", "{ok}", "--trace", "{dir}"],
        ["decode", "--out", "{ok}", "--trace", "{missing}"],
        ["decode", "--out", "{ok}", "--heatmap", "{missing}"],
        ["decode", "--out", "{ok}", "--heatmap", "{dir}"],
        ["decode", "--out", ""],
        ["train", "--epochs", "1", "--sequences", "1", "--out", "{missing}"],
        ["train", "--epochs", "1", "--sequences", "1", "--out", "{dir}"],
        ["make-model", "--family", "tabular", "--out", "{missing}"],
        ["make-model", "--family", "gridworld", "--out", "{dir}"],
    ],
)
def test_cli_unwritable_output_paths_exit_2_before_any_work(tmp_path, model_files, capsys, monkeypatch,
                                                             command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    monkeypatch.setattr(harness, "decode_lanes", no_work)
    monkeypatch.setattr(train_module, "build_training_samples", no_work)
    monkeypatch.setattr(np.random, "default_rng", no_work)
    (tmp_path / "dir").mkdir()
    values = {"missing": str(tmp_path / "missing" / "x.json"), "dir": str(tmp_path / "dir"),
              "ok": str(tmp_path / "ok.jsonl")}
    name, *rest = command
    args = [name]
    if name == "decode":
        args += ["--model", model_files["grid"], "--drafter", model_files["grid_drafter"]]
    elif name == "train":
        args += ["--model", model_files["grid"]]
    code = run_cli(args + [arg.format(**values) for arg in rest])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and "output path" in err
    assert not (tmp_path / "ok.jsonl").exists() and not (tmp_path / "missing").exists()
    assert list((tmp_path / "dir").iterdir()) == []


@pytest.mark.parametrize("family,length", [("grid", "8"), ("grid", "63"), ("tab", "5"), ("tab", "8")])
def test_cli_heatmap_over_a_partial_grid_exits_2_before_decoding(tmp_path, model_files, capsys, monkeypatch,
                                                                 family, length):
    def no_decode(*args, **kwargs):
        raise AssertionError("decoded before the heatmap's length was checked")

    monkeypatch.setattr(harness, "decode_lanes", no_decode)
    out, heatmap = tmp_path / "m.jsonl", tmp_path / "h.csv"
    code = run_cli(["decode", "--model", model_files[family], "--drafter", model_files[f"{family}_drafter"],
                    "--len", length, "--out", out, "--heatmap", heatmap])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "heatmap" in err
    assert not out.exists() and not heatmap.exists()


def test_cli_heatmap_over_a_whole_tabular_grid_is_written(tmp_path, model_files):
    heatmap = tmp_path / "h.csv"
    assert run_cli(["decode", "--model", model_files["tab"], "--drafter", model_files["tab_drafter"],
                    "--len", "9", "--out", tmp_path / "m.jsonl", "--heatmap", heatmap]) == 0
    with heatmap.open(encoding="utf-8") as lines:
        rows = list(csv.reader(lines))
    assert rows[0] == ["pos"] + [str(p) for p in range(9)]
    assert len(rows) == 10


def test_parse_seed_spec_forms():
    assert parse_seed_spec("0..3") == (0, 1, 2, 3)
    assert parse_seed_spec("5") == (5,)
    assert parse_seed_spec("1,4,9") == (1, 4, 9)
    with pytest.raises(ConfigError):
        parse_seed_spec("")
    with pytest.raises(ConfigError):
        parse_seed_spec("1..x")


@pytest.mark.parametrize(
    "spec",
    ["-1", "18446744073709551616", "3,-2..4", "18446744073709551615..18446744073709551616", "-7..-9"],
)
def test_parse_seed_spec_refuses_numbers_outside_the_seed_space(spec):
    # `RngStream` masks a seed to 64 bits: -1 would decode stream 2**64 - 1, and 2**64 stream 0.
    with pytest.raises(ConfigError, match=r"\[0, 2\*\*64\)"):
        parse_seed_spec(spec)


def test_parse_seed_spec_counts_ranges_against_the_cap_before_expanding_them():
    top = 2**64 - 1
    assert parse_seed_spec(f"{top - 1}..{top}") == (top - 1, top)
    assert len(parse_seed_spec("0..999999")) == 1_000_000
    with pytest.raises(ConfigError, match="1000001 seeds"):
        parse_seed_spec("0..999999,7")
    with pytest.raises(ConfigError, match="above the cap"):
        parse_seed_spec(f"0..{top}")  # 2**64 seeds: refused without building a list of them


@pytest.mark.parametrize(
    "build",
    [
        lambda tmp: ExperimentConfig(model_path=str(tmp), mode="ar", seeds=(0, 2**64)),
        lambda tmp: ExperimentConfig(model_path=str(tmp), mode="ar", seeds=(-1, 0)),
        lambda tmp: TrainConfig(seed=-1),
        lambda tmp: TrainConfig(seed=2**64),
        lambda tmp: random_tabular_model(4, 1, seed=2**64),
        lambda tmp: mc_distribution_test(random_tabular_model(4, 1, seed=11), None, "ar", 10, 2, base_seed=-1),
        lambda tmp: mc_distribution_test(random_tabular_model(4, 1, seed=11), None, "ar", 10, 2, base_seed=2**64),
    ],
    ids=["experiment-2**64", "experiment-negative", "train-negative", "train-2**64", "tabular-2**64",
         "oracle-negative", "oracle-2**64"],
)
def test_library_configs_refuse_seeds_outside_the_seed_space(tmp_path, build):
    model = tmp_path / "grid.json"
    save_model(GridWorldModel.default(), model)
    with pytest.raises(ConfigError, match=r"\[0, 2\*\*64\)"):
        build(model)


def run_cli(args) -> int:
    return cli_main([str(a) for a in args])


def test_cli_decode_is_byte_deterministic(tmp_path, model_files):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    base = [
        "decode", "--model", model_files["grid"], "--drafter", model_files["grid_drafter"],
        "--mode", "cascade", "--tree", "4,2,2,1,1", "--tau-pos", "0.85", "--tau-seq", "0.5",
        "--tvd-budget", "0.5", "--seeds", "0..4",
    ]
    assert run_cli(base + ["--out", out_a]) == 0
    assert run_cli(base + ["--out", out_b]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_config_file_with_flag_override(tmp_path, model_files):
    config = {
        "model": str(model_files["grid"]),
        "drafter": str(model_files["grid_drafter"]),
        "mode": "cascade",
        "seeds": "0..2",
        "tau-pos": 1.01,
        "tau-seq": 1.01,
        "out": str(tmp_path / "from_config.jsonl"),
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    assert run_cli(["decode", "--config", config_path]) == 0

    # The same run with relaxation re-enabled through an explicit flag.
    override_out = tmp_path / "override.jsonl"
    assert run_cli(
        ["decode", "--config", config_path, "--tau-pos", "0.85", "--tau-seq", "0.5",
         "--out", override_out]
    ) == 0
    _, agg_config = read_metrics_jsonl(tmp_path / "from_config.jsonl")
    _, agg_override = read_metrics_jsonl(override_out)
    assert agg_config.accumulated_tvd == 0.0
    assert agg_override.accumulated_tvd > 0.0


def test_cli_train_then_decode(tmp_path, model_files):
    drafter_path = tmp_path / "trained.json"
    assert run_cli(
        ["train", "--model", model_files["grid"], "--c", "2", "--tau-seq-train", "0.5",
         "--epochs", "5", "--lr", "0.5", "--seed", "3", "--sequences", "4",
         "--out", drafter_path]
    ) == 0
    assert run_cli(
        ["decode", "--model", model_files["grid"], "--drafter", drafter_path,
         "--mode", "vanilla", "--seeds", "0,1", "--out", tmp_path / "m.jsonl"]
    ) == 0
    _, aggregate = read_metrics_jsonl(tmp_path / "m.jsonl")
    assert aggregate.tokens_emitted == 64


def test_cli_oracle_smoke(tmp_path, model_files, capsys):
    code = run_cli(
        ["oracle", "--model", model_files["tab"], "--mode", "vanilla", "--len", "2",
         "--samples", "20000"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["pass"] is True
    assert payload["tvdToOracle"] <= 0.05


def test_cli_make_model_round_trip(tmp_path):
    model_path = tmp_path / "t.json"
    drafter_path = tmp_path / "d.json"
    assert run_cli(["make-model", "--family", "tabular", "--vocab", "4", "--order", "1",
                    "--seed", "7", "--out", model_path]) == 0
    assert run_cli(["make-model", "--family", "tempered-drafter", "--from", model_path,
                    "--out", drafter_path]) == 0
    assert run_cli(["make-model", "--family", "gridworld", "--out", tmp_path / "g.json"]) == 0
    from specrelax import load_model

    assert load_model(model_path).vocab == 4
    assert load_model(drafter_path).vocab == 4
    assert load_model(tmp_path / "g.json").side == 8


@pytest.mark.parametrize(
    "flags",
    [
        ["--family", "tabular", "--vocab", "0"],
        ["--family", "tabular", "--order", "0"],
        ["--family", "tabular", "--h", "0"],
        ["--family", "tabular", "--seed", "-1"],
        # 3^40 windows: refused by the size guard before any window is drawn.
        ["--family", "tabular", "--vocab", "3", "--order", "40"],
        ["--family", "gridworld", "--jitter", "0.5"],
        ["--family", "tempered-drafter", "--exponent", "0"],
        ["--family", "tempered-drafter", "--exponent", "2"],
        # Two windows at order 1, but 10^12 and 4 * 10^9 table cells.
        ["--family", "tabular", "--vocab", "999999"],
        ["--family", "tabular", "--h", "1000000000"],
        ["--family", "tabular", "--seed", "18446744073709551616"],
    ],
)
def test_cli_make_model_bad_values_exit_2(tmp_path, model_files, capsys, monkeypatch, flags):
    def refuse_to_draw(*args, **kwargs):
        raise AssertionError("a tabular model was drawn before its arguments were checked")

    if "tabular" in flags:
        monkeypatch.setattr(np.random, "default_rng", refuse_to_draw)
    if "tempered-drafter" in flags:
        flags = flags + ["--from", model_files["tab"]]
    out = tmp_path / "model.json"
    assert run_cli(["make-model", *flags, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_cli_reports_engine_errors(tmp_path, capsys):
    code = run_cli(["decode", "--model", tmp_path / "nope.json", "--mode", "ar",
                    "--seeds", "0", "--out", tmp_path / "m.jsonl"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["decode", "--tvd-budget", "2"],
        ["decode", "--tree", "0,1"],
        ["decode", "--seeds", "1..x"],
        ["train", "--epochs", "-1"],
        ["decode", "--len", "100"],
        ["decode", "--mode", "ar", "--len", "-3"],
        ["decode", "--len", "0"],
        ["oracle", "--samples", "0"],
        ["oracle", "--len", "0", "--tree", "1"],
        ["decode", "--tree", "8,8,8"],
        ["decode", "--tree", "1", "--len", "4", "--kappa", "-1"],
        ["decode", "--len", "2", "--kappa", "-0.5"],
        ["decode", "--len", "2", "--kappa", "nan"],
        ["train", "--tau-seq-train", "5"],
        ["train", "--tau-seq-train", "nan"],
        ["train", "--tau-seq-train", "-3"],
        ["train", "--hard-ce-weight", "-1"],
        ["train", "--c", "nan"],
        ["train", "--c", "inf"],
        ["train", "--lr", "nan"],
        ["train", "--lr", "inf"],
        ["decode", "--seeds", "-1"],
        ["decode", "--seeds", "18446744073709551616"],
        ["decode", "--seeds", "0,18446744073709551615..18446744073709551616"],
        ["oracle", "--seed", "-1", "--samples", "100"],
        ["oracle", "--seed", "18446744073709551616", "--samples", "100"],
        ["train", "--seed", "-1"],
        ["train", "--seed", "18446744073709551616"],
        # 6.4G rollout positions, above the training cap.
        ["train", "--sequences", "100000000"],
    ],
)
def test_cli_bad_flag_values_exit_2(tmp_path, model_files, capsys, monkeypatch, flags):
    def no_rollout(*args, **kwargs):
        raise AssertionError("a refused flag value ran the training rollout")

    monkeypatch.setattr(train_module, "build_training_samples", no_rollout)
    command, *rest = flags
    if command == "oracle":
        args = [command, "--model", model_files["tab"]]
    else:
        args = [command, "--model", model_files["grid"], "--out", tmp_path / "out.json"]
    if command == "decode":
        args += ["--drafter", model_files["grid_drafter"], "--mode", "vanilla"]
    assert run_cli(args + rest) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "flags, victim",
    [
        (["decode", "--mode", "ar", "--model", "{grid}", "--out", "{grid}"], "grid"),
        (["decode", "--model", "{grid}", "--out", "m.jsonl", "--drafter", "{drafter}", "--trace", "{drafter}"],
         "drafter"),
        (["decode", "--mode", "ar", "--model", "{grid}", "--out", "m.jsonl", "--trace", "m.jsonl"], "m.jsonl"),
        (["decode", "--mode", "ar", "--model", "{grid}", "--out", "m.jsonl", "--heatmap", "./m.jsonl"],
         "m.jsonl"),
        (["decode", "--config", "{config}", "--model", "{grid}", "--out", "{config}"], "config"),
        (["train", "--model", "{grid}", "--out", "{grid}"], "grid"),
        (["train", "--model", "{grid}", "--out", "{link}"], "grid"),
        (["train", "--config", "{config}", "--model", "{grid}", "--out", "{config}"], "config"),
        (["make-model", "--family", "tempered-drafter", "--from", "{tab}", "--out", "{tab}"], "tab"),
    ],
    ids=["decode-model", "decode-drafter", "decode-trace", "decode-heatmap", "decode-config", "train-model",
         "train-symlink", "train-config", "make-model-from"],
)
def test_cli_output_naming_an_input_exits_2(tmp_path, model_files, capsys, monkeypatch, flags, victim):
    def no_rollout(*args, **kwargs):
        raise AssertionError("an output that names an input ran the training rollout")

    monkeypatch.setattr(train_module, "build_training_samples", no_rollout)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.jsonl").write_text("kept\n")
    (tmp_path / "link.json").symlink_to(model_files["grid"])
    config = write_config(tmp_path, {"drafter": str(model_files["grid_drafter"]), "mode": "vanilla"}
                          if flags[0] == "decode" else {"epochs": 1})
    paths = {"grid": model_files["grid"], "drafter": model_files["grid_drafter"], "tab": model_files["tab"],
             "config": config, "link": tmp_path / "link.json", "m.jsonl": tmp_path / "m.jsonl"}
    before = paths[victim].read_bytes()
    assert run_cli([flag.format(**paths) for flag in flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "names the same file as" in err
    assert paths[victim].read_bytes() == before


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"mode": "bogus"}, "mode must be one of"),
        ({"candidate_mode": "bogus"}, "unknown candidate mode 'bogus'"),
        ({"mode": "vanilla", "drafter_path": "missing.json"}, "drafter file not found: "),
    ],
    ids=["mode", "candidate-mode", "drafter-file"],
)
def test_experiment_config_refuses_an_unknown_mode_or_a_missing_drafter(tmp_path, model_files, overrides, message):
    overrides = {key: str(tmp_path / value) if key == "drafter_path" else value for key, value in overrides.items()}
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**{"model_path": str(model_files["grid"]), "mode": "ar", "seeds": (0,), **overrides})


def test_metrics_file_without_an_aggregate_record_is_refused(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"seed": 0, **Metrics(1.0, 4, 0, 1.0, 0.0, 0.0, 4).to_record()}) + "\n")
    with pytest.raises(ConfigError, match="has no aggregate record"):
        read_metrics_jsonl(path)


def test_experiment_config_refuses_an_output_that_names_an_input(tmp_path, model_files):
    grid = str(model_files["grid"])
    os.link(grid, tmp_path / "hard.json")
    for output in (grid, str(tmp_path / "hard.json")):
        with pytest.raises(ConfigError, match="names the same file"):
            ExperimentConfig(model_path=grid, mode="ar", seeds=(0,), metrics_path=output)
    with pytest.raises(ConfigError, match="names the same file"):
        ExperimentConfig(model_path=grid, mode="ar", seeds=(0,), trace_path=str(tmp_path / "t.jsonl"),
                         heatmap_path=str(tmp_path / "t.jsonl"))
    # A device such as /dev/null may take several outputs: writing it destroys nothing.
    ExperimentConfig(model_path=grid, mode="ar", seeds=(0,), metrics_path=os.devnull, trace_path=os.devnull)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize(
    "flags",
    [
        ["decode", "--out", "/dev/full"],
        ["decode", "--out", "{tmp}/m.jsonl", "--trace", "/dev/full"],
        ["decode", "--out", "{tmp}/m.jsonl", "--heatmap", "/dev/full"],
        ["train", "--sequences", "1", "--epochs", "1", "--out", "/dev/full"],
        ["make-model", "--family", "gridworld", "--out", "/dev/full"],
    ],
    ids=["decode-out", "decode-trace", "decode-heatmap", "train-out", "make-model-out"],
)
def test_cli_failed_write_exits_2(tmp_path, model_files, capsys, flags):
    command, *rest = flags
    args = [command]
    if command == "decode":
        args += ["--model", model_files["grid"], "--drafter", model_files["grid_drafter"], "--mode", "vanilla"]
    elif command == "train":
        args += ["--model", model_files["grid"]]
    assert run_cli(args + [flag.format(tmp=tmp_path) for flag in rest]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_a_failed_write_leaves_no_output_behind(tmp_path, model_files, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    metrics = out_dir / "m2.jsonl"
    ar = ["decode", "--model", model_files["grid"], "--mode", "ar", "--seeds", "0..1", "--out", metrics]
    # A later output that fails: no metrics file appears, and no temporary is left beside it.
    assert run_cli(ar + ["--heatmap", "/dev/full"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write /dev/full: ")
    assert list(out_dir.iterdir()) == []
    # An earlier file keeps its bytes and its permissions.
    decode = ar[:4] + ["vanilla", "--drafter", model_files["grid_drafter"]] + ar[5:]
    metrics.write_bytes(b"kept\n")
    metrics.chmod(0o640)
    assert run_cli(decode + ["--trace", "/dev/full"]) == 2
    assert metrics.read_bytes() == b"kept\n" and list(out_dir.iterdir()) == [metrics]
    # A successful run replaces it whole, with the same permissions.
    assert run_cli(decode + ["--trace", out_dir / "t.jsonl"]) == 0
    assert read_metrics_jsonl(metrics)[1].tokens_emitted == 64
    assert (metrics.stat().st_mode & 0o777) == 0o640
    assert sorted(p.name for p in out_dir.iterdir()) == ["m2.jsonl", "t.jsonl"]
    # A device is written in place, never renamed over.
    assert run_cli(decode[:-1] + [os.devnull, "--trace", out_dir / "t.jsonl"]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    capsys.readouterr()


def test_save_model_writes_whole_or_not_at_all(tmp_path, gridworld, monkeypatch):
    path = tmp_path / "grid.json"
    path.write_text("kept")
    monkeypatch.setattr(GridWorldModel, "to_dict", lambda self: {"bad": object()})
    with pytest.raises(TypeError):
        save_model(gridworld, path)
    assert path.read_text() == "kept" and list(tmp_path.iterdir()) == [path]
    monkeypatch.undo()
    save_model(gridworld, path)
    assert load_model(path).to_dict() == gridworld.to_dict()
    assert list(tmp_path.iterdir()) == [path]
    # Through a symlink, the file it leads to is replaced and the link stays.
    link = tmp_path / "link.json"
    link.symlink_to(path)
    save_model(LinearDrafter.zeros(32, 8), link)
    assert link.is_symlink() and load_model(path).kind == "linear_drafter"
    assert sorted(tmp_path.iterdir()) == [path, link]


def test_cli_overflowing_drafter_exits_2(tmp_path, model_files, capsys):
    # Every parameter is finite, so the file loads; the logit sums overflow to inf.
    save_model(LinearDrafter(np.full((32, 48), 1e308), np.full(32, 1e308), 32, 8),
               tmp_path / "huge.json")
    code = run_cli(["decode", "--model", model_files["grid"], "--drafter", tmp_path / "huge.json",
                    "--mode", "vanilla", "--seeds", "1", "--len", "8",
                    "--out", tmp_path / "m.jsonl"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("length", ["1", "2"])
@pytest.mark.parametrize("side", [0, -1])
def test_cli_drafter_with_an_empty_grid_exits_2(tmp_path, model_files, capsys, side, length):
    # A grid of side below 1 has no cell; `LinearDrafter` refuses one, so the file is written by hand.
    with pytest.raises(InvalidValue, match=f"drafter grid side must be >= 1, got {side}"):
        LinearDrafter.zeros(4, side)
    (tmp_path / "empty.json").write_text(json.dumps({"format_version": 1, "kind": "linear_drafter", "V": 4, "N": side,
                                                     "weights": [[0.0] * (4 + 2 * side)] * 4, "bias": [0.0] * 4}))
    out = tmp_path / "m.jsonl"
    code = run_cli(["decode", "--model", model_files["tab"], "--drafter", tmp_path / "empty.json",
                    "--mode", "vanilla", "--len", length, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "drafter grid side must be >= 1" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "flags, code, err",
    [
        (["--c", "1e308"], 2, "error: training loss is not finite\n"),
        (["--lr", "1.7e308"], 2, "error: drafter parameters must be finite\n"),
        # The second epoch's logits overflow, yet every loss and parameter stays finite.
        (["--lr", "1.7e308", "--epochs", "3", "--sequences", "1"], 0, ""),
    ],
    ids=["c-loss-overflow", "lr-step-overflow", "lr-logit-overflow"],
)
def test_cli_overflowing_fit_prints_no_numpy_warning(tmp_path, model_files, capsys, flags, code, err):
    out = tmp_path / "drafter.json"
    assert run_cli(["train", "--model", model_files["grid"], *flags, "--out", out]) == code
    assert capsys.readouterr().err == err
    assert out.exists() == (code == 0)


def exit_code(args) -> int:
    """The CLI's exit code, whether `main` returns it or argparse exits with it."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


def test_cli_config_as_the_last_argument_exits_2(tmp_path, model_files, capsys):
    out = tmp_path / "m.jsonl"
    assert exit_code(["decode", "--model", model_files["grid"], "--mode", "ar", "--out", out, "--config"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == ["specrelax decode: error: --config requires a file path"]
    assert not out.exists()


def test_cli_tempered_drafter_from_a_gridworld_exits_2(tmp_path, model_files, capsys):
    out = tmp_path / "model.json"
    assert run_cli(["make-model", "--family", "tempered-drafter", "--from", model_files["grid"],
                    "--out", out]) == 2
    assert capsys.readouterr().err == "error: tempered-drafter needs a tabular source model\n"
    assert not out.exists()


def test_cli_sibling_mode_flag_is_gone(tmp_path, model_files, capsys):
    code = exit_code(["decode", "--model", model_files["grid"], "--drafter", model_files["grid_drafter"],
                      "--mode", "vanilla", "--seeds", "0", "--len", "8",
                      "--sibling-mode", "literal", "--out", tmp_path / "m.jsonl"])
    assert code == 2
    assert "unrecognized arguments: --sibling-mode" in capsys.readouterr().err
    assert not (tmp_path / "m.jsonl").exists()


def test_cli_relaxation_flags_default_to_relax_config():
    parser, _ = build_parser()
    for command, out in (("decode", ["--out", "m.jsonl"]), ("oracle", [])):
        args = parser.parse_args([command, "--model", "grid.json", *out])
        assert RelaxConfig(args.tau_pos, args.tau_seq, args.tvd_budget) == RelaxConfig()


def test_cli_train_and_tree_flags_default_to_their_configs():
    parser, _ = build_parser()
    args = parser.parse_args(["train", "--model", "grid.json", "--out", "d.json"])
    flags = {"c": "c", "tau_seq_train": "tau_seq_train", "learning_rate": "lr", "epochs": "epochs",
             "hard_ce_weight": "hard_ce_weight", "seed": "seed", "num_sequences": "sequences"}
    assert set(flags) == {field.name for field in fields(TrainConfig)}
    for field, dest in flags.items():
        assert getattr(args, dest) == getattr(TrainConfig(), field), field
    args = parser.parse_args(["decode", "--model", "grid.json", "--out", "m.jsonl"])
    assert TreeMask.parse(args.tree) == TreeMask.default()


def parser_actions(parser) -> list[tuple]:
    return [(a.option_strings, a.dest, a.default, a.type, a.choices, a.required) for a in parser._actions]


@pytest.mark.parametrize("command", ["decode", "train", "oracle", "make-model"])
def test_cli_parser_built_for_one_command_matches_the_full_parser(command):
    full_parser, full = build_parser()
    parser, alone = build_parser(command)
    assert list(alone) == [command]
    assert parser_actions(alone[command]) == parser_actions(full[command])
    assert alone[command].format_help() == full[command].format_help()
    # The top-level parser reports unrecognized arguments, with a usage line that lists every command.
    assert parser.format_usage() == full_parser.format_usage()


@pytest.mark.parametrize("argv", [["-h"], ["no-such-command"], []])
def test_cli_without_a_command_lists_every_command(argv, capsys):
    with pytest.raises(SystemExit):
        cli_main(argv)
    printed = capsys.readouterr()
    text = printed.out + printed.err
    assert "{decode,train,oracle,make-model}" in text
    if argv == ["-h"]:
        assert all(f"    {command} " in text for command in ("decode", "train", "oracle", "make-model"))


def write_config(tmp_path, data) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


def test_cli_config_keys_are_flag_names_or_dests(tmp_path, model_files):
    out = tmp_path / "m.jsonl"
    for key in ("len", "length"):  # --len's flag name, then its dest
        config = {"model": str(model_files["grid"]), "drafter": str(model_files["grid_drafter"]),
                  "mode": "cascade", "seeds": "0,1", key: 8, "tvd-budget": 0.0, "out": str(out)}
        assert run_cli(["decode", "--config", write_config(tmp_path, config)]) == 0
        _, aggregate = read_metrics_jsonl(out)
        assert aggregate.tokens_emitted == 8
        assert aggregate.accumulated_tvd == 0.0


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("decode", {"tvd-budgt": 0.0}, "unknown key(s) in config file"),
        ("decode", {"sibling-mode": "literal"}, "'sibling-mode'"),
        ("decode", [{"len": 8}], "must hold a JSON object, not list"),
        ("oracle", {"samples": 100, "candidates": "topk"}, "'candidates'"),
        ("train", {"epochs": 1, "tvd_budget": 0.5}, "'tvd_budget'"),
        ("decode", {"len": 8.7}, "argument --len: invalid int value: '8.7'"),
        ("decode", {"len": True}, "config key 'len': true is not a string or number"),
        ("decode", {"len": [3]}, "config key 'len': [3] is not a string or number"),
        ("oracle", {"mode": "bogus"}, "argument --mode: invalid choice: 'bogus'"),
    ],
    ids=["misspelt-key", "sibling-mode-key", "list-file", "oracle-foreign-key", "train-foreign-key",
         "float-len", "bool-len", "list-len", "oracle-bad-mode"],
)
def test_cli_bad_config_files_exit_2(tmp_path, model_files, capsys, command, data, message):
    if isinstance(data, dict):
        base = {"model": str(model_files["tab" if command == "oracle" else "grid"])}
        if command == "decode":
            base.update(drafter=str(model_files["grid_drafter"]), mode="vanilla", seeds="0", len=8)
        if command != "oracle":
            base["out"] = str(tmp_path / "out.json")
        data = {**base, **data}
    assert exit_code([command, "--config", write_config(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert message in err and "error:" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "spelling",
    [lambda path: [f"--config={path}"], lambda path: ["--conf", path], lambda path: [f"--conf={path}"]],
    ids=["equals", "prefix", "prefix-equals"],
)
def test_cli_bad_config_file_in_any_spelling_exits_2(tmp_path, model_files, capsys, spelling):
    data = {"model": str(model_files["grid"]), "drafter": str(model_files["grid_drafter"]),
            "mode": "cascade", "len": 4, "tvd-budget": 5, "out": str(tmp_path / "out.json")}
    assert exit_code(["decode", *spelling(write_config(tmp_path, data))]) == 2
    err = capsys.readouterr().err
    assert "tvd budget must lie in [0, 1]" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_cli_config_equals_spelling_decodes_like_the_spaced_one(tmp_path, model_files):
    config = {"model": str(model_files["grid"]), "drafter": str(model_files["grid_drafter"]),
              "mode": "cascade", "seeds": "0,3", "len": 8}
    spaced, equals = tmp_path / "spaced.jsonl", tmp_path / "equals.jsonl"
    path = write_config(tmp_path, config)
    assert run_cli(["decode", "--config", path, "--out", spaced]) == 0
    assert run_cli(["decode", f"--config={path}", "--out", equals]) == 0
    assert spaced.read_bytes() == equals.read_bytes()


def test_cli_config_lists_are_comma_joined_for_seeds_and_tree(tmp_path, model_files):
    config = {"model": str(model_files["grid"]), "drafter": str(model_files["grid_drafter"]),
              "mode": "cascade", "seeds": [0, 3], "tree": [2, 1], "len": 8,
              "out": str(tmp_path / "from_config.jsonl")}
    assert run_cli(["decode", "--config", write_config(tmp_path, config)]) == 0
    assert run_cli(["decode", "--model", model_files["grid"], "--drafter", model_files["grid_drafter"],
                    "--mode", "cascade", "--seeds", "0,3", "--tree", "2,1", "--len", "8",
                    "--out", tmp_path / "from_flags.jsonl"]) == 0
    per_seed, _ = read_metrics_jsonl(tmp_path / "from_config.jsonl")
    assert [seed for seed, _ in per_seed] == [0, 3]
    assert (tmp_path / "from_config.jsonl").read_bytes() == (tmp_path / "from_flags.jsonl").read_bytes()


@pytest.fixture(scope="module")
def tabular_linear_files(tmp_path_factory, tabular_v4):
    """The V=4 tabular target and a linear drafter trained on it, whose grid is 8x8."""
    drafter = train_drafter(tabular_v4, TrainConfig(epochs=2, num_sequences=2))
    assert drafter.grid_side == 8
    work = tmp_path_factory.mktemp("tabular-linear")
    save_model(tabular_v4, work / "tab.json")
    save_model(drafter, work / "linear.json")
    return tabular_v4, drafter, work / "tab.json", work / "linear.json"


def test_length_beyond_the_drafter_grid_is_refused(tmp_path, tabular_linear_files):
    target, drafter, target_path, drafter_path = tabular_linear_files
    with pytest.raises(ConfigError, match="drafter's 8x8 grid"):
        mc_distribution_test(target, drafter, "vanilla", 10, 70)
    cfg = ExperimentConfig(
        model_path=str(target_path), drafter_path=str(drafter_path), mode="vanilla",
        seeds=(0,), length=65, metrics_path=str(tmp_path / "m.jsonl"),
    )
    with pytest.raises(ConfigError, match="drafter's 8x8 grid"):
        run_experiment(cfg)
    assert not (tmp_path / "m.jsonl").exists()
    assert run_experiment(replace(cfg, length=64)).tokens_emitted == 64


@pytest.mark.parametrize("length", ["70", "100"])
def test_cli_length_beyond_the_drafter_grid_exits_2(tmp_path, tabular_linear_files, capsys, length):
    _, _, target_path, drafter_path = tabular_linear_files
    code = run_cli(["decode", "--model", target_path, "--drafter", drafter_path, "--mode", "vanilla",
                    "--len", length, "--out", tmp_path / "m.jsonl"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "drafter's 8x8 grid" in err
    assert not (tmp_path / "m.jsonl").exists()


# Each bad decode, as a target, a drafter shape (None for no drafter), a mode and a
# length, with the message every entry point gives for it.
BAD_DECODES = {
    "vocabulary": (lambda: random_tabular_model(4, 1, seed=11), (32, 8), "vanilla", 4,
                   "drafter vocabulary 32 != target vocabulary 4"),
    "grid-side": (GridWorldModel.default, (32, 4), "vanilla", 4, "drafter grid side 4 != target grid side 8"),
    "length-below-1": (lambda: random_tabular_model(4, 1, seed=11), (4, 8), "vanilla", 0,
                       "sequence length must be at least 1, got 0"),
    "past-the-target-grid": (GridWorldModel.default, (32, 8), "vanilla", 65, "length 65 exceeds the 8x8 grid"),
    # A grid-less target: 10 tokens lie on a 4x4 grid, past the drafter's own 3x3 one.
    "past-the-drafter-grid": (lambda: random_tabular_model(4, 1, seed=11), (4, 3), "vanilla", 10,
                              "length 10 exceeds the drafter's 3x3 grid"),
    "unknown-mode": (lambda: random_tabular_model(4, 1, seed=11), (4, 8), "bogus", 4,
                     "mode must be one of ('ar', 'vanilla', 'cascade'), got 'bogus'"),
    "no-drafter": (lambda: random_tabular_model(4, 1, seed=11), None, "vanilla", 4,
                   "mode 'vanilla' requires a drafter"),
    # 5 tokens on a 2x2 grid.
    "enumeration-off-grid": (small_gridworld, (8, 2), "ar", 5, "length 5 exceeds the 2x2 grid"),
}
# `ExperimentConfig` refuses these itself, before any file is read, in words of its own.
CONFIG_REFUSED = {"unknown-mode", "no-drafter"}


@pytest.mark.parametrize("case", sorted(BAD_DECODES))
def test_every_entry_point_refuses_a_bad_decode_with_one_message(tmp_path, monkeypatch, case):
    make_target, shape, mode, length, message = BAD_DECODES[case]
    target = make_target()
    drafter = None if shape is None else LinearDrafter.zeros(*shape)
    messages = []
    streams = [RngStream(0), RngStream(1)]
    with pytest.raises(ConfigError) as refused:
        decode_lanes(target, drafter, mode, TreeMask((2, 1)), RelaxConfig(), length, streams)
    messages.append(str(refused.value))
    assert [rng.counter for rng in streams] == [0, 0]

    if case not in CONFIG_REFUSED:
        save_model(target, tmp_path / "target.json")
        save_model(drafter, tmp_path / "drafter.json")
        cfg = ExperimentConfig(model_path=str(tmp_path / "target.json"), drafter_path=str(tmp_path / "drafter.json"),
                               mode=mode, seeds=(0,), length=length, metrics_path=str(tmp_path / "m.jsonl"))
        with pytest.raises(ConfigError) as refused:
            run_experiment(cfg)
        messages.append(str(refused.value))
        assert not (tmp_path / "m.jsonl").exists()

    with pytest.raises(ConfigError) as refused:
        exact_sequence_law(target, drafter, mode, TreeMask((2, 1)), RelaxConfig(), length)
    messages.append(str(refused.value))

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the oracle enumerated a refused decode")

    monkeypatch.setattr(harness, "exact_sequence_law", no_enumeration)
    with pytest.raises(ConfigError) as refused:
        mc_distribution_test(target, drafter, mode, 10, length)
    messages.append(str(refused.value))
    assert messages == [message] * len(messages)


def test_run_experiment_writes_each_block_as_it_ends(monkeypatch, tmp_path, model_files):
    events = []
    decode, dump = harness.decode_lanes, harness._dump_line

    def logged_decode(*args, **kwargs):
        events.append(("decode", len(args[6])))
        return decode(*args, **kwargs)

    def logged_dump(out, record):
        events.append(("record", record.get("seed", "aggregate")))
        dump(out, record)

    monkeypatch.setattr(harness, "decode_lanes", logged_decode)
    monkeypatch.setattr(harness, "_dump_line", logged_dump)
    monkeypatch.setattr(harness, "LANE_BLOCK", 2)
    cfg = ExperimentConfig(model_path=str(model_files["grid"]), mode="ar", seeds=(5, 6, 7), length=4,
                           metrics_path=str(tmp_path / "m.jsonl"))
    run_experiment(cfg)
    assert events == [("decode", 2), ("record", 5), ("record", 6), ("decode", 1), ("record", 7),
                      ("record", "aggregate")]


def test_a_decode_that_fails_in_a_later_block_leaves_no_output(monkeypatch, tmp_path, model_files):
    calls = []
    decode = harness.decode_lanes

    def failing_decode(*args, **kwargs):
        calls.append(len(args[6]))
        if len(calls) == 2:
            raise ConfigError("the second block fails")
        return decode(*args, **kwargs)

    monkeypatch.setattr(harness, "decode_lanes", failing_decode)
    monkeypatch.setattr(harness, "LANE_BLOCK", 2)
    out = tmp_path / "out"
    out.mkdir()
    cfg = ExperimentConfig(model_path=str(model_files["grid"]), drafter_path=str(model_files["grid_drafter"]),
                           mode="vanilla", seeds=(0, 1, 2), metrics_path=str(out / "m.jsonl"),
                           trace_path=str(out / "t.jsonl"), heatmap_path=str(out / "h.csv"))
    with pytest.raises(ConfigError, match="the second block fails"):
        run_experiment(cfg)
    assert calls == [2, 1] and list(out.iterdir()) == []
