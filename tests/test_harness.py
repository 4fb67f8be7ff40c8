from __future__ import annotations

import csv
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from specrelax import (
    ConfigError,
    ExperimentConfig,
    GridWorldModel,
    LinearDrafter,
    Metrics,
    RelaxConfig,
    RngStream,
    RowOutOfRange,
    TabularModel,
    TrainConfig,
    TreeMask,
    decode_lanes,
    decode_sequence,
    decode_with_metrics,
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
from specrelax.harness import read_metrics_jsonl
from specrelax.tree import STOCHASTIC, TOPK

from conftest import make_tabular_v2


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


def test_heatmap_csv_matches_matrix(tmp_path, gridworld):
    tokens, _ = decode_sequence(
        gridworld, None, "ar", TreeMask.chain(1), RelaxConfig(), 64, RngStream(0)
    )
    path = tmp_path / "hm.csv"
    matrix = export_similarity_heatmap(gridworld, tokens, [1], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["pos"] + [str(8 + c) for c in range(8)]
    parsed = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    assert np.array_equal(parsed, matrix)


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
    rows = list(csv.reader(heatmap.open(encoding="utf-8")))
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
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


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
