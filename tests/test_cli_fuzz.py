"""Fuzzed CLI argv: every invocation ends in exit 0, 1 (a failed oracle) or 2, never a traceback.

Each drawn argv is a working invocation with up to three flags overridden
from small pools that mix good values with NaN, infinities, empty strings,
huge numbers, model files in the wrong role, missing files and unwritable
output paths. Lengths, sample counts, epochs and rollouts stay tiny, so
every drawn run is cheap.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from specrelax import (
    GridWorldModel,
    LinearDrafter,
    random_tabular_model,
    save_model,
    tempered_table_drafter,
)
from specrelax.cli import main as cli_main

FLOATS = ["nan", "inf", "-inf", "1e308", "-1e308", "", "abc", "-1", "0", "0.5", "1", "2"]
MODELS = ["{grid}", "{tab}", "{grid_drafter}", "{tab_drafter}", "{missing}", "{dir}", "{garbage}",
          "{unknown_kind}", "{empty_grid_drafter}", "{negative_grid_drafter}", "{tab_overflow}",
          "{grid_overflow}"]
OUTS = ["{out}", "{out2}", "{missing}", "{missing_dir_file}", "{dir}", ""]
CONFIGS = ["{missing}", "{dir}", "{garbage}", "{config_list}", "{config_bad_len}", "{config_budget}",
           "{config_ok}"]
SEEDS = ["0", "0..2", "", "1..x", "-3", "2,0", "0..-5", "99999999999999999999"]
TREES = ["1", "4,2,2,1,1", "2,2", "", "0", "8,8,8", "nan", ",".join(["1"] * 16)]
MODES = ["ar", "vanilla", "cascade", "bogus"]

# Per command: working invocations to start from. Each passes the flags
# whose defaults would make a run long (oracle's `--len` and `--samples`,
# train's `--epochs` and `--sequences`), and the pools below override them
# with tiny values only.
BASES = {
    "decode": [
        ["--model", "{grid}", "--drafter", "{grid_drafter}", "--out", "{out}"],
        ["--model", "{tab}", "--drafter", "{tab_drafter}", "--len", "4", "--out", "{out}"],
    ],
    "oracle": [
        ["--model", "{tab}", "--len", "2", "--samples", "10"],
        ["--model", "{grid}", "--drafter", "{grid_drafter}", "--len", "1", "--samples", "10"],
    ],
    "train": [["--model", "{grid}", "--epochs", "1", "--sequences", "1", "--out", "{out}"]],
    "make-model": [
        ["--family", "gridworld", "--out", "{out}"],
        ["--family", "tabular", "--out", "{out}"],
        ["--family", "tempered-drafter", "--from", "{tab}", "--out", "{out}"],
    ],
}

# Per command: every flag the fuzz may override, with its pool of values.
FLAGS = {
    "decode": {
        "--config": CONFIGS, "--model": MODELS, "--drafter": MODELS, "--mode": MODES, "--tree": TREES,
        "--seeds": SEEDS, "--len": ["", "nan", "-1", "0", "1", "3", "4", "9", "64", "65"],
        "--kappa": FLOATS, "--candidates": ["topk", "stochastic", "bogus"], "--out": OUTS,
        "--trace": OUTS, "--heatmap": OUTS, "--tau-pos": FLOATS, "--tau-seq": FLOATS,
        "--tvd-budget": FLOATS,
    },
    "oracle": {
        "--config": CONFIGS, "--model": MODELS, "--drafter": MODELS, "--mode": MODES, "--tree": TREES,
        "--len": ["-1", "0", "1", "2", "3", "nan"], "--samples": ["0", "1", "10", "-1", "", "nan"],
        "--seed": ["0", "-1", "", "99999999999999999999"], "--tau-pos": FLOATS, "--tau-seq": FLOATS,
        "--tvd-budget": FLOATS,
    },
    "train": {
        "--config": CONFIGS, "--model": MODELS, "--c": FLOATS, "--tau-seq-train": FLOATS, "--lr": FLOATS,
        "--epochs": ["0", "1", "2", "-1", ""], "--sequences": ["0", "1", "2", "-1"],
        "--seed": ["0", "-1", "", "99999999999999999999"], "--hard-ce-weight": FLOATS, "--out": OUTS,
    },
    "make-model": {
        "--family": ["gridworld", "tabular", "tempered-drafter", "bogus"], "--out": OUTS,
        "--vocab": ["0", "1", "4", "-1", "", "nan", "10000001"],
        "--order": ["0", "1", "2", "-1", "99999999999999999999"], "--h": ["0", "1", "4", "-1", ""],
        "--seed": ["0", "-1", "", "99999999999999999999"], "--jitter": FLOATS, "--from": MODELS,
        "--exponent": FLOATS,
    },
}


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command, *draw(st.sampled_from(BASES[command]))]
    pool = FLAGS[command]
    # A later flag overrides an earlier one, as argparse reads them.
    for name in draw(st.lists(st.sampled_from(sorted(pool)), unique=True, max_size=3)):
        argv += [name, draw(st.sampled_from(pool[name]))]
    return argv


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict[str, str]:
    work = tmp_path_factory.mktemp("fuzz")
    target = random_tabular_model(4, 1, seed=11)
    save_model(GridWorldModel.default(), work / "grid.json")
    save_model(LinearDrafter.zeros(32, 8), work / "grid_drafter.json")
    save_model(target, work / "tab.json")
    save_model(tempered_table_drafter(target), work / "tab_drafter.json")
    # Linear drafters whose grid has no cell, written by hand since `LinearDrafter` refuses them.
    for name, side in (("empty_grid_drafter", 0), ("negative_grid_drafter", -1)):
        drafter = {"format_version": 1, "kind": "linear_drafter", "V": 4, "N": side,
                   "weights": [[0.0] * (4 + 2 * side)] * 4, "bias": [0.0] * 4}
        (work / f"{name}.json").write_text(json.dumps(drafter), encoding="utf-8")
    # Targets whose feature norms overflow: each tabular feature, or each gridworld cluster anchor, x 1e200.
    tab, grid = target.to_dict(), GridWorldModel.default().to_dict()
    tab["featureTable"] = {key: [x * 1e200 for x in row] for key, row in tab["featureTable"].items()}
    grid["clusterAnchors"] = [[x * 1e200 for x in row] for row in grid["clusterAnchors"]]
    (work / "tab_overflow.json").write_text(json.dumps(tab), encoding="utf-8")
    (work / "grid_overflow.json").write_text(json.dumps(grid), encoding="utf-8")
    (work / "garbage.json").write_text("{not json", encoding="utf-8")
    (work / "unknown_kind.json").write_text(json.dumps({"format_version": 1, "kind": "nope"}), encoding="utf-8")
    (work / "config_list.json").write_text("[1, 2]", encoding="utf-8")
    (work / "config_bad_len.json").write_text(json.dumps({"len": 8.7}), encoding="utf-8")
    (work / "config_budget.json").write_text(json.dumps({"tvd-budget": 5}), encoding="utf-8")
    (work / "config_ok.json").write_text(json.dumps({"seeds": [0, 1]}), encoding="utf-8")
    (work / "dir").mkdir()
    names = ["grid", "tab", "grid_drafter", "tab_drafter", "empty_grid_drafter", "negative_grid_drafter",
             "tab_overflow", "grid_overflow", "garbage", "unknown_kind", "config_list", "config_bad_len",
             "config_budget", "config_ok"]
    return {
        **{name: str(work / f"{name}.json") for name in names},
        "missing": str(work / "missing.json"),
        "missing_dir_file": str(work / "missing" / "out.json"),
        "dir": str(work / "dir"),
        "out": str(work / "out.jsonl"),
        "out2": str(work / "out2.jsonl"),
    }


def exit_code(argv: list[str]) -> int:
    """The CLI's exit code, whether `main` returns it or argparse exits with it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli_main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=argvs())
@example(argv=["decode", "--model", "{grid_drafter}", "--mode", "ar", "--len", "8", "--out", "{out}"])
@example(argv=["oracle", "--model", "{grid_drafter}", "--mode", "ar", "--len", "2", "--samples", "10"])
@example(argv=["train", "--model", "{tab_drafter}", "--model", "{grid_drafter}", "--out", "{out}",
               "--epochs", "1", "--sequences", "1"])
@example(argv=["decode", "--model", "{tab}", "--drafter", "{tab_drafter}", "--len", "3",
               "--out", "{missing_dir_file}"])
@example(argv=["decode", "--model", "{tab}", "--drafter", "{tab_drafter}", "--len", "3", "--out", "{out}",
               "--trace", "{dir}"])
@example(argv=["make-model", "--family", "tabular", "--out", "{missing_dir_file}"])
@example(argv=["decode", "--model", "{tab}", "--drafter", "{empty_grid_drafter}", "--len", "1", "--out", "{out}"])
@example(argv=["decode", "--model", "{tab_overflow}", "--mode", "ar", "--len", "4", "--out", "{out}"])
@example(argv=["decode", "--model", "{grid_overflow}", "--mode", "ar", "--len", "4", "--out", "{out}"])
def test_cli_argv_never_ends_in_a_traceback(paths, argv):
    code = exit_code([arg.format(**paths) for arg in argv])
    assert code in ((0, 1, 2) if argv[0] == "oracle" else (0, 2))
