"""The benchmark's tracer (bench/tracer.py) must keep working against the engine.

The tracer rebinds module globals and model methods of specrelax and reads
result attributes (`len(tree.nodes)`, the similarity sets' pair sets, each
outcome's trace decisions and consumed budget). It runs in a subprocess,
because installing it patches the package for the rest of the process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
from tracer import Tracer

tracer = Tracer()
tracer.install()
from specrelax import GridWorldModel, LinearDrafter, RelaxConfig, RngStream, TreeMask, harness

target, drafter = GridWorldModel.default(), LinearDrafter.zeros(32, 8)
counts = {}
for mode in ("cascade", "vanilla"):
    tracer.reset()
    harness.decode_with_metrics(
        target, drafter, mode, TreeMask.default(), RelaxConfig(), 16, RngStream(3)
    )
    layers = tracer.layer_metrics(1, 0.0, 1.0)
    counts[mode] = {key: layers[key] for key in
                    ("tree.nodes", "verify.calls", "verify.build_sets.pairs", "verify.decisions",
                     "models.drafter_calls", "models.target_evals")}
print(json.dumps(counts))
"""


def test_tracer_installs_and_counts_a_cascade_and_a_vanilla_decode():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    for mode in ("cascade", "vanilla"):
        assert counts[mode]["tree.nodes"] > 0
        assert counts[mode]["verify.calls"] > 0
        assert counts[mode]["verify.decisions"] > 0
        # The tracer counts model calls by rebinding `distribution` and
        # `evaluate` on the model classes; a lookup moved elsewhere reads 0.
        assert counts[mode]["models.drafter_calls"] > 0
        assert counts[mode]["models.target_evals"] > 0
    assert counts["cascade"]["verify.build_sets.pairs"] > 0
    assert counts["vanilla"]["verify.build_sets.pairs"] == 0


EXPERIMENT_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
from tracer import Tracer

tracer = Tracer()
tracer.install()
from pathlib import Path
from specrelax import ExperimentConfig, GridWorldModel, LinearDrafter, TreeMask, harness, save_model

work = Path(sys.argv[2])
save_model(GridWorldModel.default(), work / "grid.json")
save_model(LinearDrafter.zeros(32, 8), work / "drafter.json")
tracer.reset()
harness.run_experiment(ExperimentConfig(
    model_path=str(work / "grid.json"), drafter_path=str(work / "drafter.json"), mode=sys.argv[3],
    seeds=(0, 1, 2, 3), mask=TreeMask.default(), length=32, metrics_path=str(work / "metrics.jsonl"),
))
per_seed, _ = harness.read_metrics_jsonl(work / "metrics.jsonl")
layers = tracer.layer_metrics(1, 0.0, 1.0)
print(json.dumps({"target_calls": sum(m.target_calls for _, m in per_seed), **layers}))
"""


@pytest.mark.parametrize("mode", ["cascade", "vanilla"])
def test_tracer_counts_a_four_seed_experiment_decoded_as_lanes(mode, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", EXPERIMENT_SCRIPT, str(ROOT), str(tmp_path), mode],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    # One traced verification call per lane and cycle: every target pass of every seed.
    assert counts["verify.calls"] == counts["target_calls"] > 0
    if mode == "cascade":
        assert counts["verify.build_sets.pairs"] > 0
    else:
        assert counts["verify.build_sets.pairs"] == 0
    assert counts["tree.nodes"] > 0
    assert counts["models.drafter_calls"] > 0


LANES_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
from tracer import Tracer

tracer = Tracer()
tracer.install()
from specrelax import RelaxConfig, TreeMask, decode_lanes, random_tabular_model, tempered_table_drafter
from specrelax.core import derive_streams

target = random_tabular_model(4, 1, seed=11)
drafter = tempered_table_drafter(target)
emitted = {}

def record(lane, cycle, outcome):
    emitted[lane, cycle] = outcome.emitted_tokens

tracer.reset()
decode_lanes(
    target, drafter, "vanilla", TreeMask.chain(3), RelaxConfig(), 3, derive_streams(5, 0, 64),
    candidate_mode="stochastic", on_outcome=record,
)
layers = tracer.layer_metrics(1, 0.0, 1.0)
# Rebuild every live lane's prefix, cycle by cycle, from what each cycle emitted.
prefixes, lane_cycles, distinct = [()] * 64, 0, 0
for cycle in range(max(c for _, c in emitted) + 1):
    live = [lane for lane in range(64) if (lane, cycle) in emitted]
    lane_cycles += len(live)
    distinct += len({prefixes[lane] for lane in live})
    for lane in live:
        prefixes[lane] += tuple(emitted[lane, cycle])
print(json.dumps({"lane_cycles": lane_cycles, "distinct": distinct, **layers}))
"""


def test_tracer_counts_one_root_call_per_distinct_prefix_and_cycle():
    proc = subprocess.run(
        [sys.executable, "-c", LANES_SCRIPT, str(ROOT)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    # 64 lanes decoding 3-token chains share most prefixes: per-lane root calls would count lane_cycles.
    assert counts["distinct"] < counts["lane_cycles"] / 4
    assert counts["models.drafter_calls"] == counts["distinct"]
    assert counts["models.target_evals"] == counts["distinct"]
