"""Experiment harness: metrics, seeded runs, exact laws and distribution oracles, heatmap export.

Speedup is a call-count cost model, not wall clock: emitted tokens divided by
(target passes + kappa * drafter passes), normalized so plain autoregressive
decoding scores exactly 1.0.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import stat
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .core import (
    PROB_ATOL,
    ConfigError,
    InvalidValue,
    RngStream,
    RowOutOfRange,
    TokenId,
    TooLarge,
    _check_seed,
    _pair_cosines,
    _residual_rows,
    derive_streams,
)
from .models import ENUMERATION_GUARD, Drafter, Target, _OutputFiles, _decode_side, load_model
from .tree import CANDIDATE_MODES, STOCHASTIC, TOPK, DraftTree, TreeMask, sample_draft_tree
from .verify import (
    AR, CASCADE, MODES, DecodeStats, RelaxConfig, TreeEvals, _check_decode, _decode_cycles, decode_lanes,
    decode_sequence, evaluate_tree,
)

DEFAULT_KAPPA = 0.1
# Sequences decoded in lockstep at a time, by `run_experiment` (seeds) and
# `mc_distribution_test` (samples); with outputs written block by block, it
# bounds a decode's memory.
LANE_BLOCK = 512


# Metrics field -> JSONL key; every record conversion derives from this table.
_METRIC_KEYS = (
    ("mean_alpha", "meanAlpha"),
    ("target_calls", "targetCalls"),
    ("drafter_calls", "drafterCalls"),
    ("speedup_proxy", "speedupProxy"),
    ("accumulated_tvd", "accumulatedTVD"),
    ("per_token_tvd", "perTokenTVD"),
    ("tokens_emitted", "tokensEmitted"),
)


@dataclass(frozen=True)
class Metrics:
    """Acceptance and cost summary for one decode (or a mean over seeds)."""

    mean_alpha: float
    target_calls: float
    drafter_calls: float
    speedup_proxy: float
    accumulated_tvd: float
    per_token_tvd: float
    tokens_emitted: float

    def to_record(self) -> dict:
        return {key: getattr(self, name) for name, key in _METRIC_KEYS}

    @classmethod
    def from_record(cls, record: dict) -> "Metrics":
        return cls(**{name: record[key] for name, key in _METRIC_KEYS})

    @classmethod
    def aggregate(cls, per_seed: Iterable["Metrics"]) -> "Metrics":
        """The field-wise mean, in one pass over `per_seed`."""
        # Each sum is a left-to-right fold from int 0, as Python 3.11's `sum`: from 3.12 on `sum`
        # compensates float rounding, so the record's bytes would depend on the interpreter.
        n, sums = 0, [0] * len(_METRIC_KEYS)
        for metrics in per_seed:
            n += 1
            sums = [total + getattr(metrics, name) for total, (name, _) in zip(sums, _METRIC_KEYS)]
        if not n:
            raise InvalidValue("cannot aggregate zero runs")
        return cls(**{name: total / n for total, (name, _) in zip(sums, _METRIC_KEYS)})


def _check_kappa(kappa: float) -> None:
    """Raise ConfigError unless the drafter cost ratio is finite and non-negative."""
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise ConfigError(f"kappa must be finite and non-negative, got {kappa!r}")


def _metrics(mode: str, stats: DecodeStats, kappa: float) -> Metrics:
    """Summarize one decode's counters; `ar` scores mean alpha 1.0 and speedup 1.0 by convention."""
    if mode == AR:
        return Metrics(1.0, stats.target_calls, 0, 1.0, 0.0, 0.0, stats.tokens_emitted)
    cost = stats.target_calls + kappa * stats.drafter_calls
    return Metrics(
        stats.accepted_draft_tokens / stats.verify_calls,
        stats.target_calls,
        stats.drafter_calls,
        stats.tokens_emitted / cost,
        stats.accumulated_tvd,
        stats.accumulated_tvd / stats.tokens_emitted,
        stats.tokens_emitted,
    )


def decode_with_metrics(
    target: Target,
    drafter: Drafter | None,
    mode: str,
    mask: TreeMask,
    cfg: RelaxConfig,
    length: int,
    rng: RngStream,
    kappa: float = DEFAULT_KAPPA,
    candidate_mode: str = TOPK,
    on_outcome=None,
) -> tuple[list[TokenId], Metrics]:
    """Decode one sequence and summarize its counters as Metrics.

    Autoregressive decodes score mean alpha 1.0 and speedup 1.0 by convention.
    """
    _check_kappa(kappa)
    tokens, stats = decode_sequence(
        target, drafter, mode, mask, cfg, length, rng,
        candidate_mode=candidate_mode, on_outcome=on_outcome,
    )
    return tokens, _metrics(mode, stats, kappa)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one `decode` invocation needs, file paths included."""

    model_path: str
    mode: str
    seeds: tuple[int, ...]
    drafter_path: str | None = None
    mask: TreeMask = field(default_factory=TreeMask.default)
    relax: RelaxConfig = field(default_factory=RelaxConfig)
    length: int | None = None
    kappa: float = DEFAULT_KAPPA
    candidate_mode: str = TOPK
    metrics_path: str | None = None
    trace_path: str | None = None
    heatmap_path: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        _check_seed(min(self.seeds))
        _check_seed(max(self.seeds))
        if self.candidate_mode not in CANDIDATE_MODES:
            raise ConfigError(f"unknown candidate mode {self.candidate_mode!r}")
        _check_kappa(self.kappa)
        if not Path(self.model_path).exists():
            raise ConfigError(f"model file not found: {self.model_path}")
        if self.mode != AR and self.drafter_path is None:
            raise ConfigError(f"mode {self.mode!r} requires --drafter")
        if self.drafter_path is not None and not Path(self.drafter_path).exists():
            raise ConfigError(f"drafter file not found: {self.drafter_path}")
        for path in (self.metrics_path, self.trace_path, self.heatmap_path):
            if path is not None:
                check_output_path(path)
        _check_distinct_paths(
            {"--model": self.model_path, "--drafter": self.drafter_path},
            {"--out": self.metrics_path, "--trace": self.trace_path, "--heatmap": self.heatmap_path},
        )


def check_output_path(path: str | Path) -> None:
    """Raise ConfigError unless a file can be created at `path`: its directory exists and it is none."""
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"output path {str(path)!r} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"output path {str(path)!r} is in a directory that does not exist")


def _file_key(path: str | Path) -> tuple[int, int] | str | None:
    """What identifies the file at `path` when paths are compared.

    That is its device and inode, or its resolved path if it does not exist
    yet; None for a device or any other file that is not a regular file.
    """
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def _check_distinct_paths(
    inputs: dict[str, str | Path | None], outputs: dict[str, str | Path | None]
) -> None:
    """Raise ConfigError when an output names the same file as an input or an earlier output.

    Both maps go from flag to path, and a None path is absent. A symlink or a
    hard link names the file it leads to. A device such as /dev/null may be
    named more than once: writing it destroys nothing.
    """
    seen: dict = {}
    for flag, path in inputs.items():
        if path is not None:
            seen.setdefault(_file_key(path), (flag, path))
    for flag, path in outputs.items():
        key = None if path is None else _file_key(path)
        if key is None:
            continue
        if key in seen:
            other_flag, other = seen[key]
            raise ConfigError(f"{flag} {path} names the same file as {other_flag} {other}")
        seen[key] = (flag, path)


def load_target(path: str | Path) -> Target:
    """Load a model file that must hold a target; refuse any other kind before work is done."""
    model = load_model(path)
    if not isinstance(model, Target):
        raise ConfigError(f"{path} holds a {model.kind!r} model, which cannot serve as the target")
    return model


# `json.dumps(record, sort_keys=True)` would build a new encoder for every line.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True)


def _dump_line(out: TextIO, record: dict) -> None:
    out.write(_LINE_ENCODER.encode(record) + "\n")


def run_experiment(cfg: ExperimentConfig) -> Metrics:
    """Decode one sequence per seed, write JSONL records, return the seed mean.

    The seeds are decoded as lanes, LANE_BLOCK at a time, and each block's
    records and trace lines are written as it ends: a decode holds one
    block, the first seed's tokens (for the heatmap) and the mean's running
    sums. The outputs appear together, once the last is written.
    """
    target = load_target(cfg.model_path)
    drafter = load_model(cfg.drafter_path) if cfg.drafter_path else None
    length = cfg.length
    if length is None:
        if target.grid_side is None:
            raise ConfigError("a sequence length is required for non-grid models")
        length = target.grid_side * target.grid_side
    side = _check_decode(target, drafter, cfg.mode, cfg.candidate_mode, length)
    if cfg.heatmap_path is not None and length != side * side:
        raise ConfigError(
            f"the heatmap covers every row of the {side}x{side} grid, so it needs length {side * side}, "
            f"got {length}"
        )
    first: list[TokenId] = []

    def decoded(metrics_out: TextIO | None, trace_out: TextIO | None) -> Iterator[Metrics]:
        """Each seed's Metrics, in seed order; a block's records and trace lines are written as it ends."""
        for lo in range(0, len(cfg.seeds), LANE_BLOCK):
            seeds = cfg.seeds[lo : lo + LANE_BLOCK]
            # Each lane's trace lines are kept apart, so that the file lists them seed by seed, cycle by cycle.
            traces: list[list[str]] = [[] for _ in seeds]
            sink = None
            if trace_out is not None:
                def sink(lane: int, cycle: int, outcome) -> None:
                    traces[lane].extend(outcome.trace_lines(seeds[lane], cycle))
            results = decode_lanes(
                target, drafter, cfg.mode, cfg.mask, cfg.relax, length,
                [RngStream(seed) for seed in seeds], candidate_mode=cfg.candidate_mode, on_outcome=sink,
            )
            if lo == 0:
                first.extend(results[0][0])
            per_seed = [_metrics(cfg.mode, stats, cfg.kappa) for _, stats in results]
            if metrics_out is not None:
                for seed, metrics in zip(seeds, per_seed):
                    _dump_line(metrics_out, {"seed": seed, **metrics.to_record()})
            if trace_out is not None:
                for lines in traces:
                    trace_out.writelines(lines)
            yield from per_seed

    with _OutputFiles() as outputs:
        with contextlib.ExitStack() as files:
            metrics_out, trace_out = (
                None if path is None else files.enter_context(outputs.open(path))
                for path in (cfg.metrics_path, cfg.trace_path)
            )
            aggregate = Metrics.aggregate(decoded(metrics_out, trace_out))
            if metrics_out is not None:
                _dump_line(metrics_out, {"aggregate": True, **aggregate.to_record()})
        if cfg.heatmap_path is not None:
            # Written last: its own rename follows every other write.
            export_similarity_heatmap(target, first, range(side), cfg.heatmap_path)
    return aggregate


def read_metrics_jsonl(path: str | Path) -> tuple[list[tuple[int, Metrics]], Metrics]:
    """Parse a metrics JSONL file back into (per-seed, aggregate)."""
    per_seed: list[tuple[int, Metrics]] = []
    aggregate: Metrics | None = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("aggregate"):
            aggregate = Metrics.from_record(record)
        else:
            per_seed.append((record["seed"], Metrics.from_record(record)))
    if aggregate is None:
        raise ConfigError(f"{path} has no aggregate record")
    return per_seed, aggregate


Law = dict[tuple[TokenId, ...], float]


def _power_exceeds_guard(base: int, exponent: int) -> bool:
    """Whether base**exponent > ENUMERATION_GUARD, with no huge power: `bit_length` factors of 2 exceed it."""
    return base > 1 and base ** min(exponent, ENUMERATION_GUARD.bit_length()) > ENUMERATION_GUARD


def exact_call_law(tree: DraftTree, evals: TreeEvals, cfg: RelaxConfig | None) -> Law:
    """The exact law of the tokens one verification call over lane 0 of `tree` emits, uniforms integrated out.

    A candidate passes with min(1, q'/p), q' its level law's mass plus, under
    `cfg` (None is `vanilla`), its similar siblings' then its aligned
    children's masses (each token once, each set whole while it fits the
    budget left); if all fail, the residual of the level's law and drafter row
    emits a token. It reads the forest's arrays, `_pair_cosines` and
    `_residual_rows`, never `build_sets`, `relax_q` or the walk it checks.
    """
    tokens, probs, children, mass = tree.tokens, tree.probs, tree.children, evals.laws.mass
    cfg = cfg or RelaxConfig(tau_pos=1.01, tau_seq=1.01, tvd_budget=0.0)  # `vanilla`: both sets off, no budget
    law: Law = {}

    def similar(a: int, b: int, tau: float) -> bool:
        return tau <= 1.0 and _pair_cosines(evals.features, evals.norms, np.array([a]), np.array([b]))[0] >= tau

    def walk(siblings: range, p_row: int, emitted: tuple[TokenId, ...], used: float, weight: float) -> None:
        if weight <= 0.0:
            return
        if not siblings:  # past the lane's deepest level, or a correction
            law[emitted] = law.get(emitted, 0.0) + weight
            return
        q_row = mass[evals.law[siblings[0]]]
        q = q_row.tolist()
        for node in siblings:
            lent_i = [tokens[other] for other in siblings if other != node and similar(node, other, cfg.tau_pos)]
            seen = {tokens[node], *lent_i}
            hits = dict.fromkeys(tokens[child] for child in children[node] if similar(node, child, cfg.tau_seq))
            mass_i, mass_c = math.fsum([q[t] for t in lent_i]), math.fsum([q[t] for t in hits if t not in seen])
            left = cfg.tvd_budget - used
            boost = mass_i if mass_i <= left + PROB_ATOL else 0.0
            boost += mass_c if mass_c <= left - boost + PROB_ATOL else 0.0
            used += boost
            threshold = min(1.0, min(q[tokens[node]] + boost, 1.0) / probs[node])
            walk(children[node], int(tree.cond_row[node]), emitted + (tokens[node],), used, weight * threshold)
            weight *= 1.0 - threshold
        if weight > 0.0:
            residual = _residual_rows(q_row[None], tree.draft_table[p_row][None])[0][0]
            for token in np.flatnonzero(residual).tolist():  # each ends the call
                walk(range(0), p_row, emitted + (token,), used, weight * float(residual[token]))

    starts = tree.level_starts[0]
    walk(range(starts[0], starts[1]), tree.root_row + tree.root_index[0], (), 0.0, 1.0)
    return law


def exact_sequence_law(
    target: Target, drafter: Drafter | None, mode: str, mask: TreeMask, cfg: RelaxConfig, length: int
) -> Law:
    """The exact law of the `length` tokens a top-k decode emits: one dynamic program over prefixes, by length.

    A prefix's probability spreads over its call's law: for `ar` the target's
    next-token law, else `exact_call_law` of the top-k forest `decode_lanes`
    drafts for it. A decode `_check_decode` refuses raises ConfigError before
    any model call, and V^L > 10^6 TooLarge: a bound on keys, not time (at
    its edge, V=2 and 19 tokens, width-1 drafting walks 524,287 forests in 37 s)."""
    _check_decode(target, drafter, mode, TOPK, length)
    vocab = getattr(target, "vocab")
    if _power_exceeds_guard(vocab, length):
        raise TooLarge(f"{vocab}^{length} sequences exceed enumeration guard")
    unused, singles = RngStream(0), [(token,) for token in range(vocab)]
    by_length: list[Law] = [{(): 1.0}] + [{} for _ in range(length)]
    for reached in by_length[:length]:
        for prefix, prob in reached.items():
            if mode == AR:
                call = zip(singles, target.evaluate(prefix).dist)
            else:
                tree = sample_draft_tree(drafter, [prefix], mask, [min(mask.depth, length - len(prefix))], [unused])
                call = exact_call_law(tree, evaluate_tree(target, tree), cfg if mode == CASCADE else None).items()
            for emitted, p in call:
                key, longer = prefix + emitted, by_length[len(prefix) + len(emitted)]
                longer[key] = longer.get(key, 0.0) + prob * p
    return by_length[length]


def law_tvd(exact: Law, other: Law) -> float:
    """Total-variation distance: over `exact`'s keys in order, then `other`'s keys that `exact` lacks."""
    distance = 0.0
    for key, prob in exact.items():
        distance += abs(other.get(key, 0.0) - prob)
    for key, prob in other.items():
        if key not in exact:
            distance += prob
    return 0.5 * distance


def mc_distribution_test(
    target: Target,
    drafter: Drafter | None,
    mode: str,
    samples: int,
    length: int,
    mask: TreeMask | None = None,
    relax: RelaxConfig | None = None,
    base_seed: int = 0,
) -> tuple[float, bool]:
    """Empirical sequence law over `samples` seeded decodes versus the target's exact law.

    Draft candidates are sampled (not ranked) here, since the exactness claim
    concerns proposals drawn from the drafter; the exact law is the `ar` case
    of `exact_sequence_law`. Sample i decodes on `RngStream(derive_seed(base_seed, i))`,
    LANE_BLOCK lanes at a time from one `derive_streams` pass. The pass flag
    applies the 3 * sqrt(V^length / samples) multinomial bound to the
    `law_tvd` distance; stricter caps are the caller's business.
    """
    if samples < 1:
        raise ConfigError(f"at least one sample is required, got {samples}")
    _check_seed(base_seed)
    _check_decode(target, drafter, mode, STOCHASTIC, length)
    mask = mask if mask is not None else TreeMask.chain(length)
    relax = relax if relax is not None else RelaxConfig()
    oracle = exact_sequence_law(target, None, AR, mask, relax, length)
    vocab = getattr(target, "vocab")
    # A sequence is counted as its base-V integer (under the guard's 10^6), in order of first sight.
    place = vocab ** np.arange(length - 1, -1, -1)
    counts: dict[int, int] = {}
    for lo in range(0, samples, LANE_BLOCK):
        rngs = derive_streams(base_seed, lo, min(lo + LANE_BLOCK, samples))
        lanes, _ = _decode_cycles(target, drafter, mode, mask, relax, length, rngs, STOCHASTIC, None)
        tokens = np.fromiter(chain.from_iterable(lanes), np.int64, len(lanes) * length)
        keys, first, seen = np.unique(tokens.reshape(-1, length) @ place, return_index=True, return_counts=True)
        order = np.argsort(first, kind="stable")
        for key, n in zip(keys[order].tolist(), seen[order].tolist()):
            counts[key] = counts.get(key, 0) + n
    digits = (np.array(list(counts))[:, None] // place % vocab).tolist()
    distance = law_tvd(oracle, {tuple(key): n / samples for key, n in zip(digits, counts.values())})
    bound = 3.0 * math.sqrt(vocab**length / samples)
    return distance, distance <= bound


def export_similarity_heatmap(
    target: Target,
    tokens: Sequence[TokenId],
    rows: Sequence[int],
    path: str | Path,
) -> np.ndarray:
    """Pairwise cosine matrix over the per-step features of the requested grid rows.

    Only the printed positions are evaluated, and every pair `i <= j` goes
    through one `_pair_cosines` call. Writes a CSV with one header line and
    one line per position; an empty row selection produces the header alone.
    """
    side = _decode_side(target, len(tokens))
    for row in rows:
        if not 0 <= row < side:
            raise RowOutOfRange(f"row {row} outside grid of side {side}")
    positions = [row * side + col for row in rows for col in range(side)]
    if any(p >= len(tokens) for p in positions):
        raise RowOutOfRange("requested rows extend past the decoded sequence")
    feats = [target.evaluate(tokens[:p]).feature for p in positions]
    n = len(positions)
    matrix = np.empty((n, n))
    if n:
        first, second = np.triu_indices(n)
        values, norms = np.stack([f.values for f in feats]), np.array([f.norm for f in feats])
        matrix[first, second] = matrix[second, first] = _pair_cosines(values, norms, first, second)
    with _OutputFiles() as outputs, outputs.open(path, newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["pos"] + [str(p) for p in positions])
        for i, pi in enumerate(positions):
            writer.writerow([str(pi)] + [repr(v) for v in matrix[i].tolist()])
    return matrix
