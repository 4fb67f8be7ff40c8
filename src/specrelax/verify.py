"""Verification engines: speculative acceptance and its similarity relaxation.

The plain engine (`vanilla`) walks the draft tree level by level, accepting
a candidate when a uniform draw falls under min(1, q/p) and sampling the
residual correction on rejection. Its output is exactly target-distributed
only on width-1 chains with stochastic candidates; with top-k candidates or
wider trees `p` is not the candidate's proposal law, and exact tree
verification is an open item. The relaxed engine (`cascade`) additionally
transfers target mass from feature-similar sibling tokens and
feature-aligned child tokens onto the candidate, never exceeding a per-call
total-variation budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    ConfigError,
    DegenerateResidual,
    GridPos,
    NORM_FLOOR,
    PROB_ATOL,
    ProbDist,
    RngStream,
    TokenId,
    ZeroNormFeature,
    cosine_sim,  # noqa: F401  (bench/tracer.py counts scalar cosines through this name)
    residual_dist,
)
from .models import Drafter, Target, TargetEval
from .tree import CANDIDATE_MODES, ROOT, DraftTree, TOPK, TreeMask, forest_pairs, sample_draft_tree

AR = "ar"
VANILLA = "vanilla"
CASCADE = "cascade"
MODES = (AR, VANILLA, CASCADE)


@dataclass(frozen=True)
class RelaxConfig:
    """Thresholds and budget governing relaxed acceptance.

    Cosine thresholds are compared with >=; a threshold above 1 (1.01 at most)
    switches its set off. The budget is reset once per verification call and
    shared by all levels.
    """

    tau_pos: float = 0.85
    tau_seq: float = 0.5
    tvd_budget: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau_pos <= 1.01 or not 0.0 <= self.tau_seq <= 1.01:
            raise ConfigError("cosine thresholds must lie in [0, 1.01]")
        if not 0.0 <= self.tvd_budget <= 1.0:
            raise ConfigError("tvd budget must lie in [0, 1]")


class TreeEvals(NamedTuple):
    """One target pass over a draft forest.

    `roots[k]` evaluates lane k's prefix. Node i's conditional is `dists[i]`,
    its feature is row i of the read-only `(nodes, h)` array `features`, and
    `norms[i]` is that feature's own norm.
    """

    roots: list[TargetEval]
    dists: list[ProbDist]
    features: np.ndarray
    norms: np.ndarray


def evaluate_tree(target: Target, tree: DraftTree) -> TreeEvals:
    """One simulated parallel target pass: each distinct root prefix, then every node in one batch.

    Lanes that share a root prefix share its evaluation. Nodes one step past
    the grid end are evaluated at the final cell; only their features are
    ever consulted there.
    """
    side = tree.side
    # `sample_draft_tree` checked that every lane's cell is on the grid.
    distinct = [target.evaluate(p, GridPos(*divmod(len(p), side))) for p in tree.root_prefixes]
    roots = [distinct[g] for g in tree.root_index]
    return TreeEvals(roots, *target.evaluate_batch(tree.paths, side))


@dataclass(frozen=True)
class SimilaritySets:
    """Feature-similar pairs: sibling pairs per level, and parent-child links."""

    inter_pairs: dict[int, frozenset[tuple[int, int]]]
    conv_pairs: frozenset[tuple[int, int]]


def build_sets(tree: DraftTree, evals: TreeEvals, cfg: RelaxConfig) -> SimilaritySets:
    """Collect same-parent sibling pairs and parent-child links above threshold, in every lane.

    A forest's pairs are indexed once per forest structure (`forest_pairs`),
    and their cosines come from one pass over the stacked features. Each
    pair's dot product runs through the same BLAS kernel as `cosine_sim`'s
    and its norms are the features' own, so every threshold decision matches
    the scalar definition exactly.
    Clamping to [-1, 1] is skipped: against a threshold in [0, 1] it cannot
    change a decision. Level l's sibling pairs of every lane share one set.
    """
    want_i = cfg.tau_pos <= 1.0
    want_c = cfg.tau_seq <= 1.0
    if not (want_i or want_c):
        return SimilaritySets({}, frozenset())
    first, second, sibling, groups = forest_pairs(tree.parents, tree.level_starts, want_i, want_c)
    norms = evals.norms
    if len(first) and norms.min() <= NORM_FLOOR:
        zero = (norms[first] <= NORM_FLOOR) | (norms[second] <= NORM_FLOOR)
        if zero.any():
            k = int(zero.argmax())
            na, nb = float(norms[first[k]]), float(norms[second[k]])
            raise ZeroNormFeature(f"cosine undefined for norms ({na!r}, {nb!r})")
    values = evals.features
    cos = np.vecdot(values[first], values[second]) / (norms[first] * norms[second])
    hit = np.flatnonzero(cos >= np.where(sibling, cfg.tau_pos, cfg.tau_seq))
    bounds = np.searchsorted(hit, groups).tolist()
    pairs = list(zip(first[hit].tolist(), second[hit].tolist()))
    inter_pairs: dict[int, frozenset[tuple[int, int]]] = {}
    if want_i:
        for level in range(1, len(bounds) - 1):
            inter_pairs[level] = frozenset(pairs[bounds[level - 1] : bounds[level]])
    return SimilaritySets(inter_pairs, frozenset(pairs[bounds[-2] :]))


def _sibling_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def relax_q(
    q: ProbDist,
    candidate: TokenId,
    donors_i: Sequence[tuple[TokenId, float]],
    donors_c: Sequence[tuple[TokenId, float]],
    budget_left: float,
) -> tuple[float, float, tuple[tuple[TokenId, float], ...]]:
    """Boost `candidate` by whichever donor sets fit the remaining budget.

    `donors_i` are the (token, mass) pairs of the candidate's similar siblings
    and `donors_c` those of its aligned children. A child token that equals
    the candidate or a sibling donor is dropped, so every donor gives up mass
    it actually holds, exactly once. Each set is applied whole or not at all,
    sibling mass before child mass; a set that does not fit is skipped
    silently. Returns the sibling and child mass applied, and the donors
    whose mass moved.
    """
    seen = {candidate, *(token for token, _ in donors_i)}
    kept_c: list[tuple[TokenId, float]] = []
    for token, mass in donors_c:
        if token not in seen:
            seen.add(token)
            kept_c.append((token, mass))
    set_mass_i = math.fsum(m for _, m in donors_i)
    set_mass_c = math.fsum(m for _, m in kept_c)
    if set_mass_i < 0.0 or set_mass_c < 0.0:
        raise ValueError("set masses must be non-negative")
    if budget_left < -PROB_ATOL:
        raise ValueError("budget_left must be non-negative")
    applied_i = set_mass_i if set_mass_i <= budget_left + PROB_ATOL else 0.0
    remaining = budget_left - applied_i
    applied_c = set_mass_c if set_mass_c <= remaining + PROB_ATOL else 0.0
    transfers: list[tuple[TokenId, float]] = []
    if applied_i > 0.0:
        transfers.extend(donors_i)
    if applied_c > 0.0:
        transfers.extend(kept_c)
    return applied_i, applied_c, tuple(transfers)


# Trace field -> JSONL key, in sorted key order; `to_record` and `to_line` derive from this table.
_TRACE_KEYS = (
    ("added_mass_c", "addedMassC"),
    ("added_mass_i", "addedMassI"),
    ("budget_left", "budgetLeft"),
    ("decision", "decision"),
    ("level", "level"),
    ("p", "p"),
    ("q", "q"),
    ("r", "r"),
    ("sibling", "sibling"),
)


class TraceRecord(NamedTuple):
    """One accept/reject decision, with the relaxation actually applied.

    `token` is the candidate and `q_dist` the level's target conditional, so
    `q` is `q_dist[token]`. Each donor in `transfers` moved its mass onto the
    candidate (none under `vanilla`); `added_mass` equals the total-variation
    distance between `q_dist` and the transfer law, which `transfer_dist`
    materializes to check that identity. `to_record` gives the trace JSONL
    fields, which leave out the last three, and `to_line` writes them.
    """

    level: int
    sibling: int
    q: float
    p: float
    added_mass_i: float
    added_mass_c: float
    r: float
    decision: str
    budget_left: float
    token: TokenId
    q_dist: ProbDist
    transfers: tuple[tuple[TokenId, float], ...]

    @property
    def added_mass(self) -> float:
        return self.added_mass_i + self.added_mass_c

    def boosted_prob(self) -> float:
        return min(self.q + self.added_mass, 1.0)

    def transfer_dist(self) -> ProbDist:
        """Materialize the relaxed law by moving donor mass onto the candidate."""
        mass = self.q_dist.mass.copy()
        for token, amount in self.transfers:
            mass[token] -= amount
        mass[self.token] += self.added_mass
        mass[mass < 0.0] = 0.0  # guard against -1e-18 style dust
        return ProbDist(mass)

    def to_record(self) -> dict:
        return {key: getattr(self, name) for name, key in _TRACE_KEYS}

    def to_line(self, seed: int, cycle: int) -> str:
        """This decision's trace JSONL line, newline included.

        The text is `json.dumps({"seed": seed, "cycle": cycle, **self.to_record()},
        sort_keys=True)`, written without the dict or the encoder (every field is finite).
        """
        return _TRACE_LINE.format(*self, seed, cycle)


def _trace_line_template() -> str:
    """The `str.format` template of one trace line, filled from `(*record, seed, cycle)`.

    Keys come in sorted order, as `sort_keys` writes them. An empty format
    spec renders an int as `%d` and a float (numpy's included) as
    `float.__repr__`, which is what `json.dumps` writes for finite values;
    `decision` is a plain ASCII word, so quoting it is its JSON string.
    """
    positions = {name: i for i, name in enumerate((*TraceRecord._fields, "seed", "cycle"))}
    keys = sorted([*_TRACE_KEYS, ("seed", "seed"), ("cycle", "cycle")], key=lambda pair: pair[1])
    fields = [
        f'"{key}": "{{{positions[name]}}}"' if name == "decision" else f'"{key}": {{{positions[name]}}}'
        for name, key in keys
    ]
    return "{{" + ", ".join(fields) + "}}\n"


_TRACE_LINE = _trace_line_template()


class VerifyOutcome:
    """Result of one verification call over a draft tree.

    Each decision is kept as a plain tuple in `TraceRecord` field order.
    `trace` builds the records on first read and keeps them, and
    `trace_lines` formats the tuples directly, so a decode whose decisions
    nobody reads builds no records.
    """

    __slots__ = ("accepted_tokens", "correction_token", "tvd_consumed", "_decisions", "_trace")

    def __init__(
        self,
        accepted_tokens: list[TokenId],
        correction_token: TokenId | None,
        tvd_consumed: float,
        decisions: list[tuple],
    ) -> None:
        self.accepted_tokens = accepted_tokens
        self.correction_token = correction_token
        self.tvd_consumed = tvd_consumed
        self._decisions = decisions
        self._trace: list[TraceRecord] | None = None

    @property
    def trace(self) -> list[TraceRecord]:
        if self._trace is None:
            self._trace = list(map(TraceRecord._make, self._decisions))
        return self._trace

    def trace_lines(self, seed: int, cycle: int) -> list[str]:
        """Every decision's trace JSONL line, as `TraceRecord.to_line` writes it."""
        line = _TRACE_LINE.format
        return [line(*decision, seed, cycle) for decision in self._decisions]

    @property
    def alpha(self) -> int:
        return len(self.accepted_tokens)

    @property
    def emitted_tokens(self) -> list[TokenId]:
        if self.correction_token is None:
            return list(self.accepted_tokens)
        return list(self.accepted_tokens) + [self.correction_token]


def _run_verification(
    tree: DraftTree,
    evals: TreeEvals,
    lane: int,
    rng: RngStream,
    sets: SimilaritySets | None,
    budget: float,
) -> VerifyOutcome:
    """Walk lane `lane` of the forest `tree` on its own stream."""
    tokens, probs, children = tree.tokens, tree.probs, tree.children
    accepted: list[TokenId] = []
    decisions: list[tuple] = []
    budget_used = 0.0
    correction: TokenId | None = None

    # Walk down the accepted path: each level offers the children of the
    # last accepted node `parent` (the root's children first).
    level = 1
    parent = ROOT
    starts = tree.level_starts[lane]
    siblings = range(starts[0], starts[1])
    q_dist = evals.roots[lane].dist
    while siblings:
        # Target rows are shared across nodes and cycles, so their floats are built once.
        q_masses = q_dist.floats
        level_pairs = sets.inter_pairs.get(level, ()) if sets is not None else ()
        for sibling_idx, node in enumerate(siblings):
            r = rng.next_real()
            token = tokens[node]
            q_x = q_masses[token]
            p_x = probs[node]
            applied_i = applied_c = 0.0
            transfers: tuple[tuple[TokenId, float], ...] = ()
            if sets is not None:
                donors_i = [
                    (tokens[other], q_masses[tokens[other]])
                    for other in siblings
                    if other != node and _sibling_pair(node, other) in level_pairs
                ]
                donors_c = [
                    (tokens[child], q_masses[tokens[child]])
                    for child in children[node]
                    if (node, child) in sets.conv_pairs
                ]
                applied_i, applied_c, transfers = relax_q(
                    q_dist, token, donors_i, donors_c, budget - budget_used
                )
                budget_used += applied_i + applied_c
                q_eff = min(q_x + (applied_i + applied_c), 1.0)
            else:
                q_eff = q_x
            accept = r < min(1.0, q_eff / p_x)
            decisions.append((
                level, sibling_idx, q_x, p_x, applied_i, applied_c, r,
                "accept" if accept else "reject", budget - budget_used, token, q_dist, transfers,
            ))
            if accept:
                break
        else:
            # Every sibling rejected. The correction stays exactly target-shaped:
            # the unrelaxed conditional minus the drafter row the level was drawn
            # from, or the conditional itself when p covers q.
            p_dist = tree.root_dists[lane] if parent == ROOT else tree.child_dists[parent]
            try:
                corr_dist = residual_dist(q_dist, p_dist)
            except DegenerateResidual:
                corr_dist = q_dist
            correction = corr_dist.sample(rng)
            break
        accepted.append(token)
        parent = node
        siblings = children[node]
        q_dist = evals.dists[node]
        level += 1

    return VerifyOutcome(accepted, correction, budget_used, decisions)


def verify_vanilla(tree: DraftTree, evals: TreeEvals, rng: RngStream, lane: int = 0) -> VerifyOutcome:
    """Plain acceptance of lane `lane`: r < min(1, q/p) per candidate, residual correction on reject.

    Exactly target-distributed only on width-1 chains with stochastic candidates.
    """
    return _run_verification(tree, evals, lane, rng, None, 0.0)


def verify_cascade(
    tree: DraftTree,
    evals: TreeEvals,
    cfg: RelaxConfig,
    rng: RngStream,
    sets: SimilaritySets | None = None,
    lane: int = 0,
) -> VerifyOutcome:
    """Relaxed acceptance of lane `lane` under `cfg`, with the budget reset for this call.

    `sets` are the forest's similarity sets; by default they are built here.
    """
    if sets is None:
        sets = build_sets(tree, evals, cfg)
    return _run_verification(tree, evals, lane, rng, sets, cfg.tvd_budget)


@dataclass
class DecodeStats:
    """Raw counters accumulated across one decoded sequence."""

    tokens_emitted: int = 0
    target_calls: int = 0
    drafter_calls: int = 0
    verify_calls: int = 0
    accepted_draft_tokens: int = 0
    accumulated_tvd: float = 0.0


def decode_lanes(
    target: Target,
    drafter: Drafter | None,
    mode: str,
    mask: TreeMask,
    cfg: RelaxConfig,
    length: int,
    rngs: Sequence[RngStream],
    candidate_mode: str = TOPK,
    on_outcome: Callable[[int, int, VerifyOutcome], None] | None = None,
) -> list[tuple[list[TokenId], DecodeStats]]:
    """Generate `length` tokens in each of several lanes, one lane per stream in `rngs`.

    `ar` samples the target directly. `vanilla` and `cascade` repeat
    draft/verify cycles, appending accepted tokens plus the correction token
    when a rejection occurs; the drafted-but-unverified deepest token of a
    fully accepted cycle is never emitted. Target cost is one parallel pass
    per cycle; drafter cost is one pass per drafted level.

    The lanes run in lockstep: each cycle drafts one forest holding every
    unfinished lane's tree, evaluates it with one target pass, takes every
    lane's similarity sets from one pass, and then walks each lane's tree
    on its own stream. A lane's tokens, counters and decisions are those of
    decoding it alone. `on_outcome(lane, cycle, outcome)` sees each lane's
    calls in order. An unknown mode or candidate mode, a length below 1 or
    beyond the grid and a drafting mode without a drafter raise ConfigError
    before anything is drawn.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if candidate_mode not in CANDIDATE_MODES:
        raise ConfigError(f"unknown candidate mode {candidate_mode!r}")
    if length < 1:
        raise ConfigError(f"sequence length must be at least 1, got {length}")
    side = target.grid_side or max(1, math.isqrt(length - 1) + 1)
    if length > side * side:
        raise ConfigError(f"length {length} exceeds the {side}x{side} grid")
    if mode != AR and drafter is None:
        raise ConfigError(f"mode {mode!r} requires a drafter")
    lanes = [([], DecodeStats()) for _ in rngs]

    if mode == AR:
        for (tokens, stats), rng in zip(lanes, rngs):
            for t in range(length):
                ev = target.evaluate(tokens, GridPos.from_index(t, side))
                tokens.append(ev.dist.sample(rng))
            stats.target_calls = stats.tokens_emitted = length
        return lanes

    live = list(range(len(rngs)))
    depth = mask.depth
    while live:
        prefixes = [lanes[k][0] for k in live]
        tree = sample_draft_tree(
            drafter,
            prefixes,
            mask,
            [min(depth, length - len(p)) for p in prefixes],
            [rngs[k] for k in live],
            mode=candidate_mode,
            side=side,
        )
        evals = evaluate_tree(target, tree)
        sets = build_sets(tree, evals, cfg) if mode == CASCADE else None
        for j, k in enumerate(live):
            if mode == CASCADE:
                outcome = verify_cascade(tree, evals, cfg, rngs[k], sets, lane=j)
            else:
                outcome = verify_vanilla(tree, evals, rngs[k], lane=j)
            tokens, stats = lanes[k]
            cycle = stats.verify_calls
            stats.verify_calls += 1
            stats.target_calls += 1
            stats.drafter_calls += len(tree.level_starts[j]) - 1
            stats.accepted_draft_tokens += outcome.alpha
            stats.accumulated_tvd += outcome.tvd_consumed
            tokens.extend(outcome.accepted_tokens)
            if outcome.correction_token is not None:
                tokens.append(outcome.correction_token)
            if on_outcome is not None:
                on_outcome(k, cycle, outcome)
            if not outcome.accepted_tokens and outcome.correction_token is None:
                # Unreachable for sane trees (a rejection always emits a correction),
                # but guards against infinite loops on empty instantiations.
                raise RuntimeError("verification cycle emitted no tokens")
        live = [k for k in live if len(lanes[k][0]) < length]
    for tokens, stats in lanes:
        stats.tokens_emitted = len(tokens)
    return lanes


def decode_sequence(
    target: Target,
    drafter: Drafter | None,
    mode: str,
    mask: TreeMask,
    cfg: RelaxConfig,
    length: int,
    rng: RngStream,
    candidate_mode: str = TOPK,
    on_outcome: Callable[[int, VerifyOutcome], None] | None = None,
) -> tuple[list[TokenId], DecodeStats]:
    """Generate `length` tokens on one stream: `decode_lanes` with one lane.

    `on_outcome(cycle, outcome)` sees every verification call.
    """
    sink = None if on_outcome is None else (lambda lane, cycle, outcome: on_outcome(cycle, outcome))
    return decode_lanes(
        target, drafter, mode, mask, cfg, length, [rng], candidate_mode=candidate_mode, on_outcome=sink
    )[0]
