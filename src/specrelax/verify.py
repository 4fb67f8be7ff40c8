"""Verification engines: exact speculative acceptance and its similarity relaxation.

The exact engine walks the draft tree level by level, accepting a candidate
when a uniform draw falls under min(1, q/p) and sampling the residual
correction on rejection. The relaxed engine additionally transfers target
mass from feature-similar sibling tokens and feature-aligned child tokens
onto the candidate, never exceeding a per-call total-variation budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
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
from .tree import DraftTree, TOPK, TreeMask, sample_draft_tree

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


class TreeEvals:
    """Target evaluations for a draft tree: the root conditional plus one per node id."""

    __slots__ = ("root", "nodes")

    def __init__(self, root: TargetEval, nodes: list[TargetEval]) -> None:
        self.root = root
        self.nodes = nodes


def evaluate_tree(target: Target, tree: DraftTree) -> TreeEvals:
    """One simulated parallel target pass over root and every tree node.

    Node evaluations one step past the grid end reuse the final cell's
    position; only their features are ever consulted there.
    """
    root = target.evaluate(tree.prefix, tree.start_pos)
    cap = tree.side * tree.side - 1
    evals: list[TargetEval] = []
    starts = tree.level_starts
    for level in range(1, len(starts)):
        pos = GridPos.from_index(min(tree.start_index + level, cap), tree.side)
        for path in tree.paths[starts[level - 1] : starts[level]]:
            evals.append(target.evaluate(path, pos))
    return TreeEvals(root, evals)


@dataclass(frozen=True)
class SimilaritySets:
    """Feature-similar pairs: sibling pairs per level, and parent-child links."""

    inter_pairs: dict[int, frozenset[tuple[int, int]]]
    conv_pairs: frozenset[tuple[int, int]]


def build_sets(tree: DraftTree, evals: TreeEvals, cfg: RelaxConfig) -> SimilaritySets:
    """Collect same-parent sibling pairs and parent-child links above threshold.

    The cosines of every enabled pair come from one stacked pass. Each pair's
    dot product runs through the same BLAS kernel as `cosine_sim`'s and its
    norms are the features' own, so every threshold decision matches the
    scalar definition exactly. Clamping to [-1, 1] is skipped: against a
    threshold in [0, 1] it cannot change a decision.
    """
    want_i = cfg.tau_pos <= 1.0
    want_c = cfg.tau_seq <= 1.0
    if not (want_i or want_c):
        return SimilaritySets({}, frozenset())
    layout = tree.layout()
    n_sibling = layout.level_ends[-1]
    lo = 0 if want_i else n_sibling
    hi = len(layout.pairs) if want_c else n_sibling
    hits = [False] * lo  # hits[k]: is layout.pairs[k] similar
    if lo < hi:
        feats = [ev.feature for ev in evals.nodes]
        norms = [feat.norm for feat in feats]
        # Checked before stacking, which needs every feature to have one shape.
        if min(norms) <= NORM_FLOOR:
            for a, b in layout.pairs[lo:hi]:
                if min(norms[a], norms[b]) <= NORM_FLOOR:
                    raise ZeroNormFeature(f"cosine undefined for norms ({norms[a]!r}, {norms[b]!r})")
        first, second = layout.first[lo:hi], layout.second[lo:hi]
        values = np.array([feat.values for feat in feats])
        norm_arr = np.array(norms)
        cos = np.vecdot(values[first], values[second]) / (norm_arr[first] * norm_arr[second])
        hits += (cos[: n_sibling - lo] >= cfg.tau_pos).tolist()
        hits += (cos[n_sibling - lo :] >= cfg.tau_seq).tolist()
    inter_pairs: dict[int, frozenset[tuple[int, int]]] = {}
    if want_i:
        start = 0
        for level, end in enumerate(layout.level_ends, start=1):
            inter_pairs[level] = frozenset(compress(layout.pairs[start:end], hits[start:end]))
            start = end
    conv_pairs = frozenset(compress(layout.pairs[n_sibling:], hits[n_sibling:]))
    return SimilaritySets(inter_pairs, conv_pairs)


def _sibling_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class RelaxedDist:
    """A target conditional with extra mass granted to one boosted token.

    `added_mass` equals the total-variation distance between the base law and
    the transfer law that moves each donor's mass in `transfers` onto the
    boosted token; `transfer_dist` materializes that law to check the identity.
    """

    base_q: ProbDist
    boosted_token: TokenId
    added_mass: float
    transfers: tuple[tuple[TokenId, float], ...]

    def __post_init__(self) -> None:
        if self.added_mass < -PROB_ATOL:
            raise ValueError("added mass must be non-negative")
        if self.boosted_prob() > 1.0 + PROB_ATOL:
            raise ValueError("boosted probability exceeds 1")

    def boosted_prob(self) -> float:
        return min(self.base_q[self.boosted_token] + self.added_mass, 1.0)

    def transfer_dist(self) -> ProbDist:
        """Materialize the relaxed law by moving donor mass onto the boosted token."""
        mass = self.base_q.mass.copy()
        for token, amount in self.transfers:
            mass[token] -= amount
        mass[self.boosted_token] += self.added_mass
        mass[mass < 0.0] = 0.0  # guard against -1e-18 style dust
        return ProbDist(mass)


def relax_q(
    q: ProbDist,
    candidate: TokenId,
    donors_i: Sequence[tuple[TokenId, float]],
    donors_c: Sequence[tuple[TokenId, float]],
    budget_left: float,
) -> tuple[RelaxedDist, float, float]:
    """Boost `candidate` by whichever donor sets fit the remaining budget.

    `donors_i` are the (token, mass) pairs of the candidate's similar siblings
    and `donors_c` those of its aligned children. A child token that equals
    the candidate or a sibling donor is dropped, so every donor gives up mass
    it actually holds, exactly once. Each set is applied whole or not at all,
    sibling mass before child mass; a set that does not fit is skipped
    silently. Returns the relaxation and the sibling and child mass applied.
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
    relaxed = RelaxedDist(q, candidate, applied_i + applied_c, tuple(transfers))
    return relaxed, applied_i, applied_c


class TraceRecord(NamedTuple):
    """One accept/reject decision, with the relaxation actually applied."""

    level: int
    sibling: int
    q: float
    p: float
    added_mass_i: float
    added_mass_c: float
    r: float
    decision: str
    budget_left: float

    def to_record(self) -> dict:
        return {
            "level": self.level,
            "sibling": self.sibling,
            "q": self.q,
            "p": self.p,
            "addedMassI": self.added_mass_i,
            "addedMassC": self.added_mass_c,
            "r": self.r,
            "decision": self.decision,
            "budgetLeft": self.budget_left,
        }


@dataclass
class VerifyOutcome:
    """Result of one verification call over a draft tree."""

    accepted_tokens: list[TokenId]
    correction_token: TokenId | None
    alpha: int
    tvd_consumed: float
    trace: list[TraceRecord] = field(default_factory=list)
    relaxations: list[RelaxedDist] = field(default_factory=list)

    @property
    def emitted_tokens(self) -> list[TokenId]:
        if self.correction_token is None:
            return list(self.accepted_tokens)
        return list(self.accepted_tokens) + [self.correction_token]


def _run_verification(
    tree: DraftTree,
    evals: TreeEvals,
    rng: RngStream,
    sets: SimilaritySets | None,
    budget: float,
) -> VerifyOutcome:
    tokens = tree.tokens
    accepted: list[TokenId] = []
    trace: list[TraceRecord] = []
    relaxations: list[RelaxedDist] = []
    budget_used = 0.0
    correction: TokenId | None = None

    # Walk down the accepted path: each level offers the children of the
    # last accepted node (the root's children first).
    level = 1
    siblings = tree.level(1)
    q_dist, p_dist = evals.root.dist, tree.root_dist
    while siblings:
        chosen: int | None = None
        level_pairs = sets.inter_pairs.get(level, ()) if sets is not None else ()
        for sibling_idx, node in enumerate(siblings):
            r = rng.next_real()
            q_x = q_dist[tokens[node]]
            p_x = tree.probs[node]
            applied_i = applied_c = 0.0
            if sets is not None:
                donors_i = [
                    (tokens[other], q_dist[tokens[other]])
                    for other in siblings
                    if other != node and _sibling_pair(node, other) in level_pairs
                ]
                donors_c = [
                    (tokens[child], q_dist[tokens[child]])
                    for child in tree.children[node]
                    if (node, child) in sets.conv_pairs
                ]
                relaxed, applied_i, applied_c = relax_q(
                    q_dist, tokens[node], donors_i, donors_c, budget - budget_used
                )
                relaxations.append(relaxed)
                budget_used += relaxed.added_mass
                q_eff = relaxed.boosted_prob()
            else:
                q_eff = q_x
            accept = r < min(1.0, q_eff / p_x)
            trace.append(
                TraceRecord(
                    level,
                    sibling_idx,
                    q_x,
                    p_x,
                    applied_i,
                    applied_c,
                    r,
                    "accept" if accept else "reject",
                    budget - budget_used,
                )
            )
            if accept:
                chosen = node
                break
        if chosen is None:
            # Correction stays exactly target-shaped: the unrelaxed conditional
            # minus the drafter, or the conditional itself when p covers q.
            try:
                corr_dist = residual_dist(q_dist, p_dist)
            except DegenerateResidual:
                corr_dist = q_dist
            correction = corr_dist.sample(rng)
            break
        accepted.append(tokens[chosen])
        siblings = tree.children[chosen]
        q_dist, p_dist = evals.nodes[chosen].dist, tree.child_dists[chosen]
        level += 1

    return VerifyOutcome(accepted, correction, len(accepted), budget_used, trace, relaxations)


def verify_vanilla(tree: DraftTree, evals: TreeEvals, rng: RngStream) -> VerifyOutcome:
    """Exact acceptance: r < min(1, q/p) per candidate, residual correction on reject."""
    return _run_verification(tree, evals, rng, None, 0.0)


def verify_cascade(
    tree: DraftTree,
    evals: TreeEvals,
    cfg: RelaxConfig,
    rng: RngStream,
) -> VerifyOutcome:
    """Relaxed acceptance under `cfg`, with the budget reset for this call."""
    sets = build_sets(tree, evals, cfg)
    return _run_verification(tree, evals, rng, sets, cfg.tvd_budget)


@dataclass
class DecodeStats:
    """Raw counters accumulated across one decoded sequence."""

    tokens_emitted: int = 0
    target_calls: int = 0
    drafter_calls: int = 0
    verify_calls: int = 0
    accepted_draft_tokens: int = 0
    accumulated_tvd: float = 0.0


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
    """Generate `length` tokens in one of three modes.

    `ar` samples the target directly. `vanilla` and `cascade` repeat
    draft/verify cycles, appending accepted tokens plus the correction token
    when a rejection occurs; the drafted-but-unverified deepest token of a
    fully accepted cycle is never emitted. Target cost is one parallel pass
    per cycle; drafter cost is one pass per drafted level.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    side = target.grid_side or max(1, math.isqrt(max(length - 1, 0)) + 1)
    if length > side * side:
        raise ValueError(f"length {length} exceeds the {side}x{side} grid")
    stats = DecodeStats()
    tokens: list[TokenId] = []

    if mode == AR:
        for t in range(length):
            ev = target.evaluate(tokens, GridPos.from_index(t, side))
            tokens.append(ev.dist.sample(rng))
            stats.target_calls += 1
        stats.tokens_emitted = length
        return tokens, stats

    if drafter is None:
        raise ValueError(f"mode {mode!r} requires a drafter")

    cycle = 0
    while len(tokens) < length:
        depth_left = length - len(tokens)
        eff_mask = mask.clipped(depth_left)
        start_pos = GridPos.from_index(len(tokens), side)
        tree = sample_draft_tree(
            drafter, tokens, start_pos, eff_mask, rng, mode=candidate_mode, side=side
        )
        evals = evaluate_tree(target, tree)
        if mode == CASCADE:
            outcome = verify_cascade(tree, evals, cfg, rng)
        else:
            outcome = verify_vanilla(tree, evals, rng)
        stats.verify_calls += 1
        stats.target_calls += 1
        stats.drafter_calls += tree.depth
        stats.accepted_draft_tokens += outcome.alpha
        stats.accumulated_tvd += outcome.tvd_consumed
        tokens.extend(outcome.emitted_tokens)
        if on_outcome is not None:
            on_outcome(cycle, outcome)
        cycle += 1
        if not outcome.emitted_tokens:
            # Unreachable for sane trees (a rejection always emits a correction),
            # but guards against infinite loops on empty instantiations.
            raise RuntimeError("verification cycle emitted no tokens")
    stats.tokens_emitted = len(tokens)
    return tokens, stats
