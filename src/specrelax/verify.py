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
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    ConfigError,
    GridPos,
    InvalidValue,
    NORM_FLOOR,
    PROB_ATOL,
    ProbDist,
    RngStream,
    TokenId,
    ZeroNormFeature,
    cosine_sim,  # noqa: F401  (bench/tracer.py counts scalar cosines through this name)
    peek_reals,
    sample_corrections,
)
from .models import Drafter, LawTable, Target
from .tree import CANDIDATE_MODES, ROOT, DraftTree, ForestPairs, TOPK, TreeMask, sample_draft_tree

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
    """One target pass over a draft forest, and every node's judgement from it.

    Each row of the law table `laws` is a law id. Node i is judged against
    law `law[i]`, its level's target law: its parent's conditional, or its
    lane's root law on level 1. `q[i]` is that law's mass at its token and
    `threshold[i]` the plain threshold `min(1, q/p)`, both Python lists for
    the walk. Node i's feature is row i of the read-only `(nodes, h)` array
    `features`, and `norms[i]` is that feature's own norm.
    """

    laws: LawTable
    law: np.ndarray
    q: list[float]
    threshold: list[float]
    features: np.ndarray
    norms: np.ndarray


def evaluate_tree(target: Target, tree: DraftTree) -> TreeEvals:
    """One simulated parallel target pass: each distinct root prefix, then every node in one batch.

    Lanes that share a root prefix share its evaluation and its law row: the
    model's own row when the root evaluation returned one of its table's
    laws, else a row stacked after them. Nodes one step past the grid end
    are evaluated at the final cell; only their features are ever consulted
    there. Every node's law, `q` and threshold then come from one gather.
    """
    side = tree.side
    # `sample_draft_tree` checked that every lane's cell is on the grid.
    distinct = [target.evaluate(p, GridPos(*divmod(len(p), side))) for p in tree.root_prefixes]
    laws, rows, features, norms = target.evaluate_batch(tree)
    laws, root_law = laws.rows_of([ev.dist for ev in distinct])
    law = np.concatenate((rows, np.take(root_law, tree.root_index))).take(tree.judge)
    q = laws.mass[law, tree.token]
    return TreeEvals(laws, law, q.tolist(), np.minimum(q / tree.prob, 1.0).tolist(), features, norms)


class _Donors(NamedTuple):
    """Node x's sibling donors are `pool[off[2x]:off[2x+1]]` and its child donors
    `pool[off[2x+1]:off[2x+2]]`, each a (token, mass) pair under its level's law."""

    off: list[int]
    pool: list[tuple[TokenId, float]]


class SimilaritySets(NamedTuple):
    """Feature-similar pairs of a forest, and the donors they give.

    `hit[j]` says whether pair j of `pairs` (`DraftTree.pairs`) is at or
    above its threshold. `inter_pairs[l]` gives level l's similar sibling
    pairs `(a, b)`, `a < b`, and `conv_pairs` the similar parent-child links,
    each as a `(k, 2)` array. `donors` is None when no pair hits.
    """

    pairs: ForestPairs
    hit: np.ndarray
    donors: _Donors | None

    def _hits(self) -> tuple[np.ndarray, list[int]]:
        hit = np.flatnonzero(self.hit)
        pairs = np.stack([self.pairs.first[hit], self.pairs.second[hit]], axis=1)
        return pairs, np.searchsorted(hit, self.pairs.groups).tolist()

    @property
    def inter_pairs(self) -> dict[int, np.ndarray]:
        pairs, bounds = self._hits()
        return {level: pairs[bounds[level - 1] : bounds[level]] for level in range(1, len(bounds) - 1)}

    @property
    def conv_pairs(self) -> np.ndarray:
        pairs, bounds = self._hits()
        return pairs[bounds[-2] :]


def build_sets(tree: DraftTree, evals: TreeEvals, cfg: RelaxConfig) -> SimilaritySets:
    """Collect same-parent sibling pairs and parent-child links above threshold, in every lane.

    A forest's pairs are indexed once per cached forest layout
    (`DraftTree.pairs`), and their cosines come from one pass over the
    stacked features. Each pair's dot product runs through the same BLAS
    kernel as `cosine_sim`'s and its norms are the features' own, so every
    threshold decision matches the scalar definition exactly.
    Clamping to [-1, 1] is skipped: against a threshold in [0, 1] it cannot
    change a decision. The hits then pick the layout's donors, each lending
    its token's mass under the borrower's level law.
    """
    want_i = cfg.tau_pos <= 1.0
    want_c = cfg.tau_seq <= 1.0
    pairs = tree.pairs(want_i, want_c)
    first, second = pairs.first, pairs.second
    if not len(first):
        return SimilaritySets(pairs, np.zeros(0, dtype=bool), None)
    norms = evals.norms
    if np.minimum.reduce(norms) <= NORM_FLOOR:
        zero = (norms[first] <= NORM_FLOOR) | (norms[second] <= NORM_FLOOR)
        if zero.any():
            k = int(zero.argmax())
            na, nb = float(norms[first[k]]), float(norms[second[k]])
            raise ZeroNormFeature(f"cosine undefined for norms ({na!r}, {nb!r})")
    values = evals.features
    cos = np.vecdot(values[first], values[second]) / (norms[first] * norms[second])
    hit = cos >= np.where(pairs.sibling, cfg.tau_pos, cfg.tau_seq)
    keep = hit[pairs.donor_pair]
    kept = np.cumsum(keep)
    if not kept[-1]:
        return SimilaritySets(pairs, hit, None)
    # Each node's donor range in the kept list: how many kept donors precede its start.
    off = np.concatenate(([0], kept))[pairs.donor_starts]
    lent = tree.token[pairs.donor_lender[keep]]
    mass = evals.laws.mass[evals.law[pairs.donor_borrower[keep]], lent]
    return SimilaritySets(pairs, hit, _Donors(off.tolist(), list(zip(lent.tolist(), mass.tolist()))))


def relax_q(
    candidate: TokenId,
    donors_i: Sequence[tuple[TokenId, float]],
    donors_c: Sequence[tuple[TokenId, float]],
    budget_left: float,
) -> tuple[float, float, tuple[tuple[TokenId, float], ...]]:
    """Boost `candidate` by whichever donor sets fit the remaining budget.

    `donors_i` are the (token, mass) pairs of the candidate's similar siblings
    and `donors_c` those of its aligned children, each mass read from the
    level's target law. A child token that equals the candidate or a sibling
    donor is dropped, so every donor gives up mass it actually holds, exactly
    once. Each set is applied whole or not at all, sibling mass before child
    mass; a set that does not fit is skipped silently. Returns the sibling
    and child mass applied, and the donors whose mass moved.
    """
    seen = {candidate}
    seen.update([token for token, _ in donors_i])
    kept_c: list[tuple[TokenId, float]] = []
    for token, mass in donors_c:
        if token not in seen:
            seen.add(token)
            kept_c.append((token, mass))
    set_mass_i = math.fsum([mass for _, mass in donors_i])
    set_mass_c = math.fsum([mass for _, mass in kept_c])
    if set_mass_i < 0.0 or set_mass_c < 0.0:
        raise InvalidValue("set masses must be non-negative")
    if budget_left < -PROB_ATOL:
        raise InvalidValue("budget_left must be non-negative")
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
    """Result of one verification call over a draft forest.

    Each decision is kept as a plain tuple in `TraceRecord` field order,
    with its node id in place of its target law. `trace` builds the
    records on first read and keeps them, and `trace_lines` formats the
    tuples directly, so a decode whose decisions nobody reads builds no
    records. A rejection keeps its uniform instead of a token: `decode_lanes`
    draws every lane's correction of a cycle in one pass, and otherwise the
    first read of `correction_token` draws this one the same way.
    """

    __slots__ = (
        "accepted_tokens", "tvd_consumed", "_correction", "_pending", "_decisions", "_laws", "_law", "_trace",
    )

    def __init__(
        self,
        accepted_tokens: list[TokenId],
        tvd_consumed: float,
        decisions: list[tuple],
        laws: LawTable,
        law: np.ndarray,
        pending: tuple[DraftTree, int, int, float] | None = None,
    ) -> None:
        self.accepted_tokens = accepted_tokens
        self.tvd_consumed = tvd_consumed
        self._correction: TokenId | None = None
        # (forest, rejected node, drafter law id, uniform) of a correction not yet drawn.
        self._pending = pending
        self._decisions = decisions
        # The forest's law table, and each node's law id (`TreeEvals.law`).
        self._laws = laws
        self._law = law
        self._trace: list[TraceRecord] | None = None

    @property
    def correction_token(self) -> TokenId | None:
        if self._pending is not None:
            (self._correction,) = _draw_corrections(self._laws, self._law, [self._pending])
            self._pending = None
        return self._correction

    @property
    def trace(self) -> list[TraceRecord]:
        if self._trace is None:
            dists, law = self._laws.dists, self._law
            self._trace = [TraceRecord._make((*d[:10], dists[law[d[10]]], d[11])) for d in self._decisions]
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
        correction = self.correction_token
        if correction is None:
            return list(self.accepted_tokens)
        return list(self.accepted_tokens) + [correction]


def _draw_corrections(laws: LawTable, law: np.ndarray, pending: Sequence[tuple]) -> list[TokenId]:
    """Draw the pending corrections of one forest's walks in one residual pass.

    Row j is walk j's level law minus the drafter row its level was drawn
    from; `sample_corrections` draws each from its own kept uniform.
    """
    trees, nodes, p_laws, uniforms = zip(*pending)
    q = laws.mass.take(law.take(nodes), axis=0)
    p = trees[0].draft_table.take(p_laws, axis=0)
    return sample_corrections(q, p, np.array(uniforms))


class _Uniforms:
    """A lane's slice of its cycle's uniform block, read in order as its stream would draw it.

    `next_real` is the slice iterator's own `__next__`: no counter and no Python frame.
    """

    __slots__ = ("next_real",)

    def __init__(self, values: list[float]) -> None:
        self.next_real = iter(values).__next__


# Below this many uniforms in a cycle's block, lanes draw from their own
# streams: one `peek_reals` pass costs about 22 `next_real` draws, which a few
# short walks do not repay. Measured on tabular chains and grid trees.
_BLOCK_MIN = 64


def _run_verification(
    tree: DraftTree,
    evals: TreeEvals,
    lane: int,
    rng: RngStream | _Uniforms,
    sets: SimilaritySets | None,
    budget: float,
) -> VerifyOutcome:
    """Walk lane `lane` of the forest `tree` on its own stream, or on a reader of its uniforms.

    A node without donors is decided by its threshold from the forest's one
    gather (`evaluate_tree`); a node with donors in `sets` is boosted by
    `relax_q` first. `vanilla` is the walk with no donors at all. The walk
    reads Python lists only.
    """
    qs, thresholds = evals.q, evals.threshold
    tokens, probs, children = tree.tokens, tree.probs, tree.children
    donors = None if sets is None else sets.donors
    off, pool = (None, None) if donors is None else donors
    accepted: list[TokenId] = []
    decisions: list[tuple] = []
    budget_used = 0.0
    budget_left = budget

    # Walk down the accepted path: each level offers the children of the
    # last accepted node (the lane's level 1 first).
    level = 1
    node = ROOT
    starts = tree.level_starts[lane]
    siblings = range(starts[0], starts[1])
    while siblings:
        parent = node
        for sibling_idx, node in enumerate(siblings):
            r = rng.next_real()
            if off is None or off[2 * node] == off[2 * node + 2]:
                applied_i = applied_c = 0.0
                transfers: tuple[tuple[TokenId, float], ...] = ()
                accept = r < thresholds[node]
            else:
                lo, mid, hi = off[2 * node], off[2 * node + 1], off[2 * node + 2]
                applied_i, applied_c, transfers = relax_q(tokens[node], pool[lo:mid], pool[mid:hi], budget_left)
                budget_used += applied_i + applied_c
                budget_left = budget - budget_used
                accept = r < min(1.0, min(qs[node] + (applied_i + applied_c), 1.0) / probs[node])
            decisions.append((
                level, sibling_idx, qs[node], probs[node], applied_i, applied_c, r,
                "accept" if accept else "reject", budget_left, tokens[node], node, transfers,
            ))
            if accept:
                break
        else:
            break
        accepted.append(tokens[node])
        siblings = children[node]
        level += 1
    else:
        return VerifyOutcome(accepted, budget_used, decisions, evals.laws, evals.law)

    # Every sibling rejected. The correction stays exactly target-shaped: the
    # unrelaxed level law minus the drafter row the level was drawn from, or
    # the level law itself when p covers q. Its uniform is drawn now, and its
    # token once per cycle for every lane.
    if parent == ROOT:
        p_law = tree.root_row + tree.root_index[lane]
    else:
        p_law = int(tree.cond_row[parent])
    pending = (tree, node, p_law, rng.next_real())
    return VerifyOutcome(accepted, budget_used, decisions, evals.laws, evals.law, pending)


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
    lane's similarity sets from one pass, walks each lane's tree, and then
    draws every lane's correction in one residual pass. The walks take their
    uniforms from one `peek_reals` block per cycle: lane j's slice holds
    `1 + sum(mask.widths[:depth_j])`, the most a walk can draw (every
    sibling of each level, then a correction), and its stream's counter then
    moves past the ones its walk read. A cycle whose block would hold fewer
    than `_BLOCK_MIN` uniforms walks each lane on its own stream instead.
    A lane's tokens, counters and decisions are those of decoding it alone.
    `on_outcome(lane, cycle, outcome)` sees each lane's calls in order, with
    its correction drawn. An unknown mode or candidate mode, a length below 1 or
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
    # A walk of depth d draws at most one uniform per sibling of each level, and one for a correction.
    most = [1 + reach for reach in accumulate(mask.widths, initial=0)]
    while live:
        prefixes = [lanes[k][0] for k in live]
        depths = [min(depth, length - len(p)) for p in prefixes]
        streams = [rngs[k] for k in live]
        tree = sample_draft_tree(drafter, prefixes, mask, depths, streams, mode=candidate_mode, side=side)
        evals = evaluate_tree(target, tree)
        sets = build_sets(tree, evals, cfg) if mode == CASCADE else None
        need = [most[d] for d in depths]
        block = peek_reals(streams, need).tolist() if sum(need) >= _BLOCK_MIN else None
        end = 0
        # Each rejecting walk's kept correction, and its lane (with its outcome when a sink reads it).
        pending, corrected, seen = [], [], []
        for j, k in enumerate(live):
            rng = rngs[k]
            if block is not None:
                # Built lane by lane and freed after its walk: a whole cycle of live
                # readers would set off extra garbage collections.
                rng = _Uniforms(block[end : end + need[j]])
                end += need[j]
            if mode == CASCADE:
                outcome = verify_cascade(tree, evals, cfg, rng, sets, lane=j)
            else:
                outcome = verify_vanilla(tree, evals, rng, lane=j)
            if block is not None:
                # The stream moves past the uniforms its walk read.
                rngs[k].counter += len(outcome._decisions) + (outcome._pending is not None)
            tokens, stats = lanes[k]
            cycle = stats.verify_calls
            stats.verify_calls += 1
            stats.target_calls += 1
            stats.drafter_calls += depths[j]
            stats.accepted_draft_tokens += len(outcome.accepted_tokens)
            stats.accumulated_tvd += outcome.tvd_consumed
            tokens.extend(outcome.accepted_tokens)
            if outcome._pending is not None:
                pending.append(outcome._pending)
                corrected.append((k, outcome if on_outcome is not None else None))
            elif not outcome.accepted_tokens:
                # Unreachable for sane trees (a rejection always emits a correction),
                # but guards against infinite loops on empty instantiations.
                raise RuntimeError("verification cycle emitted no tokens")
            if on_outcome is not None:
                seen.append((k, cycle, outcome))
        if pending:
            drawn = _draw_corrections(evals.laws, evals.law, pending)
            for (k, outcome), token in zip(corrected, drawn):
                lanes[k][0].append(token)
                if outcome is not None:
                    outcome._correction, outcome._pending = token, None
        for k, cycle, outcome in seen:
            on_outcome(k, cycle, outcome)
        # Free this cycle's forest, laws and sets before the next forest is drafted.
        del tree, evals, sets, block, pending, corrected, seen, outcome
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
