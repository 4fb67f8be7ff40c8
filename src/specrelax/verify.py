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

Each lane's tree is walked on its own by `_run_verification`, except in one
case: a cycle of width-1 chains without donors whose decisions nobody reads
is decided for every lane at once by `_walk_chains`, which reads the same
uniforms and thresholds and so gives the same tokens. Either walk only
names its rejected levels; `_draw_corrections` is the one place a rejected
level becomes a correction token, for every rejecting lane of a cycle in
one pass.

A many-lane decode (`_decode_cycles`) keeps one record per cycle, and
`decode_lanes` folds each lane's `DecodeStats` from the records once, at
the end. The Monte Carlo oracle reads the tokens alone and folds nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter, sub
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    ConfigError,
    InvalidValue,
    PROB_ATOL,
    ProbDist,
    RngStream,
    TokenId,
    _pair_cosines,
    cosine_sim,  # noqa: F401  (bench/tracer.py counts scalar cosines through this name)
    peek_reals,
    sample_corrections,
)
from .models import Drafter, LawTable, Target, _decode_side
from .tree import CANDIDATE_MODES, DraftTree, ForestPairs, TOPK, TreeMask, sample_draft_tree

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

    Node i is judged against row `law[i]` of `laws`, its level's target law:
    its parent's conditional, or its lane's root law on level 1. `q[i]`, a
    Python list for the walk, is that law's mass at its token, and
    `threshold[i]` the plain threshold `min(1, q/p)`. Node i's feature is
    row i of the read-only `features`, and `norms[i]` its norm.
    """

    laws: LawTable
    law: np.ndarray
    q: list[float]
    threshold: np.ndarray
    features: np.ndarray
    norms: np.ndarray


def evaluate_tree(target: Target, tree: DraftTree) -> TreeEvals:
    """One simulated parallel target pass: each distinct root prefix, then every node in one batch.

    Lanes that share a root prefix share its evaluation and its law row: the
    model's own row when the root evaluation returned one of its table's
    laws, else a row stacked after them. A node one step past a gridded
    target's end is read at its last cell; only its feature is ever
    consulted there. Every node's law, `q` and threshold then come from one
    gather.
    """
    distinct = [target.evaluate(p) for p in tree.root_prefixes]
    laws, rows, features, norms = target.evaluate_batch(tree)
    laws, root_law = laws.rows_of([ev.dist for ev in distinct])
    law = np.concatenate((rows, np.take(root_law, tree.root_index))).take(tree.judge)
    q = laws.mass[law, tree.token]
    threshold = np.minimum(q / tree.prob, 1.0)
    return TreeEvals(laws, law, q.tolist(), threshold, features, norms)


class SimilaritySets(NamedTuple):
    """Feature-similar pairs of a forest, and the donors they give.

    `hit[j]` says whether pair j of `pairs` (`DraftTree.pairs`) is at or
    above its threshold; a pair whose set is switched off never hits.
    `inter_pairs[l]` gives level l's similar sibling pairs `(a, b)`, `a < b`,
    and `conv_pairs` the similar parent-child links, each as a `(k, 2)`
    array. Node x's sibling donors are `pool[off[2x]:off[2x+1]]` and its
    child donors `pool[off[2x+1]:off[2x+2]]`, each a (token, mass) pair
    under its level's law; `off` and `pool` are None when no pair hits.
    """

    pairs: ForestPairs
    hit: np.ndarray
    off: list[int] | None
    pool: list[tuple[TokenId, float]] | None

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
    (`DraftTree.pairs`). Its sibling pairs come before its links, so a set
    switched off by a threshold above 1 leaves one slice of pairs that can
    hit: only those go through `_pair_cosines`. The hits then pick the
    layout's donors, each lending its token's mass under the borrower's
    level law.
    """
    pairs = tree.pairs()
    n_sib = int(pairs.groups[-2])
    lo = 0 if cfg.tau_pos <= 1.0 else n_sib
    hi = len(pairs.first) if cfg.tau_seq <= 1.0 else n_sib
    hit = np.zeros(len(pairs.first), dtype=bool)
    if lo == hi:
        return SimilaritySets(pairs, hit, None, None)
    cos = _pair_cosines(evals.features, evals.norms, pairs.first[lo:hi], pairs.second[lo:hi])
    hit[lo:hi] = cos >= np.where(np.arange(lo, hi) < n_sib, cfg.tau_pos, cfg.tau_seq)
    keep = hit[pairs.donor_pair]
    kept = np.cumsum(keep)
    if not kept[-1]:
        return SimilaritySets(pairs, hit, None, None)
    # Each node's donor range in the kept list: how many kept donors precede its start.
    off = np.concatenate(([0], kept))[pairs.donor_starts]
    lent = tree.token[pairs.donor_lender[keep]]
    mass = evals.laws.mass[evals.law[pairs.donor_borrower[keep]], lent]
    return SimilaritySets(pairs, hit, off.tolist(), list(zip(lent.tolist(), mass.tolist())))


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


# Trace field -> JSONL key, in sorted key order; `to_record` derives from this table, and
# `_trace_line` writes the same keys.
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
        """This decision's trace JSONL line, newline included (see `_trace_line`)."""
        return _trace_line(*self, seed, cycle)


def _trace_line(
    level, sibling, q, p, added_mass_i, added_mass_c, r, decision, budget_left, token, q_dist, transfers,
    seed, cycle,
) -> str:
    """One decision's trace JSONL line, from `(*record, seed, cycle)` in `TraceRecord` field order.

    The text is `json.dumps({"seed": seed, "cycle": cycle, **record.to_record()},
    sort_keys=True)`, written without the dict or the encoder: keys come in
    sorted order, and `{x}` renders an int as `%d` and a float (numpy's
    included) as `float.__repr__`, which is what `json.dumps` writes for
    finite values; `decision` is a plain ASCII word, so quoting it is its
    JSON string. `token`, `q_dist` (or a node id) and `transfers` are not written.
    """
    return (
        f'{{"addedMassC": {added_mass_c}, "addedMassI": {added_mass_i}, "budgetLeft": {budget_left}, '
        f'"cycle": {cycle}, "decision": "{decision}", "level": {level}, "p": {p}, "q": {q}, "r": {r}, '
        f'"seed": {seed}, "sibling": {sibling}}}\n'
    )


class VerifyOutcome:
    """Result of one verification call over a draft forest.

    Each decision is kept as a plain tuple in `TraceRecord` field order,
    with its node id in place of its target law. `trace` builds the
    records on first read and keeps them, and `trace_lines` formats the
    tuples directly, so a decode whose decisions nobody reads builds no
    records. A rejection keeps its node and uniform instead of a token:
    `decode_lanes` draws every lane's correction of a cycle in one
    `_draw_corrections` pass, and otherwise the first read of
    `correction_token` draws this one alone.
    """

    __slots__ = (
        "accepted_tokens", "tvd_consumed", "_correction", "_pending", "_decisions", "_tree", "_evals", "_trace",
    )

    def __init__(
        self,
        accepted_tokens: list[TokenId],
        tvd_consumed: float,
        decisions: list[tuple],
        tree: DraftTree,
        evals: TreeEvals,
        pending: tuple[int, float] | None = None,
    ) -> None:
        self.accepted_tokens = accepted_tokens
        self.tvd_consumed = tvd_consumed
        self._correction: TokenId | None = None
        # (last rejected node, uniform) of a correction not yet drawn.
        self._pending = pending
        self._decisions = decisions
        self._tree = tree
        self._evals = evals
        self._trace: list[TraceRecord] | None = None

    @property
    def correction_token(self) -> TokenId | None:
        if self._pending is not None:
            node, uniform = self._pending
            (self._correction,) = _draw_corrections(self._tree, self._evals, [node], [uniform])
            self._pending = None
        return self._correction

    @property
    def trace(self) -> list[TraceRecord]:
        if self._trace is None:
            dists, law = self._evals.laws.dists, self._evals.law
            self._trace = [TraceRecord._make((*d[:10], dists[law[d[10]]], d[11])) for d in self._decisions]
        return self._trace

    def trace_lines(self, seed: int, cycle: int) -> list[str]:
        """Every decision's trace JSONL line, as `TraceRecord.to_line` writes it."""
        return [_trace_line(*decision, seed, cycle) for decision in self._decisions]

    @property
    def alpha(self) -> int:
        return len(self.accepted_tokens)

    @property
    def emitted_tokens(self) -> list[TokenId]:
        correction = self.correction_token
        if correction is None:
            return list(self.accepted_tokens)
        return list(self.accepted_tokens) + [correction]


def _draw_corrections(
    tree: DraftTree, evals: TreeEvals, nodes: Sequence[int], uniforms: Sequence[float]
) -> list[TokenId]:
    """The correction of each rejected level of the forest `tree`, all in one residual pass.

    Walk j rejected every sibling of the level holding node `nodes[j]`. Its
    correction stays exactly target-shaped: the unrelaxed level law `q`
    minus the drafter row `p` the level was drawn from, or `q` itself when
    `p` covers it, drawn with `uniforms[j]`.
    """
    # The level's drafter row, found through `judge` as its law is: the parent's `cond_row`,
    # or its lane's root row on level 1.
    rows = np.concatenate((tree.cond_row, tree.root_row + tree.root_index)).take(tree.judge.take(nodes))
    q = evals.laws.mass.take(evals.law.take(nodes), axis=0)
    return sample_corrections(q, tree.draft_table.take(rows, axis=0), np.asarray(uniforms))


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

    A node with donors in `sets` has its `q` boosted by `relax_q` before its
    threshold is taken; `vanilla` is the walk with no donors at all.
    """
    qs, tokens, probs, children = evals.q, tree.tokens, tree.probs, tree.children
    off, pool = (None, None) if sets is None else (sets.off, sets.pool)
    accepted: list[TokenId] = []
    decisions: list[tuple] = []
    budget_used = 0.0
    budget_left = budget

    # Walk down the accepted path: each level offers the children of the
    # last accepted node (the lane's level 1 first).
    level = 1
    starts = tree.level_starts[lane]
    siblings = range(starts[0], starts[1])
    while siblings:
        for sibling_idx, node in enumerate(siblings):
            r = rng.next_real()
            if off is None or off[2 * node] == off[2 * node + 2]:
                applied_i = applied_c = 0.0
                transfers: tuple[tuple[TokenId, float], ...] = ()
                accept = r < min(1.0, qs[node] / probs[node])
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
        return VerifyOutcome(accepted, budget_used, decisions, tree, evals)

    # Every sibling rejected: the correction's uniform is drawn now, its token by `_draw_corrections`.
    return VerifyOutcome(accepted, budget_used, decisions, tree, evals, (node, rng.next_real()))


def _walk_chains(
    tree: DraftTree, evals: TreeEvals, streams: Sequence[RngStream], need: Sequence[int]
) -> tuple[list[int], list[int], np.ndarray, list[int], np.ndarray]:
    """Walk every lane of a width-1 forest without donors at once, on one `peek_reals` block.

    Lane j's slice of the block holds `need[j]` uniforms: one per node, then
    one for its correction. Its level-l node is decided by uniform l of it
    against its gathered threshold, as `_run_verification` decides it, and
    the lane accepts up to its first reject. Each stream moves past exactly
    the uniforms its walk read. Returns where each lane's nodes start and
    where its accepted ones end, then the rejecting lanes' rejected nodes,
    the lanes themselves and their corrections' uniforms; the nodes and
    uniforms stay arrays, as `_draw_corrections` takes them.
    """
    block = peek_reals(streams, need)
    n = len(tree.lane)
    ids = np.arange(n)
    first = np.flatnonzero(tree.level == 1)
    # Node i reads uniform i + lane[i]. Each lane's first rejected node, or n if it rejects none.
    accept = block[ids + tree.lane] < evals.threshold
    stops = np.minimum.reduceat(np.where(accept, n, ids), first)
    rejects = stops < n
    # Lane j accepts nodes first[j] .. ends[j] - 1; a rejecting lane reads two uniforms more.
    ends = np.where(rejects, stops, np.append(first[1:], n))
    for rng, moved in zip(streams, (ends - first + 2 * rejects).tolist()):
        rng.counter += moved
    lanes = np.flatnonzero(rejects)
    nodes = stops[lanes]
    return first.tolist(), ends.tolist(), nodes, lanes.tolist(), block[nodes + lanes + 1]


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


def _check_decode(target: Target, drafter: Drafter | None, mode: str, candidate_mode: str, length: int) -> int:
    """Raise ConfigError unless the decode can run; return the side of its grid (`_decode_side`).

    The mode and candidate mode are known, the length is at least 1 and the
    grid holds it, and a drafting mode has a drafter. The drafter proposes
    over the target's vocabulary and grid side, and its own grid, if it has
    one, holds the length.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if candidate_mode not in CANDIDATE_MODES:
        raise ConfigError(f"unknown candidate mode {candidate_mode!r}")
    if length < 1:
        raise ConfigError(f"sequence length must be at least 1, got {length}")
    side = _decode_side(target, length)
    if length > side * side:
        raise ConfigError(f"length {length} exceeds the {side}x{side} grid")
    if drafter is None:
        if mode != AR:
            raise ConfigError(f"mode {mode!r} requires a drafter")
        return side
    target_vocab, drafter_vocab = getattr(target, "vocab"), getattr(drafter, "vocab")
    if drafter_vocab != target_vocab:
        raise ConfigError(f"drafter vocabulary {drafter_vocab} != target vocabulary {target_vocab}")
    own = drafter.grid_side
    if target.grid_side and own and own != target.grid_side:
        raise ConfigError(f"drafter grid side {own} != target grid side {target.grid_side}")
    if own and length > own * own:
        raise ConfigError(f"length {length} exceeds the drafter's {own}x{own} grid")
    return side


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
    draft/verify cycles, each emitting its accepted tokens plus a correction
    on a rejection; a fully accepted cycle emits its whole path and draws no
    extra token from the target. A token's position is the length of the
    prefix before it, which each gridded model reads on its own grid;
    `_check_decode` makes a gridded target and drafter agree on it. A cycle
    costs a lane one target pass and one drafter pass per drafted level.

    The lanes run in lockstep: each cycle drafts one forest of every
    unfinished lane, deepest first when depths differ (so lanes nearing
    their ends repeat a few cached shapes), with one target pass and one
    similarity pass. The walks then read one `peek_reals` block per cycle,
    or each lane's own stream below `_BLOCK_MIN` uniforms; a block cycle of
    width-1 chains with no donors and no `on_outcome` is decided in one
    numpy pass (`_walk_chains`). Whichever walk runs, `_draw_corrections`
    draws every rejecting lane's correction of the cycle in one pass, and a
    lane's tokens, counters and decisions are those of decoding it alone.
    `on_outcome(lane, cycle, outcome)` sees each lane's calls in order, a
    cycle's lanes in lane order, each with its correction drawn. Each lane's
    `DecodeStats` is folded once, at the end, from one record per cycle
    (`_fold_stats`).

    A decode `_check_decode` refuses, or one that lists a stream object
    twice (its lanes' draws would interleave), raises ConfigError before
    anything is drawn.
    """
    if len({id(rng) for rng in rngs}) != len(rngs):
        raise ConfigError("each lane needs its own RngStream; a stream object is listed twice")
    lanes, cycles = _decode_cycles(target, drafter, mode, mask, cfg, length, rngs, candidate_mode, on_outcome)
    if mode == AR:
        return [(tokens, DecodeStats(length, length)) for tokens in lanes]
    return list(zip(lanes, _fold_stats(lanes, cycles)))


# One lockstep cycle: the lanes it drafted, their depths, how many drafted tokens each
# accepted, and (lane, mass) for each lane whose walk charged budget.
_Cycle = tuple[Sequence[int], Sequence[int], list[int], Sequence[tuple[int, float]]]


def _fold_stats(lanes: list[list[TokenId]], cycles: list[_Cycle]) -> list[DecodeStats]:
    """Each lane's `DecodeStats` of a drafting decode, from its tokens and the cycle records.

    Every drafted lane spends one target pass and one verification call per
    cycle. Charged mass is added lane by lane in cycle order, with `+=` as
    a lane decoded alone adds it, so `accumulated_tvd` keeps its bits on every
    interpreter (Python 3.12's `sum` would compensate its rounding).
    """
    n = len(lanes)
    calls, drafts, accepted, spent = [0] * n, [0] * n, [0] * n, [0.0] * n
    for drafted, depths, counts, charged in cycles:
        for k, depth, count in zip(drafted, depths, counts):
            calls[k] += 1
            drafts[k] += depth
            accepted[k] += count
        for k, mass in charged:
            spent[k] += mass
    return list(map(DecodeStats, map(len, lanes), calls, drafts, calls, accepted, spent))


def _decode_cycles(
    target: Target,
    drafter: Drafter | None,
    mode: str,
    mask: TreeMask,
    cfg: RelaxConfig,
    length: int,
    rngs: Sequence[RngStream],
    candidate_mode: str,
    on_outcome: Callable[[int, int, VerifyOutcome], None] | None,
) -> tuple[list[list[TokenId]], list[_Cycle]]:
    """`decode_lanes`' decode: each lane's tokens, and one `_Cycle` record per cycle (none under `ar`).

    Every live lane is drafted on every cycle, so a lane's cycle number is the decode's.
    """
    _check_decode(target, drafter, mode, candidate_mode, length)
    lanes: list[list[TokenId]] = [[] for _ in rngs]
    cycles: list[_Cycle] = []

    if mode == AR:
        for tokens, rng in zip(lanes, rngs):
            for _ in range(length):
                tokens.append(target.evaluate(tokens).dist.sample(rng))
        return lanes, cycles

    live = list(range(len(rngs)))
    depth = mask.depth
    # A walk of depth d draws at most one uniform per sibling of each level, and one for a correction.
    most = [1 + reach for reach in accumulate(mask.widths, initial=0)]
    # Chain forests decode in one pass when nothing reads their decisions.
    chains = on_outcome is None and set(mask.widths) == {1}
    # A lane with more than `cut` tokens drafts only up to its end.
    cut = length - depth
    while live:
        prefixes = [lanes[k] for k in live]
        depths = [length - n if n > cut else depth for n in map(len, prefixes)]
        drafted = live
        if depths.count(depths[0]) != len(depths):
            # Deepest first, so the forests of lanes nearing their ends repeat a few shapes.
            pick = itemgetter(*sorted(range(len(live)), key=depths.__getitem__, reverse=True))
            drafted, prefixes, depths = pick(live), pick(prefixes), list(pick(depths))
        streams = [rngs[k] for k in drafted]
        tree = sample_draft_tree(drafter, prefixes, mask, depths, streams, mode=candidate_mode)
        evals = evaluate_tree(target, tree)
        sets = build_sets(tree, evals, cfg) if mode == CASCADE else None
        need = [most[d] for d in depths]
        blocked = sum(need) >= _BLOCK_MIN
        # Each drafted lane's accepted tokens (and outcome, for a sink) and, for each rejecting
        # lane j, its rejected node, j and its correction's uniform; all in drafting order.
        outcomes: list[VerifyOutcome] = []
        if blocked and chains and (sets is None or sets.off is None):
            starts, ends, nodes, rejected, uniforms = _walk_chains(tree, evals, streams, need)
            tokens = tree.tokens
            # Sliced only as the tail extends each lane: a cycle's worth of live slices
            # would set off extra garbage collections.
            accepted = (tokens[lo:hi] for lo, hi in zip(starts, ends))
            counts = list(map(sub, ends, starts))
            # No donors, so no budget charged.
            charged = ()
        else:
            accepted, counts, charged, pending = [], [], [], []
            block = peek_reals(streams, need).tolist() if blocked else None
            end = 0
            for j, rng in enumerate(streams):
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
                    streams[j].counter += len(outcome._decisions) + (outcome._pending is not None)
                accepted.append(outcome.accepted_tokens)
                counts.append(len(outcome.accepted_tokens))
                if outcome.tvd_consumed:
                    charged.append((drafted[j], outcome.tvd_consumed))
                if outcome._pending is not None:
                    pending.append((j, *outcome._pending))
                elif not outcome.accepted_tokens:
                    # Unreachable for sane trees (a rejection always emits a correction),
                    # but guards against infinite loops on empty instantiations.
                    raise RuntimeError("verification cycle emitted no tokens")
                if on_outcome is not None:
                    outcomes.append(outcome)
            rejected, nodes, uniforms = zip(*pending) if pending else ((), (), ())
            block = outcome = None
        # `prefixes` holds the drafted lanes' own token lists, in drafting order.
        for prefix, kept in zip(prefixes, accepted):
            prefix += kept
        if len(rejected):
            for j, token in zip(rejected, _draw_corrections(tree, evals, nodes, uniforms)):
                prefixes[j].append(token)
                if outcomes:
                    outcomes[j]._correction, outcomes[j]._pending = token, None
        cycle = len(cycles)
        cycles.append((drafted, depths, counts, charged))
        if on_outcome is not None:
            for j in sorted(range(len(drafted)), key=drafted.__getitem__):
                on_outcome(drafted[j], cycle, outcomes[j])
        # Free this cycle's forest, laws, sets and outcomes before the next forest is drafted.
        del tree, evals, sets, outcomes
        live = [k for k in live if len(lanes[k]) < length]
    return lanes, cycles


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
