"""Lockstep lanes: B lanes decode exactly as B one-lane decodes, and forests exactly as
the scalar per-node drafter that forest drafting replaced."""

from __future__ import annotations

import dataclasses
import random
from itertools import combinations_with_replacement
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from specrelax import (
    GridWorldModel,
    LinearDrafter,
    ProbDist,
    RelaxConfig,
    RngStream,
    TreeMask,
    decode_lanes,
    decode_sequence,
    evaluate_tree,
    random_tabular_model,
    sample_draft_tree,
    tempered_table_drafter,
)
from specrelax.core import ConfigError, UnknownWindow
from specrelax.tree import EXHAUSTION_FLOOR, ROOT, STOCHASTIC, TOPK, _draw_steps
from specrelax.verify import DecodeStats, TraceRecord

from conftest import FixedDrafter, tree_depth, tree_level

SEEDS = (0, 1, 2, 3, 4)


# --- the scalar reference ------------------------------------------------------


def _inverse_cdf(mass, total, r):
    acc = 0.0
    threshold = r * total
    last_positive = 0
    for idx, m in enumerate(mass):
        if m > 0.0:
            last_positive = idx
            acc += m
            if threshold < acc:
                return idx
    return last_positive


def _select_candidates(dist, width, mode, rng):
    """Pick up to `width` distinct positive-probability tokens from one conditional,
    as the per-node drafter did before forests were drafted level by level."""
    if mode == TOPK:
        ranked = [(token, prob) for token, prob in enumerate(dist.mass.tolist()) if prob > 0.0]
        ranked.sort(key=itemgetter(1), reverse=True)  # stable: ties keep ascending ids
        return ranked[:width]
    if width == 1:
        token = dist.sample(rng)
        return [(token, dist[token])]
    working = dist.mass.tolist()
    # Left to right, as the per-node drafter summed on Python 3.11 (`sum` compensates from 3.12 on).
    total = float(np.cumsum(dist.mass)[-1])
    picked = []
    for _ in range(width):
        if total <= 1e-12:
            break
        token = _inverse_cdf(working, total, rng.next_real())
        picked.append((token, dist[token]))
        total -= working[token]
        working[token] = 0.0
    return picked


def reference_tree(drafter, prefix, mask, rng, mode):
    """The per-node drafter: (tokens, probs, parents, child conditionals) in level-major ids."""
    tokens, probs, parents, child_masses = [], [], [], []
    frontier = [(ROOT, tuple(prefix), drafter.distribution(tuple(prefix)))]
    for level, width in enumerate(mask.widths, start=1):
        grows = level < mask.depth
        next_frontier = []
        for parent, path, dist in frontier:
            for token, prob in _select_candidates(dist, width, mode, rng):
                node_path = path + (token,)
                child = None
                if grows:
                    child = drafter.distribution(node_path)
                    next_frontier.append((len(tokens), node_path, child))
                tokens.append(token)
                probs.append(prob)
                parents.append(parent)
                child_masses.append(None if child is None else child.mass.tobytes())
        frontier = next_frontier
    return tokens, probs, parents, child_masses


def assert_forest_matches_reference(drafter, prefixes, mask, depths, seeds, mode):
    rngs = [RngStream(seed) for seed in seeds]
    forest = sample_draft_tree(drafter, prefixes, mask, depths, rngs, mode=mode)
    assert len(forest.nodes) == len(forest.tokens)
    for k, (prefix, depth, seed) in enumerate(zip(prefixes, depths, seeds)):
        ref_rng = RngStream(seed)
        tokens, probs, parents, child_masses = reference_tree(
            drafter, prefix, TreeMask(mask.widths[:depth]), ref_rng, mode
        )
        start, end = forest.level_starts[k][0], forest.level_starts[k][-1]
        ids = list(range(start, end))
        assert ids == list(range(start, start + len(tokens)))
        assert [forest.tokens[i] for i in ids] == tokens
        assert [forest.probs[i] for i in ids] == probs
        assert [p if p == ROOT else p - start for p in (forest.parent[i] for i in ids)] == parents
        for i, mass in zip(ids, child_masses):
            row = int(forest.cond_row[i])
            assert (row < 0) == (mass is None)
            if row >= 0:
                assert forest.draft_table[row].tobytes() == mass
            assert forest.path(i) == tuple(prefix) + tuple(
                forest.tokens[a] for a in reversed(list(_ancestors(forest, i)))
            )
        assert rngs[k].counter == ref_rng.counter
        assert tree_depth(forest, k) == depth


def _ancestors(forest, node):
    while node != ROOT:
        yield node
        node = forest.parent[node]


# --- forests against the scalar drafter ----------------------------------------


@pytest.mark.parametrize("mode", [TOPK, STOCHASTIC])
def test_forests_match_the_scalar_drafter_on_grid_and_tabular_drafters(mode, grid_drafter):
    tabular1 = random_tabular_model(5, 1, seed=4, h=3)
    tabular2 = random_tabular_model(5, 2, seed=6, h=3)
    cases = [
        (LinearDrafter.zeros(32, 8), 32),
        (grid_drafter, 32),
        (GridWorldModel.default(), 32),
        (tempered_table_drafter(tabular1), 5),
        (tempered_table_drafter(tabular2), 5),
    ]
    for drafter, vocab in cases:
        # Prefixes of several lengths, lanes clipped to different depths.
        prefixes = [[(7 * k + 3 * i) % vocab for i in range(n)] for k, n in enumerate((0, 1, 5, 17, 40))]
        assert_forest_matches_reference(
            drafter, prefixes, TreeMask.default(), [5, 3, 5, 1, 2], [11, 12, 13, 14, 15], mode
        )


@pytest.mark.parametrize("mode", [TOPK, STOCHASTIC])
def test_forests_match_the_scalar_drafter_on_pruned_rows(mode):
    # Three positive tokens against widths of 4: every row yields fewer candidates.
    drafter = FixedDrafter([0.5, 0.0, 0.3, 0.2, 0.0, 0.0])
    for mask in (TreeMask((4, 2, 1)), TreeMask((4, 4)), TreeMask((2, 4, 1))):
        assert_forest_matches_reference(
            drafter, [[], [1], [2, 3]], mask, [mask.depth, 1, mask.depth], [3, 4, 5], mode
        )


@pytest.mark.parametrize(
    "mass",
    [
        [0.5, 0.5 - 1e-12, 1e-12, 0.0],
        [0.5 - 2e-12, 0.5, 2e-12, 0.0],
        [0.4, 0.6 - 3e-13, 0.0, 3e-13],
        [1.0 - 1e-12, 1e-12, 0.0, 0.0],
        [0.25, 0.25, 0.5 - 1e-10, 1e-10],
    ],
)
def test_stochastic_rows_at_the_exhaustion_floor_match_the_scalar_drafter(mass):
    drafter = FixedDrafter(mass)
    dist = ProbDist(mass)
    for width in (2, 3, 4):
        mask = TreeMask((width, 2))
        assert_forest_matches_reference(
            drafter, [[], [0], [1]], mask, [2, 2, 1], [7, 8, 9], STOCHASTIC
        )
        # Level 1 of lane 0 is one row drawn on its own stream.
        rng = RngStream(21)
        forest = sample_draft_tree(drafter, [[]], TreeMask((width,)), [1], [rng], mode=STOCHASTIC)
        ref_rng = RngStream(21)
        expected = _select_candidates(dist, width, STOCHASTIC, ref_rng)
        assert [(forest.tokens[n], forest.probs[n]) for n in tree_level(forest, 1)] == expected
        assert rng.counter == ref_rng.counter


def test_random_rows_with_zeros_and_tiny_masses_match_the_scalar_drafter():
    rng_np = np.random.default_rng(5)
    for trial in range(60):
        vocab = int(rng_np.integers(2, 9))
        mass = rng_np.dirichlet(np.ones(vocab))
        mass[rng_np.random(vocab) < 0.3] = 0.0
        if trial % 3 == 0:
            mass[rng_np.integers(vocab)] = 10.0 ** -rng_np.integers(9, 14)
        if mass.sum() == 0.0:
            mass[0] = 1.0
        mass /= mass.sum()
        drafter = FixedDrafter(mass)
        for mode in (TOPK, STOCHASTIC):
            widths = tuple(int(w) for w in rng_np.integers(1, vocab + 1, size=2))
            assert_forest_matches_reference(
                drafter, [[], [0], []], TreeMask(widths), [2, 1, 2], [trial, trial + 1, trial + 2],
                mode,
            )


class IndexDrafter:
    """Context-free drafter whose conditional at sequence index i is `masses[i % len(masses)]`."""

    grid_side = None
    context = 0

    def __init__(self, masses):
        self.masses = np.array(masses)
        self.masses.flags.writeable = False
        self.vocab = self.masses.shape[1]

    def distribution(self, prefix):
        return ProbDist(self.masses[len(prefix) % len(self.masses)])

    def conditionals(self, contexts, index):
        return self.masses[np.asarray(index) % len(self.masses)]


def test_forests_mixing_row_by_row_and_stepped_levels_match_the_scalar_drafter():
    # Even indexes hold a row with a tiny and a zero mass, which can stop
    # before its width; odd indexes a row with no small mass, which cannot.
    # Level 1 sits at an even index, so each forest leaves its full layout at
    # once and draws its odd levels from lane cursors too: each lane must
    # read its uniforms on from those its earlier levels used.
    slow = [0.6, 0.4 - 1e-12, 1e-12, 0.0]
    fast = [0.1, 0.2, 0.3, 0.4]
    uniforms = np.random.default_rng(0).random((200, 3))
    _, drawn = _draw_steps(np.array([slow] * 200), uniforms)
    assert drawn is not None and drawn.min() < 3
    # After its two largest masses are drawn, a fast row still holds more than the floor.
    assert sum(sorted(fast)[:2]) > EXHAUSTION_FLOOR
    assert _draw_steps(np.array([fast] * 200), uniforms)[1] is None
    drafter = IndexDrafter([slow, fast])
    prefixes = [[], [1, 2], [3, 0], [0, 1, 2, 3]]  # even lengths: every level is one kind
    for mask in (TreeMask((3, 2, 2)), TreeMask((2, 3, 1, 2))):
        for seeds in ((1, 2, 3, 4), (50, 60, 70, 80), (9, 9, 9, 9)):
            assert_forest_matches_reference(
                drafter, prefixes, mask, [mask.depth, 1, mask.depth - 1, mask.depth], seeds, STOCHASTIC
            )


def test_forests_falling_back_after_full_levels_match_the_scalar_drafter():
    # Indexes 0 and 1 (mod 3) hold rows every candidate can be drawn from in
    # one pass; index 2 a row with a tiny mass, which can stop a stochastic
    # row early, or with one positive token, which a top-k level of width 3
    # cannot fill. Prefix lengths divisible by 3 make levels 1 and 2 full and
    # level 3 the first to leave the full layout; later levels stay off it.
    # Each lane must read on from its own first uniform of level 3, and
    # lanes that stop above level 3 must use up their blocks.
    fast = [[0.1, 0.2, 0.3, 0.4], [0.4, 0.1, 0.25, 0.25]]
    for mode, odd in ((STOCHASTIC, [0.6, 0.4 - 1e-12, 1e-12, 0.0]), (TOPK, [0.0, 1.0, 0.0, 0.0])):
        drafter = IndexDrafter([*fast, odd])
        prefixes = [[], [1, 2, 3], [3, 0, 2], [0, 1, 2, 3, 0, 1], [2, 2, 2]]
        for mask in (TreeMask((2, 2, 3, 2)), TreeMask((3, 1, 3, 1, 2))):
            depths = [mask.depth, 1, 2, mask.depth, 3]
            for seeds in ((1, 2, 3, 4, 5), (50, 60, 70, 80, 90)):
                assert_forest_matches_reference(drafter, prefixes, mask, depths, seeds, mode)


# --- lanes against one-lane decodes ----------------------------------------------


def one_lane_decodes(target, drafter, mode, mask, cfg, length, candidate_mode):
    results = []
    for seed in SEEDS:
        rng = RngStream(seed)
        calls = []
        tokens, stats = decode_sequence(
            target, drafter, mode, mask, cfg, length, rng, candidate_mode=candidate_mode,
            on_outcome=lambda cycle, outcome: calls.append((cycle, outcome)),
        )
        results.append((tokens, stats, calls, rng.counter))
    return results


def lockstep_decodes(target, drafter, mode, mask, cfg, length, candidate_mode):
    rngs = [RngStream(seed) for seed in SEEDS]
    calls = [[] for _ in SEEDS]
    lanes = decode_lanes(
        target, drafter, mode, mask, cfg, length, rngs, candidate_mode=candidate_mode,
        on_outcome=lambda lane, cycle, outcome: calls[lane].append((cycle, outcome)),
    )
    return [(tokens, stats, c, rng.counter) for (tokens, stats), c, rng in zip(lanes, calls, rngs)]


def assert_lanes_match_one_lane_decodes(target, drafter, mode, mask, cfg, length, candidate_mode):
    expected = one_lane_decodes(target, drafter, mode, mask, cfg, length, candidate_mode)
    actual = lockstep_decodes(target, drafter, mode, mask, cfg, length, candidate_mode)
    for (tokens, stats, calls, counter), (l_tokens, l_stats, l_calls, l_counter) in zip(expected, actual):
        assert l_tokens == tokens and len(tokens) == length
        assert l_stats == stats
        assert l_counter == counter
        assert [cycle for cycle, _ in l_calls] == [cycle for cycle, _ in calls]
        for (_, outcome), (_, l_outcome) in zip(calls, l_calls):
            assert l_outcome.accepted_tokens == outcome.accepted_tokens
            assert l_outcome.correction_token == outcome.correction_token
            assert l_outcome.tvd_consumed == outcome.tvd_consumed
            # Same decisions, the same target conditional objects and the same relaxations.
            assert l_outcome.trace == outcome.trace
            for rec, l_rec in zip(outcome.trace, l_outcome.trace):
                assert l_rec.transfers == rec.transfers
                assert l_rec.q_dist.mass.tobytes() == rec.q_dist.mass.tobytes()
    return expected


def test_decisions_become_trace_records_only_when_read(monkeypatch):
    made = []
    make, new = TraceRecord._make, TraceRecord.__new__

    def counting_make(cls, iterable):
        made.append("_make")
        return make(iterable)

    def counting_new(cls, *args, **kwargs):
        made.append("__new__")
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(TraceRecord, "_make", classmethod(counting_make))
    monkeypatch.setattr(TraceRecord, "__new__", counting_new)
    target, drafter = GridWorldModel.default(), LinearDrafter.zeros(32, 8)
    args = (target, drafter, "cascade", TreeMask.default(), RelaxConfig(), 23)
    plain = decode_lanes(*args, [RngStream(seed) for seed in SEEDS])
    assert made == []

    outcomes = []
    traced = decode_lanes(
        *args, [RngStream(seed) for seed in SEEDS],
        on_outcome=lambda lane, cycle, outcome: outcomes.append((lane, cycle, outcome)),
    )
    assert traced == plain and made == []  # a sink that reads no trace builds no records
    first = [outcome.trace for _, _, outcome in outcomes]
    decisions = sum(map(len, first))
    assert decisions > 0 and len(made) == decisions  # one record per decision
    assert [outcome.trace for _, _, outcome in outcomes] == first
    assert len(made) == decisions  # a second read builds nothing more
    for (lane, cycle, outcome), records in zip(outcomes, first):
        assert outcome.trace_lines(SEEDS[lane], cycle) == [rec.to_line(SEEDS[lane], cycle) for rec in records]


JITTER_RELAX = RelaxConfig(tau_pos=0.998, tau_seq=0.998)


@pytest.mark.parametrize("candidate_mode", [TOPK, STOCHASTIC])
@pytest.mark.parametrize("mode", ["ar", "vanilla", "cascade"])
def test_grid_lanes_match_one_lane_decodes(mode, candidate_mode, grid_drafter):
    plain, jitter = GridWorldModel.default(), GridWorldModel.default(feature_jitter=0.05)
    zero = LinearDrafter.zeros(32, 8)
    # 64 fills the grid; 23 ends every lane on a clipped tree.
    cycles = set()
    for target, drafter, cfg, length in (
        (plain, zero, RelaxConfig(), 64),
        (plain, grid_drafter, RelaxConfig(), 23),
        (jitter, zero, JITTER_RELAX, 23),
    ):
        results = assert_lanes_match_one_lane_decodes(
            target, drafter, mode, TreeMask.default(), cfg, length, candidate_mode
        )
        cycles.add(tuple(stats.verify_calls for _, stats, _, _ in results))
    # Some lanes finish on different cycles from others.
    assert mode == "ar" or any(len(set(calls)) > 1 for calls in cycles)


@pytest.mark.parametrize("candidate_mode", [TOPK, STOCHASTIC])
@pytest.mark.parametrize("mode", ["ar", "vanilla", "cascade"])
@pytest.mark.parametrize("order", [1, 2])
def test_tabular_lanes_match_one_lane_decodes(order, mode, candidate_mode):
    target = random_tabular_model(5, order, seed=3 + order, h=3)
    drafter = tempered_table_drafter(target)
    for mask, length in ((TreeMask.default(), 16), (TreeMask((2, 1, 1)), 7), (TreeMask.chain(3), 3)):
        assert_lanes_match_one_lane_decodes(target, drafter, mode, mask, RelaxConfig(), length, candidate_mode)


@pytest.mark.parametrize("candidate_mode", [TOPK, STOCHASTIC])
@pytest.mark.parametrize("mode", ["vanilla", "cascade"])
def test_lanes_with_pruned_rows_match_one_lane_decodes(mode, candidate_mode):
    target = random_tabular_model(6, 1, seed=8, h=3)
    drafter = FixedDrafter([0.5, 0.0, 0.3, 0.2 - 1e-12, 1e-12, 0.0])
    assert_lanes_match_one_lane_decodes(
        target, drafter, mode, TreeMask((4, 2, 1)), RelaxConfig(tau_pos=0.3, tau_seq=0.3), 11,
        candidate_mode,
    )


def test_lanes_finish_on_different_cycles_and_stop_drawing():
    target = GridWorldModel.default()
    rngs = [RngStream(seed) for seed in range(6)]
    lanes = decode_lanes(
        target, LinearDrafter.zeros(32, 8), "cascade", TreeMask.default(), RelaxConfig(), 30, rngs,
        candidate_mode=STOCHASTIC,
    )
    assert len({stats.verify_calls for _, stats in lanes}) > 1
    for (tokens, stats), seed, rng in zip(lanes, range(6), rngs):
        alone = RngStream(seed)
        assert decode_sequence(
            target, LinearDrafter.zeros(32, 8), "cascade", TreeMask.default(), RelaxConfig(), 30, alone,
            candidate_mode=STOCHASTIC,
        ) == (tokens, stats)
        assert rng.counter == alone.counter


def _permuted_decode(target, drafter, mode, mask, length, seeds, candidate_mode):
    """Decode one lane per seed; per seed its result, final counter and trace lines, and every sink call."""
    rngs = [RngStream(seed) for seed in seeds]
    lines = {seed: [] for seed in seeds}
    calls = []

    def sink(lane, cycle, outcome):
        calls.append((cycle, lane))
        lines[seeds[lane]] += outcome.trace_lines(seeds[lane], cycle)

    lanes = decode_lanes(
        target, drafter, mode, mask, RelaxConfig(), length, rngs, candidate_mode=candidate_mode, on_outcome=sink
    )
    per_seed = {seed: (result, rng.counter, lines[seed]) for seed, result, rng in zip(seeds, lanes, rngs)}
    return per_seed, calls


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    widths=st.sampled_from([(4, 2, 2, 1, 1), (3, 2), (1, 1, 1)]),
    mode=st.sampled_from(["vanilla", "cascade"]),
    candidate_mode=st.sampled_from([TOPK, STOCHASTIC]),
    length=st.integers(2, 24),
    seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=5, unique=True),
    shuffler=st.randoms(use_true_random=False),
)
@example(
    widths=(4, 2, 2, 1, 1), mode="cascade", candidate_mode=STOCHASTIC, length=24, seeds=[0, 1, 2, 3, 4],
    shuffler=random.Random(1),
)
def test_decoding_permuted_streams_permutes_the_results(
    gridworld, grid_drafter, widths, mode, candidate_mode, length, seeds, shuffler
):
    # Where lanes end on different cycles, mixed-depth cycles are drafted deepest first;
    # each lane's tokens, stats, counter and trace lines must not depend on where it sits.
    permuted = list(seeds)
    shuffler.shuffle(permuted)
    args = (gridworld, grid_drafter, mode, TreeMask(widths), length)
    expected, _ = _permuted_decode(*args, seeds, candidate_mode)
    actual, calls = _permuted_decode(*args, permuted, candidate_mode)
    assert actual == expected
    # The sink sees every cycle in turn, and the lanes of a cycle in lane order.
    assert calls == sorted(calls)
    if len({stats.verify_calls for (_, stats), _, _ in expected.values()}) > 1:
        event("lanes end on different cycles")


@pytest.fixture
def layouts(monkeypatch):
    """A fresh layout cache, and the depths of every layout laid out from then on."""
    from specrelax import tree

    cache = tree._LayoutCache(tree._layouts.bound)
    monkeypatch.setattr(tree, "_layouts", cache)
    built = []
    skeleton = tree._skeleton
    monkeypatch.setattr(tree, "_skeleton", lambda depths, kids: built.append(depths) or skeleton(depths, kids))
    return cache, built


def _cache_decode():
    rngs = [RngStream(seed) for seed in range(4)]
    lanes = decode_lanes(
        GridWorldModel.default(), LinearDrafter.zeros(32, 8), "cascade", TreeMask.default(), RelaxConfig(),
        30, rngs, candidate_mode=STOCHASTIC,
    )
    return lanes, [rng.counter for rng in rngs]


def test_a_decode_run_again_builds_no_layout(layouts, monkeypatch):
    from specrelax import tree

    cache, built = layouts
    first = _cache_decode()
    # Lanes reach the end of the sequence after different numbers of tokens.
    assert any(len(set(depths)) > 1 for depths in built)
    once = list(built)
    # A shape is kept from its first request on: the rerun lays out again only what the first laid out.
    built.clear()
    assert _cache_decode() == first
    assert set(built) <= set(once)
    built.clear()
    indexed = []
    pairs = tree.forest_pairs
    monkeypatch.setattr(tree, "forest_pairs", lambda *args: indexed.append(args) or pairs(*args))
    assert _cache_decode() == first
    # Every layout, and the pairs each indexed, come back from the cache.
    assert built == [] and indexed == []


def _draft(depths):
    return sample_draft_tree(
        LinearDrafter.zeros(32, 8), [(1,)] * len(depths), TreeMask.default(), depths,
        [RngStream(k) for k in range(len(depths))], mode=STOCHASTIC,
    )


def test_a_shape_is_kept_from_its_first_request(layouts):
    cache, built = layouts
    widths = TreeMask.default().widths
    # Mixed shapes of at most four lanes are kept at once: drafting them again lays nothing out.
    for depths in [(5, 3), (4, 4, 1), (5, 3), (4, 4, 1)]:
        _draft(depths)
    assert built == [(5, 3), (4, 4, 1)]
    assert list(cache.layouts) == [(widths, (5, 3)), (widths[:4], (4, 4, 1))]
    # Eight lanes of mixed depths make more shapes than the cache holds: never kept, unlike eight uniform lanes.
    built.clear()
    for depths in [(5,) * 7 + (2,), (5,) * 8, (5,) * 7 + (2,), (5,) * 8]:
        _draft(depths)
    assert built == [(5,) * 7 + (2,), (5,) * 8, (5,) * 7 + (2,)]
    assert not cache.fits(widths, 8) and cache.fits(widths, 4)
    assert list(cache.layouts) == [(widths, (5, 3)), (widths[:4], (4, 4, 1)), (widths, (5,) * 8)]


def _assert_same(kept, fresh):
    """Equal arrays byte for byte (with dtype and shape), and equal tuples, ranges and values, all the way down."""
    if isinstance(fresh, np.ndarray):
        assert (kept.dtype, kept.shape, kept.tobytes()) == (fresh.dtype, fresh.shape, fresh.tobytes())
    elif isinstance(fresh, tuple):
        assert type(kept) is type(fresh) and len(kept) == len(fresh)
        for a, b in zip(kept, fresh):
            _assert_same(a, b)
    else:
        assert kept == fresh


def test_a_kept_layout_is_the_layout_built_for_its_shape(layouts):
    from specrelax import tree

    cache, _ = layouts
    widths = TreeMask.default().widths
    shapes = [
        depths for n in range(1, 5) for depths in combinations_with_replacement(range(5, 0, -1), n)
    ]
    for depths in shapes * 2:
        forest = _draft(depths)
        layout = cache.get(widths[: max(depths)], depths)
        fresh = tree._skeleton(depths, widths[: max(depths)])
        for name in tree._Skeleton._fields:
            if name != "pairs":
                _assert_same(getattr(layout, name), getattr(fresh, name))
        assert list(layout.children) == list(fresh.children)
        # The pairs the layout keeps for its forests are those a fresh index gives.
        _assert_same(forest.pairs(), tree.forest_pairs(fresh.parent, fresh.lane, fresh.level))
        assert layout.pairs[0] is forest.pairs()


def test_the_layout_cache_never_holds_more_nodes_than_its_bound(layouts):
    cache, built = layouts
    widths = TreeMask.default().widths

    def held():
        return sum(len(kept.parent) for kept in cache.layouts.values())

    # Every deepest-first shape of one to four lanes, asked for twice: more nodes than the bound.
    shapes = [
        depths for n in range(1, 5) for depths in combinations_with_replacement(range(5, 0, -1), n)
    ]
    for depths in shapes * 2:
        cache.get(widths[: max(depths)], depths)
        assert cache.nodes == held() <= cache.bound
    assert len(cache.layouts) < len(shapes)
    # A 512-lane block holds more nodes than the bound, whatever its depths.
    for depths in [(5,) * 512, (5,) * 300 + (4,) * 212] * 2:
        _draft(depths)
        assert cache.nodes == held() <= cache.bound
    assert all(len(depths) <= 4 for _, depths in cache.layouts)
    # Yet a run of such forests lays their layout out once.
    built.clear()
    for _ in range(3):
        _draft((5,) * 512)
    assert built == [(5,) * 512]


def test_a_small_cache_starts_its_shared_ranges_afresh_and_keeps_building_true_layouts():
    from specrelax import tree

    cache = tree._LayoutCache(120)
    widths = TreeMask.default().widths
    shapes = [depths for n in (1, 2) for depths in combinations_with_replacement(range(5, 0, -1), n)]
    cleared = 0
    for depths in shapes * 2:
        before = len(cache.ranges)
        layout = cache.get(widths[: max(depths)], depths)
        cleared += len(cache.ranges) < before
        fresh = tree._skeleton(depths, widths[: max(depths)])
        for name in tree._Skeleton._fields:
            if name != "pairs":
                _assert_same(getattr(layout, name), getattr(fresh, name))
        assert list(layout.children) == list(fresh.children)
        assert len(cache.ranges) <= cache.bound + len(layout.children)
    assert cleared > 0


# --- lanes sharing a root prefix -------------------------------------------------


class Counting:
    """A model whose `distribution` and `evaluate` calls are listed, each with its prefix."""

    def __init__(self, model):
        self.model = model
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.model, name)

    def distribution(self, prefix):
        self.calls.append(tuple(prefix))
        return self.model.distribution(prefix)

    def evaluate(self, prefix):
        self.calls.append(tuple(prefix))
        return self.model.evaluate(prefix)


# (1, 3) and (2, 3) share their length and last token: only the whole prefix tells them apart.
SHARED_PREFIXES = [(), (1, 3), (3,), (), (2, 3), (1, 3), (3,), (1, 3)]


def _shared_prefix_models(case, grid_drafter):
    if case == "tabular":
        target = random_tabular_model(5, 2, seed=6, h=3)
        return target, tempered_table_drafter(target)
    if case == "grid":
        return GridWorldModel.default(), grid_drafter
    return GridWorldModel.default(feature_jitter=0.05), LinearDrafter.zeros(32, 8)


@pytest.mark.parametrize("mode", [TOPK, STOCHASTIC])
@pytest.mark.parametrize("case", ["tabular", "grid", "grid-jitter"])
def test_lanes_sharing_a_prefix_share_one_root_pass(case, mode, grid_drafter):
    target, drafter = _shared_prefix_models(case, grid_drafter)
    mask = TreeMask((2, 2, 1))
    depths = [3, 3, 2, 3, 3, 1, 3, 3]
    counted_drafter, counted_target = Counting(drafter), Counting(target)
    forest = sample_draft_tree(
        counted_drafter, SHARED_PREFIXES, mask, depths, [RngStream(k) for k in range(8)], mode=mode
    )
    evals = evaluate_tree(counted_target, forest)
    distinct = list(dict.fromkeys(SHARED_PREFIXES))
    assert counted_drafter.calls == distinct
    assert counted_target.calls == distinct
    assert forest.root_prefixes == distinct
    # Each lane's tree and evaluations are those of a forest of that lane alone.
    for k, (prefix, depth) in enumerate(zip(SHARED_PREFIXES, depths)):
        rng = RngStream(k)
        alone = sample_draft_tree(drafter, [prefix], mask, [depth], [rng], mode=mode)
        alone_evals = evaluate_tree(target, alone)
        ids = list(range(forest.level_starts[k][0], forest.level_starts[k][-1]))
        assert [forest.tokens[i] for i in ids] == alone.tokens
        assert [forest.probs[i] for i in ids] == alone.probs
        root_row, alone_row = forest.root_row + forest.root_index[k], alone.root_row
        assert forest.draft_table[root_row].tobytes() == alone.draft_table[alone_row].tobytes()
        assert evals.laws.mass[evals.law[ids]].tobytes() == alone_evals.laws.mass[alone_evals.law].tobytes()
        assert evals.q[ids[0] : ids[-1] + 1] == alone_evals.q
        assert evals.threshold[ids].tobytes() == alone_evals.threshold.tobytes()
        assert evals.features[ids].tobytes() == alone_evals.features.tobytes()
        assert evals.norms[ids].tobytes() == alone_evals.norms.tobytes()


@pytest.mark.parametrize("case", ["tabular", "grid"])
def test_a_lane_with_a_prefix_out_of_range_raises_before_any_draw(case, grid_drafter):
    target, drafter = _shared_prefix_models(case, grid_drafter)
    bad = (1, 40)  # token 40 lies outside both vocabularies
    with pytest.raises(UnknownWindow) as alone:
        drafter.distribution(bad)
    rngs = [RngStream(k) for k in range(4)]
    with pytest.raises(UnknownWindow) as lanes:
        sample_draft_tree(drafter, [(), (1, 3), bad, (1, 3)], TreeMask((2, 1)), [2] * 4, rngs, mode=STOCHASTIC)
    assert str(lanes.value) == str(alone.value)
    assert [rng.counter for rng in rngs] == [0] * 4


# --- corrections drawn once per cycle ---------------------------------------------


def test_a_standalone_outcome_draws_its_correction_on_read_from_the_uniform_it_kept():
    from specrelax import DegenerateResidual, residual_dist, verify_cascade, verify_vanilla

    target = random_tabular_model(4, 1, seed=11)
    drafter = tempered_table_drafter(target)
    cfg = RelaxConfig(tau_pos=0.3, tau_seq=0.3)
    for mode in ("vanilla", "cascade"):
        rejected = relaxed = 0
        for seed in range(200):
            rng = RngStream(seed)
            tree = sample_draft_tree(drafter, [[seed % 4]], TreeMask((2, 1)), [2], [rng], mode=STOCHASTIC)
            evals = evaluate_tree(target, tree)
            start = rng.counter
            if mode == "cascade":
                outcome = verify_cascade(tree, evals, cfg, rng)
                relaxed += outcome.tvd_consumed > 0.0
            else:
                outcome = verify_vanilla(tree, evals, rng)
            decisions = len(outcome.trace)
            if outcome.trace[-1].decision == "accept":
                assert rng.counter == start + decisions and outcome.correction_token is None
                continue
            rejected += 1
            # The correction's uniform is drawn by the walk, right after the last decision's.
            assert rng.counter == start + decisions + 1
            siblings, parent = tree_level(tree, 1), ROOT
            for rec in outcome.trace:
                node = siblings[rec.sibling]
                if rec.decision == "accept":
                    siblings, parent = tree.children[node], node
            last = outcome.trace[-1]
            p_dist = ProbDist(tree.draft_table[tree.root_row if parent == ROOT else tree.cond_row[parent]])
            try:
                law = residual_dist(last.q_dist, p_dist)
            except DegenerateResidual:
                law = last.q_dist
            expected = law.sample(RngStream(seed, counter=start + decisions))
            assert outcome.correction_token == expected
            assert outcome.emitted_tokens == outcome.accepted_tokens + [expected]
            assert rng.counter == start + decisions + 1  # reading it draws nothing more
        assert rejected > 20
        # The cascade walks relax often, so they take other paths than the vanilla ones.
        assert (relaxed > 20) == (mode == "cascade")


@pytest.mark.parametrize("sinked", [True, False], ids=["sink", "no sink"])
def test_lanes_draw_every_correction_of_a_cycle_in_one_pass(monkeypatch, chain_walks, sinked):
    import specrelax.core as core_mod
    import specrelax.verify as verify_mod

    # Each cycle drafts one forest ("tree"); each correction pass logs its rows.
    events, per_lane = [], []
    real = verify_mod.sample_corrections
    draft = verify_mod.sample_draft_tree

    def counting_pass(q, p, r):
        events.append(len(r))
        return real(q, p, r)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            per_lane.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(verify_mod, "sample_corrections", counting_pass)
    monkeypatch.setattr(verify_mod, "sample_draft_tree", lambda *a, **kw: events.append("tree") or draft(*a, **kw))
    monkeypatch.setattr(core_mod, "residual_dist", counting("residual_dist", core_mod.residual_dist))
    monkeypatch.setattr(ProbDist, "sample", counting("sample", ProbDist.sample))
    target = random_tabular_model(4, 1, seed=11)
    drafter = tempered_table_drafter(target)
    seen = []

    def record(lane, cycle, outcome):
        seen.append((cycle, lane, outcome.emitted_tokens, outcome.correction_token is not None))

    rngs = [RngStream(100 + k) for k in range(64)]
    lanes = decode_lanes(
        target, drafter, "vanilla", TreeMask.chain(3), RelaxConfig(), 6, rngs,
        candidate_mode=STOCHASTIC, on_outcome=record if sinked else None,
    )
    assert per_lane == []
    # Nothing reads a chain forest's decisions without a sink, so its block cycles skip the per-lane walks.
    assert bool(chain_walks) != sinked
    # At most one pass per cycle, each with a row per correction: one pass per rejecting cycle.
    per_cycle = "".join("t" if e == "tree" else "p" for e in events)
    assert "pp" not in per_cycle and not per_cycle.startswith("p")
    passes = [e for e in events if e != "tree"]
    assert all(passes) and sum(passes) > 20
    assert sum(passes) == sum(stats.tokens_emitted - stats.accepted_draft_tokens for _, stats in lanes)
    if sinked:
        # One row per rejecting lane of its cycle.
        cycles = sorted({cycle for cycle, *_ in seen})
        corrections = [sum(corrected for cycle, _, _, corrected in seen if cycle == c) for c in cycles]
        assert passes == [n for n in corrections if n]
        # Each lane's outcomes arrive in lane order within a cycle, their corrections drawn.
        for c in cycles:
            order = [lane for cycle, lane, _, _ in seen if cycle == c]
            assert order == sorted(order)
        for lane, (tokens, _) in enumerate(lanes):
            assert [t for cycle, k, emitted, _ in seen if k == lane for t in emitted] == tokens
    # The same tokens as one-lane decodes, whose corrections are drawn on read.
    monkeypatch.setattr(verify_mod, "sample_corrections", real)
    for k in (0, 17, 63):
        alone, _ = decode_sequence(
            target, drafter, "vanilla", TreeMask.chain(3), RelaxConfig(), 6, RngStream(100 + k),
            candidate_mode=STOCHASTIC,
        )
        assert alone == lanes[k][0]


@pytest.mark.parametrize("mode", ["ar", "vanilla"])
def test_a_stream_listed_twice_is_refused_before_any_draw(mode):
    # Two lanes on one stream would interleave their draws, so the tokens would hang on
    # how the lanes' walks are scheduled.
    rng, other = RngStream(5), RngStream(6)
    with pytest.raises(ConfigError, match="listed twice"):
        decode_lanes(
            GridWorldModel.default(), LinearDrafter.zeros(32, 8), mode, TreeMask.default(), RelaxConfig(), 16,
            [rng, other, rng], candidate_mode=STOCHASTIC,
        )
    assert rng.counter == other.counter == 0


# --- verification uniforms from one block per cycle ---------------------------------


def _tabular_chain():
    target = random_tabular_model(4, 1, seed=11)
    return target, tempered_table_drafter(target), TreeMask.chain(3), RelaxConfig(), 3, tuple(range(64))


# (target, drafter, mask, relaxation, length, seeds) of each case, from the trained grid drafter.
BLOCK_CASES = {
    "grid-zero": lambda trained: (
        GridWorldModel.default(), LinearDrafter.zeros(32, 8), TreeMask.default(), RelaxConfig(), 64, SEEDS,
    ),
    "grid-trained": lambda trained: (
        GridWorldModel.default(), trained, TreeMask.default(), RelaxConfig(), 23, SEEDS,
    ),
    "tabular-chain": lambda trained: _tabular_chain(),
    "pruned-rows": lambda trained: (
        random_tabular_model(6, 1, seed=8, h=3), FixedDrafter([0.5, 0.0, 0.3, 0.2 - 1e-12, 1e-12, 0.0]),
        TreeMask((4, 2, 1)), RelaxConfig(tau_pos=0.3, tau_seq=0.3), 11, SEEDS,
    ),
    # Lanes reach the end of the sequence after different numbers of cycles.
    "staggered": lambda trained: (
        GridWorldModel.default(), LinearDrafter.zeros(32, 8), TreeMask.default(), RelaxConfig(), 30, range(6),
    ),
}


def _decode_at_crossover(monkeypatch, crossover, case, mode, candidate_mode):
    import specrelax.verify as verify_mod

    target, drafter, mask, cfg, length, seeds = case
    blocks = []
    peek = verify_mod.peek_reals
    monkeypatch.setattr(verify_mod, "_BLOCK_MIN", crossover)
    monkeypatch.setattr(verify_mod, "peek_reals", lambda rngs, counts: blocks.append(counts) or peek(rngs, counts))
    rngs = [RngStream(seed) for seed in seeds]
    lines = []

    def sink(lane, cycle, outcome):
        lines.append((lane, cycle, outcome.emitted_tokens, outcome.trace_lines(seeds[lane], cycle)))

    lanes = decode_lanes(
        target, drafter, mode, mask, cfg, length, rngs, candidate_mode=candidate_mode, on_outcome=sink
    )
    monkeypatch.setattr(verify_mod, "peek_reals", peek)
    return (lanes, [rng.counter for rng in rngs], lines), blocks


@pytest.mark.parametrize("candidate_mode", [TOPK, STOCHASTIC])
@pytest.mark.parametrize("mode", ["vanilla", "cascade"])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_walks_on_the_cycle_block_equal_walks_on_the_streams(
    monkeypatch, case, mode, candidate_mode, grid_drafter
):
    built = BLOCK_CASES[case](grid_drafter)
    on_block, blocks = _decode_at_crossover(monkeypatch, 0, built, mode, candidate_mode)
    on_streams, none = _decode_at_crossover(monkeypatch, 10**9, built, mode, candidate_mode)
    # Tokens, stats, final counters, emitted tokens and trace lines, lane by lane and cycle by cycle.
    assert on_block == on_streams
    lanes = on_block[0]
    # Drafting peeks too; the walks add one block per cycle, and none on the streams.
    cycles = max(stats.verify_calls for _, stats in lanes)
    assert len(blocks) - len(none) == cycles
    if case == "staggered":
        assert len({stats.verify_calls for _, stats in lanes}) > 1


# --- chain forests decided in one pass ----------------------------------------------


@pytest.fixture
def chain_walks(monkeypatch):
    """The `need` list of every cycle that took the batched chain walk."""
    import specrelax.verify as verify_mod

    calls = []
    walk = verify_mod._walk_chains

    def counting(tree, evals, streams, need):
        calls.append(list(need))
        return walk(tree, evals, streams, need)

    monkeypatch.setattr(verify_mod, "_walk_chains", counting)
    return calls


def _decode_chains(target, drafter, mode, mask, cfg, length, lanes, candidate_mode, sink):
    rngs = [RngStream(1000 + k) for k in range(lanes)]
    results = decode_lanes(
        target, drafter, mode, mask, cfg, length, rngs, candidate_mode=candidate_mode, on_outcome=sink
    )
    return results, [rng.counter for rng in rngs]


NO_DONORS = RelaxConfig(tau_pos=1.01, tau_seq=1.01)
# (target, drafter, mode, mask, relaxation, length, lanes) of each chain case.
CHAIN_CASES = {
    "tabular-vanilla": lambda trained: (*_tabular_chain()[:2], "vanilla", TreeMask.chain(3), RelaxConfig(), 3, 500),
    "tabular-cascade-no-donors": lambda trained: (
        *_tabular_chain()[:2], "cascade", TreeMask.chain(3), NO_DONORS, 3, 500,
    ),
    "tabular-cascade-donors": lambda trained: (
        *_tabular_chain()[:2], "cascade", TreeMask.chain(3), RelaxConfig(), 3, 500,
    ),
    # A 7-token decode on a chain of 3: later cycles mix lanes of depth 1, 2 and 3.
    "tabular-mixed-depths": lambda trained: (
        *_tabular_chain()[:2], "vanilla", TreeMask.chain(3), RelaxConfig(), 7, 200,
    ),
    "grid-trained": lambda trained: (
        GridWorldModel.default(), trained, "vanilla", TreeMask.chain(3), RelaxConfig(), 20, 40,
    ),
    "grid-trained-cascade-no-donors": lambda trained: (
        GridWorldModel.default(), trained, "cascade", TreeMask.chain(2), NO_DONORS, 20, 40,
    ),
}


@pytest.mark.parametrize("candidate_mode", [TOPK, STOCHASTIC])
@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_chain_forests_decoded_in_one_pass_equal_the_per_lane_walk(chain_walks, case, candidate_mode, grid_drafter):
    built = CHAIN_CASES[case](grid_drafter)
    per_lane = _decode_chains(*built, candidate_mode, lambda lane, cycle, outcome: None)
    assert chain_walks == []
    batched = _decode_chains(*built, candidate_mode, None)
    # Tokens, DecodeStats and every stream's final counter.
    assert batched == per_lane
    if case == "tabular-cascade-donors" and candidate_mode == STOCHASTIC:
        # Every cycle at the crossover or above finds donors, so each lane is walked on its own.
        assert chain_walks == []
        return
    assert chain_walks
    if case == "tabular-mixed-depths" and candidate_mode == STOCHASTIC:
        # Top-k chains of this drafter never reject here, so only stochastic lanes fall out of step.
        assert any(len(set(need)) > 1 for need in chain_walks)


def test_one_lane_small_sinked_and_donor_decodes_take_the_per_lane_walk(chain_walks):
    target, drafter = _tabular_chain()[:2]
    chain = TreeMask.chain(3)
    # One lane; 15 three-level lanes, whose 60 uniforms fall below the block crossover; a sink; donors.
    cases = [
        (1, "vanilla", None),
        (15, "vanilla", None),
        (500, "vanilla", lambda lane, cycle, outcome: None),
        (500, "cascade", None),
    ]
    for lanes, mode, sink in cases:
        _decode_chains(target, drafter, mode, chain, RelaxConfig(), 3, lanes, STOCHASTIC, sink)
    assert chain_walks == []
    # A 16-lane cycle reads the crossover's 64 uniforms exactly, and takes the batched walk.
    _decode_chains(target, drafter, "vanilla", chain, RelaxConfig(), 3, 16, STOCHASTIC, None)
    assert chain_walks[0] == [4] * 16
    # A tree of width 2 never does.
    chain_walks.clear()
    _decode_chains(target, drafter, "vanilla", TreeMask((2, 1)), RelaxConfig(), 3, 500, STOCHASTIC, None)
    assert chain_walks == []


# --- stats folded once per decode ----------------------------------------------------


@pytest.mark.parametrize("lanes", [1, 20])
def test_a_fully_accepted_cycle_emits_its_whole_path_and_draws_no_target_token(chain_walks, lanes):
    # The target as its own stochastic drafter: q/p is 1 at every node, so every node is accepted.
    target = random_tabular_model(4, 1, seed=11)
    chain = TreeMask.chain(3)
    seen = []

    def sink(lane, cycle, outcome):
        seen.append((lane, outcome.accepted_tokens, outcome.correction_token, outcome.emitted_tokens))

    for on_outcome in (None, sink):
        rngs = [RngStream(300 + k) for k in range(lanes)]
        results = decode_lanes(target, target, "vanilla", chain, RelaxConfig(), 6, rngs, STOCHASTIC, on_outcome)
        expected = DecodeStats(
            tokens_emitted=6, target_calls=2, drafter_calls=6, verify_calls=2, accepted_draft_tokens=6
        )
        assert [stats for _, stats in results] == [expected] * lanes
        # Two cycles of three drafting and three walk uniforms each, and never one for a correction.
        assert [rng.counter for rng in rngs] == [12] * lanes
    # 20 lanes of 4 uniforms reach the block crossover: without a sink they take the batched walk.
    assert (chain_walks != []) == (lanes == 20)
    assert len(seen) == 2 * lanes
    for k, (tokens, _) in enumerate(results):
        calls = [(accepted, correction, emitted) for lane, accepted, correction, emitted in seen if lane == k]
        assert [correction for _, correction, _ in calls] == [None, None]
        assert all(len(accepted) == 3 and emitted == accepted for accepted, _, emitted in calls)
        assert calls[0][0] + calls[1][0] == tokens


# (target, drafter, mode, mask, relaxation, length, lanes, candidate mode) of each fold case. Every case
# mixes lane depths on some cycle; all but one have lanes that finish on different cycles.
FOLD_CASES = {
    # Budget charged over several cycles.
    "grid-cascade": lambda trained: (
        GridWorldModel.default(feature_jitter=0.05), LinearDrafter.zeros(32, 8), "cascade",
        TreeMask.default(), RelaxConfig(), 30, 6, TOPK,
    ),
    # Every lane finishes on cycle 9.
    "grid-cascade-trained": lambda trained: (
        GridWorldModel.default(feature_jitter=0.05), trained, "cascade", TreeMask((3, 2, 1)), RelaxConfig(), 25, 8,
        STOCHASTIC,
    ),
    "tabular-cascade-tree": lambda trained: (
        *_tabular_chain()[:2], "cascade", TreeMask((2, 2, 1)), RelaxConfig(), 11, 40, STOCHASTIC,
    ),
    # Many chain lanes: the batched walk.
    "tabular-chain-batched": lambda trained: (
        *_tabular_chain()[:2], "vanilla", TreeMask.chain(3), RelaxConfig(), 7, 200, STOCHASTIC,
    ),
}


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_folded_stats_equal_one_lane_decodes_field_by_field(monkeypatch, chain_walks, case, grid_drafter):
    import specrelax.verify as verify_mod

    target, drafter, mode, mask, cfg, length, lanes, candidate_mode = FOLD_CASES[case](grid_drafter)
    depths = []
    draft = verify_mod.sample_draft_tree
    monkeypatch.setattr(
        verify_mod, "sample_draft_tree", lambda *args, **kwargs: depths.append(list(args[3])) or draft(*args, **kwargs)
    )
    rngs = [RngStream(500 + k) for k in range(lanes)]
    results = decode_lanes(target, drafter, mode, mask, cfg, length, rngs, candidate_mode=candidate_mode)
    assert any(len(set(cycle)) > 1 for cycle in depths), "no cycle mixes lane depths"
    finished = {stats.verify_calls for _, stats in results}
    assert (len(finished) > 1) == (case != "grid-cascade-trained")
    assert (chain_walks != []) == (case == "tabular-chain-batched")
    charging = []
    for k, (tokens, stats) in enumerate(results):
        # The reference counts each call of a one-lane decode of the same stream as it is seen.
        rng, expected, charged = RngStream(500 + k), DecodeStats(), []

        def count(cycle, outcome):
            expected.drafter_calls += min(mask.depth, length - expected.tokens_emitted)
            expected.tokens_emitted += len(outcome.emitted_tokens)
            expected.target_calls += 1
            expected.verify_calls += 1
            expected.accepted_draft_tokens += outcome.alpha
            expected.accumulated_tvd += outcome.tvd_consumed
            charged.append(outcome.tvd_consumed > 0.0)

        alone, alone_stats = decode_sequence(
            target, drafter, mode, mask, cfg, length, rng, candidate_mode=candidate_mode, on_outcome=count
        )
        assert tokens == alone
        assert rng.counter == rngs[k].counter
        for field in dataclasses.fields(DecodeStats):
            assert getattr(stats, field.name) == getattr(expected, field.name), field.name
            assert getattr(alone_stats, field.name) == getattr(expected, field.name), field.name
        assert stats.accumulated_tvd.hex() == alone_stats.accumulated_tvd.hex() == expected.accumulated_tvd.hex()
        charging.append(sum(charged))
    if mode == "cascade":
        assert max(charging) >= 2, "no lane charges budget on two cycles"


# --- no state outlives a decode ----------------------------------------------------


def _module_container_sizes(module):
    """The size of every dict or list among a module's globals, and one level into its tuples."""
    sizes = {}
    for name, value in vars(module).items():
        if name.startswith("__"):
            continue
        items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
        for key, item in items:
            if isinstance(item, (dict, list)):
                sizes[name, key] = len(item)
    return sizes


def test_a_hit_free_cascade_decode_leaves_the_verify_module_as_it_found_it(gridworld):
    import specrelax.verify as verify_mod

    before = _module_container_sizes(verify_mod)
    drafter = LinearDrafter.zeros(gridworld.vocab, gridworld.side)
    rngs = [RngStream(k) for k in range(512)]
    cfg = RelaxConfig(tau_pos=1.01, tau_seq=1.01)
    lanes = decode_lanes(gridworld, drafter, "cascade", TreeMask.default(), cfg, 64, rngs)
    assert all(len(tokens) == 64 for tokens, _ in lanes)
    assert _module_container_sizes(verify_mod) == before
