from __future__ import annotations

import numpy as np
import pytest

from specrelax import (
    ConfigError,
    LinearDrafter,
    RngStream,
    TreeMask,
    VocabExhausted,
    sample_draft_tree,
)
from specrelax.tree import ROOT, STOCHASTIC, TOPK

from conftest import FixedDrafter, draft_one, tree_depth, tree_level


def test_mask_validation():
    with pytest.raises(ConfigError):
        TreeMask(())
    with pytest.raises(ConfigError):
        TreeMask((2, 0))
    with pytest.raises(ConfigError):
        TreeMask((4, 4, 4, 4))  # 340 nodes > default cap
    with pytest.raises(ConfigError):
        TreeMask.parse("4,x")
    assert TreeMask.parse("4,2,2,1,1").widths == (4, 2, 2, 1, 1)
    assert TreeMask.default().node_count() == 60
    assert TreeMask.chain(3).widths == (1, 1, 1)


def test_top2_candidates_by_probability():
    drafter = FixedDrafter([0.5, 0.3, 0.2])
    tree = draft_one(drafter, [], TreeMask((2,)), RngStream(0))
    level = tree_level(tree, 1)
    assert [tree.tokens[n] for n in level] == [0, 1]
    assert [tree.probs[n] for n in level] == [0.5, 0.3]


def test_topk_candidates_descend_with_ties_to_the_lower_id():
    for mass, expected in (
        ([0.25, 0.25, 0.5], [(2, 0.5), (0, 0.25), (1, 0.25)]),
        ([0.25, 0.25, 0.25, 0.25], [(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)]),
        # Zero-mass tokens are never candidates.
        ([0.0, 0.75, 0.0, 0.25], [(1, 0.75), (3, 0.25)]),
    ):
        tree = draft_one(FixedDrafter(mass), [], TreeMask((len(mass),)), RngStream(0))
        assert [(tree.tokens[n], tree.probs[n]) for n in tree_level(tree, 1)] == expected


def test_width_one_tree_is_greedy_chain():
    drafter = FixedDrafter([0.2, 0.5, 0.3])
    tree = draft_one(drafter, [], TreeMask((1, 1)), RngStream(0))
    assert [len(tree_level(tree, lvl)) for lvl in (1, 2)] == [1, 1]
    chain = [tree_level(tree, 1)[0], tree_level(tree, 2)[0]]
    assert [tree.tokens[n] for n in chain] == [1, 1]
    assert tree.parent[chain[1]] == chain[0]
    assert list(tree.children[chain[0]]) == [chain[1]]
    assert tree.path(chain[1]) == (1, 1)


def test_width_beyond_vocab_raises():
    drafter = FixedDrafter([0.6, 0.4])
    with pytest.raises(VocabExhausted):
        draft_one(drafter, [], TreeMask((3,)), RngStream(0))


def test_lane_depths_outside_the_mask_raise_config_error():
    drafter = FixedDrafter([0.6, 0.4])
    for depths in ([0], [2, 3], [1, -1]):
        rngs = [RngStream(k) for k in range(len(depths))]
        with pytest.raises(ConfigError):
            sample_draft_tree(drafter, [[]] * len(depths), TreeMask((2, 2)), depths, rngs)


@pytest.mark.parametrize("mode", [TOPK, STOCHASTIC])
@pytest.mark.parametrize(
    "prefixes, depths, streams",
    [
        ([], [], 0),  # no lane
        ([[], [1]], [2], 2),  # a depth short
        ([[], [1]], [2, 2], 1),  # a stream short
        ([[]], [2], 2),  # a stream too many
        ([[], [1]], [2, 2, 2], 2),  # a depth too many
    ],
)
def test_lane_arguments_of_unequal_length_raise_config_error(prefixes, depths, streams, mode):
    rngs = [RngStream(k) for k in range(streams)]
    with pytest.raises(ConfigError):
        sample_draft_tree(LinearDrafter.zeros(32, 8), prefixes, TreeMask.default(), depths, rngs, mode=mode)


def test_unknown_candidate_mode_raises_config_error():
    rngs = [RngStream(0)]
    with pytest.raises(ConfigError, match="unknown candidate mode 'nucleus'"):
        sample_draft_tree(LinearDrafter.zeros(32, 8), [[]], TreeMask.default(), [5], rngs, mode="nucleus")
    assert rngs[0].counter == 0


def test_lane_reaching_past_the_grid_raises_config_error():
    drafter = LinearDrafter.zeros(2, 2)
    # On the drafter's 2x2 grid, a 2-level tree after 2 tokens ends at index 3, after 3 tokens at
    # index 4; a 1-level tree after 4 tokens starts at index 4.
    sample_draft_tree(drafter, [[0, 1]], TreeMask((1, 1)), [2], [RngStream(0)])
    for prefixes, depths in (([[0, 1], [0, 1, 0]], [2, 2]), ([[0], [0, 1, 0, 1]], [2, 1])):
        with pytest.raises(ConfigError):
            sample_draft_tree(drafter, prefixes, TreeMask((1, 1)), depths,
                              [RngStream(0), RngStream(1)])


def test_level_counts_multiply():
    drafter = FixedDrafter([0.4, 0.3, 0.2, 0.1])
    tree = draft_one(drafter, [], TreeMask((3, 2, 1)), RngStream(0))
    assert [len(tree_level(tree, lvl)) for lvl in (1, 2, 3)] == [3, 6, 6]
    assert len(tree.nodes) == 15


def test_sibling_tokens_are_distinct():
    rng_np = np.random.default_rng(0)
    for trial in range(20):
        mass = rng_np.dirichlet(np.ones(6))
        drafter = FixedDrafter(mass)
        for mode in ("topk", STOCHASTIC):
            tree = draft_one(
                drafter, [], TreeMask((3, 2)), RngStream(trial), mode=mode
            )
            for level in range(1, tree_depth(tree) + 1):
                groups: dict[int, list[int]] = {}
                for node in tree_level(tree, level):
                    groups.setdefault(tree.parent[node], []).append(tree.tokens[node])
                for tokens in groups.values():
                    assert len(tokens) == len(set(tokens))
                    assert all(
                        drafter.dist[t] > 0.0 for t in tokens
                    ), "candidates must carry positive drafter mass"


def test_stochastic_chain_matches_direct_sampling():
    drafter = FixedDrafter([0.5, 0.3, 0.2])
    rng = RngStream(42)
    expected = [drafter.dist.sample(rng) for _ in range(3)]
    tree = draft_one(
        drafter, [], TreeMask((1, 1, 1)), RngStream(42), mode=STOCHASTIC
    )
    assert [tree.tokens[tree_level(tree, lvl)[0]] for lvl in (1, 2, 3)] == expected


def test_stochastic_candidates_distinct_without_replacement():
    drafter = FixedDrafter([0.7, 0.2, 0.1])
    tree = draft_one(
        drafter, [], TreeMask((3,)), RngStream(5), mode=STOCHASTIC
    )
    tokens = [tree.tokens[n] for n in tree_level(tree, 1)]
    assert sorted(tokens) == [0, 1, 2]
    # Original drafter probabilities are preserved, not the renormalized ones.
    for node in tree_level(tree, 1):
        assert tree.probs[node] == drafter.dist[tree.tokens[node]]


def test_flat_arrays_describe_one_consistent_tree():
    rng_np = np.random.default_rng(3)
    for trial in range(10):
        mass = rng_np.dirichlet(np.ones(5))
        mass[trial % 5] = 0.0  # prunes levels wider than the four positive tokens
        drafter = FixedDrafter(mass / mass.sum())
        for mode in ("topk", STOCHASTIC):
            for widths in ((3, 3, 2), (5, 1), (4, 2, 2, 1, 1)):
                tree = draft_one(
                    drafter, [1, 2], TreeMask(widths),
                    RngStream(trial), mode=mode,
                )
                n = len(tree.nodes)
                assert tree.level_starts[0][0] == 0 and tree.level_starts[0][-1] == n
                for level in range(1, tree_depth(tree) + 1):
                    for node in tree_level(tree, level):
                        parent = tree.parent[node]
                        if level == 1:
                            assert parent == ROOT
                            assert tree.path(node) == (1, 2, tree.tokens[node])
                        else:
                            assert parent in tree_level(tree, level - 1)
                            assert tree.path(node) == tree.path(parent) + (tree.tokens[node],)
                        assert tree.probs[node] == drafter.dist[tree.tokens[node]]
                        kids = [c for c in tree.nodes if tree.parent[c] == node]
                        assert list(tree.children[node]) == kids
                        assert len(kids) == (
                            0 if level == tree_depth(tree) else min(widths[level], 4)
                        )
                        last = level == len(widths)
                        assert (tree.cond_row[node] < 0) == last


def test_path_tails_match_each_whole_path():
    drafter = FixedDrafter(np.array([0.1, 0.2, 0.3, 0.4, 0.0]))
    prefixes = [[], [3], [1, 2, 0, 3, 1], [2, 2]]
    for mode in ("topk", STOCHASTIC):
        forest = sample_draft_tree(
            drafter, prefixes, TreeMask((3, 2, 1)), [3, 1, 2, 3], [RngStream(k) for k in range(4)],
            mode=mode,
        )
        nodes = np.arange(len(forest.nodes))
        for k in (1, 2, 3, 4, 6, 9):
            for picked in (nodes, nodes[::-1], nodes[len(nodes) // 2 :], nodes[:0]):
                expected = [((-1,) * k + forest.path(node))[-k:] for node in picked.tolist()]
                assert forest.tail(k, picked).tolist() == [list(row) for row in expected]
