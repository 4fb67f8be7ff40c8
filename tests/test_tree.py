from __future__ import annotations

import numpy as np
import pytest

from specrelax import (
    ConfigError,
    GridPos,
    RngStream,
    TreeMask,
    VocabExhausted,
    sample_draft_tree,
)
from specrelax.tree import ROOT, STOCHASTIC

from conftest import FixedDrafter


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
    assert TreeMask((4, 2)).clipped(1).widths == (4,)
    assert TreeMask.chain(3).widths == (1, 1, 1)


def test_top2_candidates_by_probability():
    drafter = FixedDrafter([0.5, 0.3, 0.2])
    tree = sample_draft_tree(drafter, [], GridPos(0, 0), TreeMask((2,)), RngStream(0))
    level = tree.level(1)
    assert [tree.tokens[n] for n in level] == [0, 1]
    assert [tree.probs[n] for n in level] == [0.5, 0.3]


def test_width_one_tree_is_greedy_chain():
    drafter = FixedDrafter([0.2, 0.5, 0.3])
    tree = sample_draft_tree(drafter, [], GridPos(0, 0), TreeMask((1, 1)), RngStream(0))
    assert [len(tree.level(lvl)) for lvl in (1, 2)] == [1, 1]
    chain = [tree.level(1)[0], tree.level(2)[0]]
    assert [tree.tokens[n] for n in chain] == [1, 1]
    assert tree.parents[chain[1]] == chain[0]
    assert list(tree.children[chain[0]]) == [chain[1]]
    assert tree.paths[chain[1]] == (1, 1)


def test_width_beyond_vocab_raises():
    drafter = FixedDrafter([0.6, 0.4])
    with pytest.raises(VocabExhausted):
        sample_draft_tree(drafter, [], GridPos(0, 0), TreeMask((3,)), RngStream(0))


def test_level_counts_multiply():
    drafter = FixedDrafter([0.4, 0.3, 0.2, 0.1])
    tree = sample_draft_tree(drafter, [], GridPos(0, 0), TreeMask((3, 2, 1)), RngStream(0))
    assert [len(tree.level(lvl)) for lvl in (1, 2, 3)] == [3, 6, 6]
    assert len(tree.nodes) == 15


def test_sibling_tokens_are_distinct():
    rng_np = np.random.default_rng(0)
    for trial in range(20):
        mass = rng_np.dirichlet(np.ones(6))
        drafter = FixedDrafter(mass)
        for mode in ("topk", STOCHASTIC):
            tree = sample_draft_tree(
                drafter, [], GridPos(0, 0), TreeMask((3, 2)), RngStream(trial), mode=mode
            )
            for level in range(1, tree.depth + 1):
                groups: dict[int, list[int]] = {}
                for node in tree.level(level):
                    groups.setdefault(tree.parents[node], []).append(tree.tokens[node])
                for tokens in groups.values():
                    assert len(tokens) == len(set(tokens))
                    assert all(
                        drafter.dist[t] > 0.0 for t in tokens
                    ), "candidates must carry positive drafter mass"


def test_stochastic_chain_matches_direct_sampling():
    drafter = FixedDrafter([0.5, 0.3, 0.2])
    rng = RngStream(42)
    expected = [drafter.dist.sample(rng) for _ in range(3)]
    tree = sample_draft_tree(
        drafter, [], GridPos(0, 0), TreeMask((1, 1, 1)), RngStream(42), mode=STOCHASTIC
    )
    assert [tree.tokens[tree.level(lvl)[0]] for lvl in (1, 2, 3)] == expected


def test_stochastic_candidates_distinct_without_replacement():
    drafter = FixedDrafter([0.7, 0.2, 0.1])
    tree = sample_draft_tree(
        drafter, [], GridPos(0, 0), TreeMask((3,)), RngStream(5), mode=STOCHASTIC
    )
    tokens = [tree.tokens[n] for n in tree.level(1)]
    assert sorted(tokens) == [0, 1, 2]
    # Original drafter probabilities are preserved, not the renormalized ones.
    for node in tree.level(1):
        assert tree.probs[node] == drafter.dist[tree.tokens[node]]


def test_start_pos_must_match_prefix_length():
    drafter = FixedDrafter([0.5, 0.5])
    with pytest.raises(ValueError):
        sample_draft_tree(drafter, [0, 1], GridPos(0, 0), TreeMask((1,)), RngStream(0), side=4)


def test_flat_arrays_describe_one_consistent_tree():
    rng_np = np.random.default_rng(3)
    for trial in range(10):
        mass = rng_np.dirichlet(np.ones(5))
        mass[trial % 5] = 0.0  # prunes levels wider than the four positive tokens
        drafter = FixedDrafter(mass / mass.sum())
        for mode in ("topk", STOCHASTIC):
            for widths in ((3, 3, 2), (5, 1), (4, 2, 2, 1, 1)):
                tree = sample_draft_tree(
                    drafter, [1, 2], GridPos(0, 2), TreeMask(widths),
                    RngStream(trial), mode=mode, side=8,
                )
                n = len(tree.nodes)
                assert tree.level_starts[0] == 0 and tree.level_starts[-1] == n
                for level in range(1, tree.depth + 1):
                    for node in tree.level(level):
                        parent = tree.parents[node]
                        if level == 1:
                            assert parent == ROOT
                            assert tree.paths[node] == (1, 2, tree.tokens[node])
                        else:
                            assert parent in tree.level(level - 1)
                            assert tree.paths[node] == tree.paths[parent] + (tree.tokens[node],)
                        assert tree.probs[node] == drafter.dist[tree.tokens[node]]
                        kids = [c for c in tree.nodes if tree.parents[c] == node]
                        assert list(tree.children[node]) == kids
                        assert len(kids) == (
                            0 if level == tree.depth else min(widths[level], 4)
                        )
                        last = level == len(widths)
                        assert (tree.child_dists[node] is None) == last
