from __future__ import annotations

import numpy as np
import pytest

from specrelax import (
    ConfigError,
    GridPos,
    ProbDist,
    RngStream,
    TreeMask,
    VocabExhausted,
    sample_draft_tree,
)
from specrelax.tree import STOCHASTIC


class FixedDrafter:
    """Context-free drafter emitting one constant distribution."""

    grid_side = None

    def __init__(self, mass):
        self.dist = ProbDist(mass)
        self.vocab = len(self.dist)

    def distribution(self, prefix, pos):
        return self.dist


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
    level = tree.levels[0]
    assert [n.token for n in level] == [0, 1]
    assert [n.drafter_prob for n in level] == [0.5, 0.3]


def test_width_one_tree_is_greedy_chain():
    drafter = FixedDrafter([0.2, 0.5, 0.3])
    tree = sample_draft_tree(drafter, [], GridPos(0, 0), TreeMask((1, 1)), RngStream(0))
    assert [len(level) for level in tree.levels] == [1, 1]
    chain = [tree.levels[0][0], tree.levels[1][0]]
    assert [n.token for n in chain] == [1, 1]
    assert chain[1].parent is chain[0]


def test_width_beyond_vocab_raises():
    drafter = FixedDrafter([0.6, 0.4])
    with pytest.raises(VocabExhausted):
        sample_draft_tree(drafter, [], GridPos(0, 0), TreeMask((3,)), RngStream(0))


def test_level_counts_multiply():
    drafter = FixedDrafter([0.4, 0.3, 0.2, 0.1])
    tree = sample_draft_tree(drafter, [], GridPos(0, 0), TreeMask((3, 2, 1)), RngStream(0))
    assert [len(level) for level in tree.levels] == [3, 6, 6]
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
            for level in tree.levels:
                groups: dict[int | None, list[int]] = {}
                for node in level:
                    key = None if node.parent is None else node.parent.node_id
                    groups.setdefault(key, []).append(node.token)
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
    assert [level[0].token for level in tree.levels] == expected


def test_stochastic_candidates_distinct_without_replacement():
    drafter = FixedDrafter([0.7, 0.2, 0.1])
    tree = sample_draft_tree(
        drafter, [], GridPos(0, 0), TreeMask((3,)), RngStream(5), mode=STOCHASTIC
    )
    tokens = [n.token for n in tree.levels[0]]
    assert sorted(tokens) == [0, 1, 2]
    # Original drafter probabilities are preserved, not the renormalized ones.
    for node in tree.levels[0]:
        assert node.drafter_prob == drafter.dist[node.token]


def test_start_pos_must_match_prefix_length():
    drafter = FixedDrafter([0.5, 0.5])
    with pytest.raises(ValueError):
        sample_draft_tree(drafter, [0, 1], GridPos(0, 0), TreeMask((1,)), RngStream(0), side=4)
