from __future__ import annotations

import numpy as np
import pytest

from specrelax import (
    FeatureVec,
    GridWorldModel,
    ProbDist,
    TabularModel,
    RelaxConfig,
    TrainConfig,
    TreeMask,
    exact_sequence_law,
    random_tabular_model,
    sample_draft_tree,
    tempered_table_drafter,
    train_drafter,
)


@pytest.fixture(scope="session")
def tabular_v4():
    return random_tabular_model(4, 1, seed=11)


@pytest.fixture(scope="session")
def tabular_v4_drafter(tabular_v4):
    return tempered_table_drafter(tabular_v4, exponent=0.5)


@pytest.fixture(scope="session")
def gridworld():
    return GridWorldModel.default()


@pytest.fixture(scope="session")
def grid_drafter(gridworld):
    # Lightly trained on purpose: rejections must stay common enough for
    # relaxation to have headroom.
    cfg = TrainConfig(c=1.0, epochs=12, learning_rate=0.5, num_sequences=8, seed=5)
    return train_drafter(gridworld, cfg)


def small_gridworld() -> GridWorldModel:
    """8 tokens in two clusters, one region preferring cluster 0."""
    eye = np.eye(4)
    return GridWorldModel(
        side=2,
        vocab=8,
        h=4,
        clusters=[0, 0, 0, 0, 1, 1, 1, 1],
        regions=[0, 0, 0, 0],
        region_clusters=[0],
        region_anchors=[eye[0]],
        cluster_anchors=[eye[1], eye[2]],
        in_cluster_mass=0.8,
    )


def ar_law(target, length: int) -> dict:
    """The exact law of a `length`-token autoregressive decode of `target`."""
    return exact_sequence_law(target, None, "ar", TreeMask.chain(1), RelaxConfig(), length)


def make_tabular_v2(rows: dict[tuple[int, ...], list[float]], h: int = 2) -> TabularModel:
    """Tiny order-1 binary-vocab model with explicit rows; features are unit axes."""
    table = {(): [0.5, 0.5], (0,): [0.5, 0.5], (1,): [0.5, 0.5]}
    table.update(rows)
    features = {
        (): FeatureVec(np.eye(h)[0]),
        (0,): FeatureVec(np.eye(h)[0]),
        (1,): FeatureVec(np.eye(h)[1 % h]),
    }
    return TabularModel(2, 1, table, features, h)


class ScriptedRng:
    """Stand-in stream yielding a fixed list of uniforms, for boundary probes."""

    def __init__(self, values):
        self.values = list(values)
        self.counter = 0

    def next_real(self) -> float:
        value = self.values[self.counter]
        self.counter += 1
        return value


class FixedDrafter:
    """Context-free drafter emitting one constant distribution."""

    grid_side = None
    context = 0

    def __init__(self, mass):
        self.dist = ProbDist(mass)
        self.vocab = len(self.dist)

    def distribution(self, prefix):
        return self.dist

    def conditionals(self, contexts, index):
        return np.broadcast_to(self.dist.mass, (len(index), self.vocab))


def draft_one(drafter, prefix, mask, rng, **kwargs):
    """A one-lane forest: the draft tree of one prefix."""
    return sample_draft_tree(drafter, [prefix], mask, [mask.depth], [rng], **kwargs)


def tree_depth(tree, lane=0):
    """How many levels lane `lane` of a forest has."""
    return len(tree.level_starts[lane]) - 1


def tree_level(tree, level, lane=0):
    """Node ids of level `level` (1-based) of lane `lane`."""
    starts = tree.level_starts[lane]
    return range(starts[level - 1], starts[level])
