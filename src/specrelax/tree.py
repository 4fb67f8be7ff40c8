"""Static tree masks and drafter-sampled token trees.

A mask fixes how many sibling candidates each surviving branch spawns per
level; sampling instantiates it against a drafter into flat per-node lists,
recording every node's token, drafter probability, parent, children, path
and the conditional the node's children were drawn from. The sibling and
parent-child pairs of a tree shape are indexed once per shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .core import ConfigError, GridPos, ProbDist, RngStream, TokenId, VocabExhausted
from .models import Drafter

DEFAULT_NODE_CAP = 256
TOPK = "topk"
STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class TreeMask:
    """Per-level branch counts; level l holds prod(widths[:l]) nodes at most."""

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.widths) < 1:
            raise ConfigError("a tree mask needs at least one level")
        if any(w < 1 for w in self.widths):
            raise ConfigError("all level widths must be >= 1")
        if self.node_count() > DEFAULT_NODE_CAP:
            raise ConfigError(
                f"mask holds {self.node_count()} nodes, above the cap {DEFAULT_NODE_CAP}"
            )

    @property
    def depth(self) -> int:
        return len(self.widths)

    def node_count(self) -> int:
        total, level = 0, 1
        for w in self.widths:
            level *= w
            total += level
        return total

    def clipped(self, depth: int) -> "TreeMask":
        """Mask truncated to at most `depth` levels (for sequence tails)."""
        if depth >= self.depth:
            return self
        return TreeMask(self.widths[:depth])

    @classmethod
    def parse(cls, text: str) -> "TreeMask":
        try:
            widths = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ConfigError(f"cannot parse tree mask {text!r}") from exc
        return cls(widths)

    @classmethod
    def default(cls) -> "TreeMask":
        return cls((4, 2, 2, 1, 1))

    @classmethod
    def chain(cls, depth: int) -> "TreeMask":
        return cls((1,) * depth)


ROOT = -1  # parent index of level-1 nodes
_NO_CHILDREN = range(0)


class DraftTree:
    """A sampled speculation tree extending `prefix` from `start_pos`, as flat per-node lists.

    Node ids are level-major: level l (1-based) holds ids
    `level_starts[l-1] .. level_starts[l]-1`, and the children of each node
    are one contiguous id range, in the order they were drafted. Per node i:
    `tokens[i]`, `probs[i]` (its drafter probability), `parents[i]` (`ROOT`
    for level 1), `children[i]` (a range of ids), `child_dists[i]` (the
    drafter conditional its children were drawn from; None on the deepest
    level) and `paths[i]` (prefix plus the tokens from the root to i).
    """

    __slots__ = (
        "prefix", "start_pos", "start_index", "side", "root_dist", "mask", "level_starts",
        "tokens", "probs", "parents", "children", "child_dists", "paths",
    )

    def __init__(
        self,
        prefix: tuple[TokenId, ...],
        start_pos: GridPos,
        start_index: int,
        side: int,
        root_dist: ProbDist,
        mask: TreeMask,
        level_starts: list[int],
        tokens: list[TokenId],
        probs: list[float],
        parents: list[int],
        children: list[range],
        child_dists: list[ProbDist | None],
        paths: list[tuple[TokenId, ...]],
    ) -> None:
        self.prefix = prefix
        self.start_pos = start_pos
        self.start_index = start_index
        self.side = side
        self.root_dist = root_dist
        self.mask = mask
        self.level_starts = level_starts
        self.tokens = tokens
        self.probs = probs
        self.parents = parents
        self.children = children
        self.child_dists = child_dists
        self.paths = paths

    @property
    def depth(self) -> int:
        return len(self.level_starts) - 1

    @property
    def nodes(self) -> range:
        """All node ids."""
        return range(len(self.tokens))

    def level(self, level: int) -> range:
        """Node ids of level `level` (1-based)."""
        return range(self.level_starts[level - 1], self.level_starts[level])

    def layout(self) -> "PairLayout":
        """Sibling and parent-child pairs of this tree's shape (cached per shape)."""
        return pair_layout(tuple(self.parents))


class PairLayout(NamedTuple):
    """Every sibling pair and parent-child link of one tree shape, as index arrays.

    `first` and `second` list the sibling pairs (first < second, same parent),
    level by level, and then the parent-child links (parent, child) in child
    order; `level_ends[l-1]` is the end of level l's sibling pairs, so
    `level_ends[-1]` counts them all. `pairs` repeats the arrays as Python
    tuples for building result sets.
    """

    first: np.ndarray
    second: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    level_ends: tuple[int, ...]


@lru_cache(maxsize=64)
def pair_layout(parents: tuple[int, ...]) -> PairLayout:
    """Index the pairs of the level-major tree whose node i has parent `parents[i]`."""
    levels: list[int] = []
    for parent in parents:
        levels.append(1 if parent == ROOT else levels[parent] + 1)
    sibling_pairs: list[tuple[int, int]] = []
    level_ends: list[int] = []
    start = 0
    for node in range(1, len(parents) + 1):
        # Siblings are contiguous ids; a group ends where the parent changes.
        if node < len(parents) and parents[node] == parents[start]:
            continue
        sibling_pairs.extend(
            (a, b) for a in range(start, node) for b in range(a + 1, node)
        )
        if node == len(parents) or levels[node] != levels[start]:
            level_ends.append(len(sibling_pairs))
        start = node
    links = [(parent, child) for child, parent in enumerate(parents) if parent != ROOT]
    pairs = tuple(sibling_pairs + links)
    index = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    first, second = index[:, 0].copy(), index[:, 1].copy()
    first.flags.writeable = False
    second.flags.writeable = False
    return PairLayout(first, second, pairs, tuple(level_ends))


def _inverse_cdf(mass: list[float], total: float, r: float) -> int:
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


def _select_candidates(
    dist: ProbDist, width: int, mode: str, rng: RngStream
) -> Sequence[tuple[TokenId, float]]:
    """Pick up to `width` distinct positive-probability tokens from one conditional."""
    if mode == TOPK:
        return dist.ranked()[:width]
    if mode == STOCHASTIC:
        if width == 1:
            token = dist.sample(rng)
            return [(token, dist[token])]
        working = dist.mass.tolist()
        total = sum(working)
        picked = []
        for _ in range(width):
            if total <= 1e-12:
                break
            token = _inverse_cdf(working, total, rng.next_real())
            picked.append((token, dist[token]))
            total -= working[token]
            working[token] = 0.0
        return picked
    raise ValueError(f"unknown candidate mode {mode!r}")


def sample_draft_tree(
    drafter: Drafter,
    prefix: Sequence[TokenId],
    start_pos: GridPos,
    mask: TreeMask,
    rng: RngStream,
    mode: str = TOPK,
    side: int | None = None,
) -> DraftTree:
    """Instantiate `mask` against the drafter, level by level.

    Top-k mode ranks candidates by drafter probability (deterministic; ties to
    the lower token id). Stochastic mode draws them sequentially without
    replacement, consuming one uniform per node, so a width-1 mask reproduces
    plain autoregressive drafting draw for draw.
    """
    if side is None:
        side = drafter.grid_side if drafter.grid_side else len(prefix) + mask.depth
    start_index = start_pos.flatten(side)
    if start_index != len(prefix):
        raise ValueError(
            f"start_pos maps to sequence index {start_index}, expected {len(prefix)}"
        )
    vocab = getattr(drafter, "vocab")
    prefix_t = tuple(prefix)
    root_dist = drafter.distribution(prefix_t, start_pos)

    level_starts = [0]
    tokens: list[TokenId] = []
    probs: list[float] = []
    parents: list[int] = []
    children: list[range] = []
    child_dists: list[ProbDist | None] = []
    paths: list[tuple[TokenId, ...]] = []
    # Frontier entries: (parent id, its path, the conditional its children come from).
    frontier: list[tuple[int, tuple[TokenId, ...], ProbDist]] = [(ROOT, prefix_t, root_dist)]
    for level_num, width in enumerate(mask.widths, start=1):
        if width > vocab:
            raise VocabExhausted(f"width {width} exceeds vocabulary of {vocab}")
        want_children = level_num < mask.depth
        child_pos = (
            GridPos.from_index(start_index + level_num, side) if want_children else None
        )
        next_frontier: list[tuple[int, tuple[TokenId, ...], ProbDist]] = []
        for parent, path, dist in frontier:
            first = len(tokens)
            for token, prob in _select_candidates(dist, width, mode, rng):
                node_path = path + (token,)
                child_dist = None
                if want_children:
                    child_dist = drafter.distribution(node_path, child_pos)
                    next_frontier.append((len(tokens), node_path, child_dist))
                tokens.append(token)
                probs.append(prob)
                parents.append(parent)
                children.append(_NO_CHILDREN)
                child_dists.append(child_dist)
                paths.append(node_path)
            if parent != ROOT:
                children[parent] = range(first, len(tokens))
        if len(tokens) == level_starts[-1]:
            break
        level_starts.append(len(tokens))
        frontier = next_frontier
    return DraftTree(
        prefix_t, start_pos, start_index, side, root_dist, mask, level_starts,
        tokens, probs, parents, children, child_dists, paths,
    )
