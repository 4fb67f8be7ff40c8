"""Static tree masks and drafter-sampled token trees.

A mask fixes how many sibling candidates each surviving branch spawns per
level; sampling instantiates it against a drafter, recording every node's
drafter probability and the conditional the node's children were drawn from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import ConfigError, GridPos, ProbDist, RngStream, TokenId, VocabExhausted
from .models import Drafter

DEFAULT_NODE_CAP = 256
TOPK = "topk"
STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class TreeMask:
    """Per-level branch counts; level l holds prod(widths[:l]) nodes at most."""

    widths: tuple[int, ...]
    node_cap: int = DEFAULT_NODE_CAP

    def __post_init__(self) -> None:
        if len(self.widths) < 1:
            raise ConfigError("a tree mask needs at least one level")
        if any(w < 1 for w in self.widths):
            raise ConfigError("all level widths must be >= 1")
        if self.node_count() > self.node_cap:
            raise ConfigError(
                f"mask holds {self.node_count()} nodes, above the cap {self.node_cap}"
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
        return TreeMask(self.widths[:depth], self.node_cap)

    @classmethod
    def parse(cls, text: str, node_cap: int = DEFAULT_NODE_CAP) -> "TreeMask":
        try:
            widths = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ConfigError(f"cannot parse tree mask {text!r}") from exc
        return cls(widths, node_cap)

    @classmethod
    def default(cls) -> "TreeMask":
        return cls((4, 2, 2, 1, 1))

    @classmethod
    def chain(cls, depth: int) -> "TreeMask":
        return cls((1,) * depth)


class DraftNode:
    """One drafted token: identity, drafter probability, and tree wiring."""

    __slots__ = ("token", "drafter_prob", "parent", "level", "node_id", "children", "child_dist")

    def __init__(
        self,
        token: TokenId,
        drafter_prob: float,
        parent: "DraftNode | None",
        level: int,
        node_id: int,
    ) -> None:
        self.token = token
        self.drafter_prob = drafter_prob
        self.parent = parent
        self.level = level
        self.node_id = node_id
        self.children: list[DraftNode] = []
        # Drafter conditional over this node's children; set while sampling.
        self.child_dist: ProbDist | None = None

    def __repr__(self) -> str:
        return f"DraftNode(token={self.token}, level={self.level}, p={self.drafter_prob:.4g})"


class DraftTree:
    """A sampled speculation tree extending `prefix` from `start_pos`."""

    __slots__ = ("prefix", "start_pos", "start_index", "side", "levels", "nodes", "root_dist", "mask")

    def __init__(
        self,
        prefix: tuple[TokenId, ...],
        start_pos: GridPos,
        start_index: int,
        side: int,
        levels: list[list[DraftNode]],
        nodes: list[DraftNode],
        root_dist: ProbDist,
        mask: TreeMask,
    ) -> None:
        self.prefix = prefix
        self.start_pos = start_pos
        self.start_index = start_index
        self.side = side
        self.levels = levels
        self.nodes = nodes
        self.root_dist = root_dist
        self.mask = mask

    @property
    def depth(self) -> int:
        return len(self.levels)

    def root_children(self) -> list[DraftNode]:
        return self.levels[0] if self.levels else []


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
) -> list[tuple[TokenId, float]]:
    """Pick up to `width` distinct positive-probability tokens from one conditional."""
    if mode == TOPK:
        picked: list[tuple[TokenId, float]] = []
        for token in dist.descending_order():
            prob = dist[token]
            if prob <= 0.0:
                break
            picked.append((token, prob))
            if len(picked) == width:
                break
        return picked
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

    levels: list[list[DraftNode]] = []
    nodes: list[DraftNode] = []
    # Frontier entries: (node or None for root, its path, its conditional).
    frontier: list[tuple[DraftNode | None, tuple[TokenId, ...], ProbDist]] = [
        (None, prefix_t, root_dist)
    ]
    for depth_idx, width in enumerate(mask.widths):
        if width > vocab:
            raise VocabExhausted(f"width {width} exceeds vocabulary of {vocab}")
        level_num = depth_idx + 1
        level_nodes: list[DraftNode] = []
        next_frontier: list[tuple[DraftNode | None, tuple[TokenId, ...], ProbDist]] = []
        want_children = level_num < mask.depth
        child_pos = (
            GridPos.from_index(start_index + level_num, side) if want_children else None
        )
        for parent, path, dist in frontier:
            for token, prob in _select_candidates(dist, width, mode, rng):
                node = DraftNode(token, prob, parent, level_num, len(nodes))
                nodes.append(node)
                level_nodes.append(node)
                if parent is not None:
                    parent.children.append(node)
                if want_children:
                    child_path = path + (token,)
                    node.child_dist = drafter.distribution(child_path, child_pos)
                    next_frontier.append((node, child_path, node.child_dist))
        if not level_nodes:
            break
        levels.append(level_nodes)
        frontier = next_frontier
    return DraftTree(prefix_t, start_pos, start_index, side, levels, nodes, root_dist, mask)
