"""Static tree masks and drafter-sampled token forests.

A mask fixes how many sibling candidates each surviving branch spawns per
level; sampling instantiates it against a drafter, for every lane of a
forest at once, into one `DraftTree` of per-node arrays. A lane is one
sequence being decoded, with its own prefix, clipped mask and random stream.
Each level is drafted with one drafter lookup and one numpy candidate
selection for all lanes. No path is stored: a node's path, or the last few
tokens of many, is read from the parent array on demand. The sibling and
parent-child pairs of a forest are indexed once per forest structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .core import ConfigError, GridPos, RngStream, TokenId, VocabExhausted, first_hits, peek_reals
from .models import Drafter

DEFAULT_NODE_CAP = 256
TOPK = "topk"
STOCHASTIC = "stochastic"
CANDIDATE_MODES = (TOPK, STOCHASTIC)

# Total mass at or below which a draw without replacement stops early.
EXHAUSTION_FLOOR = 1e-12


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


class DraftTree:
    """A draft forest: one speculation tree per lane, as flat per-node arrays.

    Lane k extends `prefixes[k]`, starting at sequence index
    `len(prefixes[k])`. Lanes with equal prefixes share one root:
    `root_prefixes` lists the distinct prefixes in order of first use, and
    lane k's is `root_prefixes[root_index[k]]`. Node ids count from 0,
    lane-major, and level-major within a lane: lane k's level l (1-based) holds ids
    `level_starts[k][l-1] .. level_starts[k][l]-1`, and the children of each
    node are one contiguous id range, in the order they were drafted.

    Per node i: `token[i]` and `prob[i]` (its drafter probability), also as
    the lists `tokens` and `probs`; `lane[i]`; `level[i]`, how many of its
    path's tokens were drafted; `index[i]`, its path's length (the sequence
    index of the token that follows it); `parent[i]` (`ROOT` on level 1),
    also as the tuple `parents`; and `children[i]`, a range of ids. A path,
    its lane's prefix plus the tokens from the lane's root to i, is read on
    demand: `path(i)` whole, `tail(k, nodes)` the last k tokens of several.
    `cond_row[i]` is the row of `draft_table` node i's children were drawn
    from (-1 on its lane's deepest level); lane k's level 1 was drawn from
    row `root_row + root_index[k]`, after every child conditional.
    `judge[i]` is node i's parent, or `len(nodes) + k` for a level-1 node of
    lane k: an index into per-node values followed by per-lane ones.

    Everything but the prefixes and the drawn arrays comes from the forest's
    `_Skeleton` layout, shared by drafted forests of the same shape, and
    `pairs` indexes their sibling pairs and parent-child links once per layout.
    """

    __slots__ = (
        "side", "prefixes", "root_prefixes", "root_index", "token", "prob", "tokens", "probs",
        "draft_table", "root_row", "lane", "level", "index", "parent", "parents", "children",
        "level_starts", "cond_row", "judge", "_pairs",
    )

    def __init__(
        self,
        side: int,
        prefixes: list[tuple[TokenId, ...]],
        root_prefixes: list[tuple[TokenId, ...]],
        root_index: list[int],
        layout: _Skeleton,
        token: np.ndarray,
        prob: np.ndarray,
        draft_table: np.ndarray,
        root_row: int,
    ) -> None:
        self.side = side
        self.prefixes = prefixes
        self.root_prefixes = root_prefixes
        self.root_index = root_index
        self.token, self.prob, self.draft_table, self.root_row = token, prob, draft_table, root_row
        self.tokens: list[TokenId] = token.tolist()
        self.probs: list[float] = prob.tolist()
        self.lane, self.level, self.parent, self.parents = layout.lane, layout.level, layout.parent, layout.parents
        self.children, self.level_starts = layout.children, layout.level_starts
        self.cond_row, self.judge = layout.cond_row, layout.judge
        self.index = np.array([len(p) for p in prefixes])[self.lane] + self.level
        for array in (token, prob, draft_table, self.index):
            array.flags.writeable = False
        # Shared by every forest of one cached layout, so its pairs are indexed once.
        self._pairs = layout.pairs

    @property
    def nodes(self) -> range:
        """All node ids of every lane."""
        return range(self.level_starts[-1][-1])

    def path(self, node: int) -> tuple[TokenId, ...]:
        """Node `node`'s whole path: its lane's prefix plus the tokens from the lane's root to it."""
        drafted: list[TokenId] = []
        lane = int(self.lane[node])
        while node != ROOT:
            drafted.append(self.tokens[node])
            node = self.parents[node]
        return self.prefixes[lane] + tuple(reversed(drafted))

    def tail(self, k: int, nodes: np.ndarray) -> np.ndarray:
        """The last `k` tokens of each listed path, in order, as an int array; -1 pads short paths."""
        if k == 1:
            return self.token[nodes][:, None]
        level = self.level[nodes]
        out = np.full((len(nodes), k), -1, dtype=np.intp)
        # Drafted tokens, read up each node's ancestors, fill the columns from the right.
        up = np.array(nodes, dtype=np.intp)
        for d in range(min(k, int(level.max(initial=0)))):
            live = level > d
            out[live, k - 1 - d] = self.token[up[live]]
            up[live] = self.parent[up[live]]
        # The lane prefix's last tokens fill the columns left of them.
        width = k - int(level.min(initial=k))
        if width > 0:
            prefixes = np.full((len(self.prefixes), width), -1, dtype=np.intp)
            for lane, prefix in enumerate(self.prefixes):
                last = prefix[-width:]
                prefixes[lane, width - len(last) :] = last
            src = np.arange(k) + (level - k + width)[:, None]
            take = (src >= 0) & (src < width)
            lanes = np.broadcast_to(self.lane[nodes][:, None], src.shape)
            out[take] = prefixes[lanes[take], src[take]]
        return out

    def pairs(self, siblings: bool, links: bool) -> "ForestPairs":
        """`forest_pairs` of this forest, indexed once per layout of a cached shape."""
        key = (siblings, links)
        found = self._pairs.get(key)
        if found is None:
            found = self._pairs[key] = forest_pairs(self.parents, self.level_starts, siblings, links)
        return found


class ForestPairs(NamedTuple):
    """The enabled pairs of a forest, level by level.

    `first` and `second` list level 1's sibling pairs of every lane, then
    level 2's, and so on, then every lane's parent-child links; `sibling`
    marks the sibling pairs, and `groups[l-1]` is where level l starts
    (`groups[-2]` where the links start, `groups[-1]` the end).

    Each pair also names donors: a sibling pair lends each end the other's
    token, and a link lends the parent its child's token. Donor j is pair
    `donor_pair[j]`, lent by node `donor_lender[j]` to `donor_borrower[j]`.
    They are listed by borrower, node x's sibling lenders (by id) from
    `donor_starts[2x]`, then its children from `donor_starts[2x+1]`, up to
    `donor_starts[2x+2]`.
    """

    first: np.ndarray
    second: np.ndarray
    sibling: np.ndarray
    groups: np.ndarray
    donor_pair: np.ndarray
    donor_borrower: np.ndarray
    donor_lender: np.ndarray
    donor_starts: np.ndarray


def forest_pairs(
    parents: tuple[int, ...], level_starts: tuple[tuple[int, ...], ...], siblings: bool, links: bool
) -> ForestPairs:
    """Index the sibling pairs and parent-child links of the forest with these parents.

    Siblings are runs of equal parent, and on level 1 runs within one lane.
    Each level lists its pairs `(a, b)`, `a < b`, in lexicographic order;
    links follow the child ids. Only sibling pairs (`siblings`) and
    parent-child links (`links`) that are asked for are listed.
    """
    parent = np.array(parents, dtype=np.intp)
    n = len(parent)
    depth = max(len(starts) for starts in level_starts) - 1
    level = np.repeat(
        [lvl for starts in level_starts for lvl in range(1, len(starts))],
        [b - a for starts in level_starts for a, b in zip(starts, starts[1:])],
    )
    later = np.zeros(n, dtype=np.intp)  # how many siblings follow each node
    if siblings:
        new_group = np.ones(n, dtype=bool)
        new_group[1:] = parent[1:] != parent[:-1]
        new_group[[starts[0] for starts in level_starts]] = True
        group_end = np.append(np.flatnonzero(new_group), n)[np.cumsum(new_group)]
        later = group_end - np.arange(n) - 1
    node = np.argsort(level, kind="stable")  # level-major
    count = later[node]
    # Node a pairs with each of the `later[a]` siblings right after it.
    first = np.repeat(node, count)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)
    kids = np.flatnonzero(parent != ROOT) if links else np.empty(0, dtype=np.intp)
    per_level = np.bincount(level, weights=later, minlength=depth + 1)[1:].astype(np.intp)
    groups = np.cumsum(np.concatenate([[0], per_level, [len(kids)]]))
    first = np.concatenate([first, parent[kids]])
    second = np.concatenate([second, kids])
    pair = np.arange(len(first))
    sibling = pair < groups[depth]
    n_sib = int(groups[depth])
    # Both ends of each sibling pair borrow, then each link's parent.
    donor_pair = np.concatenate([pair[:n_sib], pair])
    borrower = np.concatenate([second[:n_sib], first])
    lender = np.concatenate([first[:n_sib], second])
    key = 2 * borrower + ~sibling[donor_pair]  # a borrower's sibling lenders, then its children
    order = np.lexsort((lender, key))
    starts = np.searchsorted(key[order], np.arange(2 * n + 1))
    donors = (donor_pair[order], borrower[order], lender[order], starts)
    for array in (first, second, sibling, groups, *donors):
        array.flags.writeable = False
    return ForestPairs(first, second, sibling, groups, *donors)


class _Level(NamedTuple):
    """One level of a forest in drafting order, as a full forest draws it.

    `lanes[j]` is the lane of frontier row j. The level's nodes follow row
    by row: `ids` holds their lane-major ids, so in a full forest node `n`
    takes uniform `block[ids[n]]`, and `source` the frontier row of each.
    `grow` lists the nodes whose lane goes deeper, the rows of the next
    level; it is None when every node does.
    """

    lanes: np.ndarray
    ids: np.ndarray
    source: np.ndarray
    grow: np.ndarray | None


class _Skeleton(NamedTuple):
    """The structure of a drafted forest, everything but its tokens and probabilities.

    `order[i]` is the drafting-order position of lane-major node i; drafting
    order is level by level, each level grouped by lane. Lane k holds
    `lane_sizes[k]` nodes. `cond_row[i]` is node i's row in the stacked
    child conditionals, which follow drafting order, or -1 on its lane's
    deepest level. `levels[l-1]` lays out level l. The other fields are
    those of `DraftTree`, and `pairs` caches the layout's `forest_pairs` by
    (siblings, links).
    """

    order: np.ndarray
    lane: np.ndarray
    level: np.ndarray
    parent: np.ndarray
    parents: tuple[int, ...]
    children: tuple[range, ...]
    level_starts: tuple[tuple[int, ...], ...]
    lane_sizes: tuple[int, ...]
    cond_row: np.ndarray
    levels: tuple[_Level, ...]
    judge: np.ndarray
    pairs: dict


def _skeleton(depths: tuple[int, ...], kids: Sequence[np.ndarray | int]) -> _Skeleton:
    """Lay out a forest whose lane k has `depths[k]` levels.

    `kids[l-1][j]` counts the children of level l's j-th frontier row: the
    lanes themselves on level 1, then, in drafting order, the nodes of the
    level above whose lane goes deeper. A single count stands for every row.
    """
    n_lanes = len(depths)
    depth = np.array(depths)
    row_lane = np.arange(n_lanes)
    row_node = np.full(n_lanes, ROOT)
    lanes, parents, levels, frontiers = [], [], [], []
    n = 0
    for level, counts in enumerate(kids, start=1):
        source = np.repeat(np.arange(len(row_lane)), counts)
        node_lane = row_lane[source]
        lanes.append(node_lane)
        parents.append(row_node[source])
        levels.append(np.full(len(node_lane), level))
        grows = depth[node_lane] > level
        frontiers.append((row_lane, n, source, None if grows.all() else np.flatnonzero(grows)))
        row_node = np.arange(n, n + len(node_lane))[grows]
        row_lane = node_lane[grows]
        n += len(node_lane)
    drafted_lane = np.concatenate(lanes)
    order = np.argsort(drafted_lane, kind="stable")
    new_id = np.empty(n, dtype=np.intp)
    new_id[order] = np.arange(n)
    lane = drafted_lane[order]
    level = np.concatenate(levels)[order]
    old_parent = np.concatenate(parents)[order]
    parent = np.where(old_parent == ROOT, ROOT, new_id[old_parent])
    # Within a lane, parents never decrease along the ids: children are contiguous.
    kid_ids = np.flatnonzero(parent != ROOT)
    n_kids = np.bincount(parent[kid_ids], minlength=n)
    first_kid = np.append(kid_ids, 0)[np.searchsorted(parent[kid_ids], np.arange(n))]
    first_kid[n_kids == 0] = 0
    grows = depth[lane] > level
    cond_row = np.full(n, -1)
    drafted_grows = np.flatnonzero(grows[new_id])  # drafting-order positions of growing nodes
    cond_row[new_id[drafted_grows]] = np.arange(len(drafted_grows))
    lane_size = np.bincount(lane, minlength=n_lanes)
    lane_start = np.cumsum(lane_size) - lane_size
    level_counts = np.zeros((n_lanes, int(depth.max()) + 1), dtype=np.intp)
    np.add.at(level_counts, (lane, level), 1)
    starts = lane_start[:, None] + np.cumsum(level_counts, axis=1)
    steps = tuple(
        _Level(row_lane, new_id[start : start + len(source)], source, grow)
        for row_lane, start, source, grow in frontiers
    )
    judge = np.where(parent == ROOT, n + lane, parent)
    for array in (parent, lane, level, cond_row, judge, *(a for step in steps for a in step if a is not None)):
        array.flags.writeable = False
    return _Skeleton(
        order, lane, level, parent, tuple(parent.tolist()),
        tuple(map(range, first_kid.tolist(), (first_kid + n_kids).tolist())),
        tuple(tuple(row[: d + 1]) for row, d in zip(starts.tolist(), depths)),
        tuple(lane_size.tolist()),
        cond_row,
        steps,
        judge,
        {},
    )


@lru_cache(maxsize=16)
def _full_skeleton(widths: tuple[int, ...], depths: tuple[int, ...]) -> _Skeleton:
    """The skeleton of a forest in which every row of level l has exactly `widths[l-1]` children."""
    return _skeleton(depths, widths)


def _draw_steps(rows: np.ndarray, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw without replacement from every row at once, `uniforms[j, s]` for row j's step s.

    Width 1 is one `first_hits` pick against `r`, as `ProbDist.sample`.
    Wider rows pick against `r * total`, where the total starts at the row's
    left-to-right sum and loses each drawn token's mass, which is then
    zeroed; a row stops once its total is at most EXHAUSTION_FLOOR, and its
    later picks mean nothing. Returns the `(rows, width)` picks and each
    row's count of draws before it stopped, or None when every row drew its
    full width.
    """
    n_rows, width = uniforms.shape
    if width == 1:
        return first_hits(rows, rows.cumsum(axis=1) > uniforms)[:, None], None
    picks = np.empty((n_rows, width), dtype=np.intp)
    working = rows.copy()
    reach = np.arange(n_rows)
    total = drawn = None
    for step in range(width):
        cum = working.cumsum(axis=1)
        if total is None:
            total = cum[:, -1]
        if not np.minimum.reduce(total) > EXHAUSTION_FLOOR:
            if drawn is None:
                drawn = np.full(n_rows, width)
            drawn[(total <= EXHAUSTION_FLOOR) & (drawn > step)] = step
        token = first_hits(working, cum > (uniforms[:, step] * total)[:, None])
        picks[:, step] = token
        if step + 1 < width:
            total = total - working[reach, token]
            working[reach, token] = 0.0
    return picks, drawn


def _draw_level(
    rows: np.ndarray, row_lane: np.ndarray, block: np.ndarray, cursor: np.ndarray, drawn: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a level whose rows may stop early, each lane's rows in turn reading on from `cursor`.

    Row j's first uniform is `block[cursor[row_lane[j]]]` moved on by the
    draws of its lane's earlier rows. Starting from the guessed counts
    `drawn`, the level is redrawn until the starts its draws give are the
    starts it was drawn from; each pass settles the next row of every lane,
    so a lane of n rows needs n passes at most. Moves `cursor` past the
    uniforms used, and returns the picks and each row's count of draws.
    """
    first = np.searchsorted(row_lane, row_lane)  # the first row of each row's lane
    steps = np.arange(width)
    start = None
    while True:
        before = np.cumsum(drawn) - drawn
        drawn_from, start = start, cursor[row_lane] + before - before[first]
        if np.array_equal(start, drawn_from):
            break
        picks, stopped = _draw_steps(rows, block[start[:, None] + steps])
        drawn = np.full(len(rows), width) if stopped is None else stopped
    np.add.at(cursor, row_lane, drawn)
    return picks, drawn


def sample_draft_tree(
    drafter: Drafter,
    prefixes: Sequence[Sequence[TokenId]],
    mask: TreeMask,
    depths: Sequence[int],
    rngs: Sequence[RngStream],
    mode: str = TOPK,
    side: int | None = None,
) -> DraftTree:
    """Instantiate `mask` against the drafter for every lane, all lanes level by level.

    Lane k drafts after `prefixes[k]`, from grid cell
    `divmod(len(prefixes[k]), side)`, under the first `depths[k]` levels of
    `mask`, drawing from `rngs[k]`. Lanes are grouped by their whole prefix,
    and each distinct prefix takes its root conditional from one
    `drafter.distribution` call; each deeper level's conditionals come from
    one `drafter.conditionals` lookup for every lane.
    Top-k mode ranks candidates by drafter probability (deterministic; ties
    to the lower token id). Stochastic mode draws them sequentially without
    replacement, consuming one uniform per node of its lane's stream in node
    order, so a width-1 mask reproduces plain autoregressive drafting draw
    for draw. Every lane's uniforms come from one `peek_reals` pass over its
    clipped mask's node count; each counter then moves past the ones its
    lane used, so the unused ones stay the stream's next draws.

    Every stochastic level is drawn by `_draw_steps`. The forest is laid
    out up front as if full, every row yielding its level's width, so
    lane-major node i takes uniform i of the block and a full level takes
    its uniforms in one gather. From the first level with a stochastic row
    that stops early or a zero-mass top-k pick, the forest is laid out from
    the counts drawn, and each stochastic level is drawn by `_draw_level`,
    every lane reading on from the uniforms its earlier rows used. A lane
    count of zero, `prefixes`, `depths` and `rngs` of unequal lengths, lane
    depths outside `[1, mask.depth]` and a lane reaching past the grid raise
    ConfigError.
    """
    if mode not in CANDIDATE_MODES:
        raise ConfigError(f"unknown candidate mode {mode!r}")
    prefixes = [tuple(p) for p in prefixes]
    # Each prefix is hashed once: its root group, numbered in order of first use.
    groups: dict[tuple[TokenId, ...], int] = {}
    root_index = [groups.setdefault(p, len(groups)) for p in prefixes]
    root_prefixes = list(groups)
    depths = tuple(depths)
    if not len(prefixes) == len(depths) == len(rngs) > 0:
        raise ConfigError(
            f"{len(prefixes)} prefixes, {len(depths)} depths and {len(rngs)} streams: "
            "a forest needs at least one lane, and one of each per lane"
        )
    shallowest, max_depth = min(depths), max(depths)
    if shallowest < 1 or max_depth > mask.depth:
        raise ConfigError(f"lane depths must lie in [1, {mask.depth}]")
    if side is None:
        side = drafter.grid_side or max(len(p) + d for p, d in zip(prefixes, depths))
    vocab = getattr(drafter, "vocab")
    widths = mask.widths[:max_depth]
    if max(widths) > vocab:
        raise VocabExhausted(f"width {max(widths)} exceeds vocabulary of {vocab}")
    prefix_len = np.array([len(p) for p in prefixes])
    lane_depth = np.array(depths)
    deepest = int((prefix_len + lane_depth).max()) - 1  # the last sequence index drafted
    if deepest >= side * side:
        raise ConfigError(f"sequence index {deepest} outside {side}x{side} grid")
    # Every lane's cell is on the grid, so each root cell is a plain divmod.
    group_dists = [drafter.distribution(p, GridPos(*divmod(len(p), side))) for p in root_prefixes]

    # Drafting order: level by level, each level grouped by lane. Each
    # frontier row holds the conditional one node's children are drawn from.
    n_lanes = len(prefixes)
    context = drafter.context
    # contexts[j]: the last `context` tokens of row j's path, -1 before its start.
    contexts = np.full((n_lanes, context), -1, dtype=np.intp)
    if context > 1 and max_depth > 1:
        for lane, prefix in enumerate(prefixes):
            tail = prefix[-context:]
            contexts[lane, context - len(tail) :] = tail
    root_table = np.array([d.mass for d in group_dists])
    rows = root_table.take(root_index, axis=0)
    row_lane = np.arange(n_lanes)
    # Only forests whose lanes share one depth keep their layout cached:
    # mixed depths come from lanes nearing their ends and seldom recur.
    if shallowest == max_depth:
        layout = _full_skeleton(widths, depths)
    else:
        layout = _skeleton(depths, widths)
    if mode == STOCHASTIC:
        # Lane k's block is its node count, so in a full forest lane-major
        # node i takes uniform i.
        used = layout.lane_sizes
        block = peek_reals(rngs, used)
    full = True
    tokens, probs, tables, kids = [], [], [], []
    for level, width in enumerate(widths, start=1):
        drawn = None
        if full:
            step = layout.levels[level - 1]
            source = step.source
        else:
            source = np.arange(len(rows)).repeat(width)
        if mode == TOPK:
            if width == 1:
                picks = rows.argmax(axis=1)[:, None]  # the first maximum: ties to the lower id
            else:
                picks = np.argsort(-rows, axis=1, kind="stable")[:, :width]
        elif full:
            picks, drawn = _draw_steps(rows, block[step.ids].reshape(len(rows), width))
            if drawn is not None:
                # Redrawn from lane cursors from here on: each lane reads on from its
                # first uniform of this level, or from its block's end if it stopped above.
                cursor = np.array([starts[min(level, len(starts)) - 1] for starts in layout.level_starts])
                picks, drawn = _draw_level(rows, row_lane, block, cursor, drawn, width)
        else:
            picks, drawn = _draw_level(rows, row_lane, block, cursor, np.full(len(rows), width), width)
        level_tokens = picks.ravel()
        level_probs = rows[source, level_tokens]
        valid = None if drawn is None else np.arange(width) < drawn[:, None]
        if mode == TOPK and not np.minimum.reduce(level_probs) > 0.0:
            valid = (level_probs > 0.0).reshape(picks.shape)
        if valid is None:
            kids.append(width)
        else:
            full = False
            keep = valid.ravel()
            source, level_tokens, level_probs = source[keep], level_tokens[keep], level_probs[keep]
            kids.append(valid.sum(axis=1))
        tokens.append(level_tokens)
        probs.append(level_probs)
        if level == max_depth:
            break
        if full:
            grow = step.grow
            row_lane = layout.levels[level].lanes
        else:
            row_lane = row_lane[source]
            grow = np.flatnonzero(lane_depth[row_lane] > level) if level >= shallowest else None
            if grow is not None:
                row_lane = row_lane[grow]
        if context > 1:
            contexts = np.concatenate([contexts[source, 1:], level_tokens[:, None]], axis=1)
        else:
            contexts = level_tokens[:, None][:, :context]
        if grow is not None:
            contexts = contexts[grow]
        rows = drafter.conditionals(contexts, prefix_len[row_lane] + level, side)
        tables.append(rows)

    if mode == STOCHASTIC:
        # The uniforms left unread are each stream's next draws.
        if not full:
            used = (cursor - [starts[0] for starts in layout.level_starts]).tolist()
        for rng, count in zip(rngs, used):
            rng.counter += count

    if not full:
        layout = _skeleton(depths, kids)
    # The root conditionals follow the child conditionals, so one table holds every drafter law.
    table = np.concatenate([*tables, root_table])
    return DraftTree(
        side, prefixes, root_prefixes, root_index, layout,
        np.concatenate(tokens)[layout.order], np.concatenate(probs)[layout.order],
        table, len(table) - len(root_table),
    )
