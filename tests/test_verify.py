from __future__ import annotations

import numpy as np
import pytest

from specrelax import (
    ConfigError,
    DegenerateResidual,
    FeatureVec,
    GridWorldModel,
    LinearDrafter,
    NonFinite,
    ProbDist,
    TabularModel,
    TrainConfig,
    ZeroNormFeature,
    cosine_sim,
    RelaxConfig,
    RngStream,
    TreeMask,
    UnknownWindow,
    build_sets,
    decode_lanes,
    decode_sequence,
    decode_with_metrics,
    evaluate_tree,
    random_tabular_model,
    relax_q,
    residual_dist,
    sample_draft_tree,
    tempered_table_drafter,
    train_drafter,
    tvd,
    verify_cascade,
    verify_vanilla,
)
from specrelax.models import LawTable
import specrelax.tree as tree_mod
from specrelax.tree import ROOT, DraftTree, STOCHASTIC, forest_pairs
from specrelax.harness import exact_call_law, law_tvd
from specrelax.verify import TraceRecord, TreeEvals

from conftest import FixedDrafter, ScriptedRng, ar_law, draft_one, small_gridworld, tree_depth, tree_level

ATOL = 1e-9

NO_RELAX = RelaxConfig(tau_pos=1.01, tau_seq=1.01)


def unit_feature(axis: int, dim: int = 4) -> FeatureVec:
    values = np.zeros(dim)
    values[axis] = 1.0
    return FeatureVec(values)


def manual_tree(level_specs, root_dist, prefix=(), child_dists=None):
    """Build a DraftTree by hand: level_specs is a list of lists of
    (token, drafter_prob, parent_index_in_previous_level | None), each level
    listed in parent order; `child_dists` maps a node id to the conditional
    its children were drawn from, the root's by default."""
    kids = [len(level_specs[0])]
    for above, spec in zip(level_specs, level_specs[1:]):
        parent_idx = [p for _, _, p in spec]
        assert parent_idx == sorted(parent_idx), "list each level in parent order"
        kids.append(np.bincount(parent_idx, minlength=len(above)))
    layout = tree_mod._skeleton((len(level_specs),), kids)
    nodes = [node for spec in level_specs for node in spec]
    # The drafter laws stacked as `sample_draft_tree` stacks them: child conditionals, then the root's.
    growing = len(nodes) - len(level_specs[-1])
    table = np.array([(child_dists or {}).get(node, root_dist).mass for node in range(growing)] + [root_dist.mass])
    return DraftTree(
        [tuple(prefix)], [tuple(prefix)], np.array([0]), layout,
        np.array([token for token, _, _ in nodes], dtype=np.intp),
        np.array([prob for _, prob, _ in nodes], dtype=np.float64),
        table, growing, np.array([len(prefix)]),
    )


def level_of(tree, node):
    return next(lvl for lvl in range(1, tree_depth(tree) + 1) if node in tree_level(tree, lvl))


def manual_evals(tree, root_dist, node_specs):
    """The target pass over a one-lane `tree` whose root law is `root_dist`.

    node_specs: list of (dist, feature) per node id, all features of one dimension.
    """
    features = np.array([f.values for _, f in node_specs])
    features.flags.writeable = False
    norms = np.array([f.norm for _, f in node_specs])
    laws, root_law = LawTable.stack([d for d, _ in node_specs]).rows_of([root_dist])
    law = np.append(np.arange(len(node_specs)), root_law).take(tree.judge)
    q = laws.mass[law, tree.token]
    threshold = np.minimum(q / tree.prob, 1.0)
    return TreeEvals(laws, law, q.tolist(), threshold.tolist(), features, norms, threshold)


def node_features(evals):
    """Each node's feature row of `evals` as a FeatureVec, for the scalar `cosine_sim`."""
    return [FeatureVec(row) for row in evals.features]


# --- relax_q ------------------------------------------------------------------


def donors(q, tokens):
    return [(t, q[t]) for t in tokens]


def relaxed_decision(q, candidate, donors_i, donors_c, budget_left):
    """relax_q's result as the decision record the verification walk builds from it."""
    applied_i, applied_c, transfers = relax_q(candidate, donors_i, donors_c, budget_left)
    record = TraceRecord(
        1, 0, q[candidate], 1.0, applied_i, applied_c, 0.0, "reject", budget_left,
        candidate, q, transfers,
    )
    return record, applied_i, applied_c


def test_relax_q_both_sets_fit_sequentially():
    q = ProbDist([0.4, 0.3, 0.2, 0.1])
    relaxed, applied_i, applied_c = relaxed_decision(q, 0, donors(q, [1]), donors(q, [2]), 0.5)
    consumed = applied_i + applied_c
    assert consumed == pytest.approx(0.5, abs=ATOL)
    assert relaxed.boosted_prob() == pytest.approx(0.9, abs=ATOL)
    assert relaxed.added_mass == consumed
    assert relaxed.transfers == ((1, 0.3), (2, 0.2))


def test_relax_q_is_all_or_nothing_per_set():
    q = ProbDist([0.1, 0.4, 0.3, 0.2])
    relaxed, applied_i, applied_c = relaxed_decision(q, 0, donors(q, [1]), donors(q, [3]), 0.5)
    # C is skipped: 0.4 + 0.2 > 0.5.
    assert (applied_i, applied_c) == (pytest.approx(0.4, abs=ATOL), 0.0)
    assert relaxed.added_mass == pytest.approx(0.4, abs=ATOL)
    assert relaxed.boosted_prob() == pytest.approx(0.5, abs=ATOL)
    assert relaxed.transfers == ((1, 0.4),)


def test_relax_q_skips_oversized_first_set_but_takes_second():
    q = ProbDist([0.1, 0.6, 0.3])
    relaxed, applied_i, applied_c = relaxed_decision(q, 0, donors(q, [1]), donors(q, [2]), 0.5)
    assert (applied_i, applied_c) == (0.0, pytest.approx(0.3, abs=ATOL))
    assert relaxed.added_mass == pytest.approx(0.3, abs=ATOL)
    assert relaxed.boosted_prob() == pytest.approx(0.4, abs=ATOL)


def test_relax_q_exhausted_budget_is_identity():
    q = ProbDist([0.25, 0.5, 0.25])
    relaxed, applied_i, applied_c = relaxed_decision(q, 0, donors(q, [1]), donors(q, [2]), 0.0)
    assert applied_i == applied_c == relaxed.added_mass == 0.0
    assert relaxed.boosted_prob() == q[0]
    assert relaxed.transfers == ()


def test_relax_q_drops_child_donors_already_counted():
    q = ProbDist([0.1, 0.2, 0.3, 0.4])
    relaxed, applied_i, applied_c = relaxed_decision(
        q, 0, donors(q, [1]), donors(q, [0, 1, 3]), 1.0
    )
    # Child tokens 0 (the candidate) and 1 (a sibling donor) give nothing twice.
    assert applied_i == pytest.approx(0.2, abs=ATOL)
    assert applied_c == pytest.approx(0.4, abs=ATOL)
    assert relaxed.transfers == ((1, 0.2), (3, 0.4))


def test_relax_q_rejects_negative_masses_and_budget():
    with pytest.raises(ValueError):
        relax_q(0, [(1, -0.1)], [], 0.5)
    with pytest.raises(ValueError):
        relax_q(0, [], [(1, -0.1)], 0.5)
    with pytest.raises(ValueError):
        relax_q(0, [], [], -0.1)


@pytest.mark.parametrize(
    "args, message",
    [
        (([(1, -0.1)], [], 0.5), "set masses"),
        (([], [(1, -0.1)], 0.5), "set masses"),
        (([], [], -0.1), "budget_left"),
    ],
    ids=["sibling-mass", "child-mass", "budget"],
)
def test_relax_q_raises_engine_errors(args, message):
    from specrelax import EngineError

    with pytest.raises(EngineError, match=message):
        relax_q(0, *args)


# --- build_sets ---------------------------------------------------------------


def sibling_tree_with_features(features, probs=(0.5, 0.3, 0.2)):
    root_dist = ProbDist([0.5, 0.3, 0.2])
    tree = manual_tree([[(i, probs[i], None) for i in range(3)]], root_dist)
    q = ProbDist([0.3, 0.3, 0.4])
    evals = manual_evals(tree, root_dist, [(q, f) for f in features])
    return tree, evals


def test_unsatisfiable_threshold_empties_interchange_set():
    feats = [unit_feature(0), unit_feature(0), unit_feature(0)]
    tree, evals = sibling_tree_with_features(feats)
    sets = build_sets(tree, evals, RelaxConfig(tau_pos=1.01, tau_seq=1.01))
    assert all(len(pairs) == 0 for pairs in sets.inter_pairs.values())
    assert len(sets.conv_pairs) == 0


def test_interchange_set_from_hand_cosines():
    feats = [
        FeatureVec([1.0, 0.0]),
        FeatureVec([0.99, 0.141]),
        FeatureVec([0.0, 1.0]),
    ]
    tree, evals = sibling_tree_with_features(feats)
    sets = build_sets(tree, evals, RelaxConfig(tau_pos=0.9, tau_seq=1.01))
    assert pair_sets(sets)[0][1] == frozenset({(0, 1)})


def test_partner_lookup_reads_each_pair_from_both_ends():
    feats = [
        FeatureVec([1.0, 0.0]),
        FeatureVec([0.99, 0.141]),
        FeatureVec([0.0, 1.0]),
    ]
    tree, evals = sibling_tree_with_features(feats, probs=(0.9, 0.9, 0.9))
    cfg = RelaxConfig(tau_pos=0.9, tau_seq=1.01, tvd_budget=1.0)
    outcome = verify_cascade(tree, evals, cfg, ScriptedRng([0.99, 0.99, 0.99, 0.5]))
    # Under the root law [0.5, 0.3, 0.2], tokens 0 and 1 lend to each other;
    # token 2 has no partner.
    added = [rec.added_mass_i for rec in outcome.trace]
    assert added == [pytest.approx(0.3, abs=ATOL), pytest.approx(0.5, abs=ATOL), 0.0]
    assert [rec.decision for rec in outcome.trace] == ["reject"] * 3


def test_interchange_pairs_are_irreflexive_and_symmetric_on_random_trees():
    for seed in range(6):
        target = random_tabular_model(6, 1, seed=seed, h=3)
        drafter = tempered_table_drafter(target)
        tree = draft_one(drafter, [], TreeMask((3, 2)), RngStream(seed))
        evals = evaluate_tree(target, tree)
        sets = build_sets(tree, evals, RelaxConfig(tau_pos=0.2, tau_seq=0.2))
        for level, pairs in sets.inter_pairs.items():
            for a, b in pairs:
                assert a < b
                assert level_of(tree, a) == level == level_of(tree, b)
                assert tree.parent[a] == tree.parent[b]
        for a, b in sets.conv_pairs:
            assert level_of(tree, b) == level_of(tree, a) + 1
            assert tree.parent[b] == a


def test_relax_config_is_two_thresholds_and_a_budget():
    from dataclasses import fields

    assert [f.name for f in fields(RelaxConfig)] == ["tau_pos", "tau_seq", "tvd_budget"]


def test_relax_config_validation():
    with pytest.raises(ConfigError):
        RelaxConfig(tau_pos=-0.1)
    with pytest.raises(ConfigError):
        RelaxConfig(tau_seq=1.02)
    with pytest.raises(ConfigError):
        RelaxConfig(tvd_budget=1.5)


def test_build_sets_propagates_zero_norm_features():
    from specrelax import ZeroNormFeature

    feats = [unit_feature(0), FeatureVec([1e-13, 0.0, 0.0, 0.0]), unit_feature(1)]
    tree, evals = sibling_tree_with_features(feats)
    with pytest.raises(ZeroNormFeature):
        build_sets(tree, evals, RelaxConfig(tau_pos=0.5, tau_seq=1.01))


def test_gridworld_same_cluster_siblings_always_interchangeable(gridworld):
    tree = draft_one(gridworld, [], TreeMask((4,)), RngStream(0))
    assert [tree.tokens[n] for n in tree_level(tree, 1)] == [0, 1, 2, 3]  # one cluster
    evals = evaluate_tree(gridworld, tree)
    sets = build_sets(tree, evals, RelaxConfig(tau_pos=1.0, tau_seq=1.01))
    assert len(sets.inter_pairs[1]) == 6  # all pairs of the 4 siblings


def scalar_sets(tree, feature, cfg):
    """Reference definition of the similarity sets: one `cosine_sim` per candidate pair.

    `feature[i]` is node i's FeatureVec. Returns each non-empty level's
    sibling pairs and the parent-child links, as sets of (first, second) tuples.
    """
    inter_pairs = {}
    if cfg.tau_pos <= 1.0:
        for lane in range(len(tree.level_starts)):
            for level in range(1, tree_depth(tree, lane) + 1):
                pairs = inter_pairs.setdefault(level, set())
                nodes = list(tree_level(tree, level, lane))
                for i, a in enumerate(nodes):
                    for b in nodes[i + 1 :]:
                        if tree.parent[a] != tree.parent[b]:
                            continue
                        if cosine_sim(feature[a], feature[b]) >= cfg.tau_pos:
                            pairs.add((a, b))
    conv_pairs = set()
    if cfg.tau_seq <= 1.0:
        for node in tree.nodes:
            for child in tree.children[node]:
                if cosine_sim(feature[node], feature[child]) >= cfg.tau_seq:
                    conv_pairs.add((node, child))
    return {level: frozenset(p) for level, p in inter_pairs.items() if p}, frozenset(conv_pairs)


def pair_sets(sets):
    """`build_sets`' pair arrays as `scalar_sets` gives them: each non-empty level's sibling
    pairs, and the links, as sets of (first, second) tuples."""
    def as_set(pairs):
        return frozenset(map(tuple, pairs.tolist()))

    inter = {level: as_set(pairs) for level, pairs in sets.inter_pairs.items() if len(pairs)}
    return inter, as_set(sets.conv_pairs)


# Each set is on at its threshold or switched off by 1.01; duplicates dropped.
SET_CONFIGS = list(dict.fromkeys(
    RelaxConfig(tau_pos=tau_pos if inter else 1.01, tau_seq=tau_seq if conv else 1.01)
    for tau_pos, tau_seq in ((0.0, 0.0), (0.2, 0.6), (0.5, 0.2), (1.0, 1.0), (1.01, 0.3), (0.3, 1.01))
    for inter in (True, False)
    for conv in (True, False)
))


def assert_sets_match_scalar(tree, evals, configs=SET_CONFIGS):
    for cfg in configs:
        assert pair_sets(build_sets(tree, evals, cfg)) == scalar_sets(tree, node_features(evals), cfg), cfg


def test_build_sets_match_scalar_definition_on_random_tabular_trees():
    for seed in range(8):
        target = random_tabular_model(5, 2, seed=seed, h=3)
        drafter = tempered_table_drafter(target)
        for mode in ("topk", STOCHASTIC):
            for mask in (TreeMask((3, 2)), TreeMask((4, 2, 2, 1, 1))):
                tree = draft_one(
                    drafter, [seed % 5], mask, RngStream(seed), mode=mode,
                )
                assert_sets_match_scalar(tree, evaluate_tree(target, tree))


def test_build_sets_match_scalar_definition_on_mixed_depth_forests():
    # Depth-1 lanes put level-1 runs of different lanes, all with parent ROOT, side by side.
    for seed in range(4):
        target = random_tabular_model(5, 2, seed=seed, h=3)
        drafter = tempered_table_drafter(target)
        for mode in ("topk", STOCHASTIC):
            forest = sample_draft_tree(
                drafter, [[], [seed % 5], [1, 2], [3]], TreeMask.default(), [1, 5, 1, 3],
                [RngStream(seed + k) for k in range(4)], mode=mode,
            )
            assert_sets_match_scalar(forest, evaluate_tree(target, forest))


def test_one_lane_cascade_records_carry_the_candidate_law_and_transfers():
    target, drafter = GridWorldModel.default(), LinearDrafter.zeros(32, 8)
    relaxed = []
    for seed in range(20):
        tree = draft_one(drafter, [seed % 32], TreeMask.default(), RngStream(seed), mode=STOCHASTIC)
        evals = evaluate_tree(target, tree)
        outcome = verify_cascade(tree, evals, RelaxConfig(), RngStream(100 + seed))
        relaxed += [rec for rec in outcome.trace if rec.transfers]
    assert relaxed
    for rec in relaxed:
        assert rec.q == rec.q_dist[rec.token]
        moved = rec.transfer_dist()
        assert moved[rec.token] == pytest.approx(min(rec.q + rec.added_mass, 1.0), abs=ATOL)
        assert tvd(rec.q_dist, moved) == pytest.approx(rec.added_mass, abs=ATOL)


def test_build_sets_match_scalar_definition_on_jittered_gridworld_trees():
    from specrelax import GridWorldModel, LinearDrafter

    target = GridWorldModel.default(feature_jitter=0.05)
    drafter = LinearDrafter.zeros(32, 8)
    # Sibling and parent-child cosines here spread over about [0.995, 1.0].
    near = [
        RelaxConfig(tau_pos=tau, tau_seq=tau) for tau in (0.996, 0.997, 0.998, 0.999, 0.9995)
    ]
    for seed in range(6):
        prefix = [(7 * seed + 3 * i) % 32 for i in range(5 + 9 * seed)]
        for mode in ("topk", STOCHASTIC):
            tree = draft_one(
                drafter, prefix, TreeMask.default(),
                RngStream(seed), mode=mode,
            )
            evals = evaluate_tree(target, tree)
            assert_sets_match_scalar(tree, evals, SET_CONFIGS + near)


def test_build_sets_match_scalar_definition_on_pruned_trees():
    target = random_tabular_model(4, 1, seed=3, h=3)
    # Two positive tokens against widths of 3: every level is pruned.
    drafter = FixedDrafter([0.6, 0.0, 0.4, 0.0])
    mask = TreeMask((3, 3, 2))
    full = draft_one(
        tempered_table_drafter(target), [], mask, RngStream(0)
    )
    for mode in ("topk", STOCHASTIC):
        tree = draft_one(drafter, [], mask, RngStream(1), mode=mode)
        assert [len(tree_level(tree, lvl)) for lvl in (1, 2, 3)] == [2, 4, 8]
        assert all_pairs(tree) != all_pairs(full)
        assert_sets_match_scalar(tree, evaluate_tree(target, tree))


def all_pairs(tree):
    """Every sibling pair and parent-child link of a forest, as (first, second) tuples."""
    pairs = forest_pairs(tree.parent, tree.lane, tree.level)
    return list(zip(pairs.first.tolist(), pairs.second.tolist()))


def test_full_trees_of_one_mask_share_one_layout():
    target = random_tabular_model(4, 1, seed=5, h=3)
    drafter = tempered_table_drafter(target)
    mask = TreeMask((3, 2, 1))
    trees = [
        draft_one(drafter, [], mask, RngStream(seed))
        for seed in range(3)
    ]
    pairs = [tree.pairs() for tree in trees]
    assert pairs[0] is pairs[1] is pairs[2]
    # Sibling pairs: 3 among the root's children, then 1 in each of 3 pairs
    # of siblings, none among only children; then 6 + 6 parent-child links.
    assert pairs[0].groups.tolist() == [0, 3, 6, 6, 18]
    assert len(all_pairs(trees[0])) == 6 + 12


def test_threshold_one_with_identical_features_matches_scalar():
    rng_np = np.random.default_rng(7)
    for _ in range(200):
        feat = FeatureVec(rng_np.normal(size=int(rng_np.integers(2, 9))))
        root_dist = ProbDist([0.5, 0.3, 0.2])
        tree = manual_tree(
            [[(0, 0.5, None), (1, 0.3, None), (2, 0.2, None)], [(1, 0.5, 0), (2, 0.5, 0)]],
            root_dist, child_dists={0: root_dist},
        )
        evals = manual_evals(tree, root_dist, [(root_dist, feat)] * 5)
        assert_sets_match_scalar(tree, evals, [RelaxConfig(tau_pos=1.0, tau_seq=1.0)])


def test_build_sets_raises_zero_norm_exactly_where_scalar_does():
    from specrelax import ZeroNormFeature

    root_dist = ProbDist([0.5, 0.3, 0.2])
    # Node 0 has a sibling; node 2 is the lone child of node 0; node 1 has none.
    tree = manual_tree(
        [[(0, 0.5, None), (1, 0.3, None)], [(2, 0.5, 0)]], root_dist,
        child_dists={0: root_dist},
    )
    zero = FeatureVec([0.0, 1e-13])
    for zero_node in range(3):
        feats = [unit_feature(1, dim=2)] * 3
        feats[zero_node] = zero
        evals = manual_evals(tree, root_dist, [(root_dist, f) for f in feats])
        for cfg in SET_CONFIGS:
            try:
                expected = scalar_sets(tree, feats, cfg)
            except ZeroNormFeature:
                with pytest.raises(ZeroNormFeature):
                    build_sets(tree, evals, cfg)
            else:
                assert pair_sets(build_sets(tree, evals, cfg)) == expected


def test_a_switched_off_set_never_lends():
    import math

    # Every node shares one feature whose computed self-cosine rounds up to
    # nextafter(1, 2), so each pair would pass a threshold just above 1.
    rng_np = np.random.default_rng(0)
    for _ in range(10_000):
        feat = FeatureVec(rng_np.normal(size=3))
        if np.vecdot(feat.values, feat.values) / (feat.norm * feat.norm) > 1.0:
            break
    root_dist = ProbDist([0.5, 0.3, 0.2])
    tree = manual_tree(
        [[(0, 0.5, None), (1, 0.3, None), (2, 0.2, None)], [(1, 0.5, 0), (2, 0.5, 0)]],
        root_dist, child_dists={0: root_dist},
    )
    evals = manual_evals(tree, root_dist, [(root_dist, feat)] * 5)
    pairs = tree.pairs()
    cos = np.vecdot(evals.features[pairs.first], evals.features[pairs.second]) / (
        evals.norms[pairs.first] * evals.norms[pairs.second]
    )
    assert (cos >= math.nextafter(1.0, 2.0)).all()
    for off in (1.01, math.nextafter(1.0, 2.0)):
        for tau_pos, tau_seq in ((off, 1.0), (1.0, off), (off, off)):
            sets = build_sets(tree, evals, RelaxConfig(tau_pos=tau_pos, tau_seq=tau_seq))
            enabled = np.where(pairs.sibling, tau_pos <= 1.0, tau_seq <= 1.0)
            # The enabled pairs' own hits, and none of a switched-off set's.
            expected = enabled & (cos >= np.where(pairs.sibling, tau_pos, tau_seq))
            assert sets.hit.tolist() == expected.tolist()
            hits = [(a, b) for a, b, h in zip(pairs.first.tolist(), pairs.second.tolist(), expected) if h]
            inter = [tuple(p) for level in sorted(sets.inter_pairs) for p in sets.inter_pairs[level].tolist()]
            conv = [tuple(p) for p in sets.conv_pairs.tolist()]
            assert inter == [p for p, s in zip(hits, pairs.sibling[expected]) if s]
            assert conv == [p for p, s in zip(hits, pairs.sibling[expected]) if not s]
            assert (inter == []) == (tau_pos > 1.0) and (conv == []) == (tau_seq > 1.0)
            if tau_pos > 1.0 and tau_seq > 1.0:
                assert sets.donors is None
            else:
                # Only the enabled set's donors are lent: siblings to siblings, or children to parents.
                off = sets.donors.off
                sibling_lent = any(off[2 * x] < off[2 * x + 1] for x in tree.nodes)
                child_lent = any(off[2 * x + 1] < off[2 * x + 2] for x in tree.nodes)
                assert (sibling_lent, child_lent) == (tau_pos <= 1.0, tau_seq <= 1.0)


# --- evaluate_tree --------------------------------------------------------------


def per_node_evals(target, tree):
    """Scalar reference of the batched pass: one `evaluate` per node, level by level."""
    evals = []
    for level in range(1, tree_depth(tree) + 1):
        evals += [target.evaluate(tree.path(node)) for node in tree_level(tree, level)]
    return evals


def assert_batch_matches_per_node(target, tree):
    evals = evaluate_tree(target, tree)
    reference = per_node_evals(target, tree)
    n, h = len(reference), len(reference[0].feature)
    prefix = tree.prefixes[0]
    root = target.evaluate(prefix)
    assert evals.laws.dists[evals.law[tree_level(tree, 1)[0]]] is root.dist
    laws, rows, _, _ = target.evaluate_batch(tree)
    assert rows.shape == (n,)
    assert evals.features.shape == (n, h) and evals.features.dtype == np.float64
    assert not evals.features.flags.writeable
    assert evals.norms.shape == (n,) and evals.norms.dtype == np.float64
    for node, ev in enumerate(reference):
        row = int(rows[node])
        assert laws.dists[row] is ev.dist  # the model's own law, not a copy
        assert laws.mass[row].tobytes() == ev.dist.mass.tobytes()
        assert evals.features[node].tobytes() == ev.feature.values.tobytes()
        assert float(evals.norms[node]).hex() == ev.feature.norm.hex()
    return reference


def grid_trees(target, drafter):
    """Top-k and stochastic default-mask trees across the grid, then trees that
    reach past its last cell (their deepest level is evaluated there)."""
    trees = []
    for seed, start in enumerate((0, 5, 23, 40, 59)):
        prefix = [(7 * seed + 3 * i) % target.vocab for i in range(start)]
        for mode in ("topk", STOCHASTIC):
            trees.append(draft_one(
                drafter, prefix, TreeMask.default(),
                RngStream(seed), mode=mode,
            ))
    for start, mask in ((62, TreeMask((4, 2))), (63, TreeMask((3,)))):
        prefix = [i % target.vocab for i in range(start)]
        trees.append(draft_one(
            drafter, prefix, mask, RngStream(start),
            mode=STOCHASTIC,
        ))
    return trees


def random_anchor_gridworld(seed=0):
    """The default grid layout with seeded random anchors: a row-wise norm of its
    features differs in the last bit from some `FeatureVec.norm`."""
    layout, rng = GridWorldModel.default(), np.random.default_rng(seed)
    return GridWorldModel(
        8, 32, 8, layout.clusters, layout.regions, layout.region_clusters,
        [rng.normal(size=8) for _ in range(3)], [rng.normal(size=8) for _ in range(4)],
        feature_mix=0.7,
    )


@pytest.mark.parametrize(
    "make_target",
    [
        GridWorldModel.default,
        lambda: GridWorldModel.default(feature_jitter=0.05),
        random_anchor_gridworld,
    ],
    ids=["default", "jitter", "random-anchors"],
)
def test_evaluate_batch_matches_per_node_evaluate_on_gridworlds(make_target):
    target = make_target()
    drafter = LinearDrafter.zeros(32, 8)
    trees = grid_trees(target, drafter)
    assert {len(tree.prefixes[0]) + tree_depth(tree) for tree in trees} >= {64}  # the clamped cell
    for tree in trees:
        assert_batch_matches_per_node(target, tree)


@pytest.mark.parametrize("order", [1, 2])
def test_evaluate_batch_matches_per_node_evaluate_on_tabular_models(order):
    for seed in range(4):
        target = random_tabular_model(5, order, seed=seed, h=3)
        drafter = tempered_table_drafter(target)
        # Prefixes shorter than, equal to and longer than the window.
        for prefix in ([], [seed % 5], [1, 4, seed % 5]):
            for mode in ("topk", STOCHASTIC):
                tree = draft_one(
                    drafter, prefix, TreeMask.default(),
                    RngStream(seed), mode=mode,
                )
                assert_batch_matches_per_node(target, tree)


def test_evaluate_batch_matches_per_node_evaluate_on_pruned_trees():
    tabular = random_tabular_model(4, 1, seed=3, h=3)
    grid = small_gridworld()
    mask = TreeMask((3, 3, 2))
    for target, mass in ((tabular, [0.6, 0.0, 0.4, 0.0]), (grid, [0.0, 0.6, 0.0, 0.0, 0.4, 0, 0, 0])):
        for mode in ("topk", STOCHASTIC):
            tree = draft_one(
                FixedDrafter(mass), [], mask, RngStream(1), mode=mode,
            )
            assert [len(tree_level(tree, lvl)) for lvl in (1, 2, 3)] == [2, 4, 8]
            assert_batch_matches_per_node(target, tree)


@pytest.mark.parametrize("mode", ["topk", STOCHASTIC])
@pytest.mark.parametrize("case", ["grid", "grid-jitter", "tabular"])
def test_every_node_is_judged_against_its_level_law(case, mode):
    """Node by node: a level-1 node of lane k against lane k's root law, a deeper
    node against its parent's batch row, with `q` and the threshold read from that law."""
    if case == "tabular":
        target = random_tabular_model(5, 2, seed=4, h=3)
        drafter = tempered_table_drafter(target)
    else:
        target = GridWorldModel.default(feature_jitter=0.05 if case == "grid-jitter" else 0.0)
        drafter = LinearDrafter.zeros(32, 8)
    # Mixed depths; lanes 0 and 2, and lanes 1 and 4, share a root prefix. Lanes 0 and 1
    # reach across a region boundary, so on a gridworld a node's law is not its own row.
    first, second = tuple(k % 5 for k in range(22)), tuple(k * 3 % 5 for k in range(46))
    prefixes, depths = [first, second, first, (2, 4, 1), second], [5, 4, 2, 1, 3]
    rngs = [RngStream(k) for k in range(len(prefixes))]
    tree = sample_draft_tree(drafter, prefixes, TreeMask.default(), depths, rngs, mode=mode)
    evals = evaluate_tree(target, tree)
    laws, rows, _, _ = target.evaluate_batch(tree)
    roots = [target.evaluate(p).dist for p in prefixes]
    for node in tree.nodes:
        law, parent, token = int(evals.law[node]), tree.parent[node], tree.tokens[node]
        if parent == ROOT:
            assert evals.laws.dists[law] is roots[tree.lane[node]]
        else:
            assert law == rows[parent] and evals.laws.dists[law] is laws.dists[law]
        q = float(evals.laws.mass[law, token])
        assert evals.q[node].hex() == q.hex()
        assert evals.threshold[node].hex() == min(1.0, q / tree.probs[node]).hex()


def test_batched_sets_raise_zero_norm_exactly_where_per_node_features_do():
    base = random_tabular_model(3, 1, seed=2, h=3)
    zero = FeatureVec([0.0, 1e-13, 0.0])
    raised = 0
    windows = [(), (0,), (1,), (2,)]  # the model's row order
    for zero_window in windows:
        features = {w: (zero if w == zero_window else ev.feature) for w, ev in zip(windows, base._evals)}
        target = TabularModel(3, 1, {w: ev.dist for w, ev in zip(windows, base._evals)}, features, 3)
        for mode in ("topk", STOCHASTIC):
            for mask in (TreeMask((2, 2, 1)), TreeMask((3, 1))):
                tree = draft_one(
                    tempered_table_drafter(base), [1], mask, RngStream(7),
                    mode=mode,
                )
                evals = evaluate_tree(target, tree)
                feats = [ev.feature for ev in assert_batch_matches_per_node(target, tree)]
                for cfg in SET_CONFIGS:
                    try:
                        expected = scalar_sets(tree, feats, cfg)
                    except ZeroNormFeature:
                        raised += 1
                        with pytest.raises(ZeroNormFeature):
                            build_sets(tree, evals, cfg)
                    else:
                        assert pair_sets(build_sets(tree, evals, cfg)) == expected
    assert raised > 0


@pytest.mark.parametrize("jitter", [0.0, 0.05])
def test_gridworld_reads_a_node_one_step_past_its_grid_at_the_last_cell(jitter):
    # Each node's path holds 64 tokens: its next token would sit at index 64 of the 8x8 grid.
    target = GridWorldModel.default(feature_jitter=jitter)
    for last in (0, 9, 31):
        tree = draft_one(FixedDrafter(np.full(32, 1 / 32)), [last] * 63, TreeMask((3,)), RngStream(last))
        assert tree.index.tolist() == [64] * 3
        evals = assert_batch_matches_per_node(target, tree)
        # The last cell's law, and its feature: a trailing token's cluster on region 2.
        lasts = [target.evaluate(tree.path(node)[1:]) for node in tree.nodes]
        assert all(ev.dist is target.evaluate([0] * 63).dist for ev in evals)
        if jitter == 0.0:
            assert [ev.feature for ev in evals] == [ev.feature for ev in lasts]


@pytest.mark.parametrize("jitter", [0.0, 0.05])
def test_gridworld_batch_refuses_a_node_more_than_one_step_past_its_grid(jitter):
    target = GridWorldModel.default(feature_jitter=jitter)
    tree = draft_one(FixedDrafter(np.full(32, 1 / 32)), [0] * 63, TreeMask((2, 1)), RngStream(0))
    assert tree.index.max() == 65
    with pytest.raises(UnknownWindow, match="sequence index 65 lies past the 8x8 grid"):
        target.evaluate_batch(tree)


def test_gridworld_batch_raises_where_evaluate_does_on_cancelling_anchors():
    # Cluster 1's anchor cancels the region anchor, 1 + 0.2 * -5 == 0, or
    # makes the feature's norm overflow, (1 + 0.2 * 1e200) ** 2 > 1.8e308.
    mask = TreeMask((2, 1))
    for bad_anchor in ([-5.0, 0.0], [1e200, 0.0]):
        target = GridWorldModel(
            side=2, vocab=4, h=2, clusters=[0, 0, 1, 1], regions=[0, 0, 0, 0], region_clusters=[0],
            region_anchors=[[1.0, 0.0]], cluster_anchors=[[0.0, 1.0], bad_anchor],
        )
        with np.errstate(invalid="ignore"):
            safe = draft_one(FixedDrafter([0.5, 0.5, 0, 0]), [], mask, RngStream(0))
            assert_batch_matches_per_node(target, safe)
            bad = draft_one(FixedDrafter([0.5, 0, 0.5, 0]), [], mask, RngStream(0))
            with pytest.raises(NonFinite):
                per_node_evals(target, bad)
            with pytest.raises(NonFinite):
                evaluate_tree(target, bad)


# --- verify_vanilla -----------------------------------------------------------


def chain_tree_single(token, p_token, root_mass):
    root_dist = ProbDist(root_mass)
    return manual_tree([[(token, p_token, None)]], root_dist)


def test_vanilla_accepts_below_ratio():
    tree = chain_tree_single(0, 0.5, [0.5, 0.5])
    q = ProbDist([0.25, 0.75])
    evals = manual_evals(tree, q, [(q, unit_feature(1))])
    outcome = verify_vanilla(tree, evals, ScriptedRng([0.4]))
    assert outcome.accepted_tokens == [0]
    assert outcome.correction_token is None
    assert outcome.alpha == 1


def test_vanilla_rejects_above_ratio_and_corrects():
    tree = chain_tree_single(0, 0.5, [0.5, 0.5])
    q = ProbDist([0.25, 0.75])
    evals = manual_evals(tree, q, [(q, unit_feature(1))])
    outcome = verify_vanilla(tree, evals, ScriptedRng([0.6, 0.2]))
    assert outcome.accepted_tokens == []
    # Residual of ([0.25, 0.75] - [0.5, 0.5])+ is all mass on token 1.
    assert outcome.correction_token == 1
    assert outcome.alpha == 0
    assert outcome.trace[0].decision == "reject"


def test_vanilla_accepts_everything_when_q_dominates_p():
    q = ProbDist([0.5, 0.5])
    root_dist = ProbDist([0.5, 0.5])
    tree = manual_tree(
        [[(0, 0.5, None)], [(1, 0.5, 0)], [(0, 0.5, 0)]], root_dist,
        child_dists={0: root_dist, 1: root_dist},
    )
    evals = manual_evals(tree, q, [(q, unit_feature(1))] * 3)
    outcome = verify_vanilla(tree, evals, ScriptedRng([0.999, 0.999, 0.999]))
    assert outcome.alpha == 3
    assert outcome.correction_token is None


def test_vanilla_degenerate_residual_falls_back_to_target():
    # q == p: acceptance probability is 1, but force the reject branch anyway
    # through an impossible draw to check the fallback law.
    tree = chain_tree_single(0, 0.5, [0.5, 0.5])
    q = ProbDist([0.5, 0.5])
    evals = manual_evals(tree, q, [(q, unit_feature(1))])
    outcome = verify_vanilla(tree, evals, ScriptedRng([1.0, 0.7]))
    assert outcome.correction_token == 1  # sampled from q itself


@pytest.mark.parametrize("candidate_mode", ["topk", STOCHASTIC])
@pytest.mark.parametrize("mode", ["vanilla", "cascade"])
@pytest.mark.parametrize("widths", [(1,), (3, 2), (4, 2, 2, 1, 1)])
def test_a_worst_case_walk_draws_one_uniform_per_sibling_and_one_for_its_correction(widths, mode, candidate_mode):
    # `decode_lanes` hands each walk a block of `1 + sum(widths)` uniforms: the walk may never need more.
    target = random_tabular_model(5, 1, seed=3, h=3)
    drafter = tempered_table_drafter(target)
    tree = draft_one(drafter, [0], TreeMask(widths), RngStream(7), mode=candidate_mode)
    evals = evaluate_tree(target, tree)
    # Every mass is positive: r = 1.0 rejects against any threshold and r = 0.0 accepts.
    # Each level rejects every sibling but its last, and the final level rejects all.
    script = [r for w in widths[:-1] for r in [1.0] * (w - 1) + [0.0]] + [1.0] * widths[-1] + [0.5]
    rng = ScriptedRng(script)
    if mode == "cascade":
        outcome = verify_cascade(tree, evals, RelaxConfig(tau_pos=0.3, tau_seq=0.3), rng)
    else:
        outcome = verify_vanilla(tree, evals, rng)
    assert rng.counter == len(script) == 1 + sum(widths)
    decisions = [d for w in widths[:-1] for d in ["reject"] * (w - 1) + ["accept"]] + ["reject"] * widths[-1]
    assert [rec.decision for rec in outcome.trace] == decisions
    assert outcome.alpha == len(widths) - 1 and outcome.correction_token is not None


# --- verify_cascade -----------------------------------------------------------


def two_sibling_relax_case():
    # Candidate token 0: q = 0.1, p = 0.5. Partner token 1: q = 0.35.
    root_dist = ProbDist([0.5, 0.3, 0.2])
    tree = manual_tree([[(0, 0.5, None), (1, 0.3, None)]], root_dist)
    q = ProbDist([0.1, 0.35, 0.55])
    feats = [unit_feature(1), unit_feature(1)]
    evals = manual_evals(tree, q, [(q, f) for f in feats])
    return tree, evals


def test_cascade_accepts_with_partner_mass_where_vanilla_rejects():
    tree, evals = two_sibling_relax_case()
    cfg = RelaxConfig(tau_pos=0.9, tau_seq=1.01, tvd_budget=0.5)
    outcome = verify_cascade(tree, evals, cfg, ScriptedRng([0.6]))
    # q^R = 0.1 + 0.35 = 0.45, ratio 0.9 > 0.6: first candidate accepted.
    assert outcome.accepted_tokens == [0]
    assert outcome.tvd_consumed == pytest.approx(0.35, abs=ATOL)
    assert outcome.trace[0].added_mass_i == pytest.approx(0.35, abs=ATOL)

    tree2, evals2 = two_sibling_relax_case()
    vanilla = verify_vanilla(tree2, evals2, ScriptedRng([0.6, 0.6]))
    assert vanilla.trace[0].decision == "reject"  # 0.6 >= 0.1/0.5


def test_cascade_oversized_interchange_mass_is_skipped(gridworld):
    # Four same-cluster siblings with q = 0.2 each: partner mass 0.6 > 0.5.
    from specrelax import LinearDrafter

    drafter = LinearDrafter.zeros(gridworld.vocab, gridworld.side)
    tree = draft_one(drafter, [], TreeMask((4,)), RngStream(1))
    assert [tree.tokens[n] for n in tree_level(tree, 1)] == [0, 1, 2, 3]
    evals = evaluate_tree(gridworld, tree)
    small = gridworld
    assert evals.laws.mass[evals.law[tree_level(tree, 1)[0]], 0] == pytest.approx(0.8 / 8, abs=ATOL)

    # Rebuild the scenario on the 8-token cluster model for the 0.2 split.
    model = small_gridworld()
    drafter = LinearDrafter.zeros(model.vocab, model.side)
    tree = draft_one(drafter, [], TreeMask((4,)), RngStream(1))
    evals = evaluate_tree(model, tree)
    cfg = RelaxConfig(tau_pos=0.9, tau_seq=1.01, tvd_budget=0.5)
    outcome = verify_cascade(tree, evals, cfg, ScriptedRng([0.9]))
    first = outcome.trace[0]
    assert first.q == pytest.approx(0.2, abs=ATOL)
    assert first.added_mass_i == 0.0  # 0.6 does not fit the 0.5 budget
    assert first.added_mass_c == 0.0  # depth-1 tree has no children
    assert outcome.tvd_consumed == 0.0


def test_cascade_budget_is_shared_across_levels():
    # Two chain levels, each with a sibling-free candidate but a convergent child.
    root_dist = ProbDist([0.5, 0.3, 0.2])
    tree = manual_tree(
        [[(0, 0.5, None)], [(1, 0.5, 0)]], root_dist,
        child_dists={0: ProbDist([0.2, 0.5, 0.3])},
    )
    q_root = ProbDist([0.3, 0.45, 0.25])  # level-1 law; child token 1 holds 0.45
    q_node0 = ProbDist([0.25, 0.5, 0.25])  # level-2 law; accepts token 1 outright
    feats = unit_feature(1)
    evals = manual_evals(tree, q_root, [(q_node0, feats), (q_node0, feats)])
    cfg = RelaxConfig(tau_pos=1.01, tau_seq=0.5, tvd_budget=0.5)
    outcome = verify_cascade(tree, evals, cfg, ScriptedRng([0.9, 0.9]))
    assert outcome.alpha == 2
    # Level 1 candidate 0 gains its child's token-1 mass under the root law.
    assert outcome.trace[0].added_mass_c == pytest.approx(0.45, abs=ATOL)
    # Level 2 has no children left; nothing more is added.
    assert outcome.trace[1].added_mass_c == 0.0
    assert outcome.tvd_consumed == pytest.approx(0.45, abs=ATOL)
    assert outcome.tvd_consumed <= cfg.tvd_budget + ATOL


def test_cascade_transfer_invariant_holds():
    tree, evals = two_sibling_relax_case()
    cfg = RelaxConfig(tau_pos=0.9, tau_seq=1.01, tvd_budget=0.5)
    outcome = verify_cascade(tree, evals, cfg, ScriptedRng([0.6]))
    relaxed = outcome.trace[0]
    assert relaxed.added_mass == pytest.approx(sum(m for _, m in relaxed.transfers), abs=0)
    transfer = relaxed.transfer_dist()
    from specrelax import tvd

    assert tvd(transfer, relaxed.q_dist) == pytest.approx(relaxed.added_mass, abs=1e-12)
    assert transfer[relaxed.token] == pytest.approx(relaxed.boosted_prob(), abs=1e-12)


def test_decisions_name_their_candidate_and_donors(gridworld, monkeypatch):
    import specrelax.verify as verify_mod

    no_sets = ({}, frozenset())
    calls = []  # (forest, lane, similarity sets, outcome) of every verification call

    def recording_cascade(tree, evals, cfg, rng, sets, lane):
        outcome = real_cascade(tree, evals, cfg, rng, sets, lane=lane)
        own = build_sets(tree, evals, cfg)
        # The walk must be given exactly the sets of its own forest, rebuilt here.
        assert pair_sets(sets) == pair_sets(own)
        calls.append((tree, lane, pair_sets(own), outcome))
        return outcome

    def recording_vanilla(tree, evals, rng, lane):
        outcome = real_vanilla(tree, evals, rng, lane=lane)
        calls.append((tree, lane, no_sets, outcome))
        return outcome

    real_cascade, real_vanilla = verify_mod.verify_cascade, verify_mod.verify_vanilla
    monkeypatch.setattr(verify_mod, "verify_cascade", recording_cascade)
    monkeypatch.setattr(verify_mod, "verify_vanilla", recording_vanilla)
    drafter = LinearDrafter.zeros(gridworld.vocab, gridworld.side)
    for mode in ("cascade", "vanilla"):
        for seed in range(5):
            decode_sequence(
                gridworld, drafter, mode, TreeMask.default(), RelaxConfig(), 64, RngStream(seed)
            )
        # Four seeds in lockstep: each walk reads its own lane of one shared forest.
        decode_lanes(
            gridworld, drafter, mode, TreeMask.default(), RelaxConfig(), 64,
            [RngStream(seed) for seed in range(5, 9)],
        )
    donations = {"cascade": 0, "vanilla": 0}
    later_lane_donations = 0
    for tree, lane, sets, outcome in calls:
        mode = "vanilla" if sets is no_sets else "cascade"
        siblings = tree_level(tree, 1, lane)
        for rec in outcome.trace:
            node = siblings[rec.sibling]
            assert node in tree_level(tree, rec.level, lane)
            assert rec.token == tree.tokens[node]
            partners = {
                tree.tokens[other] for other in siblings
                if (min(node, other), max(node, other)) in sets[0].get(rec.level, ())
            }
            partners |= {
                tree.tokens[child] for child in tree.children[node] if (node, child) in sets[1]
            }
            donors = [token for token, _ in rec.transfers]
            assert set(donors) <= partners and rec.token not in donors
            if mode == "vanilla":
                assert rec.transfers == () and rec.added_mass == 0.0
            donations[mode] += bool(donors)
            later_lane_donations += bool(donors) and lane > 0
            if rec.decision == "accept":
                siblings = tree.children[node]
    assert donations["cascade"] > 0 and donations["vanilla"] == 0
    assert later_lane_donations > 0
    assert {lane for _, lane, _, _ in calls} == {0, 1, 2, 3}


def test_cascade_with_relaxation_off_matches_vanilla_bitwise(tabular_v4, tabular_v4_drafter, gridworld, grid_drafter):
    mask = TreeMask.default()
    for target, drafter, length in (
        (tabular_v4, tabular_v4_drafter, 16),
        (gridworld, grid_drafter, 64),
    ):
        for seed in range(10):
            base, _ = decode_sequence(
                target, drafter, "vanilla", mask, RelaxConfig(), length, RngStream(seed)
            )
            off_tau, _ = decode_sequence(
                target, drafter, "cascade", mask, NO_RELAX, length, RngStream(seed)
            )
            off_budget, _ = decode_sequence(
                target, drafter, "cascade", mask,
                RelaxConfig(tvd_budget=0.0), length, RngStream(seed),
            )
            assert off_tau == base
            assert off_budget == base


def test_vanilla_accept_never_flips_to_reject_under_cascade(gridworld, grid_drafter):
    mask = TreeMask.default()
    cfg = RelaxConfig()
    for seed in range(40):
        vanilla_trace = []
        cascade_trace = []
        decode_sequence(
            gridworld, grid_drafter, "vanilla", mask, cfg, 64, RngStream(seed),
            on_outcome=lambda _, o: vanilla_trace.extend(o.trace),
        )
        decode_sequence(
            gridworld, grid_drafter, "cascade", mask, cfg, 64, RngStream(seed),
            on_outcome=lambda _, o: cascade_trace.extend(o.trace),
        )
        for v_rec, c_rec in zip(vanilla_trace, cascade_trace):
            same_point = (
                v_rec.level == c_rec.level
                and v_rec.sibling == c_rec.sibling
                and v_rec.q == c_rec.q
                and v_rec.r == c_rec.r
            )
            if not same_point:
                break  # paths diverged earlier; draws no longer comparable
            if v_rec.decision != c_rec.decision:
                assert v_rec.decision == "reject" and c_rec.decision == "accept"
                break


# --- exactness oracle ----------------------------------------------------------


def probe_accept_threshold(q_row: ProbDist, p_row: ProbDist, token: int) -> float:
    """Confirm the engine's accept threshold at both sides of min(1, q/p)."""
    threshold = min(1.0, q_row[token] / p_row[token])
    eps = 1e-12
    if threshold > eps:
        tree = manual_tree([[(token, p_row[token], None)]], p_row)
        evals = manual_evals(tree, q_row, [(q_row, unit_feature(1))])
        outcome = verify_vanilla(tree, evals, ScriptedRng([threshold - eps]))
        assert outcome.accepted_tokens == [token]
    if threshold + eps < 1.0:
        tree = manual_tree([[(token, p_row[token], None)]], p_row)
        evals = manual_evals(tree, q_row, [(q_row, unit_feature(1))])
        outcome = verify_vanilla(tree, evals, ScriptedRng([threshold + eps, 0.5]))
        assert outcome.accepted_tokens == []
    return threshold


def step_emission(q_row: ProbDist, p_row: ProbDist) -> np.ndarray:
    """Analytic law of the token emitted by one chain verification step: the
    exact law of the one-node forest of each token, weighted by its draft probability."""
    emission = np.zeros(len(q_row))
    for token in range(len(q_row)):
        if p_row[token] <= 0.0:
            continue
        probe_accept_threshold(q_row, p_row, token)
        tree = manual_tree([[(token, p_row[token], None)]], p_row)
        evals = manual_evals(tree, q_row, [(q_row, unit_feature(1))])
        for (emitted,), prob in exact_call_law(tree, evals, None).items():
            emission[emitted] += p_row[token] * prob
    return emission


def test_worked_single_step_emission():
    # Accept path contributes 0.5, rejection mass 0.4 all lands on token 0.
    q = ProbDist([0.9, 0.1])
    p = ProbDist([0.5, 0.5])
    emission = step_emission(q, p)
    assert emission[0] == pytest.approx(0.9, abs=ATOL)
    assert emission[1] == pytest.approx(0.1, abs=ATOL)


def test_per_step_emission_equals_target_row(tabular_v4, tabular_v4_drafter):
    for prefix in ([], [0], [1], [2], [3]):
        q_row = tabular_v4.evaluate(prefix).dist
        p_row = tabular_v4_drafter.evaluate(prefix).dist
        emission = step_emission(q_row, p_row)
        assert np.max(np.abs(emission - q_row.mass)) <= ATOL


def test_full_sequence_law_matches_enumeration(tabular_v4, tabular_v4_drafter):
    length = 3
    oracle = ar_law(tabular_v4, length)
    emissions: dict[tuple[int, ...], np.ndarray] = {}

    def law(seq: tuple[int, ...]) -> float:
        prob = 1.0
        for t in range(length):
            prefix = seq[:t]
            if prefix not in emissions:
                q_row = tabular_v4.evaluate(list(prefix)).dist
                p_row = tabular_v4_drafter.evaluate(list(prefix)).dist
                emissions[prefix] = step_emission(q_row, p_row)
            prob *= emissions[prefix][seq[t]]
        return prob

    for seq, expected in oracle.items():
        assert law(seq) == pytest.approx(expected, abs=ATOL)


# --- closed-form outcome law ----------------------------------------------------


def empirical_outcome_law(run, samples):
    counts: dict[tuple[int, ...], int] = {}
    for seed in range(samples):
        key = tuple(run(RngStream(seed)).emitted_tokens)
        counts[key] = counts.get(key, 0) + 1
    return {key: n / samples for key, n in counts.items()}


def budgeted_two_level_scenario():
    # Two siblings at level 1, one chain child each. Exercises, in order: a
    # convergent-child mass too large for the budget (skipped), sibling
    # partner masses that do fit, a child token shadowed by an already-counted
    # partner token (dedup), both siblings rejecting (level-1 correction), and
    # branch-dependent budgets at level 2.
    root_dist = ProbDist([0.55, 0.30, 0.15])
    tree = manual_tree(
        [[(0, 0.55, None), (1, 0.30, None)], [(2, 0.55, 0), (0, 0.45, 1)]],
        root_dist,
        child_dists={0: ProbDist([0.25, 0.20, 0.55]), 1: ProbDist([0.45, 0.30, 0.25])},
    )
    q_root = ProbDist([0.15, 0.10, 0.75])
    q_left = ProbDist([0.30, 0.30, 0.40])
    q_right = ProbDist([0.50, 0.25, 0.25])
    aligned = unit_feature(1)
    evals = manual_evals(
        tree,
        q_root,
        [(q_left, aligned), (q_right, aligned), (q_left, aligned), (q_right, aligned)],
    )
    cfg = RelaxConfig(tau_pos=0.9, tau_seq=0.6, tvd_budget=0.5)
    return tree, evals, cfg


def test_engine_matches_closed_form_outcome_law_relaxed():
    tree, evals, cfg = budgeted_two_level_scenario()
    exact = exact_call_law(tree, evals, cfg)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    empirical = empirical_outcome_law(
        lambda rng: verify_cascade(tree, evals, cfg, rng), 60_000
    )
    assert law_tvd(exact, empirical) <= 0.015


def test_engine_matches_closed_form_outcome_law_vanilla():
    tree, evals, _ = budgeted_two_level_scenario()
    exact = exact_call_law(tree, evals, None)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    empirical = empirical_outcome_law(
        lambda rng: verify_vanilla(tree, evals, rng), 60_000
    )
    assert law_tvd(exact, empirical) <= 0.015


# --- decode_sequence ------------------------------------------------------------


def test_decode_sequence_refuses_bad_requests_with_config_error(tabular_v4, tabular_v4_drafter):
    args = (TreeMask.chain(2), RelaxConfig())
    with pytest.raises(ConfigError, match="mode must be one of"):
        decode_sequence(tabular_v4, tabular_v4_drafter, "bogus", *args, 4, RngStream(0))
    with pytest.raises(ConfigError, match="exceeds the 8x8 grid"):
        decode_sequence(GridWorldModel.default(), LinearDrafter.zeros(32, 8), "vanilla", *args, 65,
                        RngStream(0))
    for mode in ("vanilla", "cascade"):
        with pytest.raises(ConfigError, match="requires a drafter"):
            decode_sequence(tabular_v4, None, mode, *args, 4, RngStream(0))
    # Lengths below 1, in every mode and through both library entries.
    for mode in ("ar", "vanilla", "cascade"):
        for length in (0, -3):
            with pytest.raises(ConfigError, match="at least 1"):
                decode_sequence(tabular_v4, tabular_v4_drafter, mode, *args, length, RngStream(0))
            with pytest.raises(ConfigError, match="at least 1"):
                decode_with_metrics(tabular_v4, tabular_v4_drafter, mode, *args, length, RngStream(0))


def test_decode_lanes_refuses_a_drafter_over_another_vocabulary():
    target = random_tabular_model(4, 1, seed=1)
    for vocab in (8, 3):
        for mode in ("vanilla", "cascade"):
            streams = [RngStream(0), RngStream(1)]
            with pytest.raises(ConfigError, match=f"drafter vocabulary {vocab} != target vocabulary 4"):
                decode_lanes(target, LinearDrafter.zeros(vocab, 8), mode, TreeMask((2, 1)), RelaxConfig(), 3,
                             streams, candidate_mode="topk")
            # Refused before anything is drawn.
            assert [rng.counter for rng in streams] == [0, 0]


class CountingDrafter:
    """Wraps a drafter and counts every conditional it hands out."""

    def __init__(self, drafter):
        self.drafter = drafter
        self.grid_side, self.vocab, self.context = drafter.grid_side, drafter.vocab, drafter.context
        self.calls = 0

    def distribution(self, prefix):
        self.calls += 1
        return self.drafter.distribution(prefix)

    def conditionals(self, contexts, index):
        self.calls += 1
        return self.drafter.conditionals(contexts, index)


def test_unknown_candidate_mode_is_refused_before_any_drafting(tabular_v4, tabular_v4_drafter):
    drafter = CountingDrafter(tabular_v4_drafter)
    for mode in ("ar", "vanilla", "cascade"):
        rng = RngStream(0)
        with pytest.raises(ConfigError, match="unknown candidate mode 'bogus'"):
            decode_sequence(tabular_v4, drafter, mode, TreeMask.chain(2), RelaxConfig(), 4, rng,
                            candidate_mode="bogus")
        with pytest.raises(ConfigError, match="unknown candidate mode 'bogus'"):
            decode_with_metrics(tabular_v4, drafter, mode, TreeMask.chain(2), RelaxConfig(), 4, rng,
                                candidate_mode="bogus")
        assert rng.counter == 0
    assert drafter.calls == 0
    # The counting drafter itself decodes like the drafter it wraps.
    plain, _ = decode_sequence(tabular_v4, tabular_v4_drafter, "vanilla", TreeMask.chain(2),
                               RelaxConfig(), 4, RngStream(0))
    counted, _ = decode_sequence(tabular_v4, drafter, "vanilla", TreeMask.chain(2), RelaxConfig(), 4,
                                 RngStream(0))
    assert counted == plain and drafter.calls > 0


def test_ar_mode_counts(tabular_v4):
    tokens, stats = decode_sequence(
        tabular_v4, None, "ar", TreeMask.chain(3), RelaxConfig(), 3, RngStream(0)
    )
    assert len(tokens) == 3
    assert stats.target_calls == 3
    assert stats.drafter_calls == 0


def test_self_drafting_chain_accepts_full_depth(tabular_v4):
    tokens, stats = decode_sequence(
        tabular_v4, tabular_v4, "vanilla", TreeMask.chain(5), RelaxConfig(), 30, RngStream(3)
    )
    assert len(tokens) == 30
    assert stats.verify_calls == 6
    assert stats.accepted_draft_tokens == 30


def test_replay_determinism_across_modes(tabular_v4, tabular_v4_drafter):
    for mode in ("ar", "vanilla", "cascade"):
        a, _ = decode_sequence(
            tabular_v4, tabular_v4_drafter, mode, TreeMask.default(), RelaxConfig(), 16,
            RngStream(9),
        )
        b, _ = decode_sequence(
            tabular_v4, tabular_v4_drafter, mode, TreeMask.default(), RelaxConfig(), 16,
            RngStream(9),
        )
        assert a == b


def test_decode_against_reference_chain_implementation(tabular_v4, tabular_v4_drafter):
    """Width-1 stochastic tree decoding must replay plain chain speculation
    draw for draw: same tokens from the same stream."""

    def reference_chain(target, drafter, length, depth, rng):
        tokens: list[int] = []
        while len(tokens) < length:
            steps = min(depth, length - len(tokens))
            ctx = list(tokens)
            draft: list[tuple[int, ProbDist]] = []
            for _ in range(steps):
                p_row = drafter.evaluate(ctx).dist
                token = p_row.sample(rng)
                draft.append((token, p_row))
                ctx.append(token)
            for token, p_row in draft:
                q_row = tabular_v4.evaluate(tokens).dist
                r = rng.next_real()
                if r < min(1.0, q_row[token] / p_row[token]):
                    tokens.append(token)
                else:
                    try:
                        corr = residual_dist(q_row, p_row)
                    except DegenerateResidual:
                        corr = q_row
                    tokens.append(corr.sample(rng))
                    break
        return tokens[:length]

    for seed in range(25):
        expected = reference_chain(tabular_v4, tabular_v4_drafter, 4, 3, RngStream(seed))
        actual, _ = decode_sequence(
            tabular_v4, tabular_v4_drafter, "vanilla", TreeMask.chain(3), RelaxConfig(), 4,
            RngStream(seed), candidate_mode=STOCHASTIC,
        )
        assert actual == expected


def test_budget_soundness_small_sweep(gridworld, grid_drafter):
    cfg = RelaxConfig()
    mask = TreeMask.default()
    for seed in range(20):
        outcomes = []
        decode_sequence(
            gridworld, grid_drafter, "cascade", mask, cfg, 64, RngStream(seed),
            on_outcome=lambda _, o: outcomes.append(o),
        )
        for outcome in outcomes:
            assert outcome.tvd_consumed <= cfg.tvd_budget + ATOL
            assert outcome.alpha == len(outcome.accepted_tokens) <= mask.depth
            # Correction present exactly when some level rejected every sibling.
            rejected_level = outcome.trace[-1].decision == "reject"
            assert (outcome.correction_token is not None) == rejected_level


def test_a_grid_less_target_reads_its_trained_drafter_on_the_drafter_grid_at_every_length():
    # `train_drafter` fits a grid-less target's drafter on an 8x8 grid; a 16-token
    # decode must read level 5 (sequence index 4) at cell (0, 4) as a 64-token one does.
    target = random_tabular_model(4, 1, seed=11)
    drafter = train_drafter(target, TrainConfig())

    def first_cycle(length):
        lines = []

        def sink(lane, cycle, outcome):
            if cycle == 0:
                lines.extend(outcome.trace_lines(lane, cycle))

        rngs = [RngStream(seed) for seed in range(16)]
        decode_lanes(target, drafter, "cascade", TreeMask.default(), RelaxConfig(), length, rngs,
                     candidate_mode=STOCHASTIC, on_outcome=sink)
        return lines

    short = first_cycle(16)
    assert any('"level": 5,' in line for line in short)
    assert short == first_cycle(64)
