from __future__ import annotations

import inspect
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrelax import (
    EngineError,
    GridWorldModel,
    LinearDrafter,
    ModelFormatError,
    NonFinite,
    ProbDist,
    RelaxConfig,
    RngStream,
    TabularModel,
    TooLarge,
    TrainConfig,
    TreeMask,
    cosine_sim,
    decode_sequence,
    load_model,
    random_tabular_model,
    save_model,
    tempered_table_drafter,
    train_drafter,
)
from specrelax.core import InvalidValue, UnknownWindow

from conftest import ar_law, make_tabular_v2, small_gridworld

ATOL = 1e-9


def test_gridworld_mass_split():
    q = small_gridworld().evaluate([]).dist
    assert np.allclose(q.mass, [0.2] * 4 + [0.05] * 4, atol=ATOL)


def test_gridworld_same_cluster_features_identical():
    model = small_gridworld()
    f1 = model.evaluate([0, 2]).feature
    f2 = model.evaluate([1, 3]).feature
    assert cosine_sim(f1, f2) == 1.0


def test_gridworld_consecutive_positions_converge_within_region():
    model = GridWorldModel.default()
    # Positions 9 and 10 sit in region 0; last tokens from cluster 1.
    f1 = model.evaluate([0] * 8 + [9]).feature
    f2 = model.evaluate([0] * 9 + [10]).feature
    assert cosine_sim(f1, f2) >= 0.99


def test_gridworld_cross_region_features_diverge():
    model = GridWorldModel.default()
    in_region0 = model.evaluate([0]).feature
    in_region1 = model.evaluate([0] * (3 * 8)).feature
    assert cosine_sim(in_region0, in_region1) < 0.5


def test_gridworld_first_position_feature_is_region_anchor():
    model = small_gridworld()
    feat = model.evaluate([]).feature
    assert np.allclose(feat.values, [1, 0, 0, 0], atol=ATOL)


def test_gridworld_jitter_is_deterministic_and_small():
    model = GridWorldModel.default(feature_jitter=0.05)
    ref = GridWorldModel.default()
    prefix = [0] * 7 + [3, 4]  # index 9
    f1 = model.evaluate(prefix).feature
    f2 = model.evaluate(prefix).feature
    assert np.array_equal(f1.values, f2.values)
    base = ref.evaluate(prefix).feature
    assert cosine_sim(f1, base) > 0.99
    assert not np.array_equal(f1.values, base.values)


def test_gridworld_jitter_fold_matches_the_one_path_jitter_bitwise():
    model = GridWorldModel.default(feature_jitter=0.05)
    rng = np.random.default_rng(3)
    paths = [[]] + [rng.integers(0, 32, size=n).tolist() for n in (1, 2, 7, 30, 63, 64)]
    width = max(map(len, paths))
    padded = np.array([[-1] * (width - len(p)) + p for p in paths])
    for cells in (np.zeros(len(paths), dtype=np.intp), np.arange(len(paths)) * 9 % 64, np.full(len(paths), 63)):
        rows = model._jitters(padded, cells)
        for prefix, cell, row in zip(paths, cells.tolist(), rows):
            assert row.tobytes() == model._jitter(prefix, cell).tobytes()


@pytest.mark.parametrize("jitter", [0.0, 0.05])
def test_gridworld_refuses_a_prefix_longer_than_its_grid(jitter):
    model = GridWorldModel.default(feature_jitter=jitter)
    last_cell = model.evaluate([5] * 63)
    at_end = model.evaluate([5] * 64)  # read at the last cell, index 63
    assert at_end.dist is last_cell.dist
    if jitter == 0.0:
        assert at_end.feature is last_cell.feature
    for read in (model.evaluate, model.distribution):
        with pytest.raises(UnknownWindow, match="sequence index 65 lies past the 8x8 grid"):
            read([5] * 65)


def test_gridworld_as_a_drafter_refuses_an_index_past_its_grid():
    model = GridWorldModel.default()
    assert model.conditionals(np.array([[0]]), np.array([63])).tobytes() == model.distribution([0] * 63).mass.tobytes()
    with pytest.raises(UnknownWindow, match="sequence index 64 lies past the 8x8 grid"):
        model.conditionals(np.array([[0]]), np.array([64]))
    with pytest.raises(UnknownWindow, match="sequence index 64 lies past the 8x8 grid"):
        model.distribution([0] * 64)


def test_tabular_lookup():
    model = make_tabular_v2({(0,): [0.9, 0.1]})
    assert np.allclose(model.evaluate([0]).dist.mass, [0.9, 0.1], atol=ATOL)


def test_tabular_uses_last_k_window():
    model = make_tabular_v2({(0,): [0.9, 0.1], (1,): [0.3, 0.7]})
    long_prefix = [1, 1, 0]
    assert np.allclose(
        model.evaluate(long_prefix).dist.mass, [0.9, 0.1], atol=ATOL
    )


def test_tabular_requires_full_coverage():
    with pytest.raises(UnknownWindow):
        TabularModel(
            2,
            1,
            {(): [0.5, 0.5], (0,): [0.5, 0.5]},  # (1,) missing
            {(): [1.0], (0,): [1.0], (1,): [1.0]},
            1,
        )


def test_linear_drafter_uniform_at_zero_parameters():
    drafter = LinearDrafter.zeros(4, 2)
    p = drafter.distribution([1])
    assert np.allclose(p.mass, [0.25] * 4, atol=ATOL)


def test_linear_drafter_softmax_by_hand():
    bias = np.array([np.log(2.0), 0.0])
    drafter = LinearDrafter(np.zeros((2, 2 + 4)), bias, 2, 2)
    p = drafter.distribution([0])
    assert np.allclose(p.mass, [2 / 3, 1 / 3], atol=ATOL)


def test_linear_drafter_is_deterministic():
    rng = np.random.default_rng(3)
    drafter = LinearDrafter(rng.normal(size=(4, 4 + 4)), rng.normal(size=4), 4, 2)
    a = drafter.distribution([0, 2])  # cell (1, 0)
    b = drafter.distribution([0, 2])
    assert np.array_equal(a.mass, b.mass)


def reference_row(drafter: LinearDrafter, last: int | None, index: int) -> ProbDist:
    """One conditional computed on its own: the logits, then a per-row softmax."""
    v, n = drafter.vocab, drafter.side
    row, col = divmod(index, n)
    z = drafter.bias + drafter.weights[:, v + row] + drafter.weights[:, v + n + col]
    if last is not None:
        z = z + drafter.weights[:, last]
    return ProbDist.normalized(np.exp(z - z.max()))


DRAFTER_SHAPES = [(v, n) for v in (2, 3, 5, 13, 32, 33) for n in (1, 2, 8)]
SMALL_TRAINING = TrainConfig(epochs=10, num_sequences=2, seed=1)


def _parity_drafters():
    rng = np.random.default_rng(17)
    for v, n in DRAFTER_SHAPES:
        yield f"zero-{v}x{n}", LinearDrafter.zeros(v, n)
        yield f"normal-{v}x{n}", LinearDrafter(
            rng.normal(scale=2.0, size=(v, v + 2 * n)), rng.normal(size=v), v, n
        )
    # Training takes the grid side from the target: 8 for tabular targets.
    yield "trained-grid-32x8", train_drafter(GridWorldModel.default(), SMALL_TRAINING)
    yield "trained-grid-8x2", train_drafter(small_gridworld(), SMALL_TRAINING)
    for v in (2, 3, 5, 13, 33):
        yield f"trained-tabular-{v}x8", train_drafter(random_tabular_model(v, 1, seed=v), SMALL_TRAINING)


def test_linear_drafter_table_rows_match_per_row_softmax_bitwise():
    for name, drafter in _parity_drafters():
        assert drafter._table is None, name
        cells = drafter.side**2
        for last in [None, *range(drafter.vocab)]:
            for index in range(cells):
                ref = reference_row(drafter, last, index)
                table_row = drafter._softmax_table()[(0 if last is None else last + 1) * cells + index]
                assert table_row.tobytes() == ref.mass.tobytes(), (name, last, index)
                if (last is None) != (index == 0):
                    continue  # no prefix has this length and last token
                prefix = [] if last is None else [0] * (index - 1) + [last]
                row = drafter.distribution(prefix)
                assert row.mass.tobytes() == ref.mass.tobytes(), (name, last, index)
                assert not row.mass.flags.writeable, (name, last, index)
                assert drafter.distribution(prefix) is row
                assert row.sample(RngStream(index)) == ref.sample(RngStream(index))
                assert row._cdf == ref._cdf, (name, last, index)
        assert drafter._table.shape == ((drafter.vocab + 1) * drafter.side**2, drafter.vocab)
        assert drafter._table.flags.c_contiguous and not drafter._table.flags.writeable


def test_linear_drafter_builds_its_table_on_first_use_only():
    drafter = LinearDrafter.zeros(4, 2)
    assert drafter._table is None
    assert train_drafter(small_gridworld(), SMALL_TRAINING)._table is None
    row = drafter.distribution([0, 0, 3])  # cell (1, 1)
    with pytest.raises(ValueError):
        row.mass[0] = 1.0
    assert row.mass.base is drafter._table


def test_linear_drafter_overflowing_logits_raise_non_finite():
    huge = LinearDrafter(np.full((3, 3 + 4), 1e308), np.full(3, 1e308), 3, 2)
    with pytest.raises(NonFinite):
        huge.distribution([0])
    # Logits that overflow to -inf on some tokens only leave those tokens zero mass.
    weights = np.zeros((3, 3 + 4))
    weights[0, 3:] = -1e308
    p = LinearDrafter(weights, np.zeros(3), 3, 2).distribution([])
    assert p.mass.tolist() == [0.0, 0.5, 0.5]


@pytest.mark.parametrize(
    "weights, bias", [(np.zeros((3, 6)), np.zeros(3)), (np.zeros((3, 7)), np.zeros(4))], ids=["weights", "bias"]
)
def test_linear_drafter_shapes_raise_engine_errors_that_are_value_errors(weights, bias):
    with pytest.raises(EngineError) as info:
        LinearDrafter(weights, bias, 3, 2)
    assert isinstance(info.value, ValueError)


def test_linear_drafter_refuses_a_table_above_its_cap(tmp_path, capsys):
    from specrelax.cli import main
    from specrelax.models import _MAX_TABLE_ENTRIES

    # (V+1) * N^2 * V entries: 16.8M at V=512, N=8 fit; 268.6M at V=2,048 do not.
    assert 513 * 64 * 512 <= _MAX_TABLE_ENTRIES < 2049 * 64 * 2048
    assert LinearDrafter.zeros(512, 8)._table is None
    with pytest.raises(InvalidValue, match="softmax table of 268566528 entries, above the cap"):
        LinearDrafter.zeros(2048, 8)
    # A 400 KB file whose table would hold 2.4G entries: refused at load, and decode exits 2.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "linear_drafter", "V": 2, "N": 20_000,
                                "weights": [[0.0] * 40_002] * 2, "bias": [0.0, 0.0]}))
    with pytest.raises(ModelFormatError, match="above the cap"):
        load_model(path)
    save_model(random_tabular_model(2, 1, seed=0), tmp_path / "tab.json")
    out = tmp_path / "m.jsonl"
    assert main(["decode", "--model", str(tmp_path / "tab.json"), "--drafter", str(path), "--mode", "vanilla",
                 "--tree", "2,1", "--len", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "above the cap" in err
    assert not out.exists()


@pytest.mark.parametrize("exp_value", [-1.0, 0.0], ids=["negative", "zero-sum"])
def test_linear_drafter_bad_softmax_rows_raise_engine_errors(monkeypatch, exp_value):
    # The table check guards the softmax itself: force exp to yield rows it must refuse.
    drafter = LinearDrafter.zeros(3, 2)

    def fake_exp(x, out):
        out[...] = exp_value
        return out

    monkeypatch.setattr(np, "exp", fake_exp)
    with pytest.raises(EngineError) as info:
        drafter.distribution([])
    assert isinstance(info.value, ValueError)


def test_linear_drafter_rejects_tokens_and_cells_outside_its_range():
    drafter = train_drafter(random_tabular_model(4, 1, seed=4), SMALL_TRAINING)
    assert (drafter.vocab, drafter.side) == (4, 8)
    # Tokens -1 and 4, and prefixes of 64 tokens, whose next index (8, 0) lies past the grid.
    outside = [[-1], [4], [0] * 64, [2] * 63 + [3]]
    for prefix in outside:
        with pytest.raises(UnknownWindow):
            drafter.distribution(prefix)
    # The edges of the range still read their own rows: cells (0, 0), (7, 0) and (7, 7).
    for prefix, index in [([], 0), ([0] * 56, 64 + 56), ([0] * 62 + [3], 4 * 64 + 63)]:
        assert drafter.distribution(prefix).mass.tobytes() == drafter._table[index].tobytes()


def test_linear_drafter_conditionals_match_distribution_bitwise():
    rng = np.random.default_rng(3)
    v, n = 5, 4
    drafter = LinearDrafter(rng.normal(scale=2.0, size=(v, v + 2 * n)), rng.normal(size=v), v, n)
    # Every prefix of at least one token on the drafter's grid.
    lasts, index = np.arange(v).repeat(n * n - 1), np.tile(np.arange(1, n * n), v)
    rows = drafter.conditionals(lasts[:, None], index)
    for row, last, i in zip(rows, lasts.tolist(), index.tolist()):
        expected = drafter.distribution([0] * (i - 1) + [last]).mass
        assert row.tobytes() == expected.tobytes(), (last, i)


def test_linear_drafter_conditionals_reject_indexes_and_tokens_outside_its_range():
    drafter = LinearDrafter.zeros(4, 2)
    ok_context, ok_index = np.array([[0], [3]]), np.array([1, 3])
    assert drafter.conditionals(ok_context, ok_index).shape == (2, 4)
    cases = [
        (ok_context, np.array([1, 4])),  # row 2 of a 2x2 grid
        (np.array([[0], [4]]), ok_index),  # a last token >= V
        (np.array([[-1], [0]]), ok_index),  # no last token
    ]
    for contexts, index in cases:
        with pytest.raises(UnknownWindow):
            drafter.conditionals(contexts, index)


def test_tabular_size_guard_counts_cells_before_any_draw(monkeypatch):
    from specrelax.models import _check_tabular_shape

    def refuse_to_draw(*args, **kwargs):
        raise AssertionError("a tabular model was drawn before its size was checked")

    monkeypatch.setattr(np.random, "default_rng", refuse_to_draw)
    # Few windows, but a huge vocabulary or feature dimension per window.
    for vocab, h in ((999_999, 4), (4, 10**9)):
        with pytest.raises(TooLarge):
            random_tabular_model(vocab, 1, seed=0, h=h)
    # Order 1, vocab 1: windows () and (0,), holding (1 + h) + (1 + h + 1) cells.
    _check_tabular_shape(1, 1, 499_998)
    with pytest.raises(TooLarge):
        _check_tabular_shape(1, 1, 499_999)


def test_enumerate_single_step():
    model = make_tabular_v2({(): [0.9, 0.1]})
    law = ar_law(model, 1)
    assert law[(0,)] == pytest.approx(0.9, abs=ATOL)
    assert law[(1,)] == pytest.approx(0.1, abs=ATOL)


def test_enumerate_sums_to_one(tabular_v4):
    law = ar_law(tabular_v4, 2)
    assert len(law) == 16
    assert sum(law.values()) == pytest.approx(1.0, abs=ATOL)


def test_enumerate_chain_rule_by_hand():
    model = make_tabular_v2({(): [0.5, 0.5], (0,): [0.9, 0.1]})
    law = ar_law(model, 2)
    assert law[(0, 0)] == pytest.approx(0.45, abs=ATOL)


def test_enumerate_guard():
    model = random_tabular_model(4, 1, seed=0)
    with pytest.raises(TooLarge):
        ar_law(model, 11)


def test_enumerate_marginals_match_target_eval(tabular_v4):
    law = ar_law(tabular_v4, 3)
    # Step-2 conditional given first token 1 must equal the table row.
    mass_first_1 = sum(p for seq, p in law.items() if seq[0] == 1)
    for token in range(4):
        marginal = sum(p for seq, p in law.items() if seq[0] == 1 and seq[1] == token)
        expected = tabular_v4.evaluate([1]).dist[token]
        assert marginal / mass_first_1 == pytest.approx(expected, abs=1e-9)


def test_tempered_drafter_flattens_rows(tabular_v4, tabular_v4_drafter):
    q = tabular_v4.evaluate([2]).dist
    p = tabular_v4_drafter.evaluate([2]).dist
    assert np.allclose(p.mass, np.sqrt(q.mass) / np.sqrt(q.mass).sum(), atol=ATOL)


def test_model_serialization_round_trip(tmp_path, tabular_v4):
    for model in (tabular_v4, GridWorldModel.default(), LinearDrafter.zeros(8, 3)):
        path = tmp_path / f"{model.kind}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert type(loaded) is type(model)
        if isinstance(model, LinearDrafter):
            assert np.allclose(loaded.distribution([1]).mass, model.distribution([1]).mass)
        else:
            ref, out = model.evaluate([1]), loaded.evaluate([1])
            assert np.allclose(ref.dist.mass, out.dist.mass, atol=0)
            assert np.allclose(ref.feature.values, out.feature.values, atol=0)


def test_loader_rejects_unknown_version(tmp_path, tabular_v4):
    path = tmp_path / "m.json"
    save_model(tabular_v4, path)
    import json

    data = json.loads(path.read_text())
    data["format_version"] = 2
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_loader_rejects_unknown_kind(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"format_version": 1, "kind": "mystery"}')
    with pytest.raises(ModelFormatError):
        load_model(path)


STOCK_MODELS = {
    "gridworld": GridWorldModel.default().to_dict(),
    "tabular": random_tabular_model(4, 1, seed=0).to_dict(),
    "linear_drafter": LinearDrafter.zeros(32, 8).to_dict(),
}
OPTIONAL_KEYS = {"featureJitter"}

# Digit-free strings, so no replacement parses as a number.
_text = st.text(alphabet="abxyz ,.-", max_size=5)
_scalar = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), _text)
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0)),
    "string": _text,
    "array": st.lists(_scalar, max_size=3),
    "object": st.dictionaries(_text, _scalar, max_size=3),
}


def json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


@st.composite
def mutated_model_dicts(draw):
    """A stock model dict with one key removed, or one value of another JSON type."""
    data = dict(STOCK_MODELS[draw(st.sampled_from(sorted(STOCK_MODELS)))])
    key = draw(st.sampled_from(sorted(data)))
    if draw(st.booleans()):
        del data[key]
        return data, key not in OPTIONAL_KEYS
    other = sorted(t for t in JSON_VALUES if t != json_type(data[key]))
    data[key] = draw(JSON_VALUES[draw(st.sampled_from(other))])
    return data, False


@settings(max_examples=150, deadline=None)
@given(mutated_model_dicts())
def test_malformed_model_files_raise_model_format_error_only(tmp_path_factory, case):
    data, must_fail = case
    path = tmp_path_factory.getbasetemp() / "mutated-model.json"
    path.write_text(json.dumps(data))
    try:
        load_model(path)
    except ModelFormatError:
        return
    # A replacement of another JSON type is refused too (a bool for a mixing
    # weight no longer reads as 1.0), but only a missing required key must be.
    assert not must_fail, f"loaded a model without a required key: {sorted(data)}"


def _grid_id_out_of_range(draw, data):
    key = draw(st.sampled_from(["regions", "clusters"]))
    past = max(data[key]) + 1  # one past the ids in use; every id there has an anchor
    data[key][draw(st.integers(0, len(data[key]) - 1))] = draw(st.sampled_from([-1, past]))


def _grid_anchor_resized(draw, data):
    anchors = data[draw(st.sampled_from(["regionAnchors", "clusterAnchors"]))]
    i = draw(st.integers(0, len(anchors) - 1))
    anchors[i] = (anchors[i] + [0.5] * 3)[: draw(st.sampled_from([1, data["h"] - 1, data["h"] + 1]))]


def _tabular_key_outside(draw, data):
    vocab, order = data["V"], data["order"]
    window = draw(st.sampled_from([[vocab], [-1], [0] * (order + 1), [vocab - 1, vocab]]))
    key = ",".join(map(str, window))
    for name in draw(st.sampled_from([["table"], ["featureTable"], ["table", "featureTable"]])):
        data[name][key] = list(data[name][""])


TYPED_MUTATIONS = {
    "grid-id": ("gridworld", _grid_id_out_of_range),
    "grid-anchor": ("gridworld", _grid_anchor_resized),
    "tabular-key": ("tabular", _tabular_key_outside),
}


@pytest.mark.parametrize("mutation", sorted(TYPED_MUTATIONS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_well_typed_bad_model_files_fail_at_load_or_decode_cleanly(tmp_path_factory, mutation, data):
    """A mutation that keeps every JSON type: refused at load, or a 4-token decode raises only EngineError."""
    kind, mutate = TYPED_MUTATIONS[mutation]
    model = json.loads(json.dumps(STOCK_MODELS[kind]))
    mutate(data.draw, model)
    path = tmp_path_factory.getbasetemp() / "typed-mutation.json"
    path.write_text(json.dumps(model))
    try:
        target = load_model(path)
    except ModelFormatError:
        return
    drafter = tempered_table_drafter(target) if kind == "tabular" else LinearDrafter.zeros(32, 8)
    try:
        decode_sequence(target, drafter, "cascade", TreeMask.default(), RelaxConfig(), 4, RngStream(0))
    except EngineError:
        pass


def test_gridworld_refuses_negative_ids_and_bad_cluster_anchors():
    stock = GridWorldModel.default().to_dict()
    for key, index, value in (("regions", 5, -1), ("clusters", 3, -1),
                              ("clusterAnchors", 1, [1.0, 0.0, 0.0]), ("clusterAnchors", 2, [float("nan")] * 8)):
        data = json.loads(json.dumps(stock))
        data[key][index] = value
        with pytest.raises(EngineError):
            GridWorldModel.from_dict(data)
    data = json.loads(json.dumps(stock))
    data["clusterAnchors"][3] = [0.0] * 8  # a zero cluster anchor is allowed
    assert GridWorldModel.from_dict(data).evaluate([31]).feature.values.tolist() == np.eye(8)[0].tolist()


def test_tabular_refuses_windows_outside_its_vocabulary_or_order():
    stock = random_tabular_model(3, 1, seed=0)
    windows = [(), (0,), (1,), (2,)]
    table = {w: ev.dist for w, ev in zip(windows, stock._evals)}
    features = {w: ev.feature for w, ev in zip(windows, stock._evals)}
    for extra in ((7,), (-1,), (0, 0)):
        for bad_table, bad_features in ((True, False), (False, True)):
            with pytest.raises(UnknownWindow):
                TabularModel(3, 1, {**table, extra: table[()]} if bad_table else table,
                             {**features, extra: features[()]} if bad_features else features, 4)
    for prefix in ([7], [-1], [0, 3]):
        with pytest.raises(UnknownWindow):
            stock.evaluate(prefix)


def test_tabular_batch_windows_outside_its_vocabulary_are_refused():
    model = random_tabular_model(3, 2, seed=4, h=2)
    rows = model.conditionals(np.array([[0, 1], [-1, 2]]), np.array([2, 1]))
    assert rows.shape == (2, 3)  # a -1 before a window's start is padding
    for tails, lengths, window in (([[0, 1], [1, 3]], [2, 2], (1, 3)), ([[-1, 2]], [2], (-1, 2))):
        with pytest.raises(UnknownWindow, match=re.escape(f"no table row for window {window}")):
            model.conditionals(np.array(tails), np.array(lengths))


def _incomplete_regions(data):
    data["regions"].pop()


def _unknown_region_cluster(data):
    data["regionClusters"][2] = 9


def _zero_region_anchor(data):
    data["regionAnchors"][1] = [0.0] * 8


def _empty_preferred_cluster(data):
    data["clusters"] = [3 if c == 2 else c for c in data["clusters"]]


def _short_clusters(data):
    data["clusters"].pop()


def _certain_cluster(data):
    data["inClusterMass"] = 1.0


def _zero_side(data):
    data["N"] = 0


def _short_region_anchors(data):
    data["regionAnchors"].pop()


def _overflowing_region_anchors(data):
    data["regionAnchors"] = [[x * 1e200 for x in row] for row in data["regionAnchors"]]


def _set(key, value):
    """A mutation that puts `value` at `key`."""
    return lambda data: data.__setitem__(key, value)


def _shifted_ids(key, offset):
    """A mutation that adds `offset` to every id of `key`."""
    return lambda data: data.__setitem__(key, [i + offset for i in data[key]])


def _string_region_anchor(data):
    data["regionAnchors"][0] = [str(x) for x in data["regionAnchors"][0]]


def _bool_region_cluster(data):
    data["regionClusters"][1] = True


GRID_REFUSALS = {
    "zero-side": (_zero_side, "side must be >= 1 and vocab >= 2"),
    "fractional-side": (_set("N", 8.9), "N must be a JSON integer"),
    "fractional-vocab": (_set("V", 32.7), "V must be a JSON integer"),
    "fractional-h": (_set("h", 8.4), "h must be a JSON integer"),
    "string-side": (_set("N", "8"), "N must be a JSON integer"),
    "bool-side": (_set("N", True), "N must be a JSON integer"),
    "fractional-cluster-ids": (_shifted_ids("clusters", 0.5), "clusters must be a list of JSON integers"),
    "fractional-region-ids": (_shifted_ids("regions", 0.25), "regions must be a list of JSON integers"),
    "bool-region-cluster": (_bool_region_cluster, "regionClusters must be a list of JSON integers"),
    "string-in-cluster-mass": (_set("inClusterMass", "0.8"), "inClusterMass must be a JSON number"),
    "bool-feature-mix": (_set("featureMix", True), "featureMix must be a JSON number"),
    "nan-feature-mix": (_set("featureMix", math.nan), "feature_mix must be finite"),
    "infinite-feature-mix": (_set("featureMix", math.inf), "feature_mix must be finite"),
    "string-region-anchor": (_string_region_anchor, "regionAnchors must hold JSON numbers"),
    "short-region-anchors": (_short_region_anchors, "one region anchor required per region"),
    "short-clusters": (_short_clusters, "clusters must assign every token"),
    "certain-cluster": (_certain_cluster, "in_cluster_mass must lie in"),
    "incomplete-regions": (_incomplete_regions, "regions must cover every grid cell"),
    "unknown-region-cluster": (_unknown_region_cluster, "region_clusters references an unknown cluster"),
    "zero-region-anchor": (_zero_region_anchor, "region anchors must be non-zero"),
    "overflowing-region-anchor": (_overflowing_region_anchors, "region anchor norm overflows"),
    "improper-preferred-cluster": (_empty_preferred_cluster, "each region needs a proper, non-empty preferred cluster"),
}


def test_a_huge_finite_feature_mix_loads_and_its_rows_are_refused_at_first_use(tmp_path, capsys):
    from specrelax.cli import main

    data = json.loads(json.dumps(STOCK_MODELS["gridworld"]))
    data["featureMix"] = 1e308
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(data))
    assert load_model(path).feature_mix == 1e308
    out = tmp_path / "m.jsonl"
    assert main(["decode", "--model", str(path), "--mode", "ar", "--seeds", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: feature vector contains non-finite entries\n"
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(GRID_REFUSALS))
def test_malformed_gridworld_files_are_refused_at_load_and_by_decode(tmp_path, capsys, case):
    from specrelax.cli import main

    mutate, message = GRID_REFUSALS[case]
    data = json.loads(json.dumps(STOCK_MODELS["gridworld"]))
    mutate(data)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)
    out = tmp_path / "m.jsonl"
    assert main(["decode", "--model", str(path), "--mode", "ar", "--seeds", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def _short_table_entry(data):
    data["table"][""] = [0.5, 0.25, 0.25]  # a law over 3 tokens in a 4-token model


def _json_array(data):
    return [data]


def _overflowing_features(data):
    data["featureTable"] = {key: [x * 1e200 for x in row] for key, row in data["featureTable"].items()}


def _string_table_row(data):
    data["table"]["0"] = [str(x) for x in data["table"]["0"]]


MODEL_FILE_REFUSALS = {
    "short-table-entry": (_short_table_entry, "table entry for window () has size 3 != 4"),
    "fractional-order": (_set("order", 1.9), "order must be a JSON integer"),
    "string-table-row": (_string_table_row, "table must hold JSON numbers"),
    "json-array": (_json_array, "expected a JSON object"),
    "overflowing-feature": (_overflowing_features, "feature vector norm overflows"),
}


@pytest.mark.parametrize("case", sorted(MODEL_FILE_REFUSALS))
def test_malformed_tabular_files_are_refused_at_load_and_by_decode(tmp_path, capsys, case):
    from specrelax.cli import main

    mutate, message = MODEL_FILE_REFUSALS[case]
    data = json.loads(json.dumps(STOCK_MODELS["tabular"]))
    path = tmp_path / "tab.json"
    path.write_text(json.dumps(mutate(data) or data))
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load_model(path)
    out = tmp_path / "m.jsonl"
    assert main(["decode", "--model", str(path), "--mode", "ar", "--len", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def _string_bias(data):
    data["bias"] = [str(x) for x in data["bias"]]


@pytest.mark.parametrize(
    "mutate, message",
    [(_set("N", 8.5), "N must be a JSON integer"), (_string_bias, "bias must hold JSON numbers")],
    ids=["fractional-side", "string-bias"],
)
def test_malformed_linear_drafter_files_are_refused_at_load_and_by_decode(tmp_path, capsys, mutate, message):
    from specrelax.cli import main

    data = json.loads(json.dumps(STOCK_MODELS["linear_drafter"]))
    mutate(data)
    target, drafter = tmp_path / "grid.json", tmp_path / "drafter.json"
    save_model(GridWorldModel.default(), target)
    drafter.write_text(json.dumps(data))
    with pytest.raises(ModelFormatError, match=message):
        load_model(drafter)
    out = tmp_path / "m.jsonl"
    argv = ["decode", "--model", str(target), "--drafter", str(drafter), "--mode", "ar", "--seeds", "0"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def _overflowing_cluster_anchors(data):
    data["clusterAnchors"] = [[x * 1e200 for x in row] for row in data["clusterAnchors"]]


@pytest.mark.parametrize(
    "family, mutate, drafter, message",
    [
        ("gridworld", _overflowing_cluster_anchors, LinearDrafter.zeros(32, 8),
         "feature vector contains non-finite entries"),
        ("tabular", _overflowing_features, tempered_table_drafter(random_tabular_model(4, 1, seed=0)),
         "feature vector norm overflows"),
    ],
    ids=["gridworld", "tabular"],
)
def test_overflowing_features_end_every_decode_mode_and_train_in_one_error(
    tmp_path, capsys, family, mutate, drafter, message
):
    from specrelax.cli import main

    data = json.loads(json.dumps(STOCK_MODELS[family]))
    mutate(data)
    path, drafter_path, out = tmp_path / "model.json", tmp_path / "drafter.json", tmp_path / "out.json"
    path.write_text(json.dumps(data))
    save_model(drafter, drafter_path)
    runs = [
        ["decode", "--model", str(path), "--drafter", str(drafter_path), "--mode", mode, "--len", "4"]
        for mode in ("ar", "vanilla", "cascade")
    ]
    runs.append(["train", "--model", str(path), "--epochs", "1", "--sequences", "1"])
    for argv in runs:
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()


def test_tabular_scalar_rows_are_the_batch_window_ids():
    from specrelax.models import _windows

    model = random_tabular_model(3, 2, seed=4, h=2)
    windows = list(_windows(3, 2))
    assert windows[:5] == [(), (0,), (1,), (2,), (0, 0)]
    tails = np.array([[-1] * (2 - len(w)) + list(w) for w in windows])
    ids = model._window_ids(tails, np.array([len(w) for w in windows]))
    assert ids.tolist() == list(range(len(windows)))
    saved = model.to_dict()
    for row, window in enumerate(windows):
        ev = model.evaluate(list(window))
        assert ev is model._evals[row]
        assert saved["table"][",".join(map(str, window))] == ev.dist.mass.tolist()


def test_loader_wraps_missing_keys_and_bad_shapes(tmp_path):
    path = tmp_path / "m.json"
    tabular = dict(STOCK_MODELS["tabular"])
    del tabular["V"]
    path.write_text(json.dumps(tabular))
    with pytest.raises(ModelFormatError):
        load_model(path)
    drafter = dict(STOCK_MODELS["linear_drafter"], weights=[[0.0] * 3] * 32)
    path.write_text(json.dumps(drafter))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_huge_order_is_refused_without_building_the_power(tmp_path):
    import time

    path = tmp_path / "m.json"
    path.write_text(json.dumps(dict(STOCK_MODELS["tabular"], order=10**8)))
    start = time.process_time()
    with pytest.raises(ModelFormatError):
        load_model(path)
    with pytest.raises(TooLarge):
        ar_law(random_tabular_model(4, 1, seed=0), 10**8)
    assert time.process_time() - start < 0.5


def test_size_guard_boundary():
    from specrelax.harness import _power_exceeds_guard
    from specrelax.models import ENUMERATION_GUARD

    assert ENUMERATION_GUARD == 10**6
    assert not _power_exceeds_guard(10, 6) and _power_exceeds_guard(10, 7)
    assert not _power_exceeds_guard(1000, 2) and _power_exceeds_guard(1001, 2)
    assert not _power_exceeds_guard(1, 10**9) and not _power_exceeds_guard(7, 0)


def test_models_and_fakes_take_exactly_the_protocol_parameters():
    # A position is a prefix's length, so no model method takes a `pos` or a `side`.
    import test_lanes
    import test_verify
    from conftest import FixedDrafter
    from specrelax.models import Drafter, Target

    protocol = {
        name: list(inspect.signature(getattr(proto, name)).parameters)
        for proto, names in ((Target, ("evaluate", "evaluate_batch")), (Drafter, ("distribution", "conditionals")))
        for name in names
    }
    assert protocol == {
        "evaluate": ["self", "prefix"],
        "evaluate_batch": ["self", "tree"],
        "distribution": ["self", "prefix"],
        "conditionals": ["self", "contexts", "index"],
    }
    models = (TabularModel, GridWorldModel, LinearDrafter, FixedDrafter, test_lanes.IndexDrafter,
              test_lanes.Counting, test_verify.CountingDrafter)
    checked = 0
    for model in models:
        for name, parameters in protocol.items():
            if name in vars(model):
                assert list(inspect.signature(vars(model)[name]).parameters) == parameters, (model, name)
                checked += 1
    assert checked == 4 + 4 + 5 * 2  # the two targets, then five drafters and fakes
