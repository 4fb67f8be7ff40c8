"""Golden replay: refactors that keep semantics must reproduce these outputs bit for bit.

Each case decodes 20 seeds and hashes four byte streams with SHA-256: the
emitted tokens, the metrics JSONL and the trace JSONL (formatted exactly as
`run_experiment` writes them), and every recorded relaxation. A change that
moves any pinned digest changes what the engine emits; it must be a change
of semantics, and it re-pins the digests deliberately.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from specrelax import (
    GridWorldModel,
    LinearDrafter,
    Metrics,
    RelaxConfig,
    RngStream,
    TrainConfig,
    TreeMask,
    decode_with_metrics,
    random_tabular_model,
    tempered_table_drafter,
    train_drafter,
)
from specrelax.tree import STOCHASTIC, TOPK

SEEDS = range(20)


# The jittered gridworld spreads sibling and parent-child cosines over about
# [0.995, 1.0]; thresholds at their median make the similarity sets, and so
# every downstream stream, depend on each cosine's side of the threshold.
JITTER_RELAX = RelaxConfig(tau_pos=0.998, tau_seq=0.998)

# A briefly trained drafter has non-uniform rows, so a change in how its
# softmax rows are summed or normalized shows in every stream; the zero
# drafter's uniform rows cannot show it.
TRAINED_CONFIG = TrainConfig(epochs=20, num_sequences=4, seed=5)


def _models(family):
    """(target, drafter, sequence length, relaxation config) of one model family."""
    if family == "grid":
        return GridWorldModel.default(), LinearDrafter.zeros(32, 8), 64, RelaxConfig()
    if family == "grid-jitter":
        target = GridWorldModel.default(feature_jitter=0.05)
        return target, LinearDrafter.zeros(32, 8), 64, JITTER_RELAX
    if family == "grid-trained":
        target = GridWorldModel.default()
        return target, train_drafter(target, TRAINED_CONFIG), 64, RelaxConfig()
    target = random_tabular_model(4, 1, seed=11)
    return target, tempered_table_drafter(target), 16, RelaxConfig()


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def replay_digests(family: str, mode: str, candidates: str) -> dict[str, str]:
    target, drafter, length, relax = _models(family)
    streams = {"tokens": [], "metrics": [], "trace": [], "relaxations": []}
    per_seed = []
    for seed in SEEDS:
        def sink(cycle, outcome, _seed=seed):
            for rec in outcome.trace:
                streams["trace"].append(_line({"seed": _seed, "cycle": cycle, **rec.to_record()}))
            for relaxed in outcome.relaxations:
                streams["relaxations"].append(_line({
                    "seed": _seed,
                    "cycle": cycle,
                    "base": relaxed.base_q.mass.tolist(),
                    "token": relaxed.boosted_token,
                    "added": relaxed.added_mass,
                    "transfers": relaxed.transfers,
                }))

        tokens, metrics = decode_with_metrics(
            target, drafter, mode, TreeMask.default(), relax, length, RngStream(seed),
            candidate_mode=candidates, on_outcome=sink,
        )
        per_seed.append(metrics)
        streams["tokens"].append(_line({"seed": seed, "tokens": tokens}))
        streams["metrics"].append(_line({"seed": seed, **metrics.to_record()}))
    streams["metrics"].append(_line({"aggregate": True, **Metrics.aggregate(per_seed).to_record()}))
    return {
        name: hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
        for name, lines in streams.items()
    }


EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = {
    "grid-jitter/cascade/stochastic": {
        "tokens": "5cce94cc5bb1ea605739f1e08055dd7368ae88a4ab30eddbfb805ca503036897",
        "metrics": "d39788fff79768366684fefc86e5e1eed6f013dce0687fb5c1a295e31302610c",
        "trace": "04e9d2f497a6697223c70115abfeba744c96c909c6990cdda603131907691698",
        "relaxations": "458811e15fb65f8066e4bebde220c7689b1644fffdf5d138148af749c4b1b0f3",
    },
    "grid-jitter/cascade/topk": {
        "tokens": "d52e3a2112501af5507751ed99ea271683f355ef256cc8163e2fa85bcf4dae58",
        "metrics": "461381bfb5a21e06db2ad4cbcedbdf9e829cc20675b707105cc36af6f4ccafe6",
        "trace": "22522c14484709f9e6632890e4337ddd337f0c1552287bcda6bc166b188e1aae",
        "relaxations": "e9e2c5ea98af0c3eeba2bbac42dce5d3effd57b70717e666bbf954113f0b94c9",
    },
    "grid-trained/cascade/stochastic": {
        "tokens": "d1ea17465ac0e677a847be1443d65cd49430e77129ef2b72fa8c37ecabfd5ac5",
        "metrics": "b14708644892371ab081854758df57d40dd38aa316ea21c915532ea55ae2b9a4",
        "trace": "f4f7bcd25d11c127b12613495ce68afc5c8379a162fd439591ed1db2f0f16c22",
        "relaxations": "90f2ed7fd83b5836499b47e4babc61472b2bab2b9f3a1fdaca58c93509a4a473",
    },
    "grid-trained/cascade/topk": {
        "tokens": "f77b291524d90b39c1332da9e567ead96e722e5aa68b7cbc70886409f5ef9196",
        "metrics": "0b79fa222f649543dab2ab5c7157e4079c5b80a8d8fbc06414b15a52b4a5bbdf",
        "trace": "8633b8fe2c86e4b698c60e1baa3bdf37e5dd07b8fe337ca43e0b755ac2d0fb5c",
        "relaxations": "994d489ea902ebe0171f6466c4bdc119e28f1cbe36d2b1c394a8025e4abda56a",
    },
    "grid-trained/vanilla/stochastic": {
        "tokens": "ec6178cae48ade6c04adbe6cff503446c7a19bcc311ffb1aa4db2b3411a573ba",
        "metrics": "671cfc07598aee4f8e4fa8fd6a48c63558624d1c5ee4b519ec9c32370b20510c",
        "trace": "76fcfb652625589a6bf3f9ecf06915d6e94de7e11662ebcd95535675ff086b36",
        "relaxations": EMPTY,
    },
    "grid/cascade/stochastic": {
        "tokens": "0a9c7d698f2c6e905f463be75d429c6fd33b0813dfc63282041119c5e9be0f61",
        "metrics": "ce428873a1682fe25b509725fa8a0e075cd1f61f0a46b66d0ce1f6b58de5e343",
        "trace": "8b436f94297c8a6d773d58f0b6502915092f4feeb645408d61b0f633dff783d9",
        "relaxations": "4bbbd58bb39ac14195142306c5d6f8c9f20ab92b6e6311c619d3681bcf2b0c73",
    },
    "grid/cascade/topk": {
        "tokens": "7f5282e6e334bdd543411354e1ab006fe8b43074541631a6193f648cea8311e7",
        "metrics": "2ee638fe43413fa512627a8e7ceb2961a706e00101e0a0f689746537e34a6f36",
        "trace": "c866be7ba7b884b4fcbd5c168278af0536e70c69e324d6d24ca8191e31170be6",
        "relaxations": "4694f9e9dda8a480ed4fb59416b8fce780f452e4f93dca681917d3b7e8e57356",
    },
    "grid/vanilla/stochastic": {
        "tokens": "ebb28d04b4980a0c1d2476c19b38b691fac53cafd5a45533119514f5119218b5",
        "metrics": "284ed3a6c2a08fb9c7f0738e65047d7759ec90fc89096998e4bf4e53e766146c",
        "trace": "f86aeb600c885896257203c69be6a453c7a88e27d7fc83466c6763ee9fc007ee",
        "relaxations": EMPTY,
    },
    "grid/vanilla/topk": {
        "tokens": "5fcd6d75534c3e83baadce8113ab49a33369d28357391997d397b7681abb78a0",
        "metrics": "cd2a7b8df0c5c546e9a0ecd8e96bf04b55442f6862e9348d847f9a5cb969b952",
        "trace": "dcf017244a8a31b49043b04119b1800f8c36a9f6d2b9ca56e132a9ae76f2dbfe",
        "relaxations": EMPTY,
    },
    "tabular/cascade/stochastic": {
        "tokens": "69ac42c88ca70bc208daa66e713c4e9e02bb279d1717ed5b1dc7a99b9ef072b1",
        "metrics": "8598a8c8fe9b0704cee47eff81e5ef1aff8e3afa2ffbac54a3b36cdf3f369936",
        "trace": "53a337f5bc3bd0fb94fa4e69db4fcb1d88ef26726c2292af33b3929119782e9a",
        "relaxations": "8462f7a0e072bfe1089bf11967e2eab1b8c91c1c8ba62bab579af4219833ef81",
    },
    "tabular/cascade/topk": {
        "tokens": "47b8029af0eeb573538c0215f2afb4f339474308ff1a68300471933debe77826",
        "metrics": "2a5b8af0d45034fd26fbbd533522c16efbdf52e9b2ffc209acf0dfec425aa18d",
        "trace": "08f983583f7de8c4b2faf24d2ffdd2ca01761ddea0d6f81cf1ae8ae51530fd0e",
        "relaxations": "edd0e24e8c420452bce9d6aba0e4dfed7b587655acc58339013c7f2f7ed627ba",
    },
    "tabular/vanilla/stochastic": {
        "tokens": "2cffb07e6299e7e2a661e1802e3bd204dd4859ef6059a4268a84b8ca6da27945",
        "metrics": "514cf3d89c9183d7fe361c5286dfa54919c3e9d893bd5c82eda87d79833ccf2f",
        "trace": "5b2395f1691f755b92af5ca6508a2ff266e034f18ca33db0145499991eceb0fa",
        "relaxations": EMPTY,
    },
    "tabular/vanilla/topk": {
        "tokens": "47b8029af0eeb573538c0215f2afb4f339474308ff1a68300471933debe77826",
        "metrics": "2a5b8af0d45034fd26fbbd533522c16efbdf52e9b2ffc209acf0dfec425aa18d",
        "trace": "5a0652d5f269b2af5487afac362107830c67e62c738eb1a3a3f6d175948584c9",
        "relaxations": EMPTY,
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_replay_matches_golden_digests(case):
    family, mode, candidates = case.split("/")
    assert replay_digests(family, mode, candidates) == GOLDEN[case]


def test_golden_covers_both_models_modes_and_candidate_kinds():
    assert sorted(GOLDEN) == sorted(
        [
            f"{f}/{m}/{c}" for f in ("grid", "tabular") for m in ("cascade", "vanilla")
            for c in (TOPK, STOCHASTIC)
        ]
        + [f"grid-jitter/cascade/{c}" for c in (TOPK, STOCHASTIC)]
        + [f"grid-trained/{m}/{c}"
           for m, c in (("vanilla", STOCHASTIC), ("cascade", TOPK), ("cascade", STOCHASTIC))]
    )
    for case, digests in GOLDEN.items():
        relaxed = case.split("/")[1] == "cascade"
        assert (digests["relaxations"] != EMPTY) == relaxed, case
