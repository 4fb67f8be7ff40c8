"""Command-line front end: decode experiments, drafter training, oracles, fixtures.

Every flag of `decode`, `train` and `oracle` can also be supplied through a
JSON config file (`--config`) whose keys are the flag names; explicit flags
override file values. All outputs are deterministic for a fixed invocation,
so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import ConfigError, EngineError
from .harness import (
    DEFAULT_KAPPA,
    ExperimentConfig,
    mc_distribution_test,
    run_experiment,
)
from .models import (
    GridWorldModel,
    TabularModel,
    load_model,
    random_tabular_model,
    save_model,
    tempered_table_drafter,
)
from .train import TrainConfig, train_drafter
from .tree import STOCHASTIC, TOPK, TreeMask
from .verify import AR, MODES, RelaxConfig


def parse_seed_spec(spec) -> tuple[int, ...]:
    """Parse `0..199`, `3`, or `1,2,5` (or a config-file list) into a seed tuple."""
    seeds: list[int] = []
    try:
        if isinstance(spec, (list, tuple)):
            return tuple(int(s) for s in spec)
        for part in str(spec).split(","):
            part = part.strip()
            if ".." in part:
                lo, hi = part.split("..", 1)
                seeds.extend(range(int(lo), int(hi) + 1))
            elif part:
                seeds.append(int(part))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse seed spec {spec!r}") from exc
    if not seeds:
        raise ConfigError(f"no seeds in spec {spec!r}")
    return tuple(seeds)


def _apply_config_file(
    parser: argparse.ArgumentParser,
    subparsers: dict[str, argparse.ArgumentParser],
    argv: list[str],
) -> None:
    """Pre-scan for --config and install its values as subcommand defaults.

    A key is a flag name without its dashes (`len`) or the flag's dest
    (`length`); any other key, or a file that is not a JSON object, exits 2.
    The defaults land on the subcommand's own parser, which parses into a
    fresh namespace, so explicit flags keep overriding them.
    """
    if "--config" not in argv:
        return
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        parser.error("--config requires a file path")
    command = subparsers.get(argv[0])
    if command is None:
        return  # argparse itself reports the missing or unknown subcommand
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        command.error(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        command.error(f"config file {path} must hold a JSON object, not {type(data).__name__}")
    dests = {
        key: action.dest
        for action in command._actions if action.dest not in ("help", "config")
        for key in (action.dest, *(option.lstrip("-") for option in action.option_strings))
    }
    unknown = [key for key in data if key not in dests]
    if unknown:
        command.error(f"unknown key(s) in config file {path}: {', '.join(map(repr, unknown))}")
    command.set_defaults(**{dests[key]: value for key, value in data.items()})


def _relax_flags() -> argparse.ArgumentParser:
    """Parent parser of the relaxation flags; a threshold above 1 switches its set off."""
    # One per subcommand: a parent's actions are shared, and set_defaults mutates them.
    d = RelaxConfig()
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--tau-pos", type=float, default=d.tau_pos, help="sibling cosine threshold")
    p.add_argument("--tau-seq", type=float, default=d.tau_seq, help="parent-child cosine threshold")
    p.add_argument("--tvd-budget", type=float, default=d.tvd_budget, help="per-call TVD budget")
    return p


def _relax_config(args: argparse.Namespace) -> RelaxConfig:
    return RelaxConfig(tau_pos=args.tau_pos, tau_seq=args.tau_seq, tvd_budget=args.tvd_budget)


def _build_decode_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser("decode", parents=[_relax_flags()], help="run seeded decoding experiments")
    p.add_argument("--config", help="JSON file whose keys mirror these flags")
    p.add_argument("--model", required=False, help="target model file")
    p.add_argument("--drafter", help="drafter model file (vanilla/cascade)")
    p.add_argument("--mode", choices=MODES, default="vanilla")
    p.add_argument("--tree", default="4,2,2,1,1", help="per-level widths, e.g. 4,2,2,1,1")
    p.add_argument("--seeds", default="0", help="e.g. 0..199 or 0,7,9")
    p.add_argument("--len", type=int, dest="length", help="tokens per sequence (grid default N^2)")
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA, help="drafter cost ratio")
    p.add_argument("--candidates", choices=(TOPK, STOCHASTIC), default=TOPK)
    p.add_argument("--out", required=False, help="metrics JSONL path")
    p.add_argument("--trace", help="per-decision trace JSONL path")
    p.add_argument("--heatmap", help="similarity heatmap CSV path")
    return p


def _build_train_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser("train", help="fit a linear drafter against a target model")
    p.add_argument("--config", help="JSON file whose keys mirror these flags")
    p.add_argument("--model", required=False, help="target model file")
    p.add_argument("--c", type=float, default=2.0, help="convergence reweighting factor")
    p.add_argument("--tau-seq-train", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=80)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sequences", type=int, default=24, help="training rollouts")
    p.add_argument("--hard-ce-weight", type=float, default=1.0)
    p.add_argument("--out", required=False, help="drafter JSON path")
    return p


def _build_oracle_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser(
        "oracle", parents=[_relax_flags()], help="Monte Carlo check against the exact sequence law"
    )
    p.add_argument("--config", help="JSON file whose keys mirror these flags")
    p.add_argument("--model", required=False, help="target model file")
    p.add_argument("--drafter", help="drafter file; default tempers the target's table")
    p.add_argument("--mode", choices=MODES, default="vanilla")
    p.add_argument("--len", type=int, dest="length", default=3)
    p.add_argument("--samples", type=int, default=500_000)
    p.add_argument("--tree", help="per-level widths; default is a chain of --len levels")
    p.add_argument("--seed", type=int, default=0)
    return p


def _build_make_model_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser("make-model", help="write a fixture model file")
    p.add_argument("--family", choices=("gridworld", "tabular", "tempered-drafter"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab", type=int, default=4, help="tabular vocabulary size")
    p.add_argument("--order", type=int, default=1, help="tabular context length")
    p.add_argument("--h", type=int, default=4, help="tabular feature dimension")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.0, help="gridworld feature jitter")
    p.add_argument("--from", dest="source", help="target file for tempered-drafter")
    p.add_argument("--exponent", type=float, default=0.5, help="tempering exponent")
    return p


def _require(args: argparse.Namespace, name: str) -> str:
    value = getattr(args, name, None)
    if value is None:
        raise ConfigError(f"--{name} is required (flag or config file)")
    return value


def _parse_mask(value) -> TreeMask:
    if isinstance(value, (list, tuple)):
        return TreeMask(tuple(int(w) for w in value))
    return TreeMask.parse(str(value))


def _cmd_decode(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        model_path=_require(args, "model"),
        mode=args.mode,
        seeds=parse_seed_spec(args.seeds),
        drafter_path=args.drafter,
        mask=_parse_mask(args.tree),
        relax=_relax_config(args),
        length=args.length,
        kappa=args.kappa,
        candidate_mode=args.candidates,
        metrics_path=_require(args, "out"),
        trace_path=args.trace,
        heatmap_path=args.heatmap,
    )
    aggregate = run_experiment(cfg)
    print(json.dumps({"aggregate": True, **aggregate.to_record()}, sort_keys=True))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    target = load_model(_require(args, "model"))
    cfg = TrainConfig(
        c=args.c,
        tau_seq_train=args.tau_seq_train,
        learning_rate=args.lr,
        epochs=args.epochs,
        hard_ce_weight=args.hard_ce_weight,
        seed=args.seed,
        num_sequences=args.sequences,
    )
    drafter = train_drafter(target, cfg)
    out = _require(args, "out")
    save_model(drafter, out)
    print(f"wrote drafter to {out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    target = load_model(_require(args, "model"))
    drafter = None
    if args.mode != AR:
        if args.drafter:
            drafter = load_model(args.drafter)
        elif isinstance(target, TabularModel):
            drafter = tempered_table_drafter(target)
        else:
            raise ConfigError("non-tabular targets need an explicit --drafter")
    mask = _parse_mask(args.tree) if args.tree else TreeMask.chain(args.length)
    distance, passed = mc_distribution_test(
        target, drafter, args.mode, args.samples, args.length,
        mask=mask, relax=_relax_config(args), base_seed=args.seed,
    )
    print(json.dumps({"tvdToOracle": distance, "pass": passed}, sort_keys=True))
    return 0 if passed else 1


def _cmd_make_model(args: argparse.Namespace) -> int:
    if args.family == "gridworld":
        model = GridWorldModel.default(feature_jitter=args.jitter)
    elif args.family == "tabular":
        model = random_tabular_model(args.vocab, args.order, args.seed, h=args.h)
    else:
        if not args.source:
            raise ConfigError("--from is required for tempered-drafter")
        source = load_model(args.source)
        if not isinstance(source, TabularModel):
            raise ConfigError("tempered-drafter needs a tabular source model")
        model = tempered_table_drafter(source, args.exponent)
    save_model(model, args.out)
    print(f"wrote {args.family} model to {args.out}")
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The `specrelax` parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="specrelax",
        description="Speculative decoding with similarity-relaxed acceptance, desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    return parser, {
        "decode": _build_decode_parser(sub),
        "train": _build_train_parser(sub),
        "oracle": _build_oracle_parser(sub),
        "make-model": _build_make_model_parser(sub),
    }


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    _apply_config_file(parser, subparsers, argv)
    args = parser.parse_args(argv)
    handlers = {
        "decode": _cmd_decode,
        "train": _cmd_train,
        "oracle": _cmd_oracle,
        "make-model": _cmd_make_model,
    }
    try:
        return handlers[args.command](args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
