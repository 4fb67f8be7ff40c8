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

from .core import ConfigError, EngineError, _check_seed
from .harness import (
    DEFAULT_KAPPA,
    ExperimentConfig,
    check_output_path,
    load_target,
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


# The most seeds one spec may name: about 40 minutes of 64-token grid decodes
# at 25k tokens/s, and a seed tuple of about 40 MB.
_MAX_SEEDS = 1_000_000


def parse_seed_spec(spec: str) -> tuple[int, ...]:
    """Parse `0..199`, `3`, or `1,2,5` into a seed tuple.

    Every number must be a seed, in [0, 2**64), and the spec may name at most
    `_MAX_SEEDS` seeds; ranges are counted before they are expanded.
    """
    ranges: list[tuple[int, int]] = []
    try:
        for part in spec.split(","):
            part = part.strip()
            if ".." in part:
                lo, hi = part.split("..", 1)
                ranges.append((int(lo), int(hi)))
            elif part:
                ranges.append((int(part), int(part)))
    except ValueError as exc:
        raise ConfigError(f"cannot parse seed spec {spec!r}") from exc
    for lo, hi in ranges:
        _check_seed(lo)
        _check_seed(hi)
    count = sum(max(0, hi - lo + 1) for lo, hi in ranges)
    if not count:
        raise ConfigError(f"no seeds in spec {spec!r}")
    if count > _MAX_SEEDS:
        raise ConfigError(f"seed spec {spec!r} names {count} seeds, above the cap of {_MAX_SEEDS}")
    return tuple(seed for lo, hi in ranges for seed in range(lo, hi + 1))


def _is_scalar(value) -> bool:
    return isinstance(value, (str, int, float)) and not isinstance(value, bool)


def _config_path(command: argparse.ArgumentParser, args: list[str]) -> str | None:
    """The file named by `command`'s --config option in `args`, or None.

    Every spelling argparse accepts counts: `--config FILE`, `--config=FILE`
    and an unambiguous prefix in either form (`--conf FILE`). As in
    argparse, the last occurrence wins.
    """
    options = command._option_string_actions
    path = None
    for i, arg in enumerate(args):
        if arg == "--":
            break
        if not arg.startswith("--"):
            continue
        name, has_value, value = arg.partition("=")
        matches = [name] if name in options else [o for o in options if o.startswith(name)]
        if len(matches) != 1 or options[matches[0]].dest != "config":
            continue
        if not has_value:
            if i + 1 == len(args):
                command.error("--config requires a file path")
            value = args[i + 1]
        path = value
    return path


def _splice_config_file(
    subparsers: dict[str, argparse.ArgumentParser], argv: list[str]
) -> list[str]:
    """`argv` with a --config file's values inserted as flags right after the subcommand.

    A key is a flag name without its dashes (`len`) or the flag's dest
    (`length`); any other key, or a file that is not a JSON object, exits 2.
    A string or number becomes its text, and a list of them is comma-joined
    for a flag without a `type` (`--seeds`, `--tree`); any other value exits
    2. argparse then checks each value as if it had been typed, and an
    explicit flag, which comes later, overrides it.
    """
    command = subparsers.get(argv[0]) if argv else None
    if command is None:
        return argv  # argparse itself reports the missing or unknown subcommand
    path = _config_path(command, argv[1:])
    if path is None:
        return argv
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        command.error(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        command.error(f"config file {path} must hold a JSON object, not {type(data).__name__}")
    actions = {
        key: action
        for action in command._actions if action.dest not in ("help", "config")
        for key in (action.dest, *(option.lstrip("-") for option in action.option_strings))
    }
    unknown = [key for key in data if key not in actions]
    if unknown:
        command.error(f"unknown key(s) in config file {path}: {', '.join(map(repr, unknown))}")
    flags = []
    for key, value in data.items():
        action = actions[key]
        if _is_scalar(value):
            text = str(value)
        elif isinstance(value, list) and action.type is None and all(map(_is_scalar, value)):
            text = ",".join(map(str, value))
        else:
            command.error(f"config key {key!r}: {json.dumps(value)} is not a string or number")
        flags.append(f"{action.option_strings[0]}={text}")
    return [argv[0], *flags, *argv[1:]]


def _relax_flags() -> argparse.ArgumentParser:
    """Parent parser of the relaxation flags; a threshold above 1 switches its set off."""
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
    p.add_argument("--model", required=True, help="target model file")
    p.add_argument("--drafter", help="drafter model file (vanilla/cascade)")
    p.add_argument("--mode", choices=MODES, default="vanilla")
    p.add_argument("--tree", default=",".join(map(str, TreeMask.default().widths)),
                   help="per-level widths, e.g. 4,2,2,1,1")
    p.add_argument("--seeds", default="0", help="e.g. 0..199 or 0,7,9")
    p.add_argument("--len", type=int, dest="length", help="tokens per sequence (grid default N^2)")
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA, help="drafter cost ratio")
    p.add_argument("--candidates", choices=(TOPK, STOCHASTIC), default=TOPK)
    p.add_argument("--out", required=True, help="metrics JSONL path")
    p.add_argument("--trace", help="per-decision trace JSONL path")
    p.add_argument("--heatmap", help="similarity heatmap CSV path")
    return p


def _build_train_parser(sub) -> argparse.ArgumentParser:
    d = TrainConfig()
    p = sub.add_parser("train", help="fit a linear drafter against a target model")
    p.add_argument("--config", help="JSON file whose keys mirror these flags")
    p.add_argument("--model", required=True, help="target model file")
    p.add_argument("--c", type=float, default=d.c, help="convergence reweighting factor")
    p.add_argument("--tau-seq-train", type=float, default=d.tau_seq_train)
    p.add_argument("--epochs", type=int, default=d.epochs)
    p.add_argument("--lr", type=float, default=d.learning_rate)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--sequences", type=int, default=d.num_sequences, help="training rollouts")
    p.add_argument("--hard-ce-weight", type=float, default=d.hard_ce_weight)
    p.add_argument("--out", required=True, help="drafter JSON path")
    return p


def _build_oracle_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser(
        "oracle", parents=[_relax_flags()], help="Monte Carlo check against the exact sequence law"
    )
    p.add_argument("--config", help="JSON file whose keys mirror these flags")
    p.add_argument("--model", required=True, help="target model file")
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


def _cmd_decode(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        model_path=args.model,
        mode=args.mode,
        seeds=parse_seed_spec(args.seeds),
        drafter_path=args.drafter,
        mask=TreeMask.parse(args.tree),
        relax=_relax_config(args),
        length=args.length,
        kappa=args.kappa,
        candidate_mode=args.candidates,
        metrics_path=args.out,
        trace_path=args.trace,
        heatmap_path=args.heatmap,
    )
    aggregate = run_experiment(cfg)
    print(json.dumps({"aggregate": True, **aggregate.to_record()}, sort_keys=True))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    target = load_target(args.model)
    check_output_path(args.out)
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
    save_model(drafter, args.out)
    print(f"wrote drafter to {args.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    target = load_target(args.model)
    drafter = None
    if args.mode != AR:
        if args.drafter:
            drafter = load_model(args.drafter)
        elif isinstance(target, TabularModel):
            drafter = tempered_table_drafter(target)
        else:
            raise ConfigError("non-tabular targets need an explicit --drafter")
    mask = TreeMask.parse(args.tree) if args.tree else TreeMask.chain(args.length)
    distance, passed = mc_distribution_test(
        target, drafter, args.mode, args.samples, args.length,
        mask=mask, relax=_relax_config(args), base_seed=args.seed,
    )
    print(json.dumps({"tvdToOracle": distance, "pass": passed}, sort_keys=True))
    return 0 if passed else 1


def _cmd_make_model(args: argparse.Namespace) -> int:
    check_output_path(args.out)
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
    args = parser.parse_args(_splice_config_file(subparsers, argv))
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
