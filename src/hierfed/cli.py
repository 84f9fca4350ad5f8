"""Command-line interface for dataset generation, training, and reporting.

Exit codes: 0 success, 2 configuration error, 3 numerical failure. The
HIERFED_SEED environment variable overrides every other seed source.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import ConfigError, NumericsError
from .keys import DEMOGRAPHIC_VARIABLES
from .models.task import TASKS
from .runner import (
    ExperimentConfig,
    cmd_evaluate,
    cmd_export_embeddings,
    cmd_generate,
    cmd_grid,
    cmd_report,
    cmd_train,
    config_from_dict,
    load_gen_config,
    read_json,
)


# every option, by the option string; each subcommand takes the ones it reads
_OPTIONS = {
    "--config": dict(metavar="PATH", help="JSON config file"),
    "--strategy": dict(metavar="NAME", help="strategy name, e.g. sc2-P-AT-B"),
    "--task": dict(type=str.upper, choices=TASKS),
    "--demographic": dict(choices=DEMOGRAPHIC_VARIABLES),
    "--include-unspecified": dict(action="store_true", default=None,
                                  help="keep students with the variable "
                                       "missing as their own subgroup"),
    "--seed": dict(type=int, metavar="N"),
    "--out": dict(metavar="DIR", help="output directory"),
    "--workers": dict(type=int, default=1, metavar="N",
                      help="parallel (fold, repetition) workers; results do "
                           "not depend on this"),
}
_EXPERIMENT = ("--config", "--strategy", "--task", "--demographic",
               "--include-unspecified", "--seed")
_COMMANDS = {
    "generate": ("synthesize a dataset into --out",
                 ("--config", "--seed", "--out")),
    "train": ("train one strategy over folds x repetitions",
              _EXPERIMENT + ("--out", "--workers")),
    "evaluate": ("re-score saved checkpoints against their report; "
                 "experiment flags need --config", _EXPERIMENT + ("--out",)),
    "grid": ("grid-search hyperparameters by validation AUC",
             _EXPERIMENT + ("--out", "--workers")),
    "export-embeddings": ("write per-student activity embeddings (OP)",
                          _EXPERIMENT + ("--out", "--workers")),
    "report": ("merge train reports into tables and heatmaps", ("--out",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierfed",
        description="Personalized federated learning simulations over "
                    "hierarchical student data")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        if name == "report":
            p.add_argument("run_dirs", nargs="+", metavar="RUN_DIR",
                           help="directories containing report.json")
    return parser


def _env_seed() -> int | None:
    raw = os.environ.get("HIERFED_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"HIERFED_SEED must be an integer, got {raw!r}") from None


def _experiment_config(args) -> ExperimentConfig:
    """One config made from one document: the config file's, completed or
    overridden by each experiment flag given, and then by HIERFED_SEED."""
    doc = {} if args.config is None else read_json(args.config, "config file")
    if isinstance(doc, dict):  # config_from_dict refuses any other document
        for option in _EXPERIMENT[1:]:
            name = option[2:].replace("-", "_")
            if getattr(args, name) is not None:
                doc[name] = getattr(args, name)
        env = _env_seed()
        if env is not None:
            doc["seed"] = env
    return config_from_dict(doc)


def _require_out(args) -> str:
    if not args.out:
        raise ConfigError(f"{args.command} needs --out")
    return args.out


def _summary_line(report: dict) -> dict:
    return {
        "config_hash": report["config_hash"],
        "groups": len(report["groups"]),
        "runs": len(report["runs"]),
        "overall_mean": report["summary"]["overall_mean"],
        "overall_std": report["summary"]["overall_std"],
    }


def _dispatch(args) -> dict:
    if args.command == "generate":
        if not args.config:
            raise ConfigError("generate needs --config with a generation "
                              "config or {\"preset\": name}")
        env = _env_seed()
        seed = args.seed if env is None else env
        doc = read_json(args.config, "config file")
        return cmd_generate(load_gen_config(doc, seed=seed), _require_out(args))

    if args.command == "train":
        report = cmd_train(_experiment_config(args), out=args.out,
                           workers=args.workers)
        return _summary_line(report)

    if args.command == "evaluate":
        given = [option for option in _EXPERIMENT[1:]
                 if getattr(args, option[2:].replace("-", "_")) is not None]
        if given and args.config is None:
            raise ConfigError(f"evaluate takes {', '.join(given)} only "
                              "together with --config")
        config = None if args.config is None else _experiment_config(args)
        doc = cmd_evaluate(_require_out(args), config=config, seed=_env_seed())
        return {"config_hash": doc["config_hash"], "runs": len(doc["runs"]),
                "all_match": doc["all_match"]}

    if args.command == "grid":
        doc = cmd_grid(_experiment_config(args), out=args.out,
                       workers=args.workers)
        return {"cells": len(doc["cells"]), "winner": doc["winner"]}

    if args.command == "export-embeddings":
        return cmd_export_embeddings(_experiment_config(args),
                                     _require_out(args), workers=args.workers)

    # report
    return cmd_report(args.run_dirs, _require_out(args))


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        doc = _dispatch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
