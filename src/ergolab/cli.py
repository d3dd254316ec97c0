"""Command line interface.

    ergolab run <experiment> [--config FILE] [--seed U64] [--out DIR]
                [--format json|csv|markdown]
    ergolab spec validate FILE

Exit codes: 0 all checks pass, 2 at least one check failed, 3 config or usage
error (``--help`` exits 0).
The master seed comes from --seed, else the config file, else ERGOLAB_SEED.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from ergolab.core import ErgolabError, SpecValidationError, build_system
from ergolab.experiments import (
    EXPERIMENTS,
    SEED_LIMIT,
    ExperimentConfig,
    emit_report,
    run_experiment,
)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 2
EXIT_CONFIG_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_CONFIG_ERROR, not 2:
    2 is the exit code of a failed check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG_ERROR, f"config error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ergolab",
        description="computational laboratory for measure-preserving systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named experiment")
    run.add_argument("experiment", choices=EXPERIMENTS)
    run.add_argument("--config", help="JSON config file with knob overrides")
    run.add_argument("--seed", help="master seed, an integer in [0, 2^64) (overrides config/env)")
    run.add_argument("--out", default="ergolab-out", help="output directory")
    run.add_argument("--format", default="json", choices=("json", "csv", "markdown"))

    spec = sub.add_parser("spec", help="spec file utilities")
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    validate = spec_sub.add_parser("validate", help="validate a system or joining spec")
    validate.add_argument("file")
    return parser


def _check_seed(value, source: str) -> int:
    """The seed if it is a non-bool int in [0, 2^64); ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{source} seed must be an integer, got {value!r}")
    if not 0 <= value < SEED_LIMIT:
        raise ValueError(f"{source} seed must lie in [0, 2^64), got {value}")
    return value


def _seed_from_text(text: str, source: str) -> int:
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(f"{source} seed must be a decimal integer, got {text!r}")
    return _check_seed(int(text), source)


def _resolve_seed(args, config_doc: dict) -> int | None:
    if args.seed is not None:
        return _seed_from_text(args.seed, "--seed")
    if "seed" in config_doc:
        return _check_seed(config_doc["seed"], "config")
    env = os.environ.get("ERGOLAB_SEED")
    if env is not None:
        return _seed_from_text(env, "ERGOLAB_SEED")
    return None


def _config_error(message: str) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return EXIT_CONFIG_ERROR


def _read_json(path: str):
    """The JSON document in a file; ValueError names the file if it cannot be
    read, is not UTF-8 or is not JSON."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _cmd_run(args) -> int:
    config_doc: dict = {}
    try:
        if args.config:
            config_doc = _read_json(args.config)
            if not isinstance(config_doc, dict):
                return _config_error(f"{args.config} must hold a JSON object")
            declared = config_doc.get("experiment")
            if declared is not None and declared != args.experiment:
                return _config_error(f"config is for {declared!r}, not {args.experiment!r}")
        seed = _resolve_seed(args, config_doc)
    except ValueError as exc:
        return _config_error(str(exc))
    if seed is None:
        return _config_error("seed is mandatory (--seed, config 'seed', or ERGOLAB_SEED)")
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        return _config_error(f"cannot write {out}: not a directory")
    try:
        config = ExperimentConfig.resolve(args.experiment, seed,
                                          config_doc.get("knobs", {}))
        report = run_experiment(config)
    except (ErgolabError, ValueError) as exc:
        return _config_error(str(exc))
    try:
        paths = emit_report(report, args.format, out)
    except OSError as exc:
        return _config_error(f"cannot write {out}: {exc}")
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.check_id}: {check.observed}")
    print(f"report written to {paths[0]}")
    if report.passed:
        print(f"{args.experiment}: all {len(report.checks)} checks passed")
        return EXIT_OK
    failing = ", ".join(report.failing_check_ids)
    print(f"{args.experiment}: failing checks: {failing}", file=sys.stderr)
    return EXIT_CHECK_FAILURE


def _cmd_validate(args) -> int:
    try:
        doc = _read_json(args.file)
    except ValueError as exc:
        return _config_error(str(exc))
    if not isinstance(doc, dict):
        print(f"invalid: {args.file} must hold a JSON object", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        key = "system" if "system" in doc else "joining" if "joining" in doc else ""
        if key and len(doc) > 1:
            raise SpecValidationError(min(set(doc) - {key}), f"unknown key beside {key!r}")
        spec = doc[key] if key else doc
        if key == "joining":
            from ergolab.joinings import build_joining
            build_joining(spec, path=key)
        else:
            build_system(spec, path=key)
        kind = spec["kind"]
    except (ErgolabError, ValueError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(f"valid {kind} spec: {args.file}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "spec":
        return _cmd_validate(args)
    return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
