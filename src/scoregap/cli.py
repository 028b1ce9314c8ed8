"""Command-line front end.

Subcommands:
  analyze    run the experiment pipeline from a config file
  check      run every guarantee checker on a model file
  synthetic  write the two-axis disparity construction as a model file
  alignment  estimate subspace overlap for a model or config

Exit codes: 0 success, 2 config/usage error, 3 ingest error, 4 numerical
degeneracy (no rule can help anyone), 5 partial failure (some groupings
failed but the run completed; `analyze` and `alignment --config` both
write the failed entries as error objects).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .errors import ConfigError, EpsilonOutOfRangeError, IngestError, ScoregapError
from .conditions import condition_report, disparity_example
from .config import DEFAULT_ALIGNMENT_SAMPLES, load_config
from .experiment import (
    DEGENERATE_ERRORS,
    classify_failures,
    error_record,
    prepare,
    render_csv,
    render_json,
    run_analysis,
)
from .linalg import alignment
from .modelio import load_model, model_to_dict, save_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_DEGENERATE = 4
EXIT_PARTIAL = 5


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _fail(code: int, exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _report_failures(failures) -> None:
    """One stderr line per (entry name, error object) pair."""
    for name, err in failures:
        print(f"grouping {name}: {err['type']}: {err['message']}", file=sys.stderr)


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
        config = config.override(
            out=args.out,
            format=args.format,
            seed=args.seed,
            rank=args.rank,
            wstar=args.wstar,
            standardize=args.standardize,
        )
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)
    try:
        result = run_analysis(config)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)
    except IngestError as exc:
        return _fail(EXIT_INGEST, exc)

    if config.format == "json":
        _emit(render_json(result), config.out)
    else:
        _emit(render_csv(result), config.out)
        if config.out is not None:
            _emit(render_json(result), config.out + ".json")

    status = classify_failures(result)
    if status is None:
        return EXIT_OK
    _report_failures((e["name"], e["error"]) for e in result["groupings"] if "error" in e)
    return EXIT_DEGENERATE if status == "degenerate" else EXIT_PARTIAL


def cmd_check(args: argparse.Namespace) -> int:
    try:
        model = load_model(args.model)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)
    try:
        report = condition_report(model)
    except DEGENERATE_ERRORS as exc:
        return _fail(EXIT_DEGENERATE, exc)
    doc = {"schema_version": 1, "model": args.model}
    doc.update(report.to_dict())
    _emit(render_json(doc), args.out)
    return EXIT_OK


def cmd_synthetic(args: argparse.Namespace) -> int:
    try:
        model = disparity_example(args.epsilon)
    except EpsilonOutOfRangeError as exc:
        return _fail(EXIT_CONFIG, exc)
    if args.out is None:
        sys.stdout.write(render_json(model_to_dict(model)))
    else:
        save_model(args.out, model)
    return EXIT_OK


def cmd_alignment(args: argparse.Namespace) -> int:
    samples = args.samples if args.samples is not None else DEFAULT_ALIGNMENT_SAMPLES
    seed = args.seed if args.seed is not None else 0
    try:
        if args.model is not None:
            populations = [("model", {}, load_model(args.model))]
        else:
            config = load_config(args.config).override(seed=args.seed, rank=args.rank)
            if args.samples is None:
                samples = config.alignment_samples
            seed = config.seed
            _, populations = prepare(config)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)
    except IngestError as exc:
        return _fail(EXIT_INGEST, exc)
    entries, failures = {}, []
    for name, _, model in populations:
        if isinstance(model, ScoregapError):
            entries[name] = {"error": error_record(model)}
            failures.append((name, entries[name]["error"]))
        else:
            entries[name] = alignment(model.group1.projection, model.group2.projection, samples, seed)
    doc = {
        "schema_version": 1,
        "n_samples": samples,
        "seed": seed,
        "entries": entries,
    }
    _emit(render_json(doc), args.out)
    if not failures:
        return EXIT_OK
    _report_failures(sorted(failures, key=lambda f: f[0]))
    return EXIT_PARTIAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoregap",
        description="Improvement metrics and guarantee checks for strategic scoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the experiment pipeline from a config")
    analyze.add_argument("--config", required=True, help="YAML experiment config")
    analyze.add_argument("--out", help="output path (default: stdout)")
    analyze.add_argument("--format", choices=("json", "csv"),
                         help="csv writes the flat table; with --out the JSON "
                              "document is also written to OUT.json")
    analyze.add_argument("--seed", type=int, help="alignment sampling seed")
    analyze.add_argument("--rank", type=int, help="projection rank per subgroup")
    analyze.add_argument("--wstar", help="ones | fit:COLUMN | vector:FILE")
    analyze.add_argument("--standardize", action="store_const", const=True, default=None,
                         help="standardize feature columns before projecting")
    analyze.set_defaults(func=cmd_analyze)

    check = sub.add_parser("check", help="run guarantee checkers on a model file")
    check.add_argument("model", help="model file (JSON)")
    check.add_argument("--out", help="output path (default: stdout)")
    check.set_defaults(func=cmd_check)

    synthetic = sub.add_parser("synthetic", help="write the disparity-example model")
    synthetic.add_argument("epsilon", type=float, help="strictly between 0 and 1")
    synthetic.add_argument("--out", help="model file path (default: stdout)")
    synthetic.set_defaults(func=cmd_synthetic)

    align = sub.add_parser("alignment", help="subspace overlap of the two groups")
    source = align.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="model file (JSON)")
    source.add_argument("--config", help="YAML experiment config")
    align.add_argument("--samples", type=int, help="Monte-Carlo sample count")
    align.add_argument("--seed", type=int, help="sampling seed")
    align.add_argument("--rank", type=int, help="projection rank (config mode)")
    align.add_argument("--out", help="output path (default: stdout)")
    align.set_defaults(func=cmd_alignment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScoregapError as exc:
        # anything not mapped above is a malformed-input problem
        return _fail(EXIT_CONFIG, exc)


if __name__ == "__main__":
    sys.exit(main())
