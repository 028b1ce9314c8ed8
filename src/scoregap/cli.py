"""Command-line front end.

Subcommands:
  analyze    run the experiment pipeline from a config file
  check      write the payload an `analyze` entry holds for one model file
  synthetic  write the two-axis disparity construction as a model file

Exit codes: 0 success, 2 config/usage error, 3 ingest error, 4 numerical
degeneracy (no rule can help anyone), 5 partial failure (some `analyze`
entries failed but the run completed; they are written as error objects).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Dict, Optional, TextIO

from .errors import ConfigError, IngestError, ScoregapError
from .conditions import disparity_example
from .config import load_config
from .experiment import (
    DEGENERATE_ERRORS,
    RESULT_SCHEMA_VERSION,
    classify_failures,
    population_payload,
    render_csv,
    render_json,
    run_analysis,
)
from .modelio import load_model, model_to_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_DEGENERATE = 4
EXIT_PARTIAL = 5

# The first class an error is an instance of decides its exit code.
_EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    (IngestError, EXIT_INGEST),
    (DEGENERATE_ERRORS, EXIT_DEGENERATE),
    (ScoregapError, EXIT_CONFIG),
)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_files({out: text})


def _write_files(texts: Dict[str, str]) -> None:
    """Write each path's text, all or nothing.

    Every path is opened before any is written. If one cannot be opened
    or written, the files already opened are removed, so a failed
    command leaves no output behind that looks finished.
    """
    handles: Dict[str, TextIO] = {}
    try:
        for path in texts:
            handles[path] = open(path, "w", encoding="utf-8")
        for path, handle in handles.items():
            with handle:
                handle.write(texts[path])
    except OSError as exc:
        for opened, handle in handles.items():
            handle.close()
            with contextlib.suppress(OSError):
                os.remove(opened)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_analyze(args: argparse.Namespace) -> int:
    config = load_config(args.config).override(
        out=args.out,
        format=args.format,
        rank=args.rank,
        wstar=args.wstar,
        standardize=args.standardize,
    )
    result = run_analysis(config)
    if config.format == "json":
        _emit(render_json(result), config.out)
    elif config.out is None:
        _emit(render_csv(result), None)
    else:
        _write_files({config.out: render_csv(result), config.out + ".json": render_json(result)})

    status = classify_failures(result)
    if status is None:
        return EXIT_OK
    for entry in result["groupings"]:
        if "error" in entry:
            err = entry["error"]
            print(f"grouping {entry['name']}: {err['type']}: {err['message']}", file=sys.stderr)
    return EXIT_DEGENERATE if status == "degenerate" else EXIT_PARTIAL


def cmd_check(args: argparse.Namespace) -> int:
    payload = population_payload(load_model(args.model))
    doc = {"schema_version": RESULT_SCHEMA_VERSION, "model": args.model, **payload}
    _emit(render_json(doc), args.out)
    return EXIT_OK


def cmd_synthetic(args: argparse.Namespace) -> int:
    _emit(render_json(model_to_dict(disparity_example(args.epsilon))), args.out)
    return EXIT_OK


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
    analyze.add_argument("--rank", type=int, help="projection rank per subgroup")
    analyze.add_argument("--wstar", help="ones | fit:COLUMN | vector:FILE")
    analyze.add_argument("--standardize", action="store_const", const=True, default=None,
                         help="standardize feature columns before projecting")
    analyze.set_defaults(func=cmd_analyze)

    check = sub.add_parser("check", help="metrics, guarantees and alignment of a model file")
    check.add_argument("model", help="model file (JSON)")
    check.add_argument("--out", help="output path (default: stdout)")
    check.set_defaults(func=cmd_check)

    synthetic = sub.add_parser("synthetic", help="write the disparity-example model")
    synthetic.add_argument("epsilon", type=float, help="strictly between 0 and 1")
    synthetic.add_argument("--out", help="model file path (default: stdout)")
    synthetic.set_defaults(func=cmd_synthetic)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScoregapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
