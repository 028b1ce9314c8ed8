"""Command-line front end.

Subcommands:
  analyze  run the experiment pipeline from a config file
  check    write the payload an `analyze` entry holds for one model file

Exit codes: 0 success, 2 config/usage error, 3 ingest error, 4 numerical
degeneracy (the welfare gain is zero for every rule), 5 partial failure
(some `analyze` entries failed but the run completed; they are written as
error objects).

`run` is the process entry (the `scoregap` script, `python -m scoregap`):
`main`, then it flushes both streams and leaves with os._exit, skipping
the interpreter's teardown. `main` has written, closed and moved every
output and reaped every child by the time it returns.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import stat
import sys
import tempfile
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import ConfigError, DegenerateObjectiveError, IngestError, ScoregapError
from .config import load_config
from .experiment import RESULT_SCHEMA_VERSION, population_payload, render_csv, render_json, run_analysis
from .modelio import model_from_dict, read_model_files

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_DEGENERATE = 4
EXIT_PARTIAL = 5

# The first class an error is an instance of decides its exit code.
_EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    (IngestError, EXIT_INGEST),
    (DegenerateObjectiveError, EXIT_DEGENERATE),
    (ScoregapError, EXIT_CONFIG),
)


def _write_files(texts: Dict[Optional[str], str]) -> None:
    """Write each path's text, all or nothing; the key None, which always comes alone, is standard output.

    Each text goes to a temporary file beside its target, and only when
    every one is written are they moved over their targets, so a failed
    command leaves every target as it was and no temporary file behind. A
    target keeps its permission bits, and a new one gets those `open`
    gives. A symlink is written through; a target that exists but is not a
    regular file (a directory, /dev/stdout) is opened in place, since
    moving a file over it would replace it.
    """
    if None in texts:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise ConfigError(f"cannot write standard output: {os.strerror(errno.EBADF)}")
        try:
            sys.stdout.write(texts[None])
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe: Python ignores SIGPIPE, so the write fails with EPIPE
            raise ConfigError(f"cannot write standard output: {exc.strerror or exc}") from None
        return
    umask = os.umask(0o022)
    os.umask(umask)
    moves: List[Tuple[str, str, str]] = []
    try:
        for path, text in texts.items():
            if os.path.exists(path) and not os.path.isfile(path):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                continue
            target = os.path.realpath(path)
            mode = stat.S_IMODE(os.stat(target).st_mode) if os.path.exists(target) else 0o666 & ~umask
            fd, temp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.", dir=os.path.dirname(target))
            moves.append((temp, target, path))
            with open(fd, "w", encoding="utf-8") as handle:
                os.chmod(temp, mode)
                handle.write(text)
        for temp, target, path in moves:
            os.replace(temp, target)
    except OSError as exc:
        for temp, _, _ in moves:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_writable(targets: Iterable[Optional[str]]) -> None:
    """Raise `_write_files`'s error for a missing directory or a directory at a target path."""
    for path in [target for target in targets if target is not None]:
        try:
            os.stat(os.path.join(os.path.dirname(path) or ".", ""))  # the final "/" wants a directory
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")


def cmd_analyze(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    renderers = {args.out: render_csv if args.format == "csv" else render_json}
    if args.format == "csv" and args.out is not None:
        renderers[args.out + ".json"] = render_json  # the document beside its table
    _check_writable(renderers)  # before the run, creating nothing
    result = run_analysis(config)
    _write_files({target: render(result) for target, render in renderers.items()})

    entries = result["groupings"]
    for entry in entries:
        if "error" in entry:
            print("grouping {name}: {error[type]}: {error[message]}".format(**entry), file=sys.stderr)
    if not result["n_failed"]:
        return EXIT_OK
    # Degenerate only when every entry failed, each for a degeneracy: the run as a whole is vacuous.
    degenerate = DegenerateObjectiveError.__name__
    return EXIT_DEGENERATE if all(e.get("error", {}).get("type") == degenerate for e in entries) else EXIT_PARTIAL


def cmd_check(args: argparse.Namespace) -> int:
    _check_writable([args.out])
    model = model_from_dict(*read_model_files([args.model]))  # analyze's reader, which forks none for one path
    doc = {"schema_version": RESULT_SCHEMA_VERSION, "model": args.model, **population_payload(model)}
    _write_files({args.out: render_json(doc)})
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
    analyze.add_argument("--format", choices=("json", "csv"), default="json",
                         help="csv writes the flat table; with --out the JSON "
                              "document is also written to OUT.json")
    analyze.set_defaults(func=cmd_analyze)

    check = sub.add_parser("check", help="metrics, guarantees and alignment of a model file")
    check.add_argument("model", help="model file (JSON)")
    check.add_argument("--out", help="output path (default: stdout)")
    check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScoregapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


def run() -> None:
    """Exit with `main()`'s code once both streams are flushed, without interpreter teardown.

    A stream that cannot be flushed turns a success into a usage error.
    Usage errors and --help leave through argparse's SystemExit as before.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError):  # ValueError: the stream was closed
            code = code or EXIT_CONFIG
    os._exit(code)


if __name__ == "__main__":
    run()
