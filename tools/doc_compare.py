"""Compare the documents two checkouts write for the inputs of `tools/doc_digest.py`, value by value.

Where `doc_digest.py` tells only whether a document changed, this tells
how: it runs each of that tool's commands (its generators, imported) on
OLD_ROOT/src and then on this checkout's src/, and walks the two JSON
documents side by side: the `analyze` document (OUT.json beside a CSV
table, which is rendered from the same document) or the standard output
of `check`. For each document it prints how many floats it holds, how
many differ, and the largest difference relative to |`welfare`| of the
entry the float sits in (or absolute, outside any entry with a nonzero
`welfare`). A command without a JSON document, such as a malformed
input, is compared by its standard output. Every run's exit code and
standard error must match.

It exits 1 if any key, bool, string, null, list length or integer other
than `schema_version` differs, and names each such path; else 0.

    python3 tools/doc_compare.py OLD_ROOT
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from pathlib import Path

from doc_digest import ROOT, commands, run, src_env


def _document(proc, files):
    """The JSON document a command wrote, or its raw standard output where it wrote none."""
    if files is not None:
        path = files[-1]  # OUT, or OUT.json beside a CSV table
        return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return proc.stdout


def _scale(value, scale: float) -> float:
    """|welfare| of the entry `value` is, where it has a nonzero one, else `scale`."""
    welfare = value.get("metrics", {}).get("welfare") if isinstance(value, dict) else None
    return abs(welfare) if isinstance(welfare, float) and welfare else scale


def compare(old, new, path: str = "", scale: float = 1.0):
    """Yield ("float", relative difference) per float pair and ("mismatch", message) per other difference."""
    scale = _scale(old, scale)
    if isinstance(old, dict) and isinstance(new, dict):
        if set(old) != set(new):
            yield "mismatch", f"{path or '.'}: keys {sorted(set(old) ^ set(new))} are in one document only"
        for key in sorted(set(old) & set(new)):
            if not (key == "schema_version" and not path):
                yield from compare(old[key], new[key], f"{path}.{key}" if path else key, scale)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield "mismatch", f"{path}: {len(old)} items against {len(new)}"
        for i, (a, b) in enumerate(zip(old, new)):
            yield from compare(a, b, f"{path}.{i}", scale)
    elif type(old) is float and type(new) is float:
        yield "float", 0.0 if old == new else abs(old - new) / scale if math.isfinite(old - new) else math.inf
    elif type(old) is not type(new) or old != new:
        yield "mismatch", f"{path or '.'}: {old!r} against {new!r}"


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.rsplit("\n\n", 1)[-1].strip(), file=sys.stderr)
        return 2
    envs = (src_env(Path(argv[0]).resolve()), src_env(ROOT))
    mismatched = False
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for label, command, files in commands():
            old_proc = run(command, envs[0])
            old = _document(old_proc, files)  # read before the second run writes over it
            new_proc = run(command, envs[1])
            new = _document(new_proc, files)
            results = list(compare(old, new))
            results += [("mismatch", f"{stream}: {a!r} against {b!r}") for stream, a, b in (
                ("exit code", old_proc.returncode, new_proc.returncode), ("stderr", old_proc.stderr, new_proc.stderr))
                if a != b]
            diffs = [x for kind, x in results if kind == "float"]
            problems = [x for kind, x in results if kind == "mismatch"]
            changed = [x for x in diffs if x]
            print(f"{label} floats={len(diffs)} differ={len(changed)} max_rel={max(changed, default=0.0):.3g}",
                  flush=True)
            for problem in problems:
                print(f"  differs at {problem}", flush=True)
            mismatched |= bool(problems)
        os.chdir(ROOT)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
