"""Write every document the benchmark inputs produce into `tests/golden/`, which `tests/test_documents.py` checks.

Generates seeds 1-3 of the benchmark workloads (`benchmarks/workloads.py`, imported unchanged) into a
temporary directory and runs `scoregap analyze --config CFG --out OUT --format F` on each, F the format
`benchmarks/run.py` passes, then `scoregap check` on each seed-1 model file. It runs the seed-1 `credit` and
`adult` configs again with `costs: {group1: 2.5, group2: A}`, A a seeded SPD matrix, and `check` on two
model files whose group-1 per-unit verdict no ratio decides: in `zero-pull.json` its pull is zero, and in
`blind.json` it perceives none of the welfare rule. Last it feeds each reader a malformed input: a config,
a model file, a `vector:` w* file and a CSV that are not UTF-8, and a model file that does not exist. Every
path is relative to the temporary directory, so no document depends on where it is.

Each command's documents (OUT, and OUT.json for csv; standard output for `check` and the malformed inputs)
are stored verbatim in `tests/golden/<its label>/`, and `tests/golden/index.json` holds each label's exit
code and standard error. Rerunning this, from any directory, is the one way to change a golden:

    python3 tools/goldens.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("models", "credit", "adult")
SEEDS = (1, 2, 3)
GOLDEN = ROOT / "tests" / "golden"


def _with_costs(config: Path, dim: int) -> Path:
    """A copy of `config` whose group 1 pays 2.5 I and group 2 a seeded dim x dim SPD matrix."""
    rng = np.random.default_rng(1)
    b = rng.standard_normal((dim, dim))
    costs = {"costs": {"group1": 2.5, "group2": (b @ b.T / dim + np.eye(dim)).tolist()}}
    path = config.with_name(f"costs-{config.name}")
    path.write_text(config.read_text(encoding="utf-8") + yaml.safe_dump(costs), encoding="utf-8")
    return path


ZERO_PER_UNIT = {
    "zero-pull": {"w_star": [1, -1], "projection1": [[0.5, 0.5], [0.5, 0.5]], "projection2": [[1, 0], [0, 0]]},
    "blind": {"w_star": [0, 0, 1], "projection1": [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
              "projection2": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
}


def _analyze(label: str, config: Path, out: Path, fmt: str) -> tuple:
    """The `analyze` command on `config`, writing OUT (and OUT.json for csv)."""
    files = [out, Path(f"{out}.json")] if fmt == "csv" else [out]
    argv = ["analyze", "--config", str(config), "--out", str(out), "--format", fmt]
    return f"analyze {label} format={fmt}", argv, files


def _malformed() -> list:
    """A command per reader, each on an input it must reject."""
    bad = b"a,\xff\n"  # 0xff begins no UTF-8 sequence
    Path("bad.yaml").write_bytes(b"rank: 2\n# \xff\n")
    Path("bad.json").write_bytes(b'{"w_star": [1, 1]} ' + bad)
    Path("bad-wstar.txt").write_bytes(b"1 " + bad)
    Path("bad.csv").write_bytes(b"x,y\n1,2\n" + bad)
    Path("ok.csv").write_text("x,y\n1,2\n3,4\n", encoding="utf-8")
    grouping = "groupings:\n  - {name: g, group1: {column: x, op: le, value: 1}}\n"
    Path("bad-wstar.yaml").write_text(f"dataset: ok.csv\nwstar: vector:bad-wstar.txt\n{grouping}", encoding="utf-8")
    Path("bad-csv.yaml").write_text(f"dataset: bad.csv\n{grouping}", encoding="utf-8")
    return [(f"malformed {label}", argv, None)
            for label, argv in (("config", ["analyze", "--config", "bad.yaml"]), ("model", ["check", "bad.json"]),
                                ("wstar", ["analyze", "--config", "bad-wstar.yaml"]),
                                ("csv", ["analyze", "--config", "bad-csv.yaml"]),
                                ("absent-model", ["check", "absent.json"]))]


def commands():
    """Write every input into the working directory and yield (label, argv, files) per command, in order.

    `files` lists what the command writes, or is None where its document is its standard output. Each
    command must have run before the next is drawn: a costed config reads the feature count from the
    document of the run before it.
    """
    benchmarks = str(ROOT / "benchmarks")
    sys.path.insert(0, benchmarks)
    try:  # so that no later `import run` or `import check` finds the benchmark's modules
        import workloads
    finally:
        sys.path.remove(benchmarks)

    generated = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            work = Path(f"{name}-{seed}")
            wl = generated[name, seed] = workloads.generate(name, ROOT, work, seed)
            yield _analyze(f"{name} seed={seed}", wl.config, work / f"out.{wl.cli_format}", wl.cli_format)
    for model in sorted(Path("models-1").glob("model_*.json")):
        yield f"check {model}", ["check", str(model)], None
    for name in ("credit", "adult"):
        wl = generated[name, 1]
        out = wl.config.parent / f"out.{wl.cli_format}"
        dim = len(json.loads(Path(f"{out}.json" if wl.cli_format == "csv" else out).read_text())["feature_names"])
        yield _analyze(f"{name} seed=1 costs", _with_costs(wl.config, dim),
                       wl.config.parent / f"costs-out.{wl.cli_format}", wl.cli_format)
    for name, doc in ZERO_PER_UNIT.items():
        Path(f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        yield f"check {name}.json", ["check", f"{name}.json"], None
    yield from _malformed()


def run(argv: list, files) -> tuple:
    """One command's exit code, stderr and {name: bytes} per document, by `cli.main` (`cli.run` ends the process)."""
    from scoregap import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = {"stdout": out.getvalue().encode("utf-8")} if files is None else {
        path.name: path.read_bytes() for path in files if path.exists()}
    return code, err.getvalue(), written


def run_all() -> dict:
    """{path under GOLDEN: bytes} of every command's documents and of the index, run in a temporary directory."""
    home, index, documents = os.getcwd(), {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for label, argv, files in commands():
                code, stderr, written = run(argv, files)
                index[label] = {"exit": code, "stderr": stderr}
                folder = re.sub(r"[^\w.=-]+", "-", label)
                documents.update({f"{folder}/{name}": data for name, data in written.items()})
        finally:
            os.chdir(home)
    return {**documents, "index.json": json.dumps(index, indent=1).encode("utf-8") + b"\n"}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))  # this checkout's package
    documents = run_all()
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name, data in documents.items():
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / name).write_bytes(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
