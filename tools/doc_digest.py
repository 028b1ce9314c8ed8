"""Digest every document the benchmark inputs produce, so two checkouts can be compared with one diff.

Generates seeds 1-3 of the benchmark workloads (`benchmarks/workloads.py`,
imported unchanged) into a temporary directory, runs

    python -m scoregap analyze --config CFG --out OUT --format F

on each, with F the workload's own format as `benchmarks/run.py` passes
it, then `python -m scoregap check` on each seed-1 model file. No
workload config sets `costs:`, so it also runs the seed-1 `credit` and
`adult` configs again with `costs: {group1: 2.5, group2: A}`, A a
seed-1 SPD matrix of the feature count, which sends a scaled and a
dense cost through `analyze`. It then runs `check` on two model files in
which one subgroup's per-unit verdict is not decided by a ratio: in
`zero-pull.json` group 1's pull is zero while it perceives the welfare
rule, and in `blind.json` it sees e1 and e2 while w* = e3, so it
perceives none of the welfare rule. Last it feeds each reader a malformed
input: a config, a model file, a `vector:` w* file and a CSV that are
not UTF-8 text, and a model file that does not exist. It prints
one line per command: its exit code and the sha256 of each file it wrote
(OUT, and OUT.json for csv; standard output for `check` and for the
malformed inputs) and of its standard error. The commands run inside the temporary directory on
relative paths, so no line depends on where that directory is.

Run from any directory, at each checkout, and diff the outputs:

    python3 tools/doc_digest.py > digest.txt

`commands` yields the same commands to `tools/doc_compare.py`, which
compares the documents of two checkouts value by value.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("models", "credit", "adult")
SEEDS = (1, 2, 3)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def src_env(root: Path) -> dict:
    """This process's environment with `root`/src first on PYTHONPATH, so `-m scoregap` runs that checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH"))
                                                       if p))


def run(argv: list, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "scoregap", *argv], env=env, capture_output=True,
                          stdin=subprocess.DEVNULL)


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
    """Write every input into the working directory and yield (label, argv, files) per command, in digest order.

    `files` lists what the command writes, or is None where its document is its standard output. Each
    command must have run before the next is drawn: a costed config reads the feature count from the
    document of the run before it.
    """
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import workloads

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


def main() -> int:
    env = src_env(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for label, argv, files in commands():
            proc = run(argv, env)
            if files is None:
                outputs = f"stdout={_sha(proc.stdout)}"
            else:
                outputs = " ".join(f"{path.name}={_sha(path.read_bytes()) if path.exists() else 'absent'}"
                                   for path in files)
            print(f"{label} exit={proc.returncode} {outputs} stderr={_sha(proc.stderr)}", flush=True)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
