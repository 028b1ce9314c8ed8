"""Digest every document the benchmark inputs produce, so two checkouts can be compared with one diff.

Generates seeds 1-3 of the benchmark workloads (`benchmarks/workloads.py`,
imported unchanged) into a temporary directory, runs

    python -m scoregap analyze --config CFG --out OUT --format F

on each, with F the workload's own format as `benchmarks/run.py` passes
it, then `python -m scoregap check` on each seed-1 model file. It prints
one line per command: its exit code and the sha256 of each file it wrote
(OUT, and OUT.json for csv; standard output for `check`) and of its
standard error. The commands run inside the temporary directory on
relative paths, so no line depends on where that directory is.

Run from any directory, at each checkout, and diff the outputs:

    python3 tools/doc_digest.py > digest.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("models", "credit", "adult")
SEEDS = (1, 2, 3)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "scoregap", *argv], env=env, capture_output=True,
                          stdin=subprocess.DEVNULL)


def main() -> int:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import workloads

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                                                      if p))
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in WORKLOADS:
            for seed in SEEDS:
                work = Path(f"{name}-{seed}")
                wl = workloads.generate(name, ROOT, work, seed)
                out = work / f"out.{wl.cli_format}"
                proc = _run(["analyze", "--config", str(wl.config), "--out", str(out), "--format", wl.cli_format],
                            env)
                files = [out, Path(f"{out}.json")] if wl.cli_format == "csv" else [out]
                digests = " ".join(f"{path.name}={_sha(path.read_bytes()) if path.exists() else 'absent'}"
                                   for path in files)
                print(f"analyze {name} seed={seed} format={wl.cli_format} exit={proc.returncode} {digests} "
                      f"stderr={_sha(proc.stderr)}", flush=True)
        for model in sorted(Path("models-1").glob("model_*.json")):
            proc = _run(["check", str(model)], env)
            print(f"check {model} exit={proc.returncode} stdout={_sha(proc.stdout)} stderr={_sha(proc.stderr)}",
                  flush=True)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
