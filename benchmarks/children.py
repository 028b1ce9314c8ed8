"""Fresh-process measurements and run metadata.

Each child is timed from spawn to reaped exit, and its peak RSS is read
from its own rusage via `os.wait4`, not from the cumulative
RUSAGE_CHILDREN of the benchmark process.
"""

from __future__ import annotations

import ctypes
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SETUP_CODE = "import sys; from scoregap.cli import load_config; load_config(sys.argv[1])"


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def child_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: Sequence[str], env: Dict[str, str], cwd: Path, stderr_path: Path) -> ChildRun:
    """Run argv to completion; stdout is discarded, stderr kept in a file."""
    with open(stderr_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode("utf-8", "replace")
    return ChildRun(proc.returncode, wall, usage.ru_maxrss / 1024.0, text)


def parse_importtime(text: str) -> Dict[str, float]:
    """Seconds from `python -X importtime` output.

    total is the sum of every module's self time. A package's figure is
    the cumulative time of its outermost entries, those not nested under
    another module of the same package.
    """
    rows: List[Tuple[int, str, int, int]] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(self_us), int(cum_us)))
    packages = {"scoregap": 0, "numpy": 0, "scipy": 0, "yaml": 0}
    stack: List[Tuple[int, str]] = []
    # importtime prints children before their parent; walk it backwards so
    # every entry's open ancestors are on the stack.
    for depth, name, _, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in packages and not any(a.split(".")[0] == top for _, a in stack):
            packages[top] += cum
        stack.append((depth, name))
    out = {"import.total_s": sum(r[2] for r in rows) / 1e6}
    out.update({f"import.{k}_s": v / 1e6 for k, v in packages.items()})
    return out


def import_breakdown(env: Dict[str, str], cwd: Path, stderr_path: Path, reps: int) -> Dict[str, float]:
    """Median per key over `reps` fresh `-X importtime` processes."""
    samples: Dict[str, List[float]] = {}
    for _ in range(reps):
        run = run_child([sys.executable, "-X", "importtime", "-c", "import scoregap.cli"],
                        env, cwd, stderr_path)
        if run.exit_code != 0:
            raise RuntimeError(f"importing scoregap.cli failed:\n{run.stderr}")
        for key, value in parse_importtime(run.stderr).items():
            samples.setdefault(key, []).append(value)
    return {k: statistics.median(v) for k, v in samples.items()}


def _blas_threads() -> Optional[int]:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def metadata(root: Path) -> dict:
    import numpy as np
    import scipy
    import yaml

    sha = "unknown"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }
