"""Benchmark for `scoregap analyze`.

Usage (from the repository root):

    python3 benchmarks/run.py --workload credit|adult|models --seed N \
        --seconds S --trace 0|1

The workload's inputs are generated from the seed into `.bench_work/`
(removed on exit). With --trace 0 the run measures, for about S seconds,
alternating fresh `python -m scoregap analyze` processes and warm
in-process `run_analysis` + `render_json` calls, after timing a few fresh
set-up processes. With --trace 1 it alternates untraced and traced warm
calls and reports per-layer figures. The last stdout line is one JSON
object: correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import children
import workloads
from check import alignment_errors, problems
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_REPS = 3           # rounds of timed operations, even past --seconds
SETUP_PER_ROUND = 2
IMPORTTIME_REPS = 3
LOAD_CONFIG_REPS = 5
UNATTRIBUTED_LIMIT = 1e-3  # s a traced run may spend outside every span
# alignment_err is floored here: Monte-Carlo error and roundoff below it
# are not a regression. It sits above 5 standard errors of the default
# 200,000-sample estimate on every workload.
ALIGNMENT_ERR_FLOOR = 2e-3

# Units of every reported metric that is not a time in seconds (`*_s`).
UNITS = {
    "peak_rss_mb": "MiB", "alignment_err": "1", "success_rate": "1",
    "ingest.rows_read": "count", "ingest.rows_kept": "count", "ingest.keep_ratio": "1",
    "ingest.split_masks_calls": "count", "linalg.subspace_projection_calls": "count",
    "linalg.svd_flops": "flop", "linalg.alignment_samples": "count",
    "linalg.alignment_flops": "flop", "linalg.alignment_max_err": "1",
    "modelio.bytes_read": "bytes", "experiment.output_bytes": "bytes",
    "experiment.entries": "count", "experiment.entries_failed": "count",
}


def _fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import scoregap from this checkout's src/, refusing any other copy."""
    if not (SRC / "scoregap" / "__init__.py").is_file():
        _fail(f"no scoregap sources under {SRC}")
    for name in ("taiwan_credit.yaml", "adult.yaml"):
        if not (ROOT / "configs" / name).is_file():
            _fail(f"missing configs/{name}")
    sys.path.insert(0, str(SRC))
    from scoregap import cli, experiment, modelio

    if Path(experiment.__file__).resolve().parent != (SRC / "scoregap").resolve():
        _fail(f"imported scoregap from {experiment.__file__}, not from {SRC}")
    return cli, experiment, modelio


class Ops:
    """Attempted/failed bookkeeping over CLI and warm operations."""

    def __init__(self, reference_problems: List[str]):
        self.reference_problems = reference_problems
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, label: str, exit_code: int, outputs: List[Tuple[str, bool]]) -> None:
        """outputs: (what, whether it equals the reference) pairs."""
        self.attempted += 1
        why = list(self.reference_problems)
        if exit_code != 0:
            why.append(f"exit code {exit_code}")
        why += [f"{what} check failed" for what, ok in outputs if not ok]
        if why:
            self.failures.append(f"{label}: " + "; ".join(why))


def _timed(fn: Callable):
    gc.collect()
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def rounds(seconds: float):
    """Yield while another round, as long as the last, ends within `seconds`."""
    start, last, n = time.perf_counter(), 0.0, 0
    while n < MIN_REPS or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        yield n
        last, n = time.perf_counter() - began, n + 1


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return ""


def measure_end_to_end(wl: workloads.Workload, cli, experiment, work: Path, seconds: float, env) -> Tuple[Ops, dict]:
    setup_argv = [sys.executable, "-c", children.SETUP_CODE, str(wl.config)]
    setup: List[children.ChildRun] = []
    config = cli.load_config(str(wl.config))

    def warm() -> str:
        return experiment.render_json(experiment.run_analysis(config))

    reference = warm()  # the warm-up call
    ref_doc = json.loads(reference)
    ops = Ops(problems(ref_doc, wl))
    ref_csv = experiment.render_csv(ref_doc)

    out = work / f"cli_out.{wl.cli_format}"
    side = Path(f"{out}.json")  # the JSON document that --format csv also writes
    argv = [sys.executable, "-m", "scoregap", "analyze", "--config", str(wl.config),
            "--out", str(out), "--format", wl.cli_format]
    cli_runs, warm_walls = [], []
    for _ in rounds(seconds):
        # Set-up processes are spread over the window so that a passing
        # disturbance moves their median no more than the other timings'.
        for _ in range(SETUP_PER_ROUND):
            setup.append(children.run_child(setup_argv, env, ROOT, work / "setup.err"))
            if setup[-1].exit_code != 0:
                _fail(f"set-up process failed:\n{setup[-1].stderr}")
        for stale in (out, side):
            stale.unlink(missing_ok=True)
        run = children.run_child(argv, env, ROOT, work / "cli.err")
        cli_runs.append(run)
        if wl.cli_format == "csv":
            outputs = [("csv table", _read(out) == ref_csv),
                       ("side JSON", _read(side) == reference)]
        else:
            outputs = [("JSON document", _read(out) == reference)]
        ops.record(f"cli run {len(cli_runs)}", run.exit_code, outputs)

        wall, text = _timed(warm)
        warm_walls.append(wall)
        ops.record(f"warm run {len(warm_walls)}", 0, [("JSON document", text == reference)])

    errors = alignment_errors(ref_doc, wl)
    metrics = {
        "cli_wall_s": statistics.median(r.wall_s for r in cli_runs),
        "run_wall_s": statistics.median(warm_walls),
        "setup_s": statistics.median(r.wall_s for r in setup),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in cli_runs),
        "alignment_err": max([ALIGNMENT_ERR_FLOOR] + errors),
        "success_rate": 1.0 - len(ops.failures) / ops.attempted,
    }
    samples = {"cli_wall_s": [round(r.wall_s, 4) for r in cli_runs],
               "run_wall_s": [round(w, 4) for w in warm_walls],
               "setup_s": [round(r.wall_s, 4) for r in setup],
               "alignment_max_err": max(errors, default=0.0)}
    return ops, {"metrics": metrics, "samples": samples}


def _install(tracer: Tracer, experiment, modelio) -> None:
    def shape_svd(counts, args, _):
        n, d = args[0].shape
        m, k = max(n, d), min(n, d)
        counts["linalg.subspace_projection_calls"] += 1
        # Golub & Van Loan's R-SVD count for thin U, S and V.
        counts["linalg.svd_flops"] += 6 * m * k * k + 20 * k ** 3

    def samples(counts, args, _):
        counts["linalg.alignment_samples"] += args[2]
        counts["linalg.alignment_flops"] += 4 * args[2] * args[0].dim ** 2

    def rows(counts, _, ds):
        counts["ingest.rows_read"] += ds.size + ds.n_dropped
        counts["ingest.rows_kept"] += ds.size

    def calls(key):
        def count(counts, *_):
            counts[key] += 1
        return count

    def model_bytes(counts, args, _):
        counts["modelio.bytes_read"] += os.path.getsize(args[0])

    population = "principal.population_model"
    for module, name, layer, count in (
        (experiment, "load_csv", "ingest.load_csv", rows),
        (experiment, "split_masks", "ingest.split_masks", calls("ingest.split_masks_calls")),
        (experiment, "subspace_projection", "linalg.subspace_projection", shape_svd),
        (modelio, "subspace_projection", "linalg.subspace_projection", shape_svd),
        (experiment, "alignment", "linalg.alignment", samples),
        (experiment, "load_model", "modelio.load_model", model_bytes),
        (experiment, "CostMatrix", population, None),
        (experiment, "Subgroup", population, None),
        (experiment, "PopulationModel", population, None),
        (experiment, "disparity_example", population, None),
        (modelio, "CostMatrix", population, None),
        (modelio, "Subgroup", population, None),
        (modelio, "PopulationModel", population, None),
        (experiment, "welfare_maximizing_rule", "principal.welfare_maximizing_rule", None),
        (experiment, "improvement_report", "metrics.improvement_report", None),
        (experiment, "condition_report", "conditions.condition_report", None),
        (experiment, "population_payload", "experiment.population_payload", None),
    ):
        tracer.install(module, name, layer, count)


TIMED_LAYERS = (
    "ingest.load_csv", "ingest.split_masks", "linalg.subspace_projection", "linalg.alignment",
    "modelio.load_model", "principal.population_model", "principal.welfare_maximizing_rule",
    "metrics.improvement_report", "conditions.condition_report", "experiment.population_payload",
    "experiment.render",
)
COUNTERS = (
    "ingest.rows_read", "ingest.rows_kept", "ingest.split_masks_calls",
    "linalg.subspace_projection_calls", "linalg.svd_flops", "linalg.alignment_samples",
    "linalg.alignment_flops", "modelio.bytes_read",
)


def measure_layers(wl: workloads.Workload, cli, experiment, modelio, work: Path, seconds: float, env) -> Tuple[Ops, dict]:
    metrics: Dict[str, float] = children.import_breakdown(env, ROOT, work / "importtime.err", IMPORTTIME_REPS)
    config_times = []
    for _ in range(LOAD_CONFIG_REPS):
        tracer = Tracer()
        tracer.install(cli, "load_config", "config.load_config")
        try:
            config = cli.load_config(str(wl.config))
        finally:
            tracer.remove()
        config_times.append(tracer.self_times()["config.load_config"])
    metrics["config.load_config_s"] = statistics.median(config_times)

    reference = experiment.render_json(experiment.run_analysis(config))  # the warm-up call
    ref_doc = json.loads(reference)
    ops = Ops(problems(ref_doc, wl))

    plain_walls, traced_walls, layer_samples, unattributed = [], [], {}, []
    for _ in rounds(seconds):
        wall, text = _timed(lambda: experiment.render_json(experiment.run_analysis(config)))
        plain_walls.append(wall)
        ops.record(f"untraced run {len(plain_walls)}", 0, [("JSON document", text == reference)])

        tracer = Tracer()
        _install(tracer, experiment, modelio)
        try:
            wall, text = _timed(lambda: tracer.call(
                "experiment.render", experiment.render_json,
                tracer.call("experiment.run_analysis", experiment.run_analysis, config)))
        finally:
            tracer.remove()
        traced_walls.append(wall)
        selfs = tracer.self_times()
        for layer in TIMED_LAYERS + ("experiment.run_analysis",):
            layer_samples.setdefault(layer, []).append(selfs.get(layer, 0.0))
        # The self times of run_analysis, render and everything under them
        # add up to the traced wall time, less the timer's own gap.
        unattributed.append(wall - sum(selfs.values()))
        ops.record(f"traced run {len(traced_walls)}", 0,
                   [("traced JSON document", text == reference),
                    ("sum of self times", abs(unattributed[-1]) <= UNATTRIBUTED_LIMIT)])

    for layer in TIMED_LAYERS:
        metrics[f"{layer}_s"] = statistics.median(layer_samples[layer])
    metrics["experiment.run_analysis_self_s"] = statistics.median(layer_samples["experiment.run_analysis"])
    for key in COUNTERS:
        metrics[key] = tracer.counts.get(key, 0)
    metrics["ingest.keep_ratio"] = (metrics["ingest.rows_kept"] / metrics["ingest.rows_read"]
                                    if metrics["ingest.rows_read"] else 0.0)
    metrics["linalg.alignment_max_err"] = max(alignment_errors(ref_doc, wl), default=0.0)
    metrics["experiment.output_bytes"] = len(reference.encode("utf-8"))
    metrics["experiment.entries"] = len(ref_doc["groupings"])
    metrics["experiment.entries_failed"] = ref_doc["n_failed"]
    traced, plain = statistics.median(traced_walls), statistics.median(plain_walls)
    metrics["trace.run_wall_s"] = traced
    metrics["trace.overhead_s"] = traced - plain
    metrics["trace.unattributed_s"] = statistics.median(unattributed)
    return ops, {"metrics": metrics, "samples": {"untraced": len(plain_walls), "traced": len(traced_walls)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, experiment, modelio = _import_program()
    env = children.child_env(SRC)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.generate(args.workload, ROOT, work, args.seed)
        # Compile bytecode once so set-up timing sees what every later user run sees.
        warmup = children.run_child([sys.executable, "-c", "import scoregap.cli"], env, ROOT, work / "warmup.err")
        if warmup.exit_code != 0:
            _fail(f"importing scoregap.cli failed:\n{warmup.stderr}")
        if args.trace:
            ops, report = measure_layers(wl, cli, experiment, modelio, work, args.seconds, env)
        else:
            ops, report = measure_end_to_end(wl, cli, experiment, work, args.seconds, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    meta = children.metadata(ROOT)
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                samples=report["samples"])
    print("meta " + json.dumps(meta, sort_keys=True))
    for failure in ops.failures:
        print(f"FAILED {failure}")
    failed = len(ops.failures)
    print(f"{'fail_rate':34s} {failed / ops.attempted:.6g} 1  ({failed}/{ops.attempted} operations)")
    metrics = {}
    for name, value in report["metrics"].items():
        unit = "s" if name.endswith("_s") else UNITS[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:34s} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": ops.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
