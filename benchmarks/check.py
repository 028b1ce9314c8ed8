"""Output checker: decides whether one benchmark operation failed.

An operation is one CLI process or one warm in-process call. It fails when
its exit code is not 0, when its document differs byte for byte from the
run's reference document, or when the reference document itself breaks
one of the rules in `problems`.
"""

from __future__ import annotations

import json
from typing import List

from workloads import Workload

# Relative roundoff allowed on identities that hold exactly in real arithmetic.
ROUNDOFF = 1e-9
# Monte-Carlo allowance on alignment, in standard errors of the estimate.
ALIGNMENT_SIGMAS = 6.0


def alignment_errors(doc: dict, workload: Workload) -> List[float]:
    """|reported - exact| for every entry that carries an alignment."""
    return [abs(e["alignment"] - workload.entries[e["name"]].alignment)
            for e in doc["groupings"] if "alignment" in e and e["name"] in workload.entries]


def problems(doc: dict, workload: Workload) -> List[str]:
    """Every way the result document disagrees with what the generator knows."""
    out: List[str] = []
    if doc.get("n_failed") != 0:
        out.append(f"n_failed = {doc.get('n_failed')}")
    if workload.rows_written is not None:
        n_rows, n_dropped = doc.get("n_rows"), doc.get("n_dropped")
        if n_rows is None or n_dropped is None or n_rows + n_dropped != workload.rows_written:
            out.append(f"n_rows {n_rows} + n_dropped {n_dropped} != rows written {workload.rows_written}")
        if n_dropped != workload.rows_missing:
            out.append(f"n_dropped {n_dropped} != rows with a missing token {workload.rows_missing}")
    reported = {e["name"]: e for e in doc.get("groupings", [])}
    for name in sorted(set(workload.entries) - set(reported)):
        out.append(f"{name}: entry missing")
    for name, want in workload.entries.items():
        entry = reported.get(name)
        if entry is None or "error" in entry:
            if entry is not None:
                out.append(f"{name}: {entry['error']}")
            continue
        sizes = entry["group_sizes"]
        if (None if sizes is None else tuple(sizes)) != want.group_sizes:
            out.append(f"{name}: group_sizes {sizes} != {want.group_sizes}")
        if entry["n_excluded"] != want.n_excluded:
            out.append(f"{name}: n_excluded {entry['n_excluded']} != {want.n_excluded}")
        if tuple(entry["effective_ranks"]) != want.ranks:
            out.append(f"{name}: effective_ranks {entry['effective_ranks']} != {want.ranks}")
        m = entry["metrics"]
        if abs(m["welfare"] - (m["I1"] + m["I2"])) > ROUNDOFF * (abs(m["I1"]) + abs(m["I2"]) + 1e-300):
            out.append(f"{name}: welfare {m['welfare']!r} != I1 + I2 = {m['I1'] + m['I2']!r}")
        for g in ("1", "2"):
            u, star = m["uI" + g], m["uI" + g + "_star"]
            if u > star + ROUNDOFF * abs(star):
                out.append(f"{name}: uI{g} {u!r} exceeds uI{g}_star {star!r}")
        a = entry["alignment"]
        if not 0.0 <= a <= 1.0:
            out.append(f"{name}: alignment {a!r} outside [0, 1]")
        allowed = ALIGNMENT_SIGMAS * want.alignment_se + ROUNDOFF
        if abs(a - want.alignment) > allowed:
            out.append(f"{name}: alignment {a!r} is {abs(a - want.alignment):.3g} from exact "
                       f"{want.alignment!r} (allowed {allowed:.3g})")
    return out


def check_text(text: str, workload: Workload) -> List[str]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"result is not JSON: {exc}"]
    return problems(doc, workload)
