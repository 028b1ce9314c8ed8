"""Every command of `tools/goldens.py` writes its committed goldens under `tests/golden/` byte for byte.

On a mismatch the failure counts the floats that differ, gives the largest difference relative to |`welfare`|
of the entry a float sits in, and names every other difference by its dotted path, so a moved last bit reads
differently from a changed key. A change that moves a document on purpose reruns `python3 tools/goldens.py`.
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

TOOLS = str(Path(__file__).resolve().parents[1] / "tools")
sys.path.insert(0, TOOLS)
try:
    import goldens
finally:
    sys.path.remove(TOOLS)


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


def _parse(data: bytes):
    """A JSON document as its value, any other (a CSV table, an empty stream) as its list of lines."""
    try:
        return json.loads(data)
    except ValueError:
        return data.decode("utf-8", "replace").splitlines()


def summary(old: bytes, new: bytes) -> str:
    """`compare`'s float count, differing floats and largest relative difference, then each other difference."""
    results = list(compare(_parse(old), _parse(new)))
    floats = [x for kind, x in results if kind == "float"]
    changed = [x for x in floats if x]
    head = f"floats={len(floats)} differ={len(changed)} max_rel={max(changed, default=0.0):.3g}"
    return "\n".join([head] + [f"  differs at {x}" for kind, x in results if kind == "mismatch"])


def test_every_document_matches_its_golden():
    before = list(sys.path)
    documents = goldens.run_all()
    assert sys.path == before  # goldens imports the workloads without leaving benchmarks/ on it
    golden = {path.relative_to(goldens.GOLDEN).as_posix(): path.read_bytes()
              for path in sorted(goldens.GOLDEN.rglob("*")) if path.is_file()}
    failures = [f"{name}: no golden" for name in documents if name not in golden]
    failures += [f"{name}: no command writes it" for name in golden if name not in documents]
    failures += [f"{name}: {summary(data, documents[name])}" for name, data in golden.items()
                 if documents.get(name, data) != data]
    if failures:
        pytest.fail("\n".join(failures), pytrace=False)


DOC = {"schema_version": 7, "entry": {"metrics": {"welfare": 2.0, "I1": 0.1}, "holds": True, "ranks": [1, 2],
                                      "value": 1.5}}


def _summary_after(edit) -> str:
    new = copy.deepcopy(DOC)
    edit(new)
    return summary(json.dumps(DOC).encode(), json.dumps(new).encode())


def test_a_moved_last_bit_is_a_float_difference_relative_to_welfare():
    ulp = math.nextafter(0.1, 1.0) - 0.1
    edit = lambda doc: doc["entry"]["metrics"].update(I1=0.1 + ulp)  # noqa: E731
    assert _summary_after(edit) == f"floats=3 differ=1 max_rel={ulp / 2.0:.3g}"


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["entry"].update(held=doc["entry"].pop("holds")),
     "entry: keys ['held', 'holds'] are in one document only"),
    (lambda doc: doc["entry"].update(holds=False), "entry.holds: True against False"),
    (lambda doc: doc["entry"]["ranks"].append(3), "entry.ranks: 2 items against 3"),
    (lambda doc: doc["entry"].update(value=None), "entry.value: 1.5 against None"),
])
def test_a_structural_difference_is_named_by_its_path(edit, message):
    assert _summary_after(edit).splitlines()[1:] == [f"  differs at {message}"]


def test_the_top_level_schema_version_is_not_compared():
    assert _summary_after(lambda doc: doc.update(schema_version=8)) == "floats=3 differ=0 max_rel=0"
