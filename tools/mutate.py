"""Mutation testing of one module of `src/scoregap` against chosen test files.

A mutant either flips one operator of the module to its partner: `<` and
`<=`, `>` and `>=`, `==` and `!=`, `in` and `not in`, `is` and `is not`,
`+` and `-` (binary), `and` and `or` (every operator of one boolean
expression at once); or it deletes one statement: an `if` without `else`
(and not an `elif`), or an expression statement that is not a string
constant such as a docstring, becomes `pass`. Each change is made in the
source text, a deleted statement's other lines left blank, so every other
line keeps its text and its number, and the mutant must parse to the
module's syntax tree with just that operator or statement changed.

Each mutant is written into a temporary copy of `src/` (and
`pyproject.toml`), never into this checkout, and the test files run against that copy with
`pytest -x --junitxml`, from a temporary working directory and with no
bytecode written. A mutant is judged by pytest's report, not by the exit
status, because code that forks can leave a test process through
`os._exit`: it is killed when a test failed or errored, survives when the
report holds tests and none failed, and is neither when the run timed out
or left no report. The unmutated copy must pass first.

    python3 tools/mutate.py src/scoregap/config.py tests/test_config.py tests/test_cli.py

It prints one line per mutant (`module:line:column`, the change, the
outcome and, for a killed mutant, the first test that failed) and a
summary. It exits 0 once every mutant has run, and 2 when the unmutated
copy does not pass.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PARTNERS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And,
}
TEXT = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or", ast.If: "if", ast.Expr: "expr", ast.Pass: "pass",
}
# the operator token in the text between two operands, which holds only it, blanks and parentheses
TOKEN = re.compile(rb"<=|>=|==|!=|<|>|[+-]|\bnot\s+in\b|\bis\s+not\b|\bin\b|\bis\b|\band\b|\bor\b")


@dataclass(frozen=True)
class Mutant:
    line: int
    column: int
    old: type
    new: type
    spans: tuple  # the byte range of each operand gap whose operator flips, or of the deleted statement
    node: int  # the node's index in `ast.walk` order, which a parse of the same source repeats
    op: int  # the index of a comparison's operator; 0 otherwise

    def label(self, module: str) -> str:
        return f"{module}:{self.line}:{self.column}  {TEXT[self.old]} -> {TEXT[self.new]}"


def _offset(starts: list, line: int, column: int) -> int:
    return starts[line - 1] + column  # ast columns count UTF-8 bytes


def _gap(starts: list, left: ast.AST, right: ast.AST) -> tuple:
    return _offset(starts, left.end_lineno, left.end_col_offset), _offset(starts, right.lineno, right.col_offset)


def mutants(source: bytes) -> list:
    """Every mutant of `source`, in source order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []
    for index, node in enumerate(ast.walk(ast.parse(source))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            found += [Mutant(operands[i + 1].lineno, operands[i + 1].col_offset, type(op), PARTNERS[type(op)],
                             (_gap(starts, operands[i], operands[i + 1]),), index, i)
                      for i, op in enumerate(node.ops) if type(op) in PARTNERS]
        elif isinstance(node, ast.BinOp) and type(node.op) in PARTNERS:
            gaps = (_gap(starts, node.left, node.right),)
            found.append(Mutant(node.lineno, node.col_offset, type(node.op), PARTNERS[type(node.op)], gaps, index, 0))
        elif isinstance(node, ast.BoolOp):
            gaps = tuple(_gap(starts, a, b) for a, b in zip(node.values, node.values[1:]))
            found.append(Mutant(node.lineno, node.col_offset, type(node.op), PARTNERS[type(node.op)], gaps, index, 0))
        elif (isinstance(node, ast.If) and not node.orelse or isinstance(node, ast.Expr)
              and not isinstance(node.value, ast.Constant)):
            span = (_offset(starts, node.lineno, node.col_offset), _offset(starts, node.end_lineno, node.end_col_offset))
            if not source.startswith(b"elif", span[0]):
                found.append(Mutant(node.lineno, node.col_offset, type(node), ast.Pass, (span,), index, 0))
    return sorted(found, key=lambda m: (m.line, m.column, m.spans))


def _deleted(source: bytes, mutant: Mutant, expected: ast.AST) -> bytes:
    """`source` with `mutant`'s statement replaced by `pass` and its further lines left blank, and the
    same replacement made in `expected`, the parse of `source`."""
    (start, end), = mutant.spans
    node = list(ast.walk(expected))[mutant.node]
    for parent in ast.walk(expected):
        for _, body in ast.iter_fields(parent):
            if isinstance(body, list):
                body[:] = [ast.Pass() if child is node else child for child in body]
    return source[:start] + b"pass" + b"\n" * source.count(b"\n", start, end) + source[end:]


def _flipped(source: bytes, mutant: Mutant, expected: ast.AST) -> bytes:
    """`source` with `mutant`'s operator flipped, and the same flip made in `expected`, the parse of `source`."""
    new = TEXT[mutant.new].encode()
    out = source
    for start, end in reversed(mutant.spans):
        gap = source[start:end]
        match = TOKEN.search(gap)
        if match is None or (gap[:match.start()] + gap[match.end():]).strip(b" \t\r\n()\\"):
            raise ValueError(f"no lone operator between operands at line {mutant.line}: {gap!r}")
        out = out[:start] + gap[:match.start()] + new + gap[match.end():] + out[end:]
    node = list(ast.walk(expected))[mutant.node]
    if isinstance(node, ast.Compare):
        node.ops[mutant.op] = mutant.new()
    else:
        node.op = mutant.new()
    return out


def mutated(source: bytes, mutant: Mutant) -> bytes:
    """`source` with `mutant`'s operator flipped or statement deleted; ValueError unless only that
    operator or statement of the tree changed."""
    expected = ast.parse(source)
    out = (_deleted if mutant.new is ast.Pass else _flipped)(source, mutant, expected)
    if ast.dump(ast.parse(out)) != ast.dump(expected):
        raise ValueError(f"the change at line {mutant.line} changed more than its {TEXT[mutant.old]}")
    return out


def judge(report: Path) -> tuple:
    """("killed", first failed test) | ("survived", "") | ("no report", "") from a junit file."""
    if not report.exists():
        return "no report", ""
    root = ET.parse(report).getroot()
    cases = list(root.iter("testcase"))
    for case in cases:
        if case.find("failure") is not None or case.find("error") is not None:
            return "killed", f"{case.get('classname')}::{case.get('name')}"
    suites = [root] if root.tag == "testsuite" else list(root.iter("testsuite"))
    if any(int(s.get("errors", 0)) + int(s.get("failures", 0)) for s in suites):
        return "killed", "(a collection error)"
    return ("survived", "") if cases else ("no report", "")


def run_tests(copy: Path, tests: list, work: Path, timeout: float) -> tuple:
    report = work / "report.xml"
    report.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *tests]
    try:
        subprocess.run(argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return "timed out", ""
    return judge(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module under src/scoregap, such as src/scoregap/config.py")
    parser.add_argument("tests", nargs="+", help="the test files to run against each mutant")
    args = parser.parse_args(argv)
    module = Path(args.module).resolve().relative_to(ROOT / "src")
    tests = [str(Path(t).resolve()) for t in args.tests]
    source = (ROOT / "src" / module).read_bytes()
    found = mutants(source)
    texts = [mutated(source, m) for m in found]  # every change is checked before any test runs
    outcomes: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        copy, work = Path(tmp) / "copy", Path(tmp) / "work"
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)  # a test reads the console script's entry point beside src/
        work.mkdir()
        start = time.perf_counter()
        outcome, _ = run_tests(copy, tests, work, timeout=None)
        if outcome != "survived":
            print(f"the unmutated module does not pass the tests ({outcome})", file=sys.stderr)
            return 2
        timeout = 10 * (time.perf_counter() - start) + 30
        target = copy / "src" / module
        for m, text in zip(found, texts):
            target.write_bytes(text)
            outcome, test = run_tests(copy, tests, work, timeout)
            outcomes.setdefault(outcome, []).append(m)
            print(f"{m.label(module.name)}  {outcome}" + (f"  {test}" if test else ""), flush=True)
        target.write_bytes(source)
    print(f"{len(found)} mutants: " + ", ".join(f"{len(v)} {k}" for k, v in sorted(outcomes.items())))
    for m in outcomes.get("survived", []):
        print(f"survived: {m.label(module.name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
