"""List the ``raise`` statements in ``src/hrrpgnn`` that no test runs.

Usage: python tests/raise_sites.py [pytest arguments]

Parses each ``src/hrrpgnn/*.py`` module for its ``raise`` statements, runs
pytest in this process with a ``sys.settrace`` line tracer on those modules'
frames, and prints each raise statement none of whose lines ran, as
``path:line: first source line``, then a count. The arguments go to pytest
unchanged; without any it runs ``tests -k "not shipped_benchmark and not
ablation_sweep"``, which leaves out the two slowest acceptance tests. Code
that a test runs in a child process is not traced, so a raise reached only
there is listed too. Exits with pytest's exit code. pytest does not collect
this file.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "hrrpgnn"
DEFAULT_ARGS = [str(REPO / "tests"), "-k", "not shipped_benchmark and not ablation_sweep"]


def raise_sites() -> dict[str, list[ast.Raise]]:
    """Each module's resolved path and its raise statements, in line order."""
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        nodes = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
        sites[os.path.realpath(path)] = sorted(nodes, key=lambda node: node.lineno)
    return sites


def run_traced(pytest_args: list[str], modules) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code, and the lines that ran in each of ``modules`` meanwhile."""
    ran = {path: set() for path in modules}
    resolved = {}  # co_filename -> its set in ``ran``, or None for any other file

    def trace_lines(frame, event, arg):
        if event == "line":
            resolved[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            resolved[name] = ran.get(os.path.realpath(name))
        return trace_lines if resolved[name] is not None else None

    sys.settrace(trace_calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(REPO / "src"))
    sites = raise_sites()
    code, ran = run_traced(argv or DEFAULT_ARGS, sites)
    unreached = 0
    for path, nodes in sites.items():
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for node in nodes:
            if ran[path].isdisjoint(range(node.lineno, node.end_lineno + 1)):
                unreached += 1
                shown = os.path.relpath(path, REPO)
                print(f"{shown}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    total = sum(map(len, sites.values()))
    print(f"{unreached} of {total} raise statements in src/hrrpgnn ran in no test "
          f"(pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
