"""Byte-compare the CLI's artifacts at a git revision with the working tree's.

Usage: python tests/compare_artifacts.py <rev>

Checks out <rev> with ``git worktree`` into a temporary directory, then runs
the same commands against that tree's ``src/`` and the working tree's, each
in its own output directory and with OpenBLAS on one thread:

- gen-data for toy2 and default3 at 128 cells, under every normalization,
  and for default3 at 501 cells;
- gen-data --spec at 128 cells, unnormalized, from a noise-free spec the tool
  writes first: scatterers at both edges with widths 0.05 and 200, whose
  pulses are clipped at either end of the grid, and a lone width-2 pulse whose
  tail falls through the subnormals to 0.0;
- train for each of the seven ablation rows, with a test split and --val-data;
- train the abc row at the default widths and batch size on the 501-cell data
  for 2 epochs: the shipped (32, 16, 501) shape of the local block;
- train with --batch-size 59 on the 60 default3 training samples, so that each
  epoch's last batch holds one sample;
- eval --out on the abc row's checkpoint;
- ablate --seeds 2;
- gradcheck --seed 0, which writes no file, so only its log is compared.

Every command runs with relative paths, so the two trees' files, paths
included, should match byte for byte. Each command's exit code, stdout and
stderr is kept as ``logs/<step>.txt`` and compared too. Directories are
compared by name, so an empty directory left behind on one side shows.
Prints each step that exited nonzero and the name of each file that differs
and of each file or directory that exists on one side only, with the first
differing line from each side of a differing text file, and exits 1 if there
is any; the worktree is removed either way. Also prints ``wc -l``-style line
counts of each ``src/hrrpgnn/*.py`` module, and their total, in both trees.
pytest does not collect this file.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
NORMALIZATIONS = ("max_abs", "l2", "none")
ROWS = ("a", "b", "c", "ab", "ac", "bc", "abc")
TRAIN = ["--epochs", "3", "--batch-size", "16", "--d-out", "4", "--g-out", "4"]
DATA = "gen/default3-max_abs"
DATA_501 = "gen/default3-501"
EDGE_SPEC = "edge-spec.json"


def _steps():
    """(name, hrrpgnn arguments) of every command, in the order they run."""
    for preset in ("toy2", "default3"):
        for norm in NORMALIZATIONS:
            yield f"gen-{preset}-{norm}", [
                "gen-data", "--preset", preset, "--n-cells", "128", "--per-class", "20",
                "--test-per-class", "10", "--seed", "3", "--normalization", norm,
                "--out", f"gen/{preset}-{norm}"]
    yield "gen-default3-501", ["gen-data", "--preset", "default3", "--n-cells", "501",
                               "--per-class", "20", "--test-per-class", "10", "--seed", "3",
                               "--out", DATA_501]
    yield "gen-edge-spec", ["gen-data", "--spec", EDGE_SPEC, "--n-cells", "128", "--per-class",
                            "20", "--test-per-class", "10", "--seed", "3", "--normalization",
                            "none", "--out", "gen/edge-spec"]
    for row in ROWS:
        yield f"train-{row}", ["train", "--data", DATA, "--val-data", f"{DATA}/test.csv",
                               "--ablation", row, "--out", f"train/{row}", *TRAIN]
    yield "train-abc-501", ["train", "--data", DATA_501, "--ablation", "abc", "--epochs", "2",
                            "--out", "train/abc-501"]
    yield "train-last-batch-of-one", ["train", "--data", DATA, "--out", "train/last-batch-of-one",
                                      *TRAIN, "--batch-size", "59"]
    yield "eval", ["eval", "--data", f"{DATA}/test.csv", "--checkpoint", "train/abc/model.json",
                   "--out", "eval-metrics.csv"]
    yield "ablate", ["ablate", "--data", DATA, "--seeds", "2", "--out", "ablate", *TRAIN]
    yield "gradcheck", ["gradcheck", "--seed", "0"]


def _edge_spec() -> dict:
    """A noise-free 128-cell class-spec file: pulses at both edges, and one lone pulse."""
    def edges(width):
        return [{"position": 0.0, "amplitude": 1.0, "width": width},
                {"position": 127.0, "amplitude": 0.8, "width": width}]

    return {"classes": [
        {"name": "narrow", "position_jitter": 2.0, "amplitude_jitter": 0.3,
         "scatterers": edges(0.05)},
        {"name": "wide", "position_jitter": 127.5, "amplitude_jitter": 0.3,
         "scatterers": edges(200.0)},
        {"name": "lone", "scatterers": [{"position": 0.0, "amplitude": 1.0, "width": 2.0}]},
    ]}


def run_all(tree: Path, out: Path) -> list[str]:
    """Run every step with ``tree``'s sources, writing under ``out``; the steps that failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    (out / "logs").mkdir(parents=True)
    (out / EDGE_SPEC).write_text(json.dumps(_edge_spec(), indent=1), encoding="utf-8")
    failed = []
    for name, args in _steps():
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from hrrpgnn.cli import main; sys.exit(main())",
             *args], cwd=out, env=env, capture_output=True, text=True)
        (out / "logs" / f"{name}.txt").write_text(
            f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}",
            encoding="utf-8")
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            failed.append(f"{name} (exit {proc.returncode}: {last})")
    return failed


def line_counts(tree: Path) -> dict[str, int]:
    """Newline count of each ``src/hrrpgnn/*.py`` module of ``tree``, by file name, as ``wc -l``."""
    return {p.name: p.read_bytes().count(b"\n") for p in (tree / "src" / "hrrpgnn").glob("*.py")}


def print_line_counts(rev: str, base: dict[str, int], work: dict[str, int]) -> None:
    """One row per module in either tree, then the totals; a module missing from a tree shows -."""
    print(f"{'src/hrrpgnn lines':<20} {rev:>12} {'working tree':>12}")
    for name in sorted(base.keys() | work.keys()):
        print(f"  {name:<18} {base.get(name, '-'):>12} {work.get(name, '-'):>12}")
    print(f"  {'total':<18} {sum(base.values()):>12} {sum(work.values()):>12}")


def _contents(path: Path) -> bytes | None:
    """A file's bytes; None for a directory."""
    return path.read_bytes() if path.is_file() else None


def compare(a: Path, b: Path) -> tuple[list[str], int]:
    """Relative paths of the files that differ between ``a`` and ``b``, and of the files
    and directories that exist in one only or are a file in one and a directory in the
    other; and the number of files and directories in either."""
    paths_a = {p.relative_to(a) for p in a.rglob("*")}
    paths_b = {p.relative_to(b) for p in b.rglob("*")}
    differ = paths_a ^ paths_b | {
        p for p in paths_a & paths_b if _contents(a / p) != _contents(b / p)}
    return sorted(map(str, differ)), len(paths_a | paths_b)


def first_difference(a: Path, b: Path) -> str | None:
    """The first line that differs between two files, from each side; None unless both
    exist and are UTF-8 text. A side that has ended shows as None."""
    try:
        lines = [p.read_text(encoding="utf-8").splitlines() for p in (a, b)]
    except (OSError, UnicodeDecodeError):
        return None
    for number, (line_a, line_b) in enumerate(itertools.zip_longest(*lines), start=1):
        if line_a != line_b:
            return f"line {number}: {line_a!r} vs {line_b!r}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "tree"
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", "--quiet",
                        str(base_tree), argv[0]], check=True)
        try:
            base_lines = line_counts(base_tree)
            failed = [f"{argv[0]}: {step}" for step in run_all(base_tree, tmp / "base")]
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force",
                            str(base_tree)], check=True)
        failed += [f"working tree: {step}" for step in run_all(REPO, tmp / "work")]
        differ, n_files = compare(tmp / "base", tmp / "work")
        for step in failed:
            print(f"failed: {step}")
        for path in differ:
            print(f"differs: {path}")
            shown = first_difference(tmp / "base" / path, tmp / "work" / path)
            if shown is not None:
                print(f"  {shown}")
        print(f"{n_files - len(differ)} of {n_files} files and directories identical to "
              f"{argv[0]}")
        print_line_counts(argv[0], base_lines, line_counts(REPO))
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
