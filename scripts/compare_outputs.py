#!/usr/bin/env python3
"""Run the benchmark's CLI invocations in two source trees and compare what they write.

Every invocation that ``perfbench/workloads.py`` defines, at each chosen data
seed, runs once with ``OLD/src`` and once with ``NEW/src`` on the path, each
tree in its own scratch directory, so the relative ``--out`` paths (and the
paths the CLI prints) are the same on both sides.  Every process uses one
BLAS thread.  The script prints each difference in exit code, stdout, stderr
(less the ``elapsed:`` line) and the files written, and exits 1 if there is
any, 0 if there is none.  For a differing JSON or CSV file it also prints the
largest absolute and relative difference between the floating-point numbers
at the same position, and "non-numeric difference" when anything else
differs: a key, a string, an integer, a boolean or a row count.

Usage:
    python scripts/compare_outputs.py OLD NEW [--seeds 0-15]
        [--extra "pdscca --recipe example10 --basis 23" ...]

Besides the workloads' invocations, every chosen seed runs ``SOLVER_ROUTES``,
the command lines of the solver routes that no workload takes, with
``--seed`` and ``--out`` appended; they add about 3 minutes to a 16-seed
comparison.  ``--extra`` adds a further command line, run the same way.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import DATA_SEEDS, WORKLOADS, invocations  # noqa: E402

# Lines of a unified diff printed per differing stream or file.
DIFF_LINES = 20

# The solver routes that no workload takes, compared at every chosen seed.
SOLVER_ROUTES = (
    "fit --recipe example1 --solver eig",
    "fit --recipe example1 --solver geneig",
    "fit --recipe example6 --solver geneig",
    "test --recipe example1 --solver eig",
    # Bartlett's critical values at df 56, 42, 30 and 20, and at alpha 0.9,
    # whose quantile is solved on the lower chi-square tail
    "test --recipe example7",
    "test --recipe example1 --alpha 0.9",
    "biplot --recipe example1 --solver geneig --view b",
    "kcca --recipe example7 --pgso",
    "kcca --recipe example7 --kernel-a linear --sigma-b 2.5",
    "pdscca --recipe example10 --basis 23",
    "pdscca --recipe example10 --kernel-b linear --mu 0 --gamma 0",
    "pmd --recipe example10 --budget-a 1 --budget-b 1 --components 50",
)


def parse_seeds(text: str) -> list[int]:
    """``"0-15"``, ``"3"`` or ``"0,3,7"`` as a sorted list of data seeds."""
    seeds = set()
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.update(range(int(low), int(high or low) + 1))
    if not seeds or min(seeds) < 0 or max(seeds) >= DATA_SEEDS:
        raise argparse.ArgumentTypeError(f"seeds must lie in [0, {DATA_SEEDS}), got {text!r}")
    return sorted(seeds)


def command_lines(seeds, extras) -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of every invocation to run, in run order and without repeats."""
    runs = {}
    for workload in sorted(WORKLOADS):
        for seed in seeds:
            for inv in invocations(workload, seed):
                runs.setdefault(inv.argv, f"{workload}/{inv.name}")
    for extra in (*SOLVER_ROUTES, *extras):
        words = tuple(shlex.split(extra))
        for seed in seeds:
            name = f"extra/{'_'.join(words)}-s{seed}"
            out = os.path.join(".compare_out", name)
            runs.setdefault((*words, "--seed", str(seed), "--out", out), name)
    return [(name, argv) for argv, name in runs.items()]


def run(tree: Path, cwd: Path, argv: tuple[str, ...]) -> tuple[int, str, str]:
    # kcca reports depend on the BLAS thread count; the benchmark runs one
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "cancorr", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    stderr = "".join(line for line in done.stderr.splitlines(keepends=True)
                     if not line.startswith("elapsed:"))
    return done.returncode, done.stdout, stderr


def files_under(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def text_diff(old: str, new: str, what: str) -> list[str]:
    lines = list(difflib.unified_diff(old.splitlines(), new.splitlines(),
                                      f"OLD {what}", f"NEW {what}", lineterm=""))
    return lines[:DIFF_LINES] + ([f"... {len(lines) - DIFF_LINES} more lines"]
                                 if len(lines) > DIFF_LINES else [])


def file_diff(old: bytes, new: bytes, path: str) -> list[str]:
    try:
        return text_diff(old.decode("utf-8"), new.decode("utf-8"), path)
    except UnicodeDecodeError:
        return [f"{path}: binary contents differ"]


# A CSV cell written from an integer; a float is written with "%.17g", so a
# whole-valued float reads as one too, and only a pair of them counts as integers.
INT_CELL = re.compile(r"[+-]?\d+")


class Drift:
    """The largest differences between the numbers at the same position of two
    parsed files, each with where it is, and whether anything else differs."""

    def __init__(self):
        self.abs, self.rel, self.other = (0.0, ""), (0.0, ""), False

    def numbers(self, old: float, new: float, where: str) -> None:
        if old == new:
            return
        if not (math.isfinite(old) and math.isfinite(new)):
            self.other = True
            return
        diff = abs(new - old)
        self.abs = max(self.abs, (diff, where))
        self.rel = max(self.rel, (diff / max(abs(old), abs(new)), where))

    def walk_json(self, old, new, where: str = "") -> None:
        if isinstance(old, float) and isinstance(new, float):
            self.numbers(old, new, where)
        elif isinstance(old, dict) and isinstance(new, dict):
            self.other |= old.keys() != new.keys()
            for key in sorted(old.keys() & new.keys()):
                self.walk_json(old[key], new[key], f"{where}.{key}" if where else key)
        elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
            for i, (o, n) in enumerate(zip(old, new)):
                self.walk_json(o, n, f"{where}[{i}]")
        elif type(old) is not type(new) or old != new:
            self.other = True

    def walk_csv(self, old: str, new: str) -> None:
        old_rows, new_rows = (list(csv.reader(io.StringIO(t))) for t in (old, new))
        self.other |= len(old_rows) != len(new_rows)
        header = old_rows[0] if old_rows else []
        for r, (o_row, n_row) in enumerate(zip(old_rows, new_rows)):
            if len(o_row) != len(n_row):
                self.other = True
                continue
            for c, (o, n) in enumerate(zip(o_row, n_row)):
                if o == n:
                    continue
                if INT_CELL.fullmatch(o) and INT_CELL.fullmatch(n):
                    self.other = True
                    continue
                try:
                    self.numbers(float(o), float(n), f"{header[c] if c < len(header) else c}[{r}]")
                except ValueError:
                    self.other = True

    def lines(self) -> list[str]:
        found = []
        if self.abs[0] > 0:
            found.append(f"numeric drift: largest absolute {self.abs[0]:.3g} at {self.abs[1]}, "
                         f"largest relative {self.rel[0]:.3g} at {self.rel[1]}")
        if self.other:
            found.append("non-numeric difference")
        return found or ["no difference in value"]


def numeric_drift(old: bytes, new: bytes, path: str) -> list[str]:
    """The drift lines of a differing ``.json`` or ``.csv`` file; none for other files."""
    drift = Drift()
    try:
        if path.endswith(".json"):
            drift.walk_json(json.loads(old), json.loads(new))
        elif path.endswith(".csv"):
            drift.walk_csv(old.decode("utf-8"), new.decode("utf-8"))
        else:
            return []
    except ValueError:  # not JSON, or not UTF-8
        return ["non-numeric difference"]
    return drift.lines()


def compare(old: Path, new: Path, runs) -> list[str]:
    """Run every command line in both trees; return the report lines of each difference."""
    report = []
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as scratch:
        cwd = {side: Path(scratch, side) for side in ("old", "new")}
        for path in cwd.values():
            path.mkdir()
        for name, argv in runs:
            got = {side: run(tree, cwd[side], argv) for side, tree in (("old", old), ("new", new))}
            (code_o, out_o, err_o), (code_n, out_n, err_n) = got["old"], got["new"]
            found = []
            if code_o != code_n:
                found.append(f"exit code {code_o} -> {code_n}")
            if out_o != out_n:
                found += text_diff(out_o, out_n, "stdout")
            if err_o != err_n:
                found += text_diff(err_o, err_n, "stderr")
            if found:
                report += [f"== {name}: {shlex.join(argv)}", *found]
        files = {side: files_under(path) for side, path in cwd.items()}
        for path in sorted(files["old"].keys() | files["new"].keys()):
            old_bytes, new_bytes = files["old"].get(path), files["new"].get(path)
            if old_bytes is None or new_bytes is None:
                report.append(f"== {path}: written by {'NEW' if old_bytes is None else 'OLD'} only")
            elif old_bytes != new_bytes:
                report += [f"== {path}", *numeric_drift(old_bytes, new_bytes, path),
                           *file_diff(old_bytes, new_bytes, path)]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree whose src/ is the reference")
    parser.add_argument("new", type=Path, help="source tree compared with it")
    parser.add_argument("--seeds", type=parse_seeds, default=[0],
                        help=f"data seeds, e.g. 0-15 or 0,3 (default 0; at most {DATA_SEEDS - 1})")
    parser.add_argument("--extra", action="append", default=[],
                        help="a further command line, run at every seed")
    args = parser.parse_args(argv)
    runs = command_lines(args.seeds, args.extra)
    report = compare(args.old.resolve(), args.new.resolve(), runs)
    for line in report:
        print(line)
    print(f"{len(runs)} invocations: {'differences found' if report else 'no difference'}")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
