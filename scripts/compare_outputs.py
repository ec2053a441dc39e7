#!/usr/bin/env python3
"""Run the benchmark's CLI invocations in two source trees and compare what they write.

Every invocation that ``perfbench/workloads.py`` defines, at each chosen data
seed, runs once with ``OLD/src`` and once with ``NEW/src`` on the path, each
tree in its own scratch directory, so the relative ``--out`` paths (and the
paths the CLI prints) are the same on both sides.  Every process uses one
BLAS thread.  The script prints each difference in exit code, stdout, stderr
(less the ``elapsed:`` line) and the files written, and exits 1 if there is
any, 0 if there is none.

Usage:
    python scripts/compare_outputs.py OLD NEW [--seeds 0-15]
        [--extra "pdscca --recipe example10 --basis 23" ...]

``--extra`` adds a command line, run at every chosen seed with ``--seed`` and
``--out`` appended.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import DATA_SEEDS, WORKLOADS, invocations  # noqa: E402

# Lines of a unified diff printed per differing stream or file.
DIFF_LINES = 20


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
    for extra in extras:
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
                report += [f"== {path}", *file_diff(old_bytes, new_bytes, path)]
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
