"""Benchmark for the cancorr command line toolkit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ridge_cv --seed 3 --seconds 10 --trace 0

The program under test is ``python -m cancorr`` with ``PYTHONPATH=src``; it
needs no build.  Each workload is a list of CLI invocations (see
``workloads.py``) run as a closed loop with one client: a fresh interpreter
per invocation, each started only after the previous one exited.

``--trace 0`` repeats the invocation list ("a pass") until ``--seconds``
have passed, at least once (cli_quick at least three times).  Every
process, the benchmark's own included, runs with
``OPENBLAS_NUM_THREADS=1``.  Every pass after the first is a
rerun whose ``report.json`` files must be byte-identical to the first
pass's; a traced run makes the same comparison between its untraced and
traced passes, so workloads whose pass outlasts ``--seconds`` are
rerun-checked there.  It reports the median over passes of

- ``wall_s``: a pass's summed invocation wall time, interpreter start-up
  and import included;
- ``compute_s``: the summed ``elapsed:`` seconds the CLI prints on stderr;
- ``peak_rss_mb``: the largest peak RSS of one invocation, from ``os.wait4``;

and, over the whole run,

- ``setup_s``: the median wall time of fresh ``import cancorr`` launches,
  half made before the passes and half after;
- ``ok_frac``: invocations that passed every check over those attempted,
  that is ``1 - failed_frac``;
- ``accuracy_margin``: ``1 - accuracy_err / ACCURACY_TOL``, where
  ``accuracy_err`` is the largest deviation of a checked output from the
  reference values in ``reference.json``.

``ok_frac`` and ``accuracy_margin`` stand in for ``failed_frac`` and
``accuracy_err`` so that no metric reads zero on a healthy run; the raw
forms are printed too.  ``--trace 1`` runs one untraced pass, then the same
argv lists in-process through ``cancorr.cli.main`` under the tracer in
``tracer.py``, and reports per-layer metrics.  Every run writes its full
record (the environment, host steal ticks around each pass, every
invocation, and the spans of a traced run) under ``.bench_out/``.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    ACCURACY_TOL,
    MIN_PASSES,
    OUT_ROOT,
    WORKLOADS,
    CheckFailed,
    Invocation,
    checked_values,
    deviation,
    invocations,
    load_reference,
)

# Fresh ``import cancorr`` launches per run, half before the passes and half
# after, so that setup_s samples the host at both ends of the run.
SETUP_LAUNCHES = 6
# Every process runs one BLAS thread.  With --threads 2 the load then never
# asks for more threads than the two cores, and small BLAS calls lose a
# bimodal timing: the example7 kernel fit took 0.024-0.037 s with one BLAS
# thread, against 0.037-0.59 s with two on a 2-vCPU virtual machine.
BLAS_THREADS = "1"
IMPORTTIME_LAUNCHES = 3
INVOCATION_TIMEOUT_S = 150.0
# Stop starting passes after this long, so a run ends well within 180 s.
RUN_DEADLINE_S = 120.0


@dataclass
class Outcome:
    name: str
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    elapsed_s: float
    accuracy_err: float = 0.0
    error: str | None = None
    values: dict = field(default_factory=dict)
    report: bytes | None = field(default=None, repr=False)


def _steal_ticks() -> int | None:
    """Host steal ticks summed over all CPUs (read only, from /proc/stat)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads"] = _blas_threads(os.path.dirname(numpy.__file__) + ".libs")
    return env


def _blas_threads(libdir: str) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes
    import glob

    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _launch(argv: list[str], env: dict, stdout_path: str, stderr_path: str):
    """Run ``argv`` to completion; return (exit code, wall s, cpu s, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def _clear_dir(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)


def _elapsed_from_stderr(path: str) -> float:
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if line.startswith("elapsed: ") and line.rstrip().endswith("s"):
                return float(line[len("elapsed: "):].strip()[:-1])
    return 0.0


def _check(inv: Invocation, exit_code: int, reference: dict | None, first_reports: dict,
           outcome: Outcome) -> None:
    """Fill ``outcome``'s error, checked values, deviation and report bytes.

    With ``reference`` None (while capturing references) only the
    invariants and the rerun comparison are checked.
    """
    try:
        if exit_code != inv.expect_exit:
            raise CheckFailed(f"exit code {exit_code}, expected {inv.expect_exit}")
        files = sorted(os.listdir(inv.out_dir)) if os.path.isdir(inv.out_dir) else []
        outcome.values = checked_values(inv, files)
        if reference is not None:
            expected = reference[inv.label][str(inv.data_seed)]
            outcome.accuracy_err = deviation(outcome.values, expected)
            if outcome.accuracy_err > ACCURACY_TOL:
                raise CheckFailed(f"deviation {outcome.accuracy_err:.3e} from the reference")
        if "report.json" in files:
            with open(os.path.join(inv.out_dir, "report.json"), "rb") as fh:
                outcome.report = fh.read()
        first = first_reports.setdefault(inv.name, outcome.report)
        if outcome.report != first:
            raise CheckFailed("report.json differs from the first run of the same argv")
    except (CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"


def run_pass(invs: list[Invocation], env: dict, reference: dict, first_reports: dict,
             log_dir: str) -> dict:
    steal_before = _steal_ticks()
    outcomes = []
    for inv in invs:
        _clear_dir(inv.out_dir)
        stdout_path = os.path.join(log_dir, inv.name + ".stdout")
        stderr_path = os.path.join(log_dir, inv.name + ".stderr")
        code, wall, cpu, rss = _launch([sys.executable, "-m", "cancorr", *inv.argv], env,
                                       stdout_path, stderr_path)
        outcome = Outcome(inv.name, code, wall, cpu, rss, _elapsed_from_stderr(stderr_path))
        _check(inv, code, reference, first_reports, outcome)
        outcomes.append(outcome)
    steal_after = _steal_ticks()
    return {
        "wall_s": sum(o.wall_s for o in outcomes),
        "compute_s": sum(o.elapsed_s for o in outcomes),
        "peak_rss_mb": max(o.peak_rss_mb for o in outcomes),
        "steal_ticks": (None if steal_before is None or steal_after is None
                        else steal_after - steal_before),
        "outcomes": outcomes,
    }


def measure_setup(env: dict, log_dir: str, launches: int, warm_up: bool) -> list[float]:
    """Wall times of fresh ``import cancorr`` launches, after an optional warm-up launch."""
    argv = [sys.executable, "-c", "import cancorr"]
    walls = []
    for i in range(launches + warm_up):
        code, wall, _, _ = _launch(argv, env, os.path.join(log_dir, "setup.stdout"),
                                   os.path.join(log_dir, "setup.stderr"))
        if code != 0:
            raise RuntimeError("import cancorr failed; see setup.stderr in " + log_dir)
        if i >= warm_up:
            walls.append(wall)
    return walls


def measure_import(env: dict, log_dir: str) -> dict:
    """``-X importtime`` cumulative times (median over launches) and the module count."""
    code = ("import sys; before = set(sys.modules); import cancorr; "
            "print(len(set(sys.modules) - before))")
    argv = [sys.executable, "-X", "importtime", "-c", code]
    cum = {"cancorr": [], "scipy.optimize": []}
    loaded = None
    for _ in range(IMPORTTIME_LAUNCHES):
        out_path = os.path.join(log_dir, "importtime.stdout")
        err_path = os.path.join(log_dir, "importtime.stderr")
        status, _, _, _ = _launch(argv, env, out_path, err_path)
        if status != 0:
            raise RuntimeError("import cancorr failed; see " + err_path)
        with open(out_path, encoding="utf-8") as fh:
            loaded = int(fh.read().strip())
        found = {}
        with open(err_path, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() in cum:
                    found[parts[2].strip()] = int(parts[1]) / 1e6
        for name in cum:
            cum[name].append(found.get(name, 0.0))
    return {
        "import.cancorr_cum_s": statistics.median(cum["cancorr"]),
        "import.scipy_optimize_cum_s": statistics.median(cum["scipy.optimize"]),
        "import.modules_loaded": loaded,
    }


def _accuracy(outcomes: list[Outcome]) -> float:
    return max((o.accuracy_err for o in outcomes if o.error is None), default=0.0)


def timed_run(invs, env, reference, seconds, min_passes, log_dir,
              record) -> tuple[dict, list[Outcome]]:
    setup = measure_setup(env, log_dir, SETUP_LAUNCHES // 2, warm_up=True)
    first_reports: dict = {}
    passes = []
    start = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - start < min(seconds, RUN_DEADLINE_S)):
        passes.append(run_pass(invs, env, reference, first_reports, log_dir))
    setup += measure_setup(env, log_dir, SETUP_LAUNCHES - SETUP_LAUNCHES // 2, warm_up=False)
    record["setup_walls_s"] = setup
    outcomes = [o for p in passes for o in p["outcomes"]]
    failed = sum(o.error is not None for o in outcomes)
    err = _accuracy(outcomes)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "compute_s": statistics.median(p["compute_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": 1.0 - failed / len(outcomes),
        "accuracy_margin": 1.0 - err / ACCURACY_TOL,
    }
    record["passes"] = [{k: v for k, v in p.items() if k != "outcomes"} for p in passes]
    print(f"passes: {len(passes)}")
    for i, p in enumerate(passes):
        print(f"  pass {i}: wall {p['wall_s']:.3f} s, compute {p['compute_s']:.3f} s, "
              f"peak RSS {p['peak_rss_mb']:.1f} MB, host steal ticks {p['steal_ticks']}")
    print(f"failed_frac = {failed / len(outcomes):.6g} ({failed}/{len(outcomes)})")
    print(f"accuracy_err = {err:.6g}")
    return metrics, outcomes


def _outcome_record(o: Outcome) -> dict:
    rec = asdict(o)
    rec.pop("report")
    return rec


def _layer_metrics(tracer: tracing.Tracer, files_written: int, bytes_written: int) -> dict:
    calls, self_s, root_s = tracing.summarize(tracer.spans)
    counters = tracer.counters

    def c(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    m = {}
    for layer in tracing.LAYERS:
        prefix = layer + "."
        m[prefix + "self_s"] = sum(v for k, v in self_s.items() if k.startswith(prefix))
        m[prefix + "calls"] = sum(v for k, v in calls.items() if k.startswith(prefix))
    fit_calls = c("regularized.fit_regularized")
    fit_errors = counters["regularized.fit_regularized.errors"]
    pgso_calls = c("numerics.partial_gram_schmidt")
    m.update({
        "cli.files_written": files_written,
        "cli.bytes_written": bytes_written,
        "dataset.read_view_csv.self_s": s("dataset.read_view_csv"),
        "dataset.write_view_csv.self_s": s("dataset.write_view_csv"),
        "evaluation.sequential_test.calls": c("evaluation.sequential_test"),
        "evaluation.sequential_test.self_s": s("evaluation.sequential_test"),
        "numerics.chi2_quantile.calls": c("numerics.chi2_quantile"),
        "numerics.chi2_quantile.self_s": s("numerics.chi2_quantile"),
        "linear.fit.self_s": s("linear.fit_svd", "linear.fit_standard_eig",
                               "linear.fit_generalized_eig"),
        "regularized.fit_regularized.calls": fit_calls,
        "regularized.fit_regularized.self_s": s("regularized.fit_regularized"),
        "regularized.fit_regularized.errors": fit_errors,
        "regularized.cross_validate.self_s": s("regularized.cross_validate"),
        "regularized.fit_fail_ratio": fit_errors / fit_calls if fit_calls else 0.0,
        "linear.project.calls": c("linear.project"),
        "linear.project.self_s": s("linear.project"),
        "dataset.covariance_blocks.calls": c("dataset.covariance_blocks"),
        "dataset.covariance_blocks.self_s": s("dataset.covariance_blocks"),
        "dataset.standardize.calls": c("dataset.standardize"),
        "numerics.gen_eig_sym.self_s": s("numerics.gen_eig_sym"),
        "kernel.fit_kernel_cca.self_s": s("kernel.fit_kernel_cca"),
        "kernel.gram.self_s": s("kernel.gram"),
        "kernel.center_gram.self_s": s("kernel.center_gram"),
        "kernel.median_heuristic.self_s": s("kernel.median_heuristic"),
        "kernel.gram_bytes": counters["kernel.gram_bytes"],
        "numerics.partial_gram_schmidt.self_s": s("numerics.partial_gram_schmidt"),
        "numerics.pgso_rank": counters["numerics.pgso_cols"] / pgso_calls if pgso_calls else 0.0,
        "kernel.fit_kernel_cca_pgso.self_s": s("kernel.fit_kernel_cca_pgso"),
        "sparse.fit_primal_dual.calls": c("sparse.fit_primal_dual"),
        "sparse.fit_primal_dual.self_s": s("sparse.fit_primal_dual"),
        "sparse.pd_outer_iters": counters["sparse.pd_outer_iters"],
        "sparse.scan_basis.self_s": s("sparse.scan_basis"),
        "sparse.pd_unconverged": counters["sparse.pd_unconverged"],
        "sparse.fit_pmd.self_s": s("sparse.fit_pmd"),
        "sparse.pmd_iters": counters["sparse.pmd_iters"],
        "sparse.sparse_unit_solve.calls": c("sparse.sparse_unit_solve"),
    })
    return m, root_s, sum(self_s.values())


def traced_run(invs, env, reference, log_dir, record) -> tuple[dict, list[Outcome]]:
    imports = measure_import(env, log_dir)
    first_reports: dict = {}
    untraced = run_pass(invs, env, reference, first_reports, log_dir)
    outcomes = list(untraced["outcomes"])

    sys.path.insert(0, os.path.abspath("src"))
    import cancorr
    import cancorr.cli

    tracer = tracing.Tracer()
    files_written = bytes_written = 0
    tracer.install(cancorr)
    try:
        for run_id, inv in enumerate(invs, start=1):
            tracer.run = run_id
            _clear_dir(inv.out_dir)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cancorr.cli.main(list(inv.argv))
            outcome = Outcome(inv.name, code, 0.0, 0.0, 0.0, 0.0)
            _check(inv, code, reference, first_reports, outcome)
            outcomes.append(outcome)
            if os.path.isdir(inv.out_dir):
                for name in os.listdir(inv.out_dir):
                    files_written += 1
                    bytes_written += os.path.getsize(os.path.join(inv.out_dir, name))
    finally:
        tracer.restore()
    tracer.write_spans(os.path.join(log_dir, "spans.json"))

    layers, traced_s, self_sum_s = _layer_metrics(tracer, files_written, bytes_written)
    metrics = {**imports, **layers}
    metrics["trace.overhead_frac"] = traced_s / untraced["compute_s"] - 1.0
    record["traced_wall_s"] = traced_s
    record["self_sum_s"] = self_sum_s
    record["untraced_pass"] = {k: v for k, v in untraced.items() if k != "outcomes"}
    print(f"untraced compute {untraced['compute_s']:.3f} s; traced wall {traced_s:.3f} s; "
          f"layer self times sum to {self_sum_s:.3f} s "
          f"({self_sum_s / traced_s:.3f} of traced wall; above 1 where pool threads overlap)")
    return metrics, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

    if not os.path.isfile(os.path.join("src", "cancorr", "cli.py")):
        print("error: run from the root of a cancorr checkout (src/cancorr not found)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    reference = load_reference()
    invs = invocations(args.workload, args.seed)
    log_dir = os.path.join(OUT_ROOT, "log", args.workload)
    os.makedirs(log_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "data_seeds": sorted({inv.data_seed for inv in invs}),
              "trace": args.trace, "environment": _environment()}
    print("environment:", json.dumps(record["environment"], sort_keys=True))

    if args.trace:
        metrics, outcomes = traced_run(invs, env=_child_env(), reference=reference,
                                       log_dir=log_dir, record=record)
    else:
        metrics, outcomes = timed_run(invs, _child_env(), reference, args.seconds,
                                      MIN_PASSES.get(args.workload, 1), log_dir, record)
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")

    failed = sum(o.error is not None for o in outcomes)
    for o in outcomes:
        if o.error is not None:
            print(f"FAILED {o.name}: {o.error}")
    record["outcomes"] = [_outcome_record(o) for o in outcomes]
    record["metrics"] = metrics
    with open(os.path.join(log_dir, f"result-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
