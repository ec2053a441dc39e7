"""In-process tracer for the benchmark's traced run.

The tracer wraps every public function of every cancorr module, and
rebinds the wrapper wherever callers look the function up: the defining
module, every module that imported it with ``from .x import f``, the
package namespace, and module-level dicts such as ``linear.SOLVERS``.
Functions imported inside a function body (``_cmd_pdscca`` imports
``gram``/``center_gram`` from ``kernel`` at call time) are found through the
defining module.  The library itself is not edited, and ``restore`` puts
every original back.

A span is ``(id, name, start, end, parent, run, thread)``.  Span stacks are
kept per thread; a span opened on a thread with an empty stack (a pool
worker) takes the innermost open span of the installing thread as its
parent, since only that thread submits work to pools.  Spans stay in
memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "dataset", "numerics", "linear", "regularized", "kernel", "sparse", "evaluation")


# Counters read from return values at the layer boundary.  Gram bytes are
# computed from the returned array (8 n^2 per Gram built), not measured.
def _count_gram(counters, result):
    counters["kernel.gram_bytes"] += result.nbytes


def _count_pgso(counters, result):
    counters["numerics.pgso_cols"] += result.shape[1]


def _count_primal_dual(counters, result):
    counters["sparse.pd_outer_iters"] += result.n_iterations
    counters["sparse.pd_unconverged"] += not result.converged


def _count_pmd(counters, result):
    counters["sparse.pmd_iters"] += sum(result.iterations)


HOOKS = {
    "kernel.gram": _count_gram,
    "numerics.partial_gram_schmidt": _count_pgso,
    "sparse.fit_primal_dual": _count_primal_dual,
    "sparse.fit_pmd": _count_pmd,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.run = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_thread = threading.get_ident()
        self._home_stack: list[int] = []
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home_thread:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            home = tracer._home_stack
            parent = stack[-1] if stack else (home[-1] if home else 0)
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                with tracer._lock:
                    tracer.counters[name + ".errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, tracer.run, threading.get_ident())
                )
            if hook is not None:
                with tracer._lock:
                    hook(tracer.counters, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s layer modules."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrapped = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[value] = self._wrap(f"{layer}.{attr}", value)
        for namespace in [package, *modules]:
            for attr, value in list(vars(namespace).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, wrapped[value])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if inspect.isfunction(entry) and entry in wrapped:
                            self._restore.append((value, key, entry))
                            value[key] = wrapped[entry]

    def restore(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "name", "start", "end", "parent", "run", "thread"],
                 "spans": self.spans},
                fh,
            )


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[tuple]) -> tuple[dict[str, int], dict[str, float], float]:
    """Calls and self time per function name, plus the summed root span time.

    Self time is a span's duration minus the union of its children's
    intervals (clipped to the span), so children running in parallel on
    pool threads are not subtracted twice.
    """
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        children[parent].append((start, end))
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    root_s = 0.0
    for sid, name, start, end, parent, _, _ in spans:
        inner = [(max(a, start), min(b, end))
                 for a, b in children.get(sid, ()) if b > start and a < end]
        calls[name] += 1
        self_s[name] += (end - start) - _union_length(inner)
        if parent == 0:
            root_s += end - start
    return dict(calls), dict(self_s), root_s
