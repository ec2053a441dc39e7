"""The reproduce script runs end to end on one seed per section; the output
comparison script finds what differs between two source trees; the line
tracer lists the statements a call leaves unexecuted."""

import importlib.util
import inspect
import re
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_benchmarks.py"

# section -> (arguments, a line fragment it prints on data seed 0)
SECTIONS = {
    "run_linear": ((1,), "mean correlations over 1 seeds"),
    "run_significance": ((1,), "3 components detected at alpha=0.01: 1/1 seeds"),
    "run_held_out": ((1,), "every component >= its bound"),
    "run_regularized": ((1,), "grid cells that failed on some fold: 0/225"),
    "run_kernel": ((1,), "planted signal <-> image pair alignment: 1/1 seeds"),
    "run_reduced_kernel": ((1,), ", m_a "),
    "run_sparse": ((1,), "recovered with correlations >= 0.85: 1/1 seeds"),
    "run_primal_dual": ((), "best basis column 30"),
}


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("reproduce_benchmarks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_section_runs_and_reports(script, capsys, name):
    args, fragment = SECTIONS[name]
    getattr(script, name)(*args)
    out = capsys.readouterr().out
    assert out.startswith("\n== ")
    assert fragment in out


def test_primal_dual_section_prints_its_certificate(script, capsys):
    script.run_primal_dual()
    match = re.search(r"(\d+) active-set steps, KKT violation (\S+) \(converged\)",
                      capsys.readouterr().out)
    assert match is not None
    assert 0 < int(match[1]) and float(match[2]) <= 1e-9


def test_sparse_section_prints_its_budget_gap(script, capsys):
    script.run_sparse(1)
    match = re.search(r"worst \|1-norm - budget\| over the weights: (\S+)", capsys.readouterr().out)
    assert match is not None
    assert float(match[1]) <= 1e-12


COMPARE = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def source_copy(tmp_path):
    """A copy of this checkout's ``src`` tree."""
    copy = tmp_path / "copy"
    shutil.copytree(COMPARE.parents[1] / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


@pytest.fixture(scope="module")
def cheap_runs(compare_outputs):
    """cli_quick's ``simulate`` at data seed 0, the cheapest benchmark invocation."""
    return [(f"cli_quick/{inv.name}", inv.argv)
            for inv in compare_outputs.invocations("cli_quick", 0) if inv.label == "simulate"]


def test_compare_outputs_finds_no_difference_against_a_copy(compare_outputs, source_copy,
                                                            cheap_runs):
    assert len(cheap_runs) == 1
    assert compare_outputs.compare(COMPARE.parents[1], source_copy, cheap_runs) == []


def test_compare_outputs_reports_a_changed_report(compare_outputs, source_copy, cheap_runs):
    init = source_copy / "src" / "cancorr" / "__init__.py"
    init.write_text(re.sub(r'__version__ = "[^"]*"', '__version__ = "0.0.0-changed"',
                           init.read_text()))
    report = compare_outputs.compare(COMPARE.parents[1], source_copy, cheap_runs)
    assert "== .bench_out/cli_quick/simulate-s0/report.json" in report
    assert '+  "version": "0.0.0-changed"' in report


def test_compare_outputs_plans_each_invocation_once(compare_outputs):
    # sparse_scan at data seeds 0 and 1 shares the scans of data seeds 1 and 2
    names = [name for name, _ in compare_outputs.command_lines([0, 1], [])]
    assert len(names) == len(set(names))
    assert [name for name in names if name.startswith("sparse_scan/")] == [
        f"sparse_scan/pdscca-s{s}" for s in (0, 1, 2, 3)]
    # every solver route runs once at each seed, under its own name
    routes = [name for name in names if name.startswith("extra/")]
    assert len(routes) == 2 * len(compare_outputs.SOLVER_ROUTES)
    for route in compare_outputs.SOLVER_ROUTES:
        stem = f"extra/{'_'.join(route.split())}"
        assert [name for name in routes if name.rsplit("-s", 1)[0] == stem] == [
            f"{stem}-s{s}" for s in (0, 1)]
    # an --extra line that repeats a route adds no run
    extra = compare_outputs.command_lines([3], ["pdscca --recipe example10 --basis 23"])
    assert extra == compare_outputs.command_lines([3], [])
    basis = [argv for name, argv in extra if "--basis" in argv]
    assert len(basis) == 1 and basis[0][-4:] == (
        "--seed", "3", "--out", ".compare_out/extra/pdscca_--recipe_example10_--basis_23-s3")
    added = compare_outputs.command_lines([3], ["fit --recipe example9"])
    assert added[-1][1][-4:] == ("--seed", "3", "--out",
                                 ".compare_out/extra/fit_--recipe_example9-s3")


UNEXECUTED = Path(__file__).resolve().parents[1] / "scripts" / "unexecuted_lines.py"


def test_unexecuted_lines_lists_the_statements_a_call_skips():
    from cancorr import numerics

    spec = importlib.util.spec_from_file_location("unexecuted_lines", UNEXECUTED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    body, first = inspect.getsourcelines(numerics.chi2_quantile)
    lines = {kind: [f"src/cancorr/numerics.py:{first + i}"
                    for i, line in enumerate(body) if line.lstrip().startswith(kind)]
             for kind in ("raise", "return")}
    assert len(lines["raise"]) == 2 and len(lines["return"]) == 1
    missed = module.unexecuted(lambda: numerics.chi2_quantile(0.5, 2))
    assert set(lines["raise"]) <= set(missed)
    assert lines["return"][0] not in missed
    # the docstring is no statement
    assert f"src/cancorr/numerics.py:{first + 1}" not in missed


CODE_LINES = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"


def test_code_lines_counts_only_code():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    source = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """Function docstring."""

    total = (x +
             1)
    note = """a string
    that is code"""
    return total, note


class C:
    """Class docstring
    on two lines."""

    value = [
        # a comment inside brackets
        1,
    ]
'''
    # import, def, two lines of total, two of note, return, class, three of value
    assert module.code_lines(source) == 11
