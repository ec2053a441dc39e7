"""The reproduce script runs end to end on one seed per section."""

import importlib.util
import re
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
