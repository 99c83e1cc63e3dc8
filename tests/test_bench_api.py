"""The package API the benchmark calls must exist and take its arguments.

``perfbench/bench.py`` reaches the package only as ``cs.<name>``, so a
removed or renamed name, or a keyword a function no longer takes, would
only fail a benchmark run.  The file is read as text, unchanged, and every
``cs.<name>`` in it is resolved and every call through one is bound
against the current signature."""

import ast
import inspect
from pathlib import Path

import pytest

import ctrlstab

BENCH_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"
TREE = ast.parse(BENCH_PATH.read_text())


def _is_cs(node) -> bool:
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cs")


NAMES = sorted({node.attr for node in ast.walk(TREE) if _is_cs(node)})
CALLS = [node for node in ast.walk(TREE)
         if isinstance(node, ast.Call) and _is_cs(node.func)]


@pytest.mark.parametrize("name", NAMES)
def test_bench_name_resolves(name):
    assert hasattr(ctrlstab, name)


@pytest.mark.parametrize("call", CALLS,
                         ids=[f"{c.func.attr}@{c.lineno}" for c in CALLS])
def test_bench_call_binds(call):
    assert not any(isinstance(a, ast.Starred) for a in call.args)
    assert all(k.arg is not None for k in call.keywords)
    signature = inspect.signature(getattr(ctrlstab, call.func.attr))
    signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})


def test_bench_passes_the_solver_and_ssc_keywords():
    # the calls the guard above binds, so that it cannot pass vacuously
    keywords = {(c.func.attr, tuple(sorted(k.arg for k in c.keywords)))
                for c in CALLS}
    assert ("solve_kkt", ("options", "u0")) in keywords
    assert ("check_ssc", ("n_samples", "rng")) in keywords
