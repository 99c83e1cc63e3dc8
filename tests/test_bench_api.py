"""The package API the benchmark calls must exist and take its arguments,
and the package exports no function that only the tests call.

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

from conftest import load_spans

ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = ROOT / "perfbench" / "bench.py"
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


def _referenced_names(path) -> set:
    # names read as code: docstrings, ``__all__`` strings and import
    # statements are not Name or Attribute nodes, so they do not count
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_exported_function_has_a_caller():
    # a function that neither the package, its CLI nor the benchmark calls
    # is a test reference, and belongs in tests/oracles.py; the benchmark
    # tracer's targets stay until the library emits its own events
    used = _referenced_names(BENCH_PATH) | {
        attr.rpartition(".")[2] for _, _, attr in load_spans().TARGETS}
    for path in sorted((ROOT / "src" / "ctrlstab").glob("*.py")):
        used |= _referenced_names(path)
    exported = [name for name in ctrlstab.__all__
                if inspect.isfunction(getattr(ctrlstab, name))]
    assert len(exported) > 20
    assert [name for name in exported if name not in used] == []
