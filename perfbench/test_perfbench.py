"""Checks of the benchmark itself, on shrunken copies of its workloads.

    python3 -m pytest perfbench -q

Traced count metrics repeat exactly, the factorization repeat share tells the
linear reaction from the cubic one, the wrappers come off cleanly, and the
correctness gate fires on a corrupted point and on a wrong reference.
"""

import copy
import dataclasses
import json
import shutil
import signal
import subprocess
import sys

import pytest

import bench
from spans import Tracer

COUNT_METRICS = ("solver.outer_iters", "pde.newton_iters", "fem.factor.calls",
                 "fem.factor.repeat_frac", "kkt.ssc.accept_ratio",
                 "fem.band_bytes")


@pytest.fixture(scope="module")
def cs():
    return bench.load_ctrlstab()


def shrink(tmp_path, name, replace, **fields) -> bench.Workload:
    """A copy of workload ``name`` with its INI text edited by ``replace``
    (old -> new) and its fields overridden."""
    wl = bench.load_workloads()[name]
    text = wl.instance.read_text()
    for old, new in replace.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    return dataclasses.replace(wl, instance=path, **fields)


@pytest.fixture
def cubic(tmp_path):
    """fine_sweep on the unrefined mesh: h = y + y^3, 353 vertices."""
    return shrink(tmp_path, "fine_sweep", {"refinement = 2": "refinement = 0"},
                  setup_repeats=2)


@pytest.fixture
def linear(tmp_path):
    """ssc_sample with a short sample run: h = y, a nonempty cone."""
    return shrink(tmp_path, "ssc_sample", {}, ssc_samples=150,
                  setup_repeats=2)


def reference_for(cs, wl):
    s = bench.setup(cs, wl)
    job = bench.run_job(cs, s, wl, bench.job_rng(0, 0), Tracer())
    return s, job, bench.job_reference(cs, s, job)


@pytest.mark.parametrize("which", ["cubic", "linear"])
def test_traced_counts_repeat_exactly(cs, request, tmp_path, which):
    wl = request.getfixturevalue(which)
    _, _, ref = reference_for(cs, wl)
    runs = [bench.measure_traced(cs, wl, seed, ref, tmp_path / f"t{seed}")
            for seed in (5, 6)]
    for run in runs:
        assert set(run.metrics) == set(bench.LAYER_METRICS)
        assert run.tally.failed == 0, run.tally.messages
    for name in COUNT_METRICS:
        assert runs[0].metrics[name] == runs[1].metrics[name], name
    assert runs[0].metrics["solver.outer_iters"] > 0
    frac = runs[0].metrics["fem.factor.repeat_frac"]
    if which == "linear":
        # h = y: every Jacobian in a solve is the same matrix
        assert frac > 0.95
        assert runs[0].metrics["kkt.ssc.accept_ratio"] > 0.0
    else:
        # the Jacobian moves with the state between Newton steps
        assert 0.2 < frac < 0.9


def test_wrappers_rebind_imported_names_and_come_off(cs):
    originals = (cs.solver.solve_state, cs.kkt.quadratic_form,
                 cs.fem.Discretization.eval_dom, cs.solve_kkt)
    tracer = Tracer()
    tracer.install()
    try:
        # solver binds solve_state at import; the package re-exports solve_kkt
        assert cs.solver.solve_state is not originals[0]
        assert cs.solver.solve_state is cs.pde.solve_state
        assert cs.kkt.quadratic_form is not originals[1]
        assert cs.fem.Discretization.eval_dom is not originals[2]
        assert cs.solve_kkt is cs.stability.solve_kkt is cs.solver.solve_kkt
        assert cs.solve_kkt is not originals[3]
    finally:
        tracer.uninstall()
    assert (cs.solver.solve_state, cs.kkt.quadratic_form,
            cs.fem.Discretization.eval_dom, cs.solve_kkt) == originals
    assert tracer.spans == []


def test_gate_fires_on_corrupted_point_and_wrong_reference(cs, cubic):
    s, job, ref = reference_for(cs, cubic)
    clean = bench.Tally()
    bench.check_job(cs, s, job, ref, clean)
    assert clean.failed == 0 and clean.attempted > 0

    bad_job = copy.deepcopy(job)
    bad_job.base.point.control.values[3] += 1e-3
    corrupted = bench.Tally()
    bench.check_job(cs, s, bad_job, ref, corrupted)
    assert any("cold solve: verify failed" in m for m in corrupted.messages)

    # a point on another branch shows up as distances far from reference
    other = copy.deepcopy(ref)
    other["rows"][0][1] *= 1.5
    other["u_l2"] += 0.1
    wrong = bench.Tally()
    bench.check_job(cs, s, job, other, wrong)
    assert wrong.failed == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fold_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
    assert "ctrlstab sources not found" in proc.stderr


def test_benchmark_json_matches_the_code():
    doc = json.loads((bench.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    spec = json.loads((bench.BENCH_DIR / "workloads.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(name, w["why"]) for name, w in spec["workloads"].items()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == bench.LAYER_METRICS
    # every layer metric but the tracing totals names the end-to-end metric
    # it should move
    named = {m for m in bench.LAYER_METRICS if not m.startswith("trace.")}
    assert named == set(spec["layer_targets"])


def test_host_speed_divides_out_a_slow_stretch():
    before = signal.getsignal(signal.SIGALRM)
    with bench.HostSpeed() as host:
        pass
    assert signal.getsignal(signal.SIGALRM) is before
    # probes at the reference speed before t = 10, twice as slow after
    ref = bench.HostSpeed.PROBE_REF
    host.samples = ([(0.1 * i, ref) for i in range(100)]
                    + [(10.0 + 0.1 * i, 2.0 * ref) for i in range(100)])
    assert host.scaled((1.0, 5.0)) == pytest.approx(4.0)
    assert host.scaled((12.0, 16.0)) == pytest.approx(2.0)
    assert host.scaled((100.0, 100.5)) == pytest.approx(0.25)
