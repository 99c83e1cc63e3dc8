"""Workloads, timed jobs and correctness gates of the ctrlstab benchmark.

A job is what a user of the package runs: the cold ``solve_kkt`` at the
reference parameter, ``check_ssc`` at that point, then warm-started
re-solves along the sweep direction, each started from the previous
solution as ``run_sweep`` does.  The benchmark calls only the public API
(through the package namespace, so traced runs see the wrapped names).

Every job is re-verified from scratch: each returned point must pass the
``ctrlstab verify`` rule, the second-order check must be positive, every
sweep row must solve, and the cold control norm, the sweep distances and the
SSC minima must match ``reference.json`` to ``GATE_FACTOR * tol``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads: the benchmark is a single caller,
# and on a 2-core machine a second numeric job multiplied solve times by nine.
BLAS_THREADS = 1
BLAS_PINNED = "numpy" not in sys.modules
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import gc
import importlib
import json
import math
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer, layer_of

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

#: Gate tolerance as a multiple of the solver tolerance, relative to
#: ``1 + |reference|``.  A converged point sits within about tol / curvature
#: of the exact one, and the curvature is at least 0.1 on these instances;
#: the other solution branch differs by O(1).
GATE_FACTOR = 1e4

#: Per-layer metrics of a traced run: name -> (unit, better).
LAYER_METRICS = {
    "config.parse_s": ("s", "lower"),
    "config.build_s": ("s", "lower"),
    "geometry.mesh_s": ("s", "lower"),
    "problem.validate_s": ("s", "lower"),
    "geometry.n_vertices": ("count", "lower"),
    "geometry.n_triangles": ("count", "lower"),
    "expr.eval.calls": ("count", "lower"),
    "expr.eval_s": ("s", "lower"),
    "fem.factor.calls": ("count", "lower"),
    "fem.factor_s": ("s", "lower"),
    "fem.factor.repeat_frac": ("ratio", "lower"),
    "fem.band_bytes": ("bytes-computed", "lower"),
    "fem.solve.calls": ("count", "lower"),
    "fem.solve_s": ("s", "lower"),
    "fem.assemble.calls": ("count", "lower"),
    "fem.assemble_s": ("s", "lower"),
    "pde.state.calls": ("count", "lower"),
    "pde.state_s": ("s", "lower"),
    "pde.newton_iters": ("count", "lower"),
    "pde.linop.calls": ("count", "lower"),
    "pde.linop_s": ("s", "lower"),
    "pde.adjoint_s": ("s", "lower"),
    "kkt.residuals.calls": ("count", "lower"),
    "kkt.residuals_s": ("s", "lower"),
    "kkt.partition_s": ("s", "lower"),
    "kkt.multipliers_s": ("s", "lower"),
    "kkt.qform.calls": ("count", "lower"),
    "kkt.qform_s": ("s", "lower"),
    "kkt.ssc.accept_ratio": ("ratio", "higher"),
    "solver.outer_iters": ("count", "lower"),
    "solver.iter_ms": ("ms", "lower"),
    "solver.self_s": ("s", "lower"),
    "stability.sweep_s": ("s", "lower"),
    "stability.rows_ok_frac": ("ratio", "higher"),
    "stability.warm_iter_ratio": ("ratio", "lower"),
    "config.self_s": ("s", "lower"),
    "geometry.self_s": ("s", "lower"),
    "problem.self_s": ("s", "lower"),
    "expr.self_s": ("s", "lower"),
    "fem.self_s": ("s", "lower"),
    "pde.self_s": ("s", "lower"),
    "kkt.self_s": ("s", "lower"),
    "stability.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "resolve_s.p50": "s",
    "ssc_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: layers timed per setup; the others are timed per job
SETUP_LAYERS = ("config", "geometry", "problem")


class BenchError(RuntimeError):
    """The benchmark cannot run here (sources or inputs missing)."""


def load_ctrlstab():
    """Import ctrlstab from the checkout's ``src`` directory, never from an
    installed copy."""
    if not (SRC_DIR / "ctrlstab" / "__init__.py").is_file():
        raise BenchError(f"ctrlstab sources not found under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    module = importlib.import_module("ctrlstab")
    if Path(module.__file__).resolve().parent != SRC_DIR / "ctrlstab":
        raise BenchError(f"ctrlstab imported from {module.__file__}, "
                         f"not from {SRC_DIR}")
    return module


@dataclass(frozen=True)
class Workload:
    name: str
    instance: Path
    amplitudes: tuple
    ssc_samples: int
    setup_repeats: int


def load_workloads() -> dict:
    with open(BENCH_DIR / "workloads.json") as fh:
        raw = json.load(fh)["workloads"]
    return {name: Workload(name=name, instance=BENCH_DIR / w["instance"],
                           amplitudes=tuple(w["amplitudes"]),
                           ssc_samples=int(w["ssc_samples"]),
                           setup_repeats=int(w["setup_repeats"]))
            for name, w in raw.items()}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set-up and jobs
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    config: object
    disc: object
    plan: object


def setup(cs, wl: Workload) -> Setup:
    """Parse, mesh, assemble and admission-check the instance."""
    config = cs.parse_instance(wl.instance)
    disc = cs.build_discretization(config)
    plan = cs.sweep_plan(config, disc)
    return Setup(config, disc, plan)


@dataclass
class Job:
    """A job's results and its timed windows as ``(start, end)`` clock
    readings, so they can be scaled for host speed once the run is over."""

    base: object
    ssc: object
    rows: list          # (t, KktSolveReport or the solver error) in order
    solve: tuple
    ssc_window: tuple
    resolves: list
    wall: tuple

    def solved(self) -> list:
        return [(t, rep) for t, rep in self.rows
                if not isinstance(rep, Exception)]


def run_job(cs, s: Setup, wl: Workload, rng, tracer: Tracer) -> Job:
    """One cold solve, the SSC check and the warm re-solves, timed."""
    options = s.config.solve_options
    clock = time.perf_counter
    with tracer.span("bench.job"):
        start = clock()
        lam = s.disc.param_reference()
        base = cs.solve_kkt(s.disc, lam, options=options)
        solve = (start, clock())

        t0 = clock()
        ssc = cs.check_ssc(s.disc, base.point, n_samples=wl.ssc_samples,
                           rng=rng)
        ssc_window = (t0, clock())

        rows, resolves = [], []
        u_warm = base.point.control.values
        with tracer.span("stability.sweep"):
            for t in wl.amplitudes:
                lam_t = lam.values + t * s.plan.delta.values
                t0 = clock()
                try:
                    rep = cs.solve_kkt(s.disc, lam_t, u0=u_warm,
                                       options=options)
                except (cs.SolverError, cs.PartitionError,
                        cs.StateSolveError, cs.AdmissionError) as exc:
                    rows.append((t, exc))
                    continue
                resolves.append((t0, clock()))
                rows.append((t, rep))
                u_warm = rep.point.control.values
        wall = (start, clock())
    return Job(base=base, ssc=ssc, rows=rows, solve=solve,
               ssc_window=ssc_window, resolves=resolves, wall=wall)


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

_PROBE_X = np.arange(300.0)


def _probe_kernel() -> float:
    """About 0.1 ms of small numpy calls from Python, like the solver's."""
    acc = 0.0
    for i in range(15):
        acc += float(np.sin(_PROBE_X * i) @ _PROBE_X)
    return acc


class HostSpeed:
    """Samples how fast the host is running this process.

    On a shared virtual machine the same code runs up to twice as slow for
    stretches of milliseconds to minutes, which no number of repeats
    averages out of a 30-second run.  While active, a ``SIGALRM`` handler
    times a fixed probe kernel every ``PERIOD`` seconds.  The kernel slows
    with the program around it, so the slowdown of a window is the mean
    probe time inside it over ``PROBE_REF``, and ``scaled`` divides it out.
    Scaled times are seconds of a host on which the probe takes
    ``PROBE_REF``, about the fastest probe seen on the 2-vCPU Xeon VM the
    benchmark was tuned on: they compare across runs and commits, not with
    a wall clock, so the unscaled medians are printed beside them.  A fixed
    reference matters: the run's own fastest probe is itself slow in a busy
    stretch.  Over 14 processes in a light and a busy stretch, the quartile
    spread of one solve's time fell from 0.33 (wall) to 0.04 (scaled).
    """

    PERIOD = 0.02
    PROBE_REF = 100e-6

    def __init__(self):
        self.samples: list = []     # (start, probe seconds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        # CPU time of this thread: a host slowdown stretches it like wall
        # time, but waiting for the interpreter lock or the scheduler does not
        start, cpu = time.perf_counter(), time.thread_time()
        _probe_kernel()
        self.samples.append((start, time.thread_time() - cpu))

    def slowdown(self, window: tuple) -> float:
        """Mean probe time in ``window`` (padded by two periods) over
        ``PROBE_REF``; the nearest probe when none falls inside."""
        t0, t1 = window
        pad = 2.0 * self.PERIOD
        inside = [d for t, d in self.samples if t0 - pad <= t <= t1 + pad]
        if not inside:
            mid = 0.5 * (t0 + t1)
            inside = [min(self.samples, key=lambda p: abs(p[0] - mid))[1]]
        return statistics.mean(inside) / self.PROBE_REF

    def scaled(self, window: tuple) -> float:
        return (window[1] - window[0]) / self.slowdown(window)


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------


def sweep_distances(cs, disc, base, rep) -> list:
    """``[d_L2, d_Linf, d_W1r]`` between a re-solve and the base point, as
    ``run_sweep`` records them."""
    du = rep.point.control.values - base.point.control.values
    dy = rep.point.state.values - base.point.state.values
    return [disc.l2_boundary(du), float(np.max(np.abs(du))),
            cs.norm(cs.FeFunction(disc.mesh, dy), "w1r", disc.problem.r)]


def job_reference(cs, s: Setup, job: Job) -> dict:
    """The values ``check_job`` compares against, taken from ``job``."""
    sub = job.ssc.subspace_min_eig
    return {
        "u_l2": s.disc.l2_boundary(job.base.point.control.values),
        "rows": [[t, *sweep_distances(cs, s.disc, job.base, rep)]
                 for t, rep in job.solved()],
        "subspace_min_eig": sub if math.isfinite(sub) else None,
        "n_strong": job.ssc.n_strong,
    }


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


def check_job(cs, s: Setup, job: Job, ref: dict, tally: Tally) -> None:
    """Count the job's solves, SSC call and sweep rows, and run every gate."""
    tol = s.config.solve_options.tol
    slack = GATE_FACTOR * tol

    def near(value, expected) -> bool:
        return abs(value - expected) <= slack * (1.0 + abs(expected))

    tally.attempted += 2                # the cold solve and check_ssc
    for t, rep in job.rows:
        tally.check(not isinstance(rep, Exception),
                    f"sweep row t={t} failed: {rep}")
    points = [("cold solve", job.base)]
    points += [(f"re-solve t={t}", rep) for t, rep in job.solved()]

    for label, rep in points:
        res = cs.residuals(s.disc, rep.point)
        gap = cs.projection_identity_gap(s.disc, rep.point)
        tally.check(res.worst <= tol and gap <= 10.0 * tol,
                    f"{label}: verify failed (worst residual "
                    f"{res.worst:.3e}, projection gap {gap:.3e}, tol {tol:g})")

    u_l2 = s.disc.l2_boundary(job.base.point.control.values)
    tally.check(near(u_l2, ref["u_l2"]),
                f"cold control norm {u_l2!r} != reference {ref['u_l2']!r}")

    ref_rows = {row[0]: row[1:] for row in ref["rows"]}
    for t, rep in job.solved():
        got = sweep_distances(cs, s.disc, job.base, rep)
        want = ref_rows.get(t)
        tally.check(want is not None and all(map(near, got, want)),
                    f"sweep row t={t}: distances {got} != reference {want}")

    ssc = job.ssc
    tally.check(ssc.positive, f"second-order check not positive: {ssc}")
    sub_ref = ref["subspace_min_eig"]
    if sub_ref is None:
        ok = (math.isinf(ssc.subspace_min_eig)
              and math.isinf(ssc.min_rayleigh))
    else:
        # no constraint is active at these points, so the cone is the whole
        # control space: every sampled Rayleigh value lies in
        # [lambda/2, lambda] for the subspace eigenvalue lambda (the sample
        # norm is ||u|| + ||y||, the eigen-metric ||u||^2 + ||y||^2), and the
        # eigen-direction itself is one of the samples
        ok = (near(ssc.subspace_min_eig, sub_ref)
              and 0.5 * sub_ref - slack <= ssc.min_rayleigh
              <= sub_ref + slack)
    tally.check(ok and ssc.n_strong == ref["n_strong"],
                f"SSC minima (rayleigh {ssc.min_rayleigh!r}, subspace "
                f"{ssc.subspace_min_eig!r}, strong {ssc.n_strong}) do not "
                f"match reference {sub_ref!r} / {ref['n_strong']}")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    metrics: dict
    tally: Tally
    notes: list


def job_rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


def _timed_setups(cs, wl: Workload, tracer: Tracer) -> tuple:
    """``setup_repeats`` set-ups; returns the last and their windows."""
    windows, s = [], None
    for i in range(wl.setup_repeats):
        tracer.run_id = f"setup.{i}"
        with tracer.span("bench.setup"):
            t0 = time.perf_counter()
            s = setup(cs, wl)
            windows.append((t0, time.perf_counter()))
    return s, windows


def _span(windows) -> tuple:
    return windows[0][0], windows[-1][1]


def measure(cs, wl: Workload, seed: int, seconds: float,
            ref: dict) -> RunResult:
    """Untraced run: jobs back to back until the next one would end after
    ``seconds``, with a batch of timed set-ups before each job and after the
    last.  Times are medians of ``HostSpeed``-scaled samples; peak memory is
    read after the first job."""
    tracer = Tracer()
    tally = Tally()
    jobs = []
    with HostSpeed() as host:
        s, setups = _timed_setups(cs, wl, tracer)
        start = time.perf_counter()
        while True:
            gc.collect()
            job = run_job(cs, s, wl, job_rng(seed, len(jobs)), tracer)
            check_job(cs, s, job, ref, tally)
            jobs.append(job)
            if len(jobs) == 1:
                # later set-ups and jobs only grow ctrlstab's mesh-table cache
                rss_mb = peak_rss_mb()
            # more set-ups between jobs spread their samples over the run
            s, more = _timed_setups(cs, wl, tracer)
            setups += more
            elapsed = time.perf_counter() - start
            if elapsed * (len(jobs) + 1) / len(jobs) > seconds:
                break
    windows = {
        "setup_s": setups,
        "solve_s": [j.solve for j in jobs],
        "resolve_s.p50": [w for j in jobs for w in j.resolves],
        "ssc_s": [j.ssc_window for j in jobs],
        "wall_s": [j.wall for j in jobs],
    }
    metrics, raw = {}, {}
    for name, spans in windows.items():
        scaled = [host.scaled(w) for w in spans]
        metrics[name] = statistics.median(scaled) if scaled else math.nan
        raw[name] = (statistics.median(w[1] - w[0] for w in spans)
                     if spans else math.nan)
    metrics["peak_rss_mb"] = rss_mb
    notes = [f"jobs: {len(jobs)} (closed loop, one caller)",
             "samples: " + ", ".join(f"{name} {len(spans)}"
                                     for name, spans in windows.items()),
             f"host: {len(host.samples)} probes, mean slowdown over the run "
             f"{host.slowdown(_span(setups)):.3f}; unscaled medians "
             + ", ".join(f"{name} {value!r}" for name, value in raw.items())]
    q = percentile_with_tail([host.scaled(w)
                              for w in windows["resolve_s.p50"]])
    if q is not None:
        notes.append(f"resolve_s.p{q[0]} = {q[1]!r} s "
                     f"(n={len(windows['resolve_s.p50'])})")
    return RunResult(metrics, tally, notes)


def measure_traced(cs, wl: Workload, seed: int, ref: dict,
                   trace_path: Path) -> RunResult:
    """One untraced job as the overhead baseline, then traced set-ups and
    one traced job; spans are written to ``trace_path`` at the end."""
    tally = Tally()
    plain = Tracer()
    tracer = Tracer()
    with HostSpeed() as host:
        s, _ = _timed_setups(cs, wl, plain)
        gc.collect()
        baseline = run_job(cs, s, wl, job_rng(seed, 0), plain)
        check_job(cs, s, baseline, ref, tally)

        tracer.install()
        try:
            tracer.active = True
            s, setups = _timed_setups(cs, wl, tracer)
            tracer.counts.clear()
            tracer.run_id = "job.0"
            gc.collect()
            job = run_job(cs, s, wl, job_rng(seed, 0), tracer)
            tracer.active = False
            check_job(cs, s, job, ref, tally)
        finally:
            tracer.uninstall()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    metrics = layer_metrics(tracer, wl, s, job)
    # layer times are scaled by their phase's host slowdown, like wall times
    setup_speed = host.slowdown(_span(setups))
    job_speed = host.slowdown(job.wall)
    for name in metrics:
        if LAYER_METRICS[name][0] in ("s", "ms"):
            in_setup = layer_of(name) in SETUP_LAYERS
            metrics[name] /= setup_speed if in_setup else job_speed
    metrics["trace.wall_s"] = host.scaled(job.wall)
    metrics["trace.overhead_s"] = (host.scaled(job.wall)
                                   - host.scaled(baseline.wall))
    notes = [f"spans: {len(tracer.spans)} written to {trace_path}",
             f"host: mean slowdown {job_speed:.3f} in the traced job; "
             f"unscaled job wall {job.wall[1] - job.wall[0]!r} s"]
    return RunResult(metrics, tally, notes)


def layer_metrics(tracer: Tracer, wl: Workload, s: Setup, job: Job) -> dict:
    """Per-layer counts and unscaled times of one traced job and its
    set-ups (time metrics per set-up for the set-up layers)."""
    per_setup = tracer.summary("setup.")
    per_job = tracer.summary("job.")
    k = wl.setup_repeats
    calls, total = per_job["calls"], per_job["total"]
    counts = tracer.counts
    cold_iters = job.base.iterations
    warm_iters = [rep.iterations for _, rep in job.solved()]
    outer = counts["solver.outer_iters"]
    out = {
        "config.parse_s": per_setup["total"]["config.parse"] / k,
        "config.build_s": per_setup["total"]["config.build"] / k,
        "geometry.mesh_s": per_setup["total"]["geometry.mesh"] / k,
        "problem.validate_s": per_setup["total"]["problem.validate"] / k,
        "geometry.n_vertices": s.disc.mesh.n_vertices,
        "geometry.n_triangles": s.disc.mesh.n_triangles,
        "expr.eval.calls": calls["expr.eval"],
        "expr.eval_s": total["expr.eval"],
        "fem.factor.calls": calls["fem.factor"],
        "fem.factor_s": total["fem.factor"],
        "fem.factor.repeat_frac": (counts["fem.factor.repeats"]
                                   / max(calls["fem.factor"], 1)),
        "fem.band_bytes": tracer.band_bytes,
        "fem.solve.calls": calls["fem.solve"],
        "fem.solve_s": total["fem.solve"],
        "fem.assemble.calls": calls["fem.assemble"],
        "fem.assemble_s": total["fem.assemble"],
        "pde.state.calls": calls["pde.state"],
        "pde.state_s": total["pde.state"],
        "pde.newton_iters": counts["pde.newton_iters"],
        "pde.linop.calls": calls["pde.linop"],
        "pde.linop_s": total["pde.linop"],
        "pde.adjoint_s": total["pde.adjoint"],
        "kkt.residuals.calls": calls["kkt.residuals"],
        "kkt.residuals_s": total["kkt.residuals"],
        "kkt.partition_s": total["kkt.partition"],
        "kkt.multipliers_s": total["kkt.multipliers"],
        "kkt.qform.calls": calls["kkt.qform"],
        "kkt.qform_s": total["kkt.qform"],
        "kkt.ssc.accept_ratio": (counts["kkt.ssc.samples"]
                                 / max(counts["kkt.ssc.requested"], 1)),
        "solver.outer_iters": outer,
        "solver.iter_ms": 1e3 * total["solver.solve"] / max(outer, 1),
        "stability.sweep_s": total["stability.sweep"],
        "stability.rows_ok_frac": len(warm_iters) / max(len(job.rows), 1),
        "stability.warm_iter_ratio": (statistics.mean(warm_iters) / cold_iters
                                      if warm_iters else math.nan),
    }
    for name in LAYER_METRICS:
        layer, _, rest = name.partition(".")
        if rest == "self_s":
            summary, scale = ((per_setup, k) if layer in SETUP_LAYERS
                              else (per_job, 1))
            out[name] = summary["self"][layer] / scale
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_with_tail(samples) -> tuple | None:
    """Highest of p99/p95/p90 with at least ten samples above it, as
    ``(percent, value)``."""
    for pct in (99, 95, 90):
        if len(samples) * (100 - pct) / 100.0 >= 10:
            return pct, statistics.quantiles(samples, n=100)[pct - 1]
    return None


__all__ = ["BenchError", "END_TO_END", "GATE_FACTOR", "HostSpeed", "Job",
           "LAYER_METRICS", "RunResult", "Setup", "Tally", "Workload",
           "check_job", "job_reference", "job_rng", "load_ctrlstab",
           "load_reference", "load_workloads", "measure", "measure_traced",
           "run_job", "setup"]
