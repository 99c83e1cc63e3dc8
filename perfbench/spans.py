"""Span recorder and the wrappers that time ctrlstab's public functions.

The wrappers live here, outside the package: ``Tracer.install`` replaces
each target function in every ``ctrlstab`` module that holds a binding to
it (``solver`` and ``kkt`` bind names at import, e.g. ``from .pde import
solve_state``), and patches methods on their classes.  ``uninstall`` puts
the originals back.  While ``active`` is false the wrappers call straight
through, so correctness checks run between traced phases stay untimed.

Spans are kept in memory as ``[span_id, name, start, end, parent_id,
run_id]`` and written once at the end of the run.  The layer of a span is
the prefix of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np
from scipy.sparse.csgraph import reverse_cuthill_mckee

PACKAGE = "ctrlstab"

#: (span name, module, attribute); ``Class.method`` patches the class.
TARGETS = (
    ("config.parse", "config", "parse_instance"),
    ("config.build", "config", "build_discretization"),
    ("config.plan", "config", "sweep_plan"),
    ("geometry.mesh", "geometry", "make_disk_mesh"),
    ("problem.validate", "problem", "ProblemSpec.validate"),
    ("expr.eval", "fem", "Discretization.eval_dom"),
    ("expr.eval", "fem", "Discretization.eval_bnd"),
    ("expr.eval", "fem", "Discretization.eval_node"),
    ("fem.factor", "fem", "SpdFactorization.__init__"),
    ("fem.solve", "fem", "solve_spd"),
    ("fem.assemble", "fem", "Discretization.domain_mass_weighted"),
    ("fem.assemble", "fem", "Discretization.boundary_mass_weighted"),
    ("pde.state", "pde", "solve_state"),
    ("pde.linop", "pde", "linearized_operator"),
    ("pde.adjoint", "pde", "solve_adjoint"),
    ("kkt.residuals", "kkt", "residuals"),
    ("kkt.partition", "kkt", "partition_at"),
    ("kkt.multipliers", "kkt", "recover_multipliers"),
    ("kkt.qform", "kkt", "quadratic_form"),
    ("kkt.ssc", "kkt", "check_ssc"),
    ("solver.solve", "solver", "solve_kkt"),
)

#: spans that open a fresh scope for factorization repeat detection
SOLVE_SCOPES = ("solver.solve", "kkt.ssc")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _matrix_key(matrix, with_values: bool) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray(matrix.shape).tobytes())
    h.update(matrix.indptr.tobytes())
    h.update(matrix.indices.tobytes())
    if with_values:
        h.update(matrix.data.tobytes())
    return h.digest()


def band_bytes(matrix) -> int:
    """Bytes of the banded Cholesky factor after reverse Cuthill-McKee
    reordering, computed from the bandwidth: ``(bw + 1) * n * 8``."""
    perm = reverse_cuthill_mckee(matrix, symmetric_mode=True)
    rank = np.empty_like(perm)
    rank[perm] = np.arange(len(perm))
    coo = matrix.tocoo()
    bw = int(np.max(np.abs(rank[coo.row] - rank[coo.col]))) if coo.nnz else 0
    return (bw + 1) * matrix.shape[0] * 8


class Tracer:
    """In-memory spans plus the counters read off return values."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.active = False
        self.run_id = ""
        self._stack: list = []
        self._undo: list = []
        self._scope_depth = 0
        self._scope_keys: set = set()
        self._band: dict = {}

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, name, time.perf_counter(), math.nan, parent,
                           self.run_id])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    # -- counters fed from call results ---------------------------------------

    def _after(self, name: str, bound, result) -> None:
        if name == "solver.solve":
            self.counts["solver.outer_iters"] += result.iterations
        elif name == "pde.state":
            self.counts["pde.newton_iters"] += result.iterations
        elif name == "kkt.ssc":
            self.counts["kkt.ssc.samples"] += result.n_samples
            self.counts["kkt.ssc.requested"] += bound.arguments["n_samples"]
        elif name == "fem.factor":
            matrix = bound.arguments["self"].matrix
            key = _matrix_key(matrix, with_values=True)
            if key in self._scope_keys:
                self.counts["fem.factor.repeats"] += 1
            self._scope_keys.add(key)
            pattern = _matrix_key(matrix, with_values=False)
            if pattern not in self._band:
                self._band[pattern] = band_bytes(matrix)

    @property
    def band_bytes(self) -> int:
        return max(self._band.values(), default=0)

    def _wrap(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn)
        needs_args = name in ("kkt.ssc", "fem.factor")
        scoped = name in SOLVE_SCOPES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if scoped:
                if tracer._scope_depth == 0:
                    tracer._scope_keys.clear()
                tracer._scope_depth += 1
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
                if scoped:
                    tracer._scope_depth -= 1
            bound = None
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            tracer._after(name, bound, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; rebinding covers all loaded package modules."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner_name, _, attr_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr_name]
                self._undo.append((owner, attr_name, original))
                setattr(owner, attr_name, self._wrap(name, original))
                continue
            original = getattr(module, attr_name)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        self.active = False

    # -- reports --------------------------------------------------------------

    def summary(self, run_prefix: str) -> dict:
        """Per span name: calls, inclusive seconds; per layer: self seconds.

        Only spans whose run id starts with ``run_prefix`` count.  Self time
        is a span's duration minus the durations of its direct children.
        """
        chosen = [s for s in self.spans if s[5].startswith(run_prefix)]
        child = defaultdict(float)
        for sid, _, start, end, parent, _ in chosen:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        total = defaultdict(float)
        self_s = defaultdict(float)
        for sid, name, start, end, _, _ in chosen:
            calls[name] += 1
            total[name] += end - start
            self_s[layer_of(name)] += end - start - child[sid]
        return {"calls": calls, "total": total, "self": self_s}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run_id}) + "\n")


__all__ = ["TARGETS", "Tracer", "band_bytes", "layer_of"]
