"""INI instance files.

Sections and keys::

    [domain]      n_boundary, refinement, r
    [operator]    a11, a12, a22, a0, c0
    [cost]        L, ell, alpha, beta, gamma
    [state]       h
    [constraints] g_1 ... g_m           (consecutive indices from 1)
    [parameter]   lambda_bar
    [solver]      max_outer, tol, theta                     (all optional)
    [sweep]       delta, t, seed, ssc_samples               (optional section)

The retired keys ``[sweep] warm_start`` and ``[solver] adaptive`` accept
only ``true`` and ``false``: sweeps always warm-start, and a solve runs at
one fixed damping factor.
Coefficient values are expressions in the grammar of :mod:`ctrlstab.expr`;
``t`` is a whitespace- or comma-separated list of step sizes.  The sweep
direction ``delta`` is normalized to sup-norm 1 at the mesh nodes.  Every
violation, including an unknown key in any section and an unknown section,
raises ``ConfigError`` naming the section (and the key).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

import numpy as np

from .expr import Expr, ExprError, parse
from .fem import BoundaryFunction, Discretization
from .geometry import Mesh, make_disk_mesh
from .problem import ProblemSpec
from .solver import SolveOptions
from .stability import SweepPlan, SweepPlanError, _step_sizes


class ConfigError(ValueError):
    """Malformed or inconsistent instance file."""


@dataclass
class SweepConfig:
    delta: Expr
    t_values: np.ndarray
    seed: int
    ssc_samples: int


@dataclass
class InstanceConfig:
    """Parsed instance: problem data, mesh request, solver options, and the
    optional sweep block."""

    problem: ProblemSpec
    n_boundary: int
    refinement: int
    solve_options: SolveOptions
    sweep: SweepConfig | None
    path: str


def _get(cp: configparser.ConfigParser, section: str, key: str,
         required: bool = True) -> str | None:
    if not cp.has_section(section):
        raise ConfigError(f"missing section [{section}]")
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing key '{key}' in [{section}]")
        return None
    return cp.get(section, key)


def _expr(cp, section, key) -> Expr:
    try:
        return parse(_get(cp, section, key))
    except ExprError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _number(cp, section, key, cast, fallback=None):
    raw = _get(cp, section, key, required=fallback is None)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


#: the keys of every section but [constraints] (g_1 .. g_m); those of
#: [solver] are the fields of SolveOptions
_KEYS = {
    "domain": ("n_boundary", "refinement", "r"),
    "operator": ("a11", "a12", "a22", "a0", "c0"),
    "cost": ("L", "ell", "alpha", "beta", "gamma"),
    "state": ("h",),
    "parameter": ("lambda_bar",),
    "solver": tuple(f.name for f in fields(SolveOptions)),
    "sweep": ("delta", "t", "seed", "ssc_samples"),
}
_SECTIONS = (*_KEYS, "constraints")

#: retired keys by section, each with the only value it accepts
_RETIRED = {"solver": {"adaptive": False}, "sweep": {"warm_start": True}}


def _reject_unknown(cp, section, known) -> None:
    # option names are case-folded by the parser, so compare folded names
    allowed = {cp.optionxform(k) for k in known}
    for key in cp.options(section):
        if key not in allowed:
            raise ConfigError(f"[{section}] {key}: unknown key; expected "
                              f"one of {', '.join(known)}")


def parse_instance(path) -> InstanceConfig:
    """Read and validate an instance file (see module docstring)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}]: unknown section; expected one "
                              f"of {', '.join(_SECTIONS)}")
    for section, known in _KEYS.items():
        if not cp.has_section(section):
            continue
        retired = _RETIRED.get(section, {})
        _reject_unknown(cp, section, (*known, *retired))
        for key, only in retired.items():
            try:
                value = cp.getboolean(section, key, fallback=only)
            except ValueError:
                raise ConfigError(f"[{section}] {key}: expected a boolean, "
                                  f"got {cp.get(section, key)!r}") from None
            if value != only:
                raise ConfigError(f"[{section}] {key}: only "
                                  f"{str(only).lower()} is accepted")

    n_boundary = _number(cp, "domain", "n_boundary", int)
    refinement = _number(cp, "domain", "refinement", int, fallback=0)
    r_exp = _number(cp, "domain", "r", float, fallback=3.0)
    if n_boundary < 8:
        raise ConfigError("[domain] n_boundary: must be >= 8")
    if refinement < 0:
        raise ConfigError("[domain] refinement: must be >= 0")

    constraints = []
    if not cp.has_section("constraints"):
        raise ConfigError("missing section [constraints]")
    index = 1
    while cp.has_option("constraints", f"g_{index}"):
        constraints.append(_expr(cp, "constraints", f"g_{index}"))
        index += 1
    extra = set(cp.options("constraints")) - {f"g_{i}"
                                              for i in range(1, index)}
    if extra:
        raise ConfigError(
            f"[constraints]: keys must be g_1..g_m with consecutive "
            f"indices; unexpected {sorted(extra)}")
    if len(constraints) < 2:
        raise ConfigError("[constraints]: need at least g_1 and g_2")

    problem = ProblemSpec(
        a11=_expr(cp, "operator", "a11"),
        a12=_expr(cp, "operator", "a12"),
        a22=_expr(cp, "operator", "a22"),
        a0=_expr(cp, "operator", "a0"),
        c0=_number(cp, "operator", "c0", float),
        obj_domain=_expr(cp, "cost", "L"),
        obj_boundary=_expr(cp, "cost", "ell"),
        alpha=_expr(cp, "cost", "alpha"),
        beta=_expr(cp, "cost", "beta"),
        gamma=_number(cp, "cost", "gamma", float),
        reaction=_expr(cp, "state", "h"),
        constraints=tuple(constraints),
        param_ref=_expr(cp, "parameter", "lambda_bar"),
        r=r_exp,
        name=str(path),
    )

    options = SolveOptions()
    if cp.has_section("solver"):
        # the keys, their types and their defaults are those of SolveOptions
        knobs = {f.name: _number(cp, "solver", f.name, type(f.default))
                 for f in fields(SolveOptions)
                 if cp.has_option("solver", f.name)}
        try:
            options = SolveOptions(**knobs)
        except ValueError as exc:
            # SolveOptions names the offending key first
            raise ConfigError(f"[solver] {exc}") from exc

    sweep = None
    if cp.has_section("sweep"):
        t_raw = _get(cp, "sweep", "t").replace(",", " ").split()
        try:
            t_values = _step_sizes([float(v) for v in t_raw], "[sweep] t")
        except SweepPlanError as exc:
            raise ConfigError(str(exc)) from exc
        except ValueError as exc:
            raise ConfigError(f"[sweep] t: {exc}") from exc
        delta = _expr(cp, "sweep", "delta")
        bad = delta.free_vars() - {"x1", "x2", "s"}
        if bad:
            raise ConfigError(f"[sweep] delta: may only use x1, x2, s; "
                              f"found {sorted(bad)}")
        sweep = SweepConfig(
            delta=delta,
            t_values=t_values,
            seed=_number(cp, "sweep", "seed", int, fallback=0),
            ssc_samples=_number(cp, "sweep", "ssc_samples", int,
                                fallback=200),
        )
    return InstanceConfig(problem=problem, n_boundary=n_boundary,
                          refinement=refinement, solve_options=options,
                          sweep=sweep, path=str(path))


def build_mesh(config: InstanceConfig) -> Mesh:
    return make_disk_mesh(config.n_boundary, config.refinement)


def build_discretization(config: InstanceConfig) -> Discretization:
    """Mesh the instance and run all admission gates."""
    return Discretization(config.problem, build_mesh(config))


def sweep_plan(config: InstanceConfig, disc: Discretization,
               seed: int | None = None) -> SweepPlan:
    """Realize the [sweep] section on the mesh: evaluate delta at the
    boundary nodes and normalize it to sup-norm 1."""
    if config.sweep is None:
        raise ConfigError("instance file has no [sweep] section")
    vals = disc.eval_node(config.sweep.delta)
    if not np.all(np.isfinite(vals)):
        raise ConfigError("[sweep] delta: direction is not finite at a "
                          "boundary node")
    sup = float(np.max(np.abs(vals)))
    if sup <= 0.0:
        raise ConfigError("[sweep] delta: direction vanishes at every "
                          "boundary node")
    delta = BoundaryFunction(disc.mesh, vals / sup)
    try:
        return SweepPlan(delta=delta, t_values=config.sweep.t_values,
                         seed=config.sweep.seed if seed is None else seed,
                         ssc_samples=config.sweep.ssc_samples)
    except SweepPlanError as exc:
        raise ConfigError(f"[sweep] {exc}") from exc


__all__ = ["ConfigError", "SweepConfig", "InstanceConfig", "parse_instance",
           "build_mesh", "build_discretization", "sweep_plan"]
