"""Instance file parsing and validation, point file round trips, and the
command line subcommands driven in process through ``main``."""

import json
import re

import numpy as np
import pytest

from ctrlstab import (AdmissionError, ConfigError, build_discretization,
                      build_mesh, make_disk_mesh, parse_instance, solve_kkt,
                      sweep_plan)
from ctrlstab import cli, stability
from ctrlstab.cli import PointFileError, load_point, main, save_point
from ctrlstab.geometry import mesh_hash, mesh_text
from ctrlstab.kkt import KktPoint
from ctrlstab.fem import BoundaryFunction, FeFunction
from ctrlstab.solver import SolveOptions

from conftest import CONFIG_DIR

BASE = {
    "domain": {"n_boundary": "16", "refinement": "0", "r": "3.0"},
    "operator": {"a11": "1", "a12": "0", "a22": "1", "a0": "1", "c0": "1.0"},
    "cost": {"L": "0.5*(y - 1)^2", "ell": "0", "alpha": "lam", "beta": "1",
             "gamma": "0.5"},
    "state": {"h": "y"},
    "constraints": {"g_1": "y - 0.05", "g_2": "y - 1.05"},
    "parameter": {"lambda_bar": "0"},
    "solver": {"max_outer": "300", "tol": "1e-10"},
}


def write_ini(path, drop=(), **section_overrides):
    """Render the base instance with per-section overrides; ``drop`` lists
    'section' or 'section.key' entries to remove."""
    data = {k: dict(v) for k, v in BASE.items()}
    for sec, kv in section_overrides.items():
        data.setdefault(sec, {}).update(kv)
    for item in drop:
        sec, _, key = item.partition(".")
        if key:
            data[sec].pop(key, None)
        else:
            data.pop(sec, None)
    lines = []
    for sec, kv in data.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return str(path)


#: constraints whose first binds on part of the boundary at the solution
MIXED = {"g_1": "y - 0.55 + 0.5*sin(s)", "g_2": "y - 3"}

SWEEP_SMALL = {"delta": "1", "t": "0.01 0.02 0.04 0.08", "seed": "0",
               "ssc_samples": "100"}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_shipped_configs_parse_and_build():
    # the benchmark's instance files too: they carry retired keys, and an
    # instance file that stops parsing fails every benchmark set-up
    paths = [*sorted(CONFIG_DIR.glob("*.ini")),
             *sorted((CONFIG_DIR.parent / "perfbench" / "instances")
                     .glob("*.ini"))]
    assert len(paths) == 9
    for path in paths:
        cfg = parse_instance(path)
        disc = build_discretization(cfg)
        # each refinement level halves every boundary edge
        split = 2 ** cfg.refinement
        assert disc.mesh.n_boundary == cfg.n_boundary * split, path
        assert cfg.problem.m == 2, path


def test_reference_fields():
    cfg = parse_instance(CONFIG_DIR / "lq_reference.ini")
    assert cfg.n_boundary == 64
    assert cfg.refinement == 0
    assert cfg.problem.r == 3.0
    assert cfg.problem.gamma == 0.5
    assert cfg.solve_options.tol == 1e-9
    assert cfg.solve_options.max_outer == 200
    assert cfg.sweep is not None
    assert list(cfg.sweep.t_values) == [0.001, 0.003, 0.01, 0.03, 0.1]
    assert cfg.sweep.ssc_samples == 120


def test_defaults_without_optional_sections(tmp_path):
    path = write_ini(tmp_path / "i.ini", drop=("solver",))
    cfg = parse_instance(path)
    assert cfg.solve_options.max_outer == 200
    assert cfg.solve_options.tol == 1e-9
    assert cfg.sweep is None
    assert cfg.refinement == 0
    # keys absent from a [solver] section keep the SolveOptions defaults
    partial = parse_instance(write_ini(tmp_path / "p.ini"))
    assert partial.solve_options == SolveOptions(max_outer=300, tol=1e-10)


@pytest.mark.parametrize("drop,needle", [
    (("state",), "missing section [state]"),
    (("cost.gamma",), "missing key 'gamma' in [cost]"),
    (("constraints.g_2",), "need at least g_1 and g_2"),
    (("parameter",), "missing section [parameter]"),
])
def test_missing_pieces_are_named(tmp_path, drop, needle):
    path = write_ini(tmp_path / "i.ini", drop=drop)
    with pytest.raises(ConfigError) as err:
        parse_instance(path)
    assert needle in str(err.value)


@pytest.mark.parametrize("overrides,needle", [
    ({"cost": {"L": "y +"}}, "[cost] L:"),
    ({"operator": {"c0": "abc"}}, "[operator] c0:"),
    ({"domain": {"n_boundary": "6"}}, "[domain] n_boundary"),
    ({"domain": {"refinement": "-1"}}, "[domain] refinement"),
    ({"constraints": {"g_4": "y"}}, "consecutive"),
    ({"constraints": {"weird": "y"}}, "consecutive"),
    ({"solver": {"adaptive": "maybe"}}, "expected a boolean"),
    ({"sweep": {**SWEEP_SMALL, "t": "0.01 0.02"}}, "at least 4"),
    ({"sweep": {**SWEEP_SMALL, "t": "0.04 0.02 0.01 0.08"}}, "increasing"),
    ({"sweep": {**SWEEP_SMALL, "delta": "sin(y)"}}, "may only use x1, x2, s"),
    ({"solver": {"max_outr": "5"}}, "[solver] max_outr: unknown key"),
    ({"sweep": {**SWEEP_SMALL, "samples": "500"}},
     "[sweep] samples: unknown key"),
    ({"domain": {"refinment": "2"}}, "[domain] refinment: unknown key"),
    ({"cost": {"Lx": "0"}}, "[cost] lx: unknown key"),
    ({"solvr": {"tol": "1e-3"}}, "[solvr]: unknown section"),
    # the damping floor and the Newton settings are solver constants
    ({"solver": {"theta_min": "0.01"}},
     "[solver] theta_min: unknown key; expected one of max_outer, tol, "
     "theta, adaptive"),
    ({"solver": {"newton_tol": "1e-12"}}, "[solver] newton_tol: unknown key"),
    ({"solver": {"newton_max_iter": "20"}},
     "[solver] newton_max_iter: unknown key"),
    # constants outside the float range, as a literal or folded
    ({"cost": {"L": "10^400*y"}}, "[cost] L: constant overflows"),
    ({"cost": {"L": "1e308*10*y"}}, "[cost] L: constant overflows"),
    ({"state": {"h": "y + 1e400"}}, "[state] h: constant overflows"),
])
def test_bad_values_are_named(tmp_path, overrides, needle):
    path = write_ini(tmp_path / "i.ini", **overrides)
    with pytest.raises(ConfigError) as err:
        parse_instance(path)
    assert needle in str(err.value)


@pytest.mark.parametrize("section,key,kept,other,attr", [
    ("sweep", "warm_start", "true", "false", "sweep"),
    ("solver", "adaptive", "false", "true", "solve_options"),
], ids=["sweep-warm_start", "solver-adaptive"])
def test_retired_keys_take_one_value(tmp_path, section, key, kept, other,
                                     attr):
    # sweeps always warm-start and a solve runs at one damping factor:
    # older files may still say so, but a file asking for cold starts or
    # adaptive damping must not get the other silently
    def ini(name, value):
        overrides = {"sweep": dict(SWEEP_SMALL)}
        overrides.setdefault(section, {})[key] = value
        return write_ini(tmp_path / name, **overrides)

    assert not hasattr(getattr(parse_instance(ini("k.ini", kept)), attr),
                       key)
    with pytest.raises(ConfigError,
                       match=rf"\[{section}\] {key}: only {kept} is"):
        parse_instance(ini("o.ini", other))


def test_c_0_is_an_unknown_key(tmp_path):
    # beside c0, a c_0 spelling would be silently dropped: c0 is the only key
    path = write_ini(tmp_path / "i.ini", operator={"c_0": "0.25"})
    with pytest.raises(ConfigError, match=r"\[operator\] c_0: unknown key"):
        parse_instance(path)


def test_unreadable_path_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_instance(tmp_path / "nope.ini")


def test_admission_runs_at_build_not_parse(tmp_path):
    path = write_ini(tmp_path / "i.ini", state={"h": "-y"})
    cfg = parse_instance(path)
    with pytest.raises(AdmissionError):
        build_discretization(cfg)


def test_sweep_plan_normalizes_direction(tmp_path):
    path = write_ini(tmp_path / "i.ini",
                     sweep={**SWEEP_SMALL, "delta": "2*sin(s)"})
    cfg = parse_instance(path)
    disc = build_discretization(cfg)
    plan = sweep_plan(cfg, disc)
    vals = plan.delta.values
    assert float(np.max(np.abs(vals))) == 1.0
    raw = np.sin(disc.mesh.boundary_s)
    assert np.allclose(vals * np.max(np.abs(raw)), raw, atol=1e-15)
    override = sweep_plan(cfg, disc, seed=9)
    assert override.seed == 9 and plan.seed == 0


def test_sweep_plan_requires_section_and_nonzero_delta(tmp_path):
    cfg = parse_instance(write_ini(tmp_path / "a.ini"))
    disc = build_discretization(cfg)
    with pytest.raises(ConfigError, match="no \\[sweep\\] section"):
        sweep_plan(cfg, disc)
    cfg0 = parse_instance(write_ini(tmp_path / "b.ini",
                                    sweep={**SWEEP_SMALL, "delta": "0"}))
    with pytest.raises(ConfigError, match="vanishes"):
        sweep_plan(cfg0, build_discretization(cfg0))
    cfg50 = parse_instance(write_ini(tmp_path / "c.ini",
                                     sweep={**SWEEP_SMALL,
                                            "ssc_samples": "50"}))
    with pytest.raises(ConfigError, match=r"\[sweep\] ssc_samples: must be"):
        sweep_plan(cfg50, build_discretization(cfg50))


# ---------------------------------------------------------------------------
# point files
# ---------------------------------------------------------------------------


def _random_point(disc, rng):
    mesh = disc.mesh
    return KktPoint(
        state=FeFunction(mesh, rng.standard_normal(mesh.n_vertices)),
        control=BoundaryFunction(mesh, rng.standard_normal(mesh.n_boundary)),
        adjoint=FeFunction(mesh, rng.standard_normal(mesh.n_vertices)),
        multipliers=rng.standard_normal((disc.problem.m, mesh.n_boundary)),
        param=BoundaryFunction(mesh, np.zeros(mesh.n_boundary)))


@pytest.fixture()
def small_disc(tmp_path):
    cfg = parse_instance(write_ini(tmp_path / "inst.ini"))
    return build_discretization(cfg)


def test_point_file_round_trip(small_disc, tmp_path, rng):
    point = _random_point(small_disc, rng)
    path = tmp_path / "point.txt"
    save_point(point, path)
    lam = BoundaryFunction(small_disc.mesh,
                           np.zeros(small_disc.mesh.n_boundary))
    back = load_point(path, small_disc, lam)
    assert np.array_equal(back.state.values, point.state.values)
    assert np.array_equal(back.control.values, point.control.values)
    assert np.array_equal(back.adjoint.values, point.adjoint.values)
    assert np.array_equal(back.multipliers, point.multipliers)


def _tamper(path, mutate):
    lines = path.read_text().splitlines()
    lines = mutate(lines)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("mutate,needle", [
    (lambda ls: ls[1:], "missing point header"),
    (lambda ls: [ls[0].replace("mesh=", "mesh=dead")] + ls[1:], "mesh hash"),
    (lambda ls: ls[:-1], "expected"),
    (lambda ls: [ls[0]] + ["abc"] + ls[2:], "could not convert"),
    (lambda ls: [ls[0]] + ["nan"] + ls[2:], "non-finite"),
    (lambda ls: [ls[0].replace("constraints=2", "constraints=3")] + ls[1:],
     "header sizes"),
    (lambda ls: [ls[0].replace(" constraints=2", "")] + ls[1:],
     "header lacks 'constraints'"),
    (lambda ls: [ls[0].replace("vertices=", "vertices=x")] + ls[1:],
     "header sizes: invalid literal"),
])
def test_corrupt_point_files_rejected(small_disc, tmp_path, rng,
                                      mutate, needle):
    path = tmp_path / "point.txt"
    save_point(_random_point(small_disc, rng), path)
    _tamper(path, mutate)
    lam = BoundaryFunction(small_disc.mesh,
                           np.zeros(small_disc.mesh.n_boundary))
    with pytest.raises(PointFileError) as err:
        load_point(path, small_disc, lam)
    assert needle in str(err.value)


def test_point_from_other_mesh_rejected(small_disc, tmp_path, rng):
    other = make_disk_mesh(32, 0)
    point = KktPoint(
        state=FeFunction(other, np.zeros(other.n_vertices)),
        control=BoundaryFunction(other, np.zeros(other.n_boundary)),
        adjoint=FeFunction(other, np.zeros(other.n_vertices)),
        multipliers=np.zeros((2, other.n_boundary)),
        param=BoundaryFunction(other, np.zeros(other.n_boundary)))
    path = tmp_path / "point.txt"
    save_point(point, path)
    lam = BoundaryFunction(small_disc.mesh,
                           np.zeros(small_disc.mesh.n_boundary))
    with pytest.raises(PointFileError, match="mesh hash"):
        load_point(path, small_disc, lam)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _printed_counts(out: str) -> tuple:
    """Iterations, Newton steps and pinned steps tried from the "converged
    in" line of ``ctrlstab solve``."""
    counts = re.search(r"converged in (\d+) iterations \((\d+) Newton, "
                       r"(\d+) pinned tried\)", out)
    assert counts is not None, out
    return tuple(map(int, counts.groups()))


def _library_counts(path) -> tuple:
    cfg = parse_instance(path)
    disc = build_discretization(cfg)
    rep = solve_kkt(disc, disc.param_reference(), options=cfg.solve_options)
    return rep.iterations, rep.newton, rep.pinned


def test_solve_prints_newton_steps(tmp_path, capsys):
    # constraints far below the state bind nowhere: Newton steps
    cfg = write_ini(tmp_path / "free.ini",
                    constraints={"g_1": "y - 50", "g_2": "y - 52"})
    assert main(["solve", "--config", cfg]) == 0
    counts = _printed_counts(capsys.readouterr().out)
    assert counts[1] > 0
    assert counts == _library_counts(cfg)


def test_solve_then_verify_round_trip(tmp_path, capsys):
    cfg = write_ini(tmp_path / "inst.ini")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    seen = capsys.readouterr().out
    # the lower constraint binds at every node: the pinned step
    assert _printed_counts(seen)[2] == 1
    assert _printed_counts(seen) == _library_counts(cfg)
    assert (out / "point.txt").exists()
    payload = json.loads((out / "residuals.json").read_text())
    assert max(payload[k] for k in ("state", "adjoint", "stationarity",
                                    "complementarity",
                                    "feasibility")) <= 1e-10
    assert payload["sigma1"] == pytest.approx(1.0, rel=1e-12)
    code = main(["verify", "--config", cfg,
                 "--point", str(out / "point.txt"), "--quiet"])
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["stationarity"] <= 1e-10
    assert verdict["projection_gap"] <= 1e-9
    # the point file holds every double exactly, and the solver's record
    # and sigma1 are the verify rule's at the point it returns
    for key, value in payload.items():
        assert verdict[key] == value, key


def test_verify_rejects_tampered_point(tmp_path, capsys):
    cfg = write_ini(tmp_path / "inst.ini")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    point = out / "point.txt"
    lines = point.read_text().splitlines()
    lines[1] = repr(float(lines[1]) + 0.01)
    point.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--config", cfg, "--point", str(point),
                 "--quiet"])
    capsys.readouterr()
    assert code == 1


def test_invalid_configs_exit_2(tmp_path, capsys):
    bad_m = write_ini(tmp_path / "m1.ini", drop=("constraints.g_2",))
    assert main(["solve", "--config", bad_m, "--quiet"]) == 2
    bad_h = write_ini(tmp_path / "h.ini", state={"h": "-y"})
    assert main(["solve", "--config", bad_h, "--quiet"]) == 2
    bad_t = write_ini(tmp_path / "t.ini",
                      sweep={**SWEEP_SMALL, "t": "0.01 0.02"})
    assert main(["sweep", "--config", bad_t, "--quiet"]) == 2
    few = write_ini(tmp_path / "n.ini",
                    sweep={**SWEEP_SMALL, "ssc_samples": "50"})
    assert main(["sweep", "--config", few, "--quiet"]) == 2
    missing = str(tmp_path / "absent.ini")
    assert main(["solve", "--config", missing, "--quiet"]) == 2
    # refused before any mesh point is placed
    huge = write_ini(tmp_path / "r.ini", domain={"refinement": "40"})
    assert main(["solve", "--config", huge, "--quiet"]) == 2
    overflow = write_ini(tmp_path / "L.ini", cost={"L": "10^400*y"})
    assert main(["solve", "--config", overflow, "--quiet"]) == 2
    # data that overflows to inf on part of the disk; numpy's overflow
    # warnings on the way are not under test
    with np.errstate(over="ignore", invalid="ignore"):
        for section, key in (("parameter", "lambda_bar"), ("operator", "a0"),
                             ("operator", "a11")):
            path = write_ini(tmp_path / f"{key}.ini",
                             **{section: {key: "exp(1000*x1)"}})
            assert main(["solve", "--config", path, "--quiet"]) == 2
        # finite, but eigenvalues 0 and 2e308: the eigenvalue formula
        # overflows to NaN, which must not pass the (C0) gate; the sampled
        # gate of ProblemSpec.validate catches it, as it catches the NaN
        # eigenvalue of a11 = exp(1000 x1), before any assembly
        flat = write_ini(tmp_path / "flat.ini", operator={
            **BASE["operator"], "a11": "1e308", "a12": "1e308",
            "a22": "1e308"})
        assert main(["solve", "--config", flat, "--quiet"]) == 2
        delta = write_ini(tmp_path / "delta.ini",
                          sweep={**SWEEP_SMALL, "delta": "exp(1000*x1)"})
        assert main(["sweep", "--config", delta, "--out",
                     str(tmp_path / "sweep"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "n_boundary * 2**refinement must be <= 4096" in err
    assert "reference parameter is not finite" in err
    assert "operator coefficient a0 is not finite" in err
    assert err.count("(C0) violated: sampled ellipticity nan below "
                     "declared constant") == 2
    assert "[sweep] delta: direction is not finite" in err


@pytest.mark.parametrize("key,value", [
    ("t", "0.01 0.02 0.04 nan"), ("t", "0.01 0.02 0.04 inf"),
    ("seed", "-3")])
def test_bad_sweep_values_exit_2_before_any_solve(tmp_path, capsys,
                                                  monkeypatch, key, value):
    path = write_ini(tmp_path / "s.ini", sweep={**SWEEP_SMALL, key: value})
    with pytest.raises(ConfigError, match=rf"\[sweep\] {key}: must be"):
        cfg = parse_instance(path)
        sweep_plan(cfg, build_discretization(cfg))

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("ctrlstab.cli.run_sweep", no_sweep)
    assert main(["sweep", "--config", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"[sweep] {key}:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["ssc", "sweep"])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, command):
    cfg = write_ini(tmp_path / "inst.ini", sweep=SWEEP_SMALL)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0" in capsys.readouterr().err


# theta_min, newton_tol and newton_max_iter are no longer [solver] keys: they
# are rejected as unknown keys, with the same exit code and key prefix
@pytest.mark.parametrize("key,value", [
    ("theta", "0"), ("theta_min", "1.5"), ("tol", "0"), ("tol", "inf"),
    ("newton_tol", "0"), ("newton_max_iter", "0"), ("max_outer", "0")])
def test_invalid_solver_values_exit_2(tmp_path, capsys, key, value):
    path = write_ini(tmp_path / "s.ini", solver={key: value})
    with pytest.raises(ConfigError, match=rf"\[solver\] {key}:"):
        parse_instance(path)
    assert main(["solve", "--config", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"[solver] {key}:" in err and "Traceback" not in err


def test_verify_non_finite_point_exits_2(tmp_path, capsys):
    cfg = write_ini(tmp_path / "inst.ini")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    point = out / "point.txt"
    lines = point.read_text().splitlines()
    lines[1] = "nan"
    point.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--config", cfg, "--point", str(point),
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "non-finite" in err and "Traceback" not in err


def test_negative_power_of_zero_exits_2(tmp_path, capsys):
    # h is monotone and no gate sample is exactly 0, so the instance is
    # admitted; Newton starts at y = 0, where h_y holds 0 * (0)^-0.75
    text = (CONFIG_DIR / "lq_reference.ini").read_text()
    text, count = re.subn(r"(?m)^h = .*$", "h = y + y*(y^2)^0.25", text)
    assert count == 1
    path = tmp_path / "inst.ini"
    path.write_text(text)
    assert main(["solve", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "error: negative power of zero in (y^2.0)^(-0.75)" in err
    assert "Traceback" not in err


def test_ssc_rejects_fewer_than_100_samples(tmp_path, capsys):
    cfg = write_ini(tmp_path / "inst.ini")
    for samples in ("-5", "99"):
        with pytest.raises(SystemExit) as exc:
            main(["ssc", "--config", cfg, "--samples", samples])
        assert exc.value.code == 2
        assert "must be >= 100" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--seed", "1"], ["verify", "--point", "p.txt", "--seed", "1"],
    ["verify", "--point", "p.txt", "--out", "d"],
    ["mesh-dump", "--seed", "1"], ["mesh-dump", "--tol", "1e-3"],
    ["ssc", "--quiet"]])
def test_flags_only_on_subcommands_that_read_them(tmp_path, capsys, argv):
    cfg = write_ini(tmp_path / "inst.ini")
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", cfg, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_nonconvergence_exits_3(tmp_path, capsys):
    # the constraint binds on part of the boundary: no pinned step
    cfg = write_ini(tmp_path / "inst.ini", constraints=MIXED,
                    solver={"max_outer": "2", "tol": "1e-13"})
    assert main(["solve", "--config", cfg, "--quiet"]) == 3
    assert "error:" in capsys.readouterr().err


def test_ssc_subcommand_reports_sign(tmp_path, capsys):
    good = write_ini(tmp_path / "good.ini")
    assert main(["ssc", "--config", good, "--samples", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["positive"] is True
    concave = write_ini(tmp_path / "bad.ini",
                        cost={"L": "-2*y^2", "alpha": "0"},
                        constraints={"g_1": "-1", "g_2": "-2"})
    out = tmp_path / "sscout"
    assert main(["ssc", "--config", concave,
                 "--samples", "100", "--out", str(out)]) == 1
    stored = json.loads((out / "ssc.json").read_text())
    assert stored["positive"] is False
    assert json.loads(capsys.readouterr().out) == stored


def test_sweep_subcommand_writes_outputs(tmp_path, capsys):
    cfg = write_ini(tmp_path / "inst.ini", sweep=SWEEP_SMALL)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    seen = capsys.readouterr().out
    assert "d_Linf: exponent" in seen
    csv = (out / "sweep.csv").read_text().splitlines()
    assert csv[0] == "t,d_L2,d_Linf,d_W1r,kkt_ok"
    assert len(csv) == 5
    assert all(line.endswith(",true") for line in csv[1:])
    data = json.loads((out / "sweep.json").read_text())
    assert set(data["fits"]) == {"d_L2", "d_Linf", "d_W1r"}


def test_sweep_failed_rows_exit_3(tmp_path, capsys):
    cfg = write_ini(tmp_path / "inst.ini",
                    cost={"beta": "0.6 - 1*lam"},
                    sweep={**SWEEP_SMALL, "t": "0.05 0.1 0.2 0.3 0.4"})
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 3
    assert "did not converge" in capsys.readouterr().err
    csv = (out / "sweep.csv").read_text().splitlines()
    assert csv[-1].endswith(",false")


def test_sweep_nonconvex_base_exits_3(tmp_path, capsys):
    cfg = write_ini(tmp_path / "inst.ini",
                    cost={"L": "-2*y^2", "alpha": "0"},
                    constraints={"g_1": "-1", "g_2": "-2"},
                    sweep=SWEEP_SMALL)
    assert main(["sweep", "--config", cfg, "--quiet"]) == 3
    assert "second-order" in capsys.readouterr().err


def test_sweep_csv_bytes_reproducible(tmp_path, capsys):
    cfg = write_ini(tmp_path / "inst.ini", sweep=SWEEP_SMALL)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out", str(a),
                 "--quiet"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(b),
                 "--quiet"]) == 0
    capsys.readouterr()
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    assert (a / "sweep.json").read_bytes() == (b / "sweep.json").read_bytes()


def test_mesh_dump_stdout_and_file(tmp_path, capsys):
    cfg = write_ini(tmp_path / "inst.ini")
    assert main(["mesh-dump", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert text == mesh_text(make_disk_mesh(16, 0))
    target = tmp_path / "mesh.txt"
    assert main(["mesh-dump", "--config", cfg, "--out", str(target),
                 "--quiet"]) == 0
    capsys.readouterr()
    assert target.read_text() == text
    assert text.startswith(f"# disk mesh {mesh_hash(make_disk_mesh(16, 0))}")


@pytest.mark.parametrize("command,out", [
    ("solve", "taken"), ("mesh-dump", "missing/mesh.txt")])
def test_unwritable_out_exits_2(tmp_path, capsys, command, out):
    # an existing file where solve wants its directory, and a file in a
    # directory that does not exist
    cfg = write_ini(tmp_path / "inst.ini")
    (tmp_path / "taken").write_text("")
    assert main([command, "--config", cfg, "--out", str(tmp_path / out),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path / out) in err


@pytest.mark.parametrize("command", ["solve", "ssc", "sweep"])
def test_out_is_made_before_the_solve(tmp_path, capsys, monkeypatch,
                                      command):
    # an existing file where the command wants its directory: exit 2
    # before any solve runs
    cfg = write_ini(tmp_path / "inst.ini", sweep=SWEEP_SMALL)
    (tmp_path / "taken").write_text("")
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve_kkt(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_kkt", counted)
    monkeypatch.setattr(stability, "solve_kkt", counted)
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "taken")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert calls == []


def test_tol_override_applies(tmp_path, capsys):
    # on the mixed boundary the damped iteration runs, and a
    # looser tol stops it sooner
    cfg = write_ini(tmp_path / "inst.ini", constraints=MIXED)
    assert main(["solve", "--config", cfg, "--tol", "1e-4"]) == 0
    loose = capsys.readouterr().out
    assert "converged in" in loose
    its_loose = int(loose.split("converged in ")[1].split()[0])
    assert main(["solve", "--config", cfg]) == 0
    tight = capsys.readouterr().out
    its_tight = int(tight.split("converged in ")[1].split()[0])
    assert its_loose < its_tight


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["solve", "ssc", "sweep", "verify"])
def test_bad_tol_exits_2_naming_the_flag(tmp_path, capsys, command, tol):
    cfg = write_ini(tmp_path / "inst.ini", sweep=SWEEP_SMALL)
    point = ["--point", str(tmp_path / "p.txt")] if command == "verify" \
        else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, *point, "--tol", tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --tol: must be > 0 and finite" in err
