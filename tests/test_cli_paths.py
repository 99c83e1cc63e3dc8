"""Instance-file and command-line paths beside ``tests/test_config_cli.py``:
malformed files and defaulted keys, an unreadable point file, a valid
``--seed``, and sweeps whose distance columns leave an exponent
undetermined."""

import json

import numpy as np
import pytest

from ctrlstab import (ConfigError, build_discretization, check_ssc,
                      parse_instance, solve_kkt)
from ctrlstab import cli
from ctrlstab.cli import main

from test_config_cli import MIXED, SWEEP_SMALL, write_ini


def test_duplicate_section_is_config_error(tmp_path):
    path = tmp_path / "i.ini"
    write_ini(path)
    path.write_text(path.read_text() + "\n[state]\nh = y\n")
    with pytest.raises(ConfigError, match="section 'state' already exists"):
        parse_instance(path)


def test_missing_constraints_section_is_named(tmp_path):
    with pytest.raises(ConfigError, match=r"missing section \[constraints\]"):
        parse_instance(write_ini(tmp_path / "i.ini", drop=("constraints",)))


def test_non_numeric_step_size_is_named(tmp_path):
    path = write_ini(tmp_path / "i.ini",
                     sweep={**SWEEP_SMALL, "t": "0.01 0.02 x 0.08"})
    with pytest.raises(ConfigError, match=r"\[sweep\] t: could not convert"):
        parse_instance(path)


def test_optional_keys_take_their_defaults(tmp_path):
    path = write_ini(tmp_path / "i.ini", sweep=SWEEP_SMALL,
                     drop=("domain.refinement", "domain.r", "sweep.seed",
                           "sweep.ssc_samples"))
    cfg = parse_instance(path)
    assert (cfg.refinement, cfg.problem.r) == (0, 3.0)
    assert (cfg.sweep.seed, cfg.sweep.ssc_samples) == (0, 200)


def test_verify_of_an_unreadable_point_exits_2(tmp_path, capsys):
    cfg = write_ini(tmp_path / "inst.ini")
    point = tmp_path / "absent" / "point.txt"
    assert main(["verify", "--config", cfg, "--point", str(point)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {point}")


def test_ssc_seed_is_the_rng_seed(tmp_path, capsys, monkeypatch):
    # check_ssc is handed the generator seeded with --seed; on this mixed
    # active set it draws nothing (no pair is weakly active)
    path = write_ini(tmp_path / "inst.ini", constraints=MIXED)
    states = []

    def recording(disc, point, n_samples, rng):
        states.append(rng.bit_generator.state)
        return check_ssc(disc, point, n_samples=n_samples, rng=rng)

    monkeypatch.setattr(cli, "check_ssc", recording)
    assert main(["ssc", "--config", path, "--samples", "100",
                 "--seed", "7"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert states == [np.random.default_rng(7).bit_generator.state]
    cfg = parse_instance(path)
    disc = build_discretization(cfg)
    rep = solve_kkt(disc, disc.param_reference(), options=cfg.solve_options)
    ssc = check_ssc(disc, rep.point, n_samples=100,
                    rng=np.random.default_rng(7))
    assert ssc.n_samples > 0
    assert printed == ssc.to_dict()


def test_sweep_seed_is_written(tmp_path, capsys):
    cfg = write_ini(tmp_path / "inst.ini", sweep=SWEEP_SMALL)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--seed", "7",
                 "--quiet"]) == 0
    assert json.loads((out / "sweep.json").read_text())["seed"] == 7


def test_sweep_with_three_successful_rows_exits_3(tmp_path, capsys):
    # the last step fails admission: three rows remain, too few for a fit
    cfg = write_ini(tmp_path / "inst.ini", cost={"beta": "0.6 - 1*lam"},
                    sweep={**SWEEP_SMALL, "t": "0.05 0.1 0.2 0.4"})
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    seen = capsys.readouterr()
    assert seen.out.count("exponent undetermined") == 3
    assert seen.err == "1 sweep step(s) did not converge\n"
    csv = (out / "sweep.csv").read_text().splitlines()
    assert len(csv) == 5 and csv[-1] == "0.4,nan,nan,nan,false"
    fits = json.loads((out / "sweep.json").read_text())["fits"]
    assert fits == {"d_L2": None, "d_Linf": None, "d_W1r": None}


def test_sweep_with_the_control_at_its_cap_exits_0(tmp_path, capsys):
    # every row converges with u = 1, so d_L2 = d_Linf = 0 on every row
    cfg = write_ini(tmp_path / "inst.ini", cost={"alpha": "lam - 5"},
                    constraints={"g_1": "-1", "g_2": "-2"},
                    sweep=SWEEP_SMALL)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    seen = capsys.readouterr()
    assert "d_L2: exponent undetermined" in seen.out
    assert "d_Linf: exponent undetermined" in seen.out
    assert "d_W1r: exponent 1.0000" in seen.out
    assert "holder quotient ratio inf (bounded: False)" in seen.out
    assert seen.err == ""
    data = json.loads((out / "sweep.json").read_text())
    assert data["fits"]["d_L2"] is None and data["fits"]["d_Linf"] is None
    assert data["fits"]["d_W1r"]["slope"] == pytest.approx(1.0, abs=1e-8)
    assert (data["holder_constant"], data["quotient_ratio"]) == (0.0, None)
