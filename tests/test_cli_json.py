"""Every JSON document the command line writes is strict JSON: a value
that is not finite reads ``null``, never a bare ``Infinity`` or ``NaN``."""

import json

import numpy as np

from ctrlstab.cli import main

from conftest import CONFIG_DIR


def _strict(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_verify_of_an_overflowing_point_prints_strict_json(tmp_path, capsys):
    cfg = str(CONFIG_DIR / "lq_reference.ini")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    _strict((out / "residuals.json").read_text())
    point = out / "point.txt"
    lines = point.read_text().splitlines()
    lines[1] = "1e200"  # the first state value
    point.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["verify", "--config", cfg, "--point", str(point),
                     "--quiet"])
    assert code == 1
    payload = _strict(capsys.readouterr().out)
    assert payload["state"] is None and payload["adjoint"] is None
    assert payload["stationarity"] is not None
