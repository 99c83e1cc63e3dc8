"""The same-bits harness ``tests/point_hashes.py``, in-process on one small
instance file: its fingerprint layout and its move report."""

import copy
import dataclasses
import os
import pickle
import types

import numpy as np
import pytest

import ctrlstab as cs
import point_hashes
import random_family

from conftest import CONFIG_DIR

PATH = CONFIG_DIR / "oracle_box.ini"


@pytest.fixture(scope="module")
def record():
    return point_hashes.record(cs, PATH)


def _report(text: str) -> dict:
    return dict(item.split(" ", 1) for item in text.split(", "))


def _reports(mine, other) -> dict:
    """The move report of two records, per group, parsed; ``-`` for a
    group with nothing to compare."""
    return {group: text if text == "-" else _report(text)
            for group, text in point_hashes.compare(mine, other).items()}


SOLVE_FIELDS = set(point_hashes.FIELDS) - {"counts"}
SSC_FIELDS = {f.name for f in dataclasses.fields(cs.SscReport)}
SETUP_FIELDS = {"mesh_hash", "edges.keys", "edges.sides",
                *point_hashes.TABLES} | {
    f"{pattern}.{name}" for pattern in point_hashes.PATTERNS
    for name in point_hashes.PATTERN_ARRAYS} | {
    f"{matrix}.{name}" for matrix in ("stiffness", "mass_domain",
                                      "mass_boundary_bb")
    for name in ("data", "indices", "indptr")}


def _evaluations(calls: list) -> tuple:
    """The counts of each expression evaluation in ``calls``, which is
    emptied."""
    out = tuple(calls.count(name) for name in point_hashes.EVALUATIONS)
    calls.clear()
    return out


def test_line_hashes_the_documented_fields(record, monkeypatch):
    # the layout written out again: a solve's arrays, counts, sigma1,
    # history and residual record; the seeded SSC report; the chain's cold
    # solve and its SSC report (oracle_box has no sweep, so no warm chain)
    cfg = cs.parse_instance(PATH)
    disc = cs.build_discretization(cfg)
    calls = []
    for name in ("eval_dom", "eval_bnd", "eval_node"):
        def counted(*args, _name=name,
                    _method=getattr(cs.Discretization, name), **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)

        monkeypatch.setattr(cs.Discretization, name, counted)
    rep = cs.solve_kkt(disc, disc.param_reference(),
                       options=cfg.solve_options)
    evals = {"cold": _evaluations(calls)}
    p = rep.point
    cold = [p.state.values, p.control.values, p.adjoint.values,
            *p.multipliers,
            (rep.iterations, rep.newton, rep.pinned), rep.sigma1,
            list(rep.history), dataclasses.astuple(rep.residuals)]
    ssc = dataclasses.astuple(cs.check_ssc(
        disc, p, n_samples=200, rng=np.random.default_rng([0, 0])))
    evals["ssc"] = _evaluations(calls)
    # the expression evaluations of each group, none in the warm one; the
    # chain's cold solve and check on a new discretization count as these
    assert record["evaluations"] == {
        "cold": evals["cold"], "warm": (0, 0, 0), "ssc": evals["ssc"],
        "chain": tuple(map(sum, zip(evals["cold"], evals["ssc"])))}
    # the set-up: mesh hash, edges, tables, patterns, then the form's
    # matrices
    t, form = disc.tables, disc.form
    setup = [cs.mesh_hash(disc.mesh), *disc.mesh.edges(), t.areas, t.grads,
             t.qp_dom, t.qw_dom, t.qp_bnd, t.qw_bnd, t.qs_bnd, t.edge_pos,
             t.bnd_in_tri]
    for pattern in (t.tri_pattern, t.bb_pattern):
        setup += [pattern.keys, pattern.pos, pattern.indptr, pattern.indices]
    for matrix in (form.stiffness, form.mass_domain, form.mass_boundary_bb):
        setup += [matrix.data, matrix.indices, matrix.indptr]
    fields = dict(item.split("=") for item in
                  point_hashes.line(record).split())
    assert fields == {"cold": point_hashes._digest(cold), "warm": "-",
                      "ssc": point_hashes._digest(ssc),
                      "chain": point_hashes._digest([*cold, ssc]),
                      "setup": point_hashes._digest(setup),
                      "verify": "eq"}


def test_edges_without_a_kept_sort_are_the_unique_sides():
    # a tree whose mesh keeps no edge sort records np.unique of its side
    # keys, which hashes as the kept sort does
    mesh = cs.make_disk_mesh(13, 1)
    bare = types.SimpleNamespace(triangles=mesh.triangles,
                                 n_vertices=mesh.n_vertices)
    for got, want in zip(point_hashes._edges(cs, bare), mesh.edges()):
        assert point_hashes._hashed(got) == point_hashes._hashed(want)


def test_record_against_itself_is_bit_identical(record):
    # one reading per group; oracle_box has no sweep, so no warm group
    reports = _reports(record, record)
    assert list(reports) == ["cold", "warm", "ssc", "chain", "setup"]
    assert reports["warm"] == "-"
    for group, fields in (("cold", SOLVE_FIELDS | {"verify"}),
                          ("ssc", SSC_FIELDS),
                          ("chain", SOLVE_FIELDS | SSC_FIELDS),
                          ("setup", SETUP_FIELDS)):
        report = reports[group]
        if group in ("cold", "chain"):
            assert report.pop("counts") == "same"
        assert set(report) == fields
        assert set(report.values()) == {"="}


def test_control_nudge_is_the_only_move(record):
    other = copy.deepcopy(record)
    other["cold"]["control"][3] += 1e-12
    reports = _reports(record, other)
    cold = reports.pop("cold")
    assert cold.pop("counts") == "same"
    assert float(cold.pop("control")) == pytest.approx(1e-12, rel=1e-3)
    assert set(cold.values()) == {"="}
    assert reports.pop("warm") == "-"
    for report in reports.values():
        assert set(report.values()) <= {"same", "="}


def test_warm_move_reads_in_its_own_group(record):
    # a warm chain that moves while the cold and chain solves keep their
    # bits: only the warm group reads the move, with its own counts
    mine, other = copy.deepcopy(record), copy.deepcopy(record)
    mine["warm"] = [copy.deepcopy(record["cold"]), "SolverError"]
    other["warm"] = [copy.deepcopy(record["cold"]), "SolverError"]
    other["warm"][0]["state"] = other["warm"][0]["state"] + 2e-9
    other["warm"][0]["counts"] = (1, 0, 1)
    reports = _reports(mine, other)
    warm = reports.pop("warm")
    want = "/".join(map(str, record["cold"]["counts"]))
    assert warm.pop("counts") == \
        f"{want} SolverError vs 1/0/1 SolverError"
    assert float(warm.pop("state")) == pytest.approx(2e-9, rel=1e-6)
    assert set(warm.values()) == {"="}
    for report in reports.values():
        assert set(report.values()) <= {"same", "="}
    assert not point_hashes.against({"a.ini": mine}, {"a.ini": other})[1]


def test_setup_moves_read_in_their_own_group(record):
    # a pattern position that moves, and one of another integer width with
    # the same values: only the set-up group reads them, and both are
    # moves, so ``--against`` fails
    for name, change, reading in (
            ("tri_pattern.pos", lambda a: a[::-1].copy(), None),
            ("tri_pattern.indices", lambda a: a.astype(np.int64),
             "0.00e+00"),
            ("mesh_hash", lambda h: h[::-1], "inf")):
        other = copy.deepcopy(record)
        other["setup"][name] = change(record["setup"][name])
        reports = _reports(record, other)
        setup = reports.pop("setup")
        moved = setup.pop(name)
        assert moved != "=" and (reading is None or moved == reading)
        assert set(setup.values()) == {"="}
        assert reports.pop("warm") == "-"
        for report in reports.values():
            assert set(report.values()) <= {"same", "="}
        assert not point_hashes.against({"a.ini": record},
                                        {"a.ini": other})[1]


def test_one_sided_setup_fields_read_their_side(record):
    # a set-up key that only one tree records reads as that side, whichever
    # side it is, and is a difference, so ``--against`` fails
    mine, other = copy.deepcopy(record), copy.deepcopy(record)
    del mine["setup"]["mesh_hash"]
    del other["setup"]["bb_pattern.keys"]
    for a, b, readings in (
            (mine, other, {"mesh_hash": "only in the other tree",
                           "bb_pattern.keys": "only in this tree"}),
            (other, mine, {"mesh_hash": "only in this tree",
                           "bb_pattern.keys": "only in the other tree"})):
        reports = _reports(a, b)
        setup = reports.pop("setup")
        assert set(setup) == SETUP_FIELDS
        for name, reading in readings.items():
            assert setup.pop(name) == reading
        assert set(setup.values()) == {"="}
        assert reports.pop("warm") == "-"
        for report in reports.values():
            assert set(report.values()) <= {"same", "="}
        lines, same = point_hashes.against({"a.ini": a}, {"a.ini": b})
        assert not same
        assert all(f"{name} {reading}" in lines[-1]
                   for name, reading in readings.items())


def test_failed_solve_on_one_side_is_reported(record):
    other = copy.deepcopy(record)
    other["chain_cold"] = "SolverError"
    reports = _reports(record, other)
    chain = reports.pop("chain")
    assert "SolverError" in chain.pop("counts")
    # with no pair of successful solves left, the solve fields read "-"
    assert {chain.pop(key) for key in SOLVE_FIELDS} == {"-"}
    assert set(chain.values()) == {"="}
    assert set(reports["cold"].values()) == {"same", "="}
    other["cold"] = "PartitionError"
    report = _reports(other, record)["cold"]
    assert {report[key] for key in ("state", "residuals")} == {"-"}
    assert point_hashes.line(other).endswith("verify=eq")


def test_against_agrees_only_when_nothing_differs(record):
    # the exit status of ``--against``, decided on records in process
    lines, same = point_hashes.against({"a.ini": record}, {"a.ini": record})
    assert same and lines == [
        f"a.ini {group} {text}" for group, text in
        point_hashes.compare(record, record).items()]
    assert lines[1] == "a.ini warm -"
    nudged = copy.deepcopy(record)
    nudged["chain_ssc"]["n_strong"] += 1
    failed = copy.deepcopy(record)
    failed["chain_cold"] = "SolverError"
    for other in (nudged, failed):
        assert not point_hashes.against({"a.ini": record},
                                        {"a.ini": other})[1]
    lines, same = point_hashes.against({"a.ini": record},
                                       {"a.ini": record, "b.ini": record})
    assert not same and lines[-1] == "b.ini only in the other tree"
    assert point_hashes.evaluation_lines({"a.ini": record},
                                         {"a.ini": record}) == []


def test_collecting_subprocesses_run_on_one_blas_thread(record, monkeypatch,
                                                       tmp_path, capsys):
    # ``--against`` starts one ``--collect`` child per tree, each with the
    # caller's environment and the three BLAS thread counts set to 1, and
    # prints each file's groups, a line for a file whose expression
    # evaluations differ, which leaves the exit status at 0, and the family
    # summary of each seed
    envs = []
    other = copy.deepcopy(record)
    other["evaluations"]["cold"] = (1, 2, 3)

    class Child:
        returncode = 0

        def __init__(self, args, stdout, env):
            envs.append(env)
            self.file = other if args[-1] == str(tmp_path) else record

        def communicate(self):
            return pickle.dumps(({"a.ini": self.file}, dict.fromkeys(
                point_hashes.FAMILY_SEEDS, {}))), None

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.setattr(point_hashes.subprocess, "Popen", Child)
    assert point_hashes.main(["point_hashes.py", "--against",
                              str(tmp_path)]) == 0
    assert len(envs) == 2
    for env in envs:
        assert env == {**os.environ, "OPENBLAS_NUM_THREADS": "1",
                       "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    mine = {group: "/".join(map(str, counts))
            for group, counts in record["evaluations"].items()}
    assert capsys.readouterr().out.splitlines() == [
        *(f"a.ini {group} {text}" for group, text in
          point_hashes.compare(record, other).items()),
        f"a.ini evaluations cold {mine['cold']} vs 1/2/3, "
        f"warm 0/0/0 vs 0/0/0, ssc {mine['ssc']} vs {mine['ssc']}, "
        f"chain {mine['chain']} vs {mine['chain']}",
        *(f"family seed {seed}: 0 of 0 members moved"
          for seed in point_hashes.FAMILY_SEEDS)]


def test_family_lines_read_the_members_that_move():
    # two family members recorded as ``--against`` records them: against
    # themselves only the summary line; against a copy whose first cold
    # solve took other counts and moved its control, one line for that
    # member, with its counts and its largest move
    seed = point_hashes.FAMILY_SEEDS[0]
    members = random_family.members(seed=seed, n=2)
    mine = {spec.name: point_hashes.family_record(cs, spec, nb, ref)
            for _, spec, nb, ref in members}
    first, second = mine.values()
    assert second["verify"] and len(second["warm"]) == \
        len(point_hashes.FAMILY_T)
    assert set(second["ssc"]) == SSC_FIELDS
    summary = f"family seed {seed}: {{}} of 2 members moved"
    assert point_hashes.family_lines(mine, mine, seed) == [summary.format(0)]
    other = copy.deepcopy(mine)
    name = next(iter(other))
    cold = other[name]["cold"]
    cold["counts"] = (36, 0, 0)
    cold["control"] = cold["control"] + 3e-11
    cold["history"] = cold["history"] + [1.0]
    counts = "/".join(map(str, first["cold"]["counts"]))
    assert point_hashes.family_lines(mine, other, seed) == [
        f"{name} cold counts {counts} vs 36/0/0, largest move "
        f"{3e-11:.2e} (cold control), not comparable: cold history",
        summary.format(1)]
