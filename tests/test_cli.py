"""Command-line interface: exit codes, report determinism, file handling."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bfcg
from bfcg.checks import RunConfig, _lattice
from bfcg.cli import build_parser, main
from bfcg.crossed_module import (builtin_module, dump_crossed_module,
                                 load_crossed_module)
from bfcg.phase import random_phase_point
from bfcg.relations import check_algebra_relation


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_dof_subcommand(capsys):
    code, out = _run(capsys, ["dof", "--p", "6", "--q", "4"])
    assert code == 0
    assert "n = 0" in out and "N = 100" in out
    assert out.startswith("bfcg-report schema 1")


def test_validate_builtin_pass(capsys):
    code, out = _run(capsys, ["validate", "--module", "adjoint(su2)"])
    assert code == 0
    assert "[PASS] validate" in out


@pytest.fixture
def broken_spec(tmp_path):
    """adjoint(su2) with f[0,1,2] perturbed: Jacobi and Q-invariance fail."""
    cm = builtin_module("adjoint(su2)")
    f = cm.f.copy()
    f[0, 1, 2] += 0.1
    path = tmp_path / "broken.cmspec"
    path.write_text(dump_crossed_module(replace(cm, f=f)))
    return str(path)


def test_validate_broken_spec_fails(broken_spec, capsys):
    code, out = _run(capsys, ["validate", "--spec", broken_spec])
    assert code == 1
    assert "jacobi_g" in out and "FAIL" in out


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-3"])
def test_bad_tol_is_usage_error(broken_spec, tol, capsys):
    code = main(["validate", "--spec", broken_spec, f"--tol={tol}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--tol" in err


@pytest.mark.parametrize("command", ["algebra", "consistency", "offshell"])
@pytest.mark.parametrize("modes", [0, -3])
def test_bad_modes_is_usage_error(command, modes, capsys):
    """A field with no Fourier mode is a usage error, never a PASS."""
    code = main([command, "--module", "adjoint(su2)", "--n", "6",
                 f"--modes={modes}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: --modes must be")


@pytest.mark.parametrize("command", ["validate", "full-report", "eom"])
def test_negative_seed_is_usage_error(command, capsys):
    """A negative --seed is refused before any check runs: no partial
    report, where numpy's generators would reject it mid-report."""
    code = main([command, "--module", "adjoint(su2)", "--n", "6",
                 "--seed=-1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: --seed must be non-negative")


@pytest.mark.parametrize("ladder", ["", ",", "0", "4,2"])
def test_empty_ladder_is_usage_error(ladder, capsys):
    code = main(["validate", "--n", ladder])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--n" in err


@pytest.mark.parametrize("command, ladder", [
    ("bianchi", "6,6,6"), ("gauge-check", "8,8,8"), ("validate", "6,8,6"),
    ("gauge-check", "6,8")])
def test_unfittable_ladder_is_usage_error(command, ladder, capsys):
    """A ladder that repeats a size, or a two-rung gauge-check, fits no
    refinement order: a usage error, not a verdict."""
    code = main([command, "--module", "adjoint(su2)", "--n", ladder])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert "repeats a size" in err or "3 resolutions" in err


def test_missing_spec_file_is_usage_error(capsys):
    code = main(["validate", "--spec", "/nonexistent/file.cmspec"])
    assert code == 2


@pytest.mark.parametrize("extra", ["tensor fx 1\n0.0\n", "p 3\n"])
def test_malformed_spec_is_usage_error(tmp_path, extra, capsys):
    """An unknown tensor or a repeated entry is not silently ignored."""
    path = tmp_path / "bad.cmspec"
    path.write_text(dump_crossed_module(builtin_module("adjoint(su2)")) + extra)
    code = main(["validate", "--spec", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_unknown_module_is_usage_error(capsys):
    code = main(["validate", "--module", "not_a_module"])
    assert code == 2


def test_algebra_report_deterministic(tmp_path, capsys):
    argv = ["algebra", "--module", "abelian(1,1)", "--n", "4", "--seed", "3"]
    out1 = _run(capsys, argv + ["--out", str(tmp_path / "r1.txt")])
    out2 = _run(capsys, argv + ["--out", str(tmp_path / "r2.txt")])
    assert out1[0] == 0 and out2[0] == 0
    b1 = (tmp_path / "r1.txt").read_bytes()
    b2 = (tmp_path / "r2.txt").read_bytes()
    assert b1 == b2
    assert b1.decode().splitlines()[0] == "bfcg-report schema 1"


def test_cached_parser_reports_unchanged(capsys):
    """The parser is built once per process; the calls after a usage error
    print what the first ones did."""
    calls = (["algebra", "--module", "abelian(1,1)", "--n", "4", "--seed", "2"],
             ["dof", "--p", "2", "--q", "1"])
    first = [_run(capsys, argv) for argv in calls]
    assert _run(capsys, ["algebra", "--seed", "x"])[0] == 2
    assert [_run(capsys, argv) for argv in calls] == first
    assert [code for code, _ in first] == [0, 0]
    assert build_parser() is build_parser()


def test_reports_identical_across_processes(tmp_path):
    """Same RunConfig gives byte-identical reports across interpreter runs."""
    outs = []
    # the child imports the same bfcg as this process, with or without PYTHONPATH
    src = str(Path(bfcg.__file__).resolve().parents[1])
    path_env = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for hashseed, name in (("1", "a.txt"), ("7", "b.txt")):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path_env)
        path = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "bfcg.cli", "consistency", "--module",
             "abelian(1,1)", "--n", "4", "--seed", "5", "--out", str(path)],
            check=True, env=env, capture_output=True)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_consistency_subcommand_small(capsys):
    code, out = _run(capsys, ["consistency", "--module", "abelian(1,1)",
                              "--n", "4", "--seed", "2"])
    assert code == 0
    assert "[PASS] consistency" in out


def test_offshell_abelian_small(capsys):
    code, out = _run(capsys, ["offshell", "--module", "abelian(1,1)",
                              "--n", "4", "--seed", "2"])
    assert code == 0
    assert "[PASS] offshell" in out


def test_eom_subcommand(capsys):
    code, out = _run(capsys, ["eom", "--module", "abelian(1,1)",
                              "--n", "4", "--seed", "2"])
    assert code == 0
    assert "finite-difference" in out


def test_curvature_subcommand(capsys):
    code, out = _run(capsys, ["curvature", "--module", "adjoint(su2)",
                              "--n", "4", "--seed", "2"])
    assert code == 0
    assert "curvature F maxabs" in out


@pytest.mark.parametrize("a", ["inf", "nan", "0", "-0.25"])
def test_bad_spacing_is_usage_error(a, capsys):
    code = main(["eom", "--module", "abelian(1,1)", "--n", "4", f"--a={a}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--a" in err


@pytest.mark.parametrize("command, module, ladder, a", [
    ("eom", "abelian(1,1)", "4", "1e308"),
    ("algebra", "abelian(1,1)", "4", "1e308"),
    ("curvature", "abelian(1,1)", "4", "1e308"),
    ("bianchi", "vector_poincare", "4,6,8", "1e308"),
    ("eom", "adjoint(su2)", "8", "1e-200"),
    ("curvature", "adjoint(su2)", "8", "1e300"),
    ("algebra", "adjoint(su2)", "8", "1e-200"),
    ("validate", "adjoint(su2)", "4,64", "1e-80"),
])
def test_overflowing_spacing_is_usage_error(command, module, ladder, a, capsys):
    """A rung whose spacing or its fourth power overflows to inf or
    underflows to 0 is a usage error: with it both sides of an identity
    read inf, NaN or 0, so a check would PASS or crash.  At 4,64 and 1e-80
    the first rung's fourth power is a subnormal double and the last
    rung's underflows."""
    code = main([command, "--module", module, "--n", ladder, f"--a={a}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: --a ")


@pytest.mark.parametrize("command, line", [
    ("algebra", "fundamental-brackets worst nan"),
])
def test_nan_residual_at_huge_spacing_fails(command, line, capsys):
    """At a = 1e60, whose fourth power is finite, the fundamental brackets
    overflow to NaN, with the RuntimeWarnings that this provokes; the
    worst-case reduction keeps the NaN, so the check FAILs.  eom and
    curvature reach NaN on an overflowing module instead
    (test_overflowing_structure_constants_reach_nan)."""
    with pytest.warns(RuntimeWarning):
        code, out = _run(capsys, [command, "--module", "abelian(1,1)", "--n",
                                  "4", "--a", "1e60"])
    assert code == 1
    assert line in out and f"[FAIL] {command}" in out


@pytest.fixture
def huge_spec(tmp_path):
    """adjoint(su2) with f scaled to 1.5e308: the norm of the thin
    exponential overflows, so the exponential is NaN.  Every command on it
    overflows on purpose, so its tests expect the RuntimeWarnings, and a
    warning anywhere else in the suite stands out."""
    cm = builtin_module("adjoint(su2)")
    path = tmp_path / "huge.cmspec"
    path.write_text(dump_crossed_module(replace(cm, f=cm.f * 1.5e308)))
    return str(path)


def test_overflowing_structure_constants_never_pass(huge_spec, capsys):
    """The NaN exponential reaches the action: gauge-check prints its nan
    rows and FAILs, with no traceback and no error message."""
    with pytest.warns(RuntimeWarning):
        code, out = _run(capsys, ["gauge-check", "--spec", huge_spec,
                                  "--n", "6,8,10"])
    assert code == 1
    assert "gauge thin-constant F-covariance nan" in out
    assert "gauge thin dS nan nan nan" in out
    assert "[FAIL] gauge-check" in out and "overall FAIL" in out


@pytest.mark.parametrize("command, line", [
    ("eom", "eom finite-difference relerr nan"),
    ("curvature", "action nan"),
])
def test_overflowing_structure_constants_reach_nan(huge_spec, command, line,
                                                   capsys):
    """The overflowing curvature reaches the action as NaN: the worst-case
    reductions keep it, so the check FAILs."""
    with pytest.warns(RuntimeWarning):
        code, out = _run(capsys, [command, "--spec", huge_spec, "--n", "6"])
    assert code == 1
    assert line in out and f"[FAIL] {command}" in out


def test_overflowing_structure_constants_keep_the_full_report(huge_spec,
                                                              capsys):
    """A FAILing gauge-check does not drop the rest of the report."""
    with pytest.warns(RuntimeWarning):
        code = main(["full-report", "--spec", huge_spec, "--n", "6,8,10"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    verdicts = [line for line in out.splitlines()
                if line.startswith(("[PASS] ", "[FAIL] "))]
    assert len(verdicts) == 9, verdicts
    assert "[FAIL] gauge-check" in verdicts
    assert out.endswith("overall FAIL\n")


def test_overflowing_structure_constants_fail_across_slabs(huge_spec, capsys):
    """On the 12/16/20 ladder, of 1, 2 and 5 slabs, each slab's NaN thin
    exponential reaches the action through the slab ring: the full report
    still prints every verdict, with gauge-check FAILing on nan rows."""
    with pytest.warns(RuntimeWarning):
        code = main(["full-report", "--spec", huge_spec, "--n", "12,16,20"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    verdicts = [line for line in out.splitlines()
                if line.startswith(("[PASS] ", "[FAIL] "))]
    assert len(verdicts) == 9, verdicts
    assert "gauge thin dS nan nan nan" in out
    assert "[FAIL] gauge-check" in verdicts
    assert out.endswith("overall FAIL\n")


def test_overflowing_structure_constants_fail_their_algebra_rows(huge_spec,
                                                                 capsys):
    """A relation row whose residual or scale is not finite FAILs: with an
    infinite scale the gate residual <= tol * scale would read inf <= inf."""
    with pytest.warns(RuntimeWarning):
        code, out = _run(capsys, ["algebra", "--spec", huge_spec, "--n", "6"])
    assert code == 1 and "[FAIL] algebra" in out
    rows = {line.split()[1]: line.split() for line in out.splitlines()
            if line.startswith("relation ")}
    assert len(rows) == 26
    # the printed rows are those of the first of the check's random points
    cm = load_crossed_module(Path(huge_spec).read_text(encoding="utf-8"))
    cfg = RunConfig(ns=(6,))
    point = random_phase_point(cm, _lattice(cfg, 3, 6), seed=cfg.seed,
                               rule="random", mode_count=cfg.modes)
    with pytest.warns(RuntimeWarning):
        results = {rid: check_algebra_relation(cm, rid, point, seed=cfg.seed)
                   for rid in rows}
    for rid, row in rows.items():
        res = results[rid]
        assert row[7] == f"{res.residual:.6e}", row
        if not (np.isfinite(res.residual) and np.isfinite(res.scale)):
            assert row[-1] == "FAIL", row
    for rid in ("sc4", "sc5", "fc2", "fc3", "sc0_HCB"):
        assert rows[rid][-1] == "FAIL", rows[rid]
