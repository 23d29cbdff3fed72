import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ghlab import cli
from ghlab.cli import main
from ghlab.svgplot import NonFiniteValue, emit_svg

GOLDEN = Path(__file__).parent / "golden"
# the file suffix of each artifact flag
SUFFIX = {"out": "json", "csv": "csv", "svg": "svg"}


def run_cli(args):
    return main(list(args))


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        assert run_cli(["amoeba", "--poly", "1+z", "--point", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")

    def test_malformed_config_file_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run_cli(["ronkin", "--config", str(cfg)]) == 2
        assert "config" in capsys.readouterr().err

    def test_unknown_field_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fluxcapacitor": 3}))
        assert run_cli(["ronkin", "--config", str(cfg)]) == 2
        assert "fluxcapacitor" in capsys.readouterr().err

    def test_invalid_value_named(self, capsys):
        assert run_cli(["ronkin", "--range", "3:1:0.1"]) == 2
        assert "range" in capsys.readouterr().err

    def test_insufficient_grid_is_config_error(self, capsys):
        assert run_cli(["decay", "--rrange", "0.5:3:0.5"]) == 2

    @pytest.mark.parametrize("args", [
        ["amoeba", "--poly", "1+z1+z2+z3", "--point", "0,0,0"],
        ["collapse", "--poly", "1+z1+z2"],
        ["decay", "--gate-modes", "4,x"],
        ["ov", "--flux-radii", "-0.3,0.5"],
        # equal radii once passed the radius-independence checks with a
        # spread of 0, equal lambdas the nonincreasing checks of collapse;
        # one lambda leaves nothing to compare
        ["ov", "--flux-radii", "0.3,0.3"],
        ["verify-flat", "--flux-radii", "0.4,0.4"],
        ["collapse", "--lambdas", "1,1"],
        ["collapse", "--lambdas", "1,5,5"],
        ["collapse", "--lambdas", "5"],
    ], ids=["amoeba-3-vars", "collapse-2-vars", "decay-gate-modes",
            "ov-radius", "ov-equal-radii", "flat-equal-radii",
            "equal-lambdas", "repeated-lambda", "one-lambda"])
    def test_unsupported_input_is_config_error(self, capsys, args):
        assert run_cli(args) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("poly", ["z+^2", "z^99999999999999999999"],
                             ids=["exponent-after-sign", "past-int64"])
    def test_malformed_poly_is_config_error(self, capsys, poly):
        # an exponent right after a sign, and one that no int64 holds,
        # are refused while --poly is converted, not in a traceback
        assert run_cli(["ronkin", "--poly", poly]) == 2
        assert "config error: config field 'poly'" in capsys.readouterr().err

    def test_coefficient_after_a_factor_is_config_error(self, capsys):
        # z^2.5 once ran as 0.5 z^2: the coefficient must come first
        assert run_cli(["ronkin", "--poly", "z^2.5"]) == 2
        assert ("config error: config field 'poly': cannot parse term "
                "'z^2.5'") in capsys.readouterr().err

    @pytest.mark.parametrize("cmd,given,key", [
        ("legendre", ["--family", "cross", "--b", "nan"], "b"),
        ("collapse", ["--lambdas", "1,inf"], "lambdas"),
        ("holonomy", ["--h", "nan"], "h"),
        ("amoeba", ["--point", "nan,0"], "point"),
        ("ov", ["--a", "inf"], "a"),
        ("ronkin", ["--lam", "inf"], "lam"),
        ("decay", ["--a", "nan"], "a"),
        ("verify-taubnut", ["--a", "inf"], "a"),
        ("ronkin", ["--range", "0:inf:0.1"], "range"),
        ("decay", {"a": math.nan}, "a"),
        ("collapse", {"lambdas": [1.0, math.inf]}, "lambdas"),
    ])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, cmd,
                                              given, key):
        # json.load reads NaN and Infinity, so a file can carry them too
        if isinstance(given, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(given))
            given = ["--config", str(cfg)]
        out = tmp_path / "rep.json"
        assert run_cli([cmd, *given, "--out", str(out)]) == 2
        assert f"config field '{key}': must be finite" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_helmholtz_modes_above_modes_is_config_error(self, capsys):
        # modes above --modes have coefficient 0: checking them checks nothing
        assert run_cli(["ov", "--modes", "3"]) == 2
        assert "config error: config field 'helmholtz_modes'" in \
            capsys.readouterr().err

    def test_artifact_flag_the_command_does_not_write_is_refused(
            self, tmp_path, capsys):
        # each command takes only the artifact flags it writes: ronkin
        # writes --out and --csv, and only decay draws an --svg
        path = tmp_path / "f"
        with pytest.raises(SystemExit) as exc:
            run_cli(["ronkin", "--svg", str(path)])
        assert exc.value.code == 2
        assert not path.exists()
        assert "--svg" in capsys.readouterr().err

    def test_artifact_field_the_command_does_not_write_is_refused(
            self, tmp_path, capsys):
        path = tmp_path / "f"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"svg": str(path)}))
        assert run_cli(["amoeba", "--config", str(cfg)]) == 2
        assert not path.exists()
        assert "config error: config field 'svg': unknown field" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{not json",
        json.dumps({"points": [[1, 0], [0, 1], [-1, 0]]}),
        json.dumps({"loop": [[1, 0, 0], [0, 1, 0], [-1, 0, 0]]}),
        json.dumps({"loop": [[1, 0], [0, "a"], [-1, 0]]}),
    ], ids=["malformed", "no-loop", "3-d", "not-numeric"])
    def test_bad_loop_file_is_config_error(self, tmp_path, capsys, text):
        loop = tmp_path / "loop.json"
        loop.write_text(text)
        assert run_cli(["holonomy", "--loop-file", str(loop)]) == 2
        assert "loop" in capsys.readouterr().err

    def test_loop_file_is_used(self, tmp_path, capsys):
        loop = tmp_path / "loop.json"
        loop.write_text(json.dumps({"loop": [[0.5, 0], [0, 0.5], [-0.5, 0],
                                             [0, -0.5]]}))
        assert run_cli(["holonomy", "--loop-file", str(loop)]) == 0
        assert "windings=[1]" in capsys.readouterr().out

    def test_program_fault_is_not_config_error(self, monkeypatch):
        def broken(p, meta):
            raise ValueError("bug")

        monkeypatch.setitem(cli._RUNNERS, "amoeba", broken)
        with pytest.raises(ValueError, match="bug"):
            run_cli(["amoeba"])

    @pytest.mark.parametrize("seed", ["10", "15"])
    def test_no_sample_in_domain_is_config_error(self, capsys, seed):
        # the one sample lies outside the Taub-NUT domain: a check over no
        # points must not pass
        assert run_cli(["verify-taubnut", "--samples", "1", "--seed",
                        seed]) == 2
        err = capsys.readouterr().err
        assert "config field 'samples'" in err
        # the message names the domain's bounds
        assert "r <= 10" in err and "u + r < 0.25 max(r, 1)" in err

    def test_step_too_coarse_is_a_failed_check(self, capsys):
        # every sample lies in the command's own range; near r = 0.27 the
        # fixed step is too coarse for the tolerance of the dF partials
        assert run_cli(["verify-flat", "--samples", "5000"]) == 1
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if "flat-closedness" in l)
        assert line.startswith("FAIL")
        assert "richardson=1.03e-05" in line
        assert "at=['-0.0164', '-0.0130', '0.2683']" in line
        assert run_cli(["verify-flat", "--step", "1e-2"]) == 1

    def test_fault_class_is_named(self, monkeypatch, capsys):
        from ghlab import QuadratureFailure, cli

        assert run_cli(["verify-flat", "--step", "0"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert run_cli(["ov", "--a", "-1"]) == 2
        assert capsys.readouterr().err.startswith(
            "domain error: NotPositive: ")

        def short(p, meta):
            raise QuadratureFailure("orders disagree")

        monkeypatch.setitem(cli._RUNNERS, "ronkin", short)
        assert run_cli(["ronkin"]) == 1
        assert capsys.readouterr().err == \
            "numerical error: QuadratureFailure: orders disagree\n"

    def test_failing_check_is_one(self, capsys):
        # gate the decay fit on mode 1, whose true slope is 1.29
        code = run_cli(["decay", "--rrange", "0.5:3:0.25", "--gate-modes",
                        "1", "--rms-limit", "10"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


# every command, at settings small enough for a quick run
QUICK_RUNS = [
    ["verify-flat", "--samples", "20", "--grid", "8"],
    ["verify-taubnut", "--samples", "100"],
    ["ov", "--modes", "8", "--helmholtz-modes", "2"],
    ["ronkin", "--range", "-1:1:0.5"],
    ["amoeba"],
    ["legendre", "--grid", "3", "--samples", "20"],
    ["holonomy", "--segments", "16"],
    ["decay"],
    ["collapse", "--lambdas", "1,5", "--nodes", "64"],
]


@pytest.mark.parametrize("args", QUICK_RUNS, ids=lambda args: args[0])
def test_json_report_of_every_command(tmp_path, capsys, args):
    out = tmp_path / "rep.json"
    assert run_cli(args + ["--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert "configHash" in rep
    for check in rep.get("checks", []):
        assert type(check["pass"]) is bool


@pytest.mark.parametrize("args", QUICK_RUNS, ids=lambda args: args[0])
def test_json_report_into_missing_directory_is_io_error(tmp_path, capsys,
                                                        args):
    out = tmp_path / "missing" / "rep.json"
    assert run_cli(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and "Traceback" not in err


@pytest.mark.parametrize("poly,point", [
    ("1+z1+z2", "0,0"), ("1+z1+z2", "3,0"), ("1+z", "0"), ("1+z", "1"),
])
def test_amoeba_membership_is_certified(monkeypatch, capsys, poly, point):
    from ghlab import tropical

    args = ["amoeba", "--poly", poly, "--point", point]
    assert run_cli(args) == 0
    real = tropical._amoeba_gap

    def flipped(P, x, tol, **kw):
        # the same witness with the opposite answer
        gap, z = real(P, x, tol=tol, **kw)
        return (math.inf if gap <= tol else 0.0), z

    monkeypatch.setattr(tropical, "_amoeba_gap", flipped)
    assert run_cli(args) == 1
    assert "FAIL amoeba-membership" in capsys.readouterr().out


@pytest.mark.parametrize("poly,point,winding", [
    ("1+z1+z2", "0,800", 1), ("1+z1+z2", "800,0", 0),
    ("2+z1+z2+z1z2^2", "0,800", 2),
])
def test_amoeba_far_from_the_origin(capsys, poly, point, winding):
    # the largest term is e^800 or e^1600, past the largest float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["amoeba", "--poly", poly, "--point", point]) == 0
    out, err = capsys.readouterr()
    coords = [float(v) for v in point.split(",")]
    assert out.startswith("PASS amoeba-membership (contains=False "
                          f"point={coords} winding={winding})")
    assert err == ""


def test_amoeba_witness_far_from_the_origin(capsys):
    # (1 - z1)(1 + z2) vanishes at (1, e^800), past the largest float: the
    # witness is checked in log-modulus, and its terms cancel exactly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["amoeba", "--poly", "1-z1+z2-z1z2",
                        "--point", "0,800"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("PASS amoeba-membership (contains=True "
                          "point=[0.0, 800.0] witnessResidual=0.0e+00)")
    assert err == ""


@pytest.mark.parametrize("poly,point", [
    ("1-z1+z2-z1z2", "0,800"), ("1+z1+z2", "0,0"), ("1+z", "0"),
])
@pytest.mark.parametrize("tol", ["1e-6", "1e-4"])
def test_amoeba_shifted_witness_fails(monkeypatch, capsys, poly, point, tol):
    # a witness 1e-5 off in log-modulus: past tol at 1e-6, and within tol
    # at 1e-4, where its terms no longer cancel to 1e-8
    from ghlab import tropical

    real = tropical._amoeba_gap

    def shifted(P, x, tol, **kw):
        gap, (logmod, arg) = real(P, x, tol=tol, **kw)
        return gap, (logmod + 1e-5, arg)

    args = ["amoeba", "--poly", poly, "--point", point, "--tol", tol]
    assert run_cli(args) == 0
    monkeypatch.setattr(tropical, "_amoeba_gap", shifted)
    assert run_cli(args) == 1
    assert "FAIL amoeba-membership (contains=True" in capsys.readouterr().out


@pytest.mark.parametrize("poly", ["1+z1+z2+z1*z2", "1-z1+z2-z1*z2"])
def test_amoeba_factor_in_z1_alone(capsys, poly):
    # the factor 1 +- z1 vanishes on the fiber circle |z1| = 1, so every
    # point (0, y) is in the amoeba, with the witness (-+1, e^y)
    assert run_cli(["amoeba", "--poly", poly, "--point", "0,0.5"]) == 0
    out = capsys.readouterr().out
    assert "PASS amoeba-membership (contains=True" in out


def test_contractible_holonomy_catches_wrong_dv_dt(monkeypatch, capsys):
    from ghlab import legendre

    real = legendre.singular_2d

    def mutated(*a, **kw):
        # scale the dV/dt term of beta by 3
        sol = real(*a, **kw)
        V_partial = sol.V_partial
        sol.V_partial = lambda orders, pts: (
            3.0 if tuple(orders) == (0, 1) else 1.0) * V_partial(orders, pts)
        return sol

    assert run_cli(["holonomy"]) == 0
    monkeypatch.setattr(legendre, "singular_2d", mutated)
    assert run_cli(["holonomy"]) == 1
    assert "FAIL holonomy-contractible" in capsys.readouterr().out


def test_collapse_field_check_catches_wrong_mode_sum(monkeypatch, capsys):
    from ghlab import solutions

    assert run_cli(["collapse"]) == 0
    assert "PASS collapse-field-nonincreasing" in capsys.readouterr().out
    real = solutions.k0
    # the exact target is an independent K0 good to rounding, so a relative
    # fault of 1e-9 shows as well as one of 1e-2
    for scale in (1.01, 1.0 + 1e-9):
        monkeypatch.setattr(solutions, "k0", lambda x, s=scale: s * real(x))
        assert run_cli(["collapse"]) == 1
        assert "FAIL collapse-field-nonincreasing" in capsys.readouterr().out


def test_decay_without_modes_is_a_failed_check(monkeypatch, capsys):
    # with K0 scaled by 0 the field has no mode m >= 1: each fit is a
    # finite rate outside the band, not a crash
    from ghlab import solutions

    real = solutions.k0
    monkeypatch.setattr(solutions, "k0", lambda x: 0.0 * real(x))
    assert run_cli(["decay"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("FAIL decay-slope-band (rates=")
    rates = ast.literal_eval(out[out.index("{"):out.rindex("}") + 1])
    assert all(math.isfinite(float(r)) for r in rates.values())
    assert err == ""


def test_decay_svg_without_modes_fails_and_writes_no_plot(monkeypatch, capsys,
                                                         tmp_path):
    # a log axis cannot show a mode that vanishes: the check still FAILs,
    # stderr says why no plot was written, and nothing is raised
    from ghlab import solutions

    real = solutions.k0
    monkeypatch.setattr(solutions, "k0", lambda x: 0.0 * real(x))
    svg = tmp_path / "d.svg"
    assert run_cli(["decay", "--svg", str(svg)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("FAIL decay-slope-band (rates=")
    assert err == ("decay: |V^m| is not positive on the grid for m in "
                   f"[4, 5, 6, 7, 8]; {svg} was not written\n")
    assert not svg.exists()


def test_decay_svg_leaves_out_an_absent_mode(monkeypatch, capsys, tmp_path):
    from ghlab import decay

    real = decay.decay_fit

    def without_mode_5(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.magnitudes[5] = 0.0 * rep.magnitudes[5]
        return rep

    monkeypatch.setattr(decay, "decay_fit", without_mode_5)
    svg = tmp_path / "d.svg"
    assert run_cli(["decay", "--svg", str(svg)]) == 0
    assert capsys.readouterr().err == (
        "decay: |V^m| is not positive on the grid for m in [5]; the plot "
        "leaves them out\n")
    text = svg.read_text()
    assert ">m=4<" in text and ">m=6<" in text and ">m=5<" not in text


@pytest.mark.parametrize("entry", [0, 14])
def test_ov_helmholtz_check_catches_perturbed_k0_table(monkeypatch, capsys,
                                                       entry):
    # the check differentiates the double-precision V^m that V is summed
    # from; its stencils at m rho = 4 straddle the series/Chebyshev switch
    from ghlab import bessel

    coeffs = bessel._CHEB_COEFFS.copy()
    coeffs[entry] += 1e-9
    monkeypatch.setattr(bessel, "_CHEB_COEFFS", coeffs)
    assert run_cli(["ov"]) == 1
    assert "FAIL ov-helmholtz" in capsys.readouterr().out


def test_ov_helmholtz_check_catches_a_scaled_chebyshev_coefficient(
        monkeypatch, capsys):
    # the one stencil of the periodic family: criterion 5's grid and the
    # ov check both see a relative fault of 1e-5 in one coefficient
    from ghlab import bessel
    from ghlab.solutions import ooguri_vafa

    coeffs = bessel._CHEB_COEFFS.copy()
    coeffs[3] *= 1.0 + 1e-5
    monkeypatch.setattr(bessel, "_CHEB_COEFFS", coeffs)
    sol = ooguri_vafa(1.0, 40, a=5.0)
    assert max(abs(sol.helmholtz_residual(m, rho)) for m in range(1, 11)
               for rho in (0.1, 0.4, 1.0, 3.0)) > 1e-8
    assert run_cli(["ov"]) == 1
    assert "FAIL ov-helmholtz" in capsys.readouterr().out


def test_ov_helmholtz_reports_the_library_residual(capsys):
    # ghlab ov has no stencil of its own: its maxResidual is the family's
    from ghlab.solutions import ooguri_vafa

    assert run_cli(["ov"]) == 0
    sol = ooguri_vafa(1.0, 40, a=5.0)
    worst = max(abs(v) for m in range(1, 11)
                for v in sol.helmholtz_residual(m, [0.1, 0.5, 2.0]))
    assert f"(maxResidual={worst:.3e} modes=10)" in capsys.readouterr().out


def test_ronkin_vertex_bound_is_the_per_point_loop_bit_for_bit(monkeypatch):
    # the Jensen lower bound of ghlab ronkin is one tropical_limit call on
    # the polynomial of P's lowest and highest terms; it keeps the bits of
    # the per-point max over those two terms, a monomial included
    import numpy as np

    from ghlab import tropical
    from ghlab.cli import _range

    limit, calls = tropical.tropical_limit, []

    def recorded(*args, **kwargs):
        out = limit(*args, **kwargs)
        if sys._getframe(1).f_code.co_name == "_cmd_ronkin":
            calls.append(out)
        return out

    monkeypatch.setattr(tropical, "tropical_limit", recorded)
    for poly in ["1+z", "3", "z^2", "2+z^-1+0.5*z^3", "1+3*z+z^2",
                 "0.5+z^3", "0.1*z^-2+4*z+7*z^5"]:
        P = tropical.parse_laurent(poly)
        exps = P.exponents()[:, 0]
        lo_t = min(zip(exps, P.coefficients()), key=lambda t: t[0])
        hi_t = max(zip(exps, P.coefficients()), key=lambda t: t[0])
        for grid in ["-3:3:0.1", "-2:2:0.05", "-40:40:0.7"]:
            for kappa in (1, 2):
                calls.clear()
                assert run_cli(["ronkin", "--poly", poly, "--range", grid,
                                "--kappa", str(kappa)]) in (0, 1)
                want = np.array([kappa * max(e * t + math.log(abs(c))
                                             for e, c in (lo_t, hi_t))
                                 for t in _range(grid)])
                assert np.array_equal(calls[0].view(np.int64),
                                      want.view(np.int64)), (poly, grid)


class TestConfigMerging:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "ronkin", "range": "-1:1:0.5"}))
        out_json = tmp_path / "rep.json"
        code = run_cli(["ronkin", "--config", str(cfg), "--range", "-2:2:0.5",
                        "--out", str(out_json)])
        assert code == 0
        assert "points=9" in capsys.readouterr().out
        rep = json.loads(out_json.read_text())
        assert rep["command"] == "ronkin"
        assert "configHash" in rep and "version" in rep

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "decay"}))
        assert run_cli(["ronkin", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("cmd,values", [
        ("legendre", {"samples": "ten"}),
        ("amoeba", {"tol": None}),
        ("ov", {"flux_radii": 0.5}),
        ("ov", {"flux_radii": [0.5, 0.5]}),
        ("collapse", {"nodes": 64.5}),
        ("collapse", {"lambdas": [5.0]}),
        ("decay", {"gate_modes": []}),
    ], ids=["samples-text", "tol-null", "radii-scalar", "radii-equal",
            "nodes-fraction", "one-lambda", "no-gate-modes"])
    def test_bad_file_value_is_config_error(self, tmp_path, capsys, cmd,
                                            values):
        # a file value is converted and checked just like a flag's text
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert run_cli([cmd, "--config", str(cfg)]) == 2
        (key,) = values
        assert f"config error: config field '{key}'" in \
            capsys.readouterr().err

    @staticmethod
    def config_hash(monkeypatch, args):
        # the resolved config's hash, without running the checks
        seen = []
        monkeypatch.setitem(cli._RUNNERS, args[0],
                            lambda p, meta: seen.append(meta["configHash"])
                            or [])
        assert run_cli(args) == 0
        return seen[0]

    @pytest.mark.parametrize("cmd", [
        "verify-flat", "verify-taubnut", "ov", "ronkin", "amoeba", "legendre",
        "holonomy", "decay", "collapse"])
    def test_file_of_defaults_is_a_bare_run(self, tmp_path, monkeypatch,
                                            cmd):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            key: default for key, (default, _) in
            {**cli._COMMANDS[cmd], **cli._COMMON}.items()}))
        assert self.config_hash(monkeypatch, [cmd, "--config", str(cfg)]) \
            == self.config_hash(monkeypatch, [cmd])

    @pytest.mark.parametrize("cmd,key,text,value", [
        ("verify-flat", "samples", "20", 20),
        ("ov", "a", "1", 1),
        ("decay", "gate_modes", "4,5", [4, 5]),
        ("ov", "flux_radii", "0.2,0.6", [0.2, 0.6]),
    ])
    def test_flag_and_file_value_hash_alike(self, tmp_path, monkeypatch, cmd,
                                            key, text, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        flag = "--" + key.replace("_", "-")
        assert self.config_hash(monkeypatch, [cmd, "--config", str(cfg)]) \
            == self.config_hash(monkeypatch, [cmd, flag, text])

    @pytest.mark.parametrize("cmd,a,b", [
        ("ronkin", "--range=0:1:0.25", "--range=0:1.000000001:0.25"),
        ("ronkin", "--range=-3:3:0.005", "--range=-3:3.0000000001:0.005"),
    ], ids=["8-digit-rounding", "over-1000-points"])
    def test_distinct_grids_hash_apart(self, monkeypatch, cmd, a, b):
        # the grids differ (in their last point), so must their hashes
        assert self.config_hash(monkeypatch, [cmd, a]) \
            != self.config_hash(monkeypatch, [cmd, b])


class TestGoldenOutputs:
    def test_ronkin_csv_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ja, jb = tmp_path / "a.json", tmp_path / "b.json"
        args = ["ronkin", "--poly", "1+z", "--range", "-2:2:0.5"]
        assert run_cli(args + ["--csv", str(a), "--out", str(ja)]) == 0
        assert run_cli(args + ["--csv", str(b), "--out", str(jb)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert ja.read_bytes() == jb.read_bytes()

    def test_nonunit_coefficients_use_one_sided_envelope(self):
        # (1+z/2)^4 exceeds the naive upper envelope; the lower bound is
        # the generally valid clause and the check must still pass
        assert run_cli(["ronkin", "--poly",
                        "1+2*z+1.5*z^2+0.5*z^3+0.0625*z^4",
                        "--range", "-2:2:0.25"]) == 0

    def test_ronkin_matches_corner_formula(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(["ronkin", "--poly", "1+z", "--range", "-3:3:0.5",
                        "--csv", str(out)]) == 0
        rows = [line.split(",") for line in
                out.read_text().splitlines()[2:]]
        for row in rows:
            x, val = float(row[0]), float(row[2])
            if abs(x) >= 0.05:
                assert abs(val - max(0.0, x)) < 1e-6

    def test_svg_deterministic_and_wellformed(self, tmp_path):
        import xml.etree.ElementTree as ET

        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["decay", "--rrange", "0.5:3:0.25", "--modes", "6",
                "--gate-modes", "4,5,6"]
        assert run_cli(args + ["--svg", str(a)]) == 0
        assert run_cli(args + ["--svg", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        tree = ET.parse(a)
        polylines = [e for e in tree.iter()
                     if e.tag.endswith("polyline")]
        assert len(polylines) == 3

    # every artifact of the nine commands at defaults, byte for byte, except
    # amoeba.json (below): one file under tests/golden/ each, named
    # <command>.<suffix>.  README says how to re-pin them
    @pytest.mark.parametrize("cmd,kind", [
        pytest.param(cmd, kind, id=f"{cmd}.{suffix}")
        for cmd, table in cli._COMMANDS.items()
        for kind, suffix in SUFFIX.items()
        if kind in {**table, **cli._COMMON} and cmd != "amoeba"])
    def test_artifact_matches_golden(self, tmp_path, cmd, kind):
        name = f"{cmd}.{SUFFIX[kind]}"
        assert run_cli([cmd, f"--{kind}", str(tmp_path / name)]) == 0
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_amoeba_report_matches_golden(self, tmp_path):
        # the witness of 1 + z1 + z2 at the origin is a torus point, whose
        # residual is rounding noise that moves with the last bit of its
        # angle: it is held to 1e-15, every other field exactly
        path = tmp_path / "amoeba.json"
        assert run_cli(["amoeba", "--out", str(path)]) == 0
        report = json.loads(path.read_text())
        details = report["checks"][0]["details"]
        assert float(details.pop("witnessResidual")) <= 1e-15
        assert report == {
            "checks": [{"details": {"contains": True, "point": [0.0, 0.0]},
                        "name": "amoeba-membership", "pass": True}],
            "command": "amoeba", "configHash": "bec90fc93d1d70ef",
            "version": "0.1.0"}

    def test_ov_csv_matches_bessel_oracle(self, tmp_path):
        # V = a - log r/(2 pi) + (1/pi) sum_{m <= 40} cos(m y) K0(m r) and
        # V^m = K0(m r)/(2 pi) on the line x = 0, from mpmath alone
        import mpmath as mp

        path = tmp_path / "ov.csv"
        assert run_cli(["ov", "--csv", str(path)]) == 0
        lines = path.read_text().splitlines()
        header = lines[1].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
        assert len(rows) == 64 and len(header) == 4 + 8
        bessel = {}

        def k0(m, r):
            if (m, r) not in bessel:
                bessel[m, r] = float(mp.besselk(0, m * r))
            return bessel[m, r]

        for u, x, y, v, *modes in rows:
            assert x == 0.0
            want = 5.0 - math.log(u) / (2.0 * math.pi) + sum(
                math.cos(m * y) * k0(m, u) for m in range(1, 41)) / math.pi
            assert abs(v - want) < 1e-11
            for m, vm in enumerate(modes, 1):
                assert abs(vm - k0(m, u) / (2.0 * math.pi)) < 1e-11

    def test_ov_csv_is_one_batched_evaluation(self, tmp_path, monkeypatch,
                                              capsys):
        # one k0 call per mode of the value sum and one per shown mode; a
        # per-row loop over the 64 grid points makes 3,072
        from ghlab import solutions

        calls = []
        k0 = solutions.k0

        def counting_k0(x):
            calls.append(1)
            return k0(x)

        monkeypatch.setattr(solutions, "k0", counting_k0)
        assert run_cli(["ov"]) == 0
        baseline = len(calls)
        calls.clear()
        assert run_cli(["ov", "--csv", str(tmp_path / "ov.csv")]) == 0
        assert len(calls) - baseline <= 40 + 8

    def test_holonomy_report_contents(self, tmp_path):
        out = tmp_path / "h.json"
        assert run_cli(["holonomy", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["windings"] == [1]
        assert abs(rep["holonomyMatrix"][0][0] + 1.0) < 1e-6
        assert "configHash" in rep


class TestEmitSvg:
    def test_single_series_polyline(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_svg([("y=10^x", [0, 1, 2], [1, 10, 100])], "t", "x", "y",
                 str(path))
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert "0,1,2" not in text  # coordinates are scaled pixels
        # y ticks label the decades of the log axis
        assert ">1</text>" in text and ">100</text>" in text

    def test_rejects_empty_and_nonfinite(self, tmp_path):
        path = tmp_path / "p.svg"
        with pytest.raises(ValueError):
            emit_svg([], "t", "x", "y", str(path))
        with pytest.raises(ValueError):
            emit_svg([("ragged", [0.0, 1.0], [1.0])], "t", "x", "y",
                     str(path))
        with pytest.raises(NonFiniteValue):
            emit_svg([("bad", [0.0, 1.0], [1.0, float("nan")])], "t", "x",
                     "y", str(path))
        with pytest.raises(NonFiniteValue):
            emit_svg([("logbad", [0.0], [-1.0])], "t", "x", "y", str(path))
        assert not path.exists()


def _run_python(args, threads=None):
    """A Python subprocess with OPENBLAS_NUM_THREADS unset, or set to
    ``threads``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _thread_count(module, threads=None):
    return int(_run_python(["-c", f"import os, {module}\n"
                            "print(len(os.listdir('/proc/self/task')))"],
                           threads))


class TestEntryPoint:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                        or (os.cpu_count() or 1) < 2,
                        reason="needs /proc and two CPUs to see a BLAS pool")
    def test_commands_start_no_blas_pool_unless_asked(self):
        if _thread_count("numpy", threads=2) != 2:
            pytest.skip("numpy's BLAS starts no OpenBLAS worker pool here")
        assert _thread_count("ghlab.cli") == 1
        assert _thread_count("ghlab.cli", threads=2) == 2

    @pytest.mark.parametrize("args", [["verify-flat", "--out"],
                                      ["decay", "--csv"]],
                             ids=["verify-flat", "decay"])
    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path, args):
        blobs = []
        for threads in (None, 2):
            path = tmp_path / f"artifact-{threads}"
            _run_python(["-m", "ghlab.cli", *args, str(path)], threads)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ghlab.cli", "amoeba", "--poly", "1+z",
             "--point", "1"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "contains=False" in proc.stdout

    def test_root_at_zero_writes_nothing_to_stderr(self):
        # a resultant root of z1 z2 + 1 at 0 has log -inf: no cut, no
        # RuntimeWarning
        proc = subprocess.run(
            [sys.executable, "-m", "ghlab.cli", "amoeba", "--poly", "z1z2+1",
             "--point", "0,0"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("PASS amoeba-membership")
        assert proc.stderr == ""

    def test_ronkin_and_amoeba_load_no_sympy_or_mpmath(self):
        code = ("import sys\n"
                "from ghlab import cli\n"
                "assert cli.main(['ronkin']) == 0\n"
                "assert cli.main(['amoeba']) == 0\n"
                "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_ronkin_and_amoeba_load_no_lattice_ghcore_or_fields(self):
        # lattice serves verify-flat's wall weight and the dual-pair layer,
        # and ghcore only decay's domain errors; fields comes in with ghcore
        code = ("import sys\n"
                "from ghlab import cli\n"
                "heavy = {'ghlab.lattice', 'ghlab.ghcore', 'ghlab.fields'}\n"
                "for cmd in ('ronkin', 'amoeba'):\n"
                "    assert cli.main([cmd]) == 0\n"
                "    print('loaded', cmd, sorted(heavy & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = [line for line in proc.stdout.splitlines()
                  if line.startswith("loaded ")]
        assert loaded == ["loaded ronkin []", "loaded amoeba []"]

    def test_legendre_and_holonomy_load_no_lattice(self):
        # their Gauss-Legendre rule lives in fields; verify-flat, run last,
        # reads its wall weight from lattice and shows that the probe sees it
        code = ("import sys\n"
                "from ghlab import cli\n"
                "for cmd in ('legendre', 'holonomy', 'verify-flat'):\n"
                "    assert cli.main([cmd]) == 0\n"
                "    print('loaded', cmd, 'ghlab.lattice' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = [line for line in proc.stdout.splitlines()
                  if line.startswith("loaded ")]
        assert loaded == ["loaded legendre False", "loaded holonomy False",
                          "loaded verify-flat True"]

    def test_decay_ov_and_collapse_load_no_sympy(self):
        # none of them builds a symbolic field, and every K0 they take is a
        # double-precision one; verify-flat and verify-taubnut load the
        # same solutions module; legendre and holonomy build jet potentials.
        # With ronkin and amoeba above, these are all nine commands
        code = ("import sys\n"
                "from ghlab import cli\n"
                "for cmd in ('decay', 'ov', 'collapse', 'verify-flat',\n"
                "            'verify-taubnut', 'legendre', 'holonomy'):\n"
                "    assert cli.main([cmd]) == 0\n"
                "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_no_command_loads_numpy_ma(self):
        # numpy.ma costs about 15 ms of a cold command; numpy 2 imports it
        # inside np.unique when no return_inverse is asked for.  numpy 1.x
        # imports it with numpy itself, so only what the commands add counts
        code = ("import sys\n"
                "from ghlab import cli\n"
                "before = set(sys.modules)\n"
                "for cmd in ('verify-flat', 'verify-taubnut', 'ov', 'ronkin',\n"
                "            'amoeba', 'legendre', 'holonomy', 'decay',\n"
                "            'collapse'):\n"
                "    assert cli.main([cmd]) == 0, cmd\n"
                "print('numpy.ma' in set(sys.modules) - before)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_decay_loads_no_tropical_layer(self):
        # only ronkin_collapse takes Ronkin functions, and it imports them
        # itself: neither the module nor the decay command loads them
        code = ("import sys\n"
                "layer = {'ghlab.tropical', 'ghlab.lattice'}\n"
                "import ghlab.decay\n"
                "print(sorted(layer & set(sys.modules)))\n"
                "from ghlab import cli\n"
                "assert cli.main(['decay']) == 0\n"
                "print(sorted(layer & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("[]", "[]"), lines

    def test_symbolic_commands_run_with_sympy_blocked(self):
        # a None entry in sys.modules makes every import of sympy fail; the
        # built-in potentials are jet functions and need no sympy
        code = ("import sys\n"
                "sys.modules['sympy'] = None\n"
                "import ghlab.legendre\n"
                "from ghlab import cli\n"
                "for cmd in ('verify-flat', 'verify-taubnut', 'legendre',\n"
                "            'holonomy'):\n"
                "    assert cli.main([cmd]) == 0, cmd\n"
                "print('done')\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "done"
