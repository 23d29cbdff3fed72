import json
import math
import subprocess
import sys

import pytest

from ghlab.cli import main
from ghlab.svgplot import NonFiniteValue, emit_svg


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
        ["ov", "--flux-radii", "-0.3", "0.5"],
    ], ids=["amoeba-3-vars", "collapse-2-vars", "decay-gate-modes",
            "ov-radius"])
    def test_unsupported_input_is_config_error(self, capsys, args):
        assert run_cli(args) == 2
        assert "config error" in capsys.readouterr().err

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
        from ghlab import cli

        def broken(p, meta):
            raise ValueError("bug")

        monkeypatch.setitem(cli._RUNNERS, "amoeba", broken)
        with pytest.raises(ValueError, match="bug"):
            run_cli(["amoeba"])

    def test_failing_check_is_one(self, capsys):
        # gate the decay fit on mode 1, whose true slope is 1.29
        code = run_cli(["decay", "--rrange", "0.5:3:0.25", "--gate-modes",
                        "1", "--rms-limit", "10"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["verify-flat", "--samples", "20", "--grid", "8"],
    ["verify-taubnut", "--samples", "100"],
    ["ov", "--modes", "8", "--helmholtz-modes", "2"],
    ["ronkin", "--range", "-1:1:0.5", "--nodes", "64"],
    ["amoeba"],
    ["legendre", "--grid", "3", "--samples", "20"],
    ["holonomy", "--segments", "16"],
    ["decay"],
    ["collapse", "--lambdas", "1,5", "--nodes", "64"],
], ids=lambda args: args[0])
def test_json_report_of_every_command(tmp_path, capsys, args):
    out = tmp_path / "rep.json"
    assert run_cli(args + ["--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert "configHash" in rep
    for check in rep.get("checks", []):
        assert type(check["pass"]) is bool


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
    monkeypatch.setattr(solutions, "k0", lambda x: 1.01 * real(x))
    assert run_cli(["collapse"]) == 1
    assert "FAIL collapse-field-nonincreasing" in capsys.readouterr().out


class TestConfigMerging:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "ronkin", "range": "-1:1:0.5",
                                   "nodes": 64}))
        out_json = tmp_path / "rep.json"
        code = run_cli(["ronkin", "--config", str(cfg), "--nodes", "128",
                        "--out", str(out_json)])
        assert code == 0
        rep = json.loads(out_json.read_text())
        assert rep["command"] == "ronkin"
        assert "configHash" in rep and "version" in rep

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "decay"}))
        assert run_cli(["ronkin", "--config", str(cfg)]) == 2


class TestGoldenOutputs:
    def test_ronkin_csv_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ja, jb = tmp_path / "a.json", tmp_path / "b.json"
        args = ["ronkin", "--poly", "1+z", "--range", "-2:2:0.5",
                "--nodes", "64"]
        assert run_cli(args + ["--csv", str(a), "--out", str(ja)]) == 0
        assert run_cli(args + ["--csv", str(b), "--out", str(jb)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert ja.read_bytes() == jb.read_bytes()

    def test_nonunit_coefficients_use_one_sided_envelope(self):
        # (1+z/2)^4 exceeds the naive upper envelope; the lower bound is
        # the generally valid clause and the check must still pass
        assert run_cli(["ronkin", "--poly",
                        "1+2*z+1.5*z^2+0.5*z^3+0.0625*z^4",
                        "--range", "-2:2:0.25", "--nodes", "64"]) == 0

    def test_ronkin_matches_corner_formula(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(["ronkin", "--poly", "1+z", "--range", "-3:3:0.5",
                        "--nodes", "128", "--csv", str(out)]) == 0
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
        emit_svg([("y=x", [0, 1, 2], [0, 1, 2])], {"title": "t"}, str(path))
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert "0,1,2" not in text  # coordinates are scaled pixels

    def test_rejects_empty_and_nonfinite(self, tmp_path):
        path = tmp_path / "p.svg"
        with pytest.raises(ValueError):
            emit_svg([], {}, str(path))
        with pytest.raises(NonFiniteValue):
            emit_svg([("bad", [0.0, 1.0], [0.0, float("nan")])], {},
                     str(path))
        with pytest.raises(NonFiniteValue):
            emit_svg([("logbad", [0.0], [-1.0])], {"ylog": True}, str(path))


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ghlab.cli", "amoeba", "--poly", "1+z",
             "--point", "1"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "contains=False" in proc.stdout

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
