import json
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
