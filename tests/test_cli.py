import json
import math
import subprocess
import sys

import numpy as np
import pytest

from symplat.cli import load_basis, load_siegel, main
from symplat.errors import ParseError, SchemaError
from symplat.linalg import mat_to_obj


@pytest.fixture
def id4_file(tmp_path):
    path = tmp_path / "id4.json"
    path.write_text(json.dumps(mat_to_obj(np.eye(4))))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


class TestLoaders:
    def test_round_trip_full_precision(self, tmp_path, rng):
        m = rng.normal(size=(3, 3))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(mat_to_obj(m)))
        assert np.array_equal(load_basis(str(path)), m)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_basis(str(path))

    def test_non_square_rows(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 2, "rows": [[1.0, 0.0], [0.0]]}))
        with pytest.raises(SchemaError):
            load_basis(str(path))

    def test_siegel_round_trip(self, tmp_path):
        from symplat import k_family_point, sample_vcube
        from symplat.symplectic import siegel_to_obj

        z = k_family_point(sample_vcube(2, 3), 1.5)
        path = tmp_path / "z.json"
        path.write_text(json.dumps(siegel_to_obj(z)))
        z2 = load_siegel(str(path))
        assert np.array_equal(z2.x, z.x)
        assert np.array_equal(z2.y, z.y)

    def test_siegel_asymmetric_x(self, tmp_path, capsys):
        obj = {"g": 2, "x": mat_to_obj([[0.0, 1.0], [0.0, 0.0]]),
               "y": mat_to_obj(np.eye(2))}
        path = tmp_path / "z.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="X asymmetry"):
            load_siegel(str(path))
        code, payload = run_json(capsys, ["family-check", "--family", "k",
                                          "--siegel-file", str(path)])
        assert code == 2
        assert payload["error"]["type"] == "ValueError"


class TestCommands:
    def test_bounds(self, capsys):
        code, payload = run_json(capsys, ["bounds", "--g", "2", "--stable-output"])
        assert code == 0
        res = payload["result"]
        assert res["buser_sarnak"] == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert res["theorem1"] == pytest.approx(2.0 * math.sqrt(2.0) / math.pi, rel=1e-12)
        assert payload["config"]["g"] == 2

    def test_systole(self, capsys, id4_file):
        code, payload = run_json(capsys, ["systole", "--basis-file", id4_file,
                                          "--stable-output"])
        assert code == 0
        assert payload["result"] == {"systole2": 1.0, "count": 8}

    def test_enumerate(self, capsys, id4_file):
        code, payload = run_json(capsys, ["enumerate", "--basis-file", id4_file,
                                          "--r2", "1.0", "--stable-output"])
        assert code == 0
        assert payload["result"]["count"] == 8

    def test_eig(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(mat_to_obj([[2.0, 1.0], [1.0, 2.0]])))
        code, payload = run_json(capsys, ["eig", "--basis-file", str(path),
                                          "--stable-output"])
        assert code == 0
        assert payload["result"]["eigenvalues"] == pytest.approx([3.0, 1.0])

    def test_symmetries_cyclic(self, capsys, tmp_path, rng):
        from symplat import circulant_from_row
        from conftest import random_circulant_row

        row = random_circulant_row(rng, 5)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(mat_to_obj(circulant_from_row(row))))
        code, payload = run_json(capsys, ["symmetries", "--basis-file", str(path),
                                          "--candidates", "cyclic", "--stable-output"])
        assert code == 0
        assert payload["result"]["count"] == 4

    def test_symmetries_jgroup(self, capsys, tmp_path, rng):
        from symplat import a2n_from_row
        from conftest import random_a2n_row

        row = random_a2n_row(rng, 8)
        path = tmp_path / "a.json"
        path.write_text(json.dumps(mat_to_obj(a2n_from_row(row))))
        code, payload = run_json(capsys, ["symmetries", "--basis-file", str(path),
                                          "--candidates", "jgroup", "--stable-output"])
        assert code == 0
        assert payload["result"]["count"] == 7

    def test_family_check(self, capsys, tmp_path):
        from symplat import k_family_point, sample_vcube
        from symplat.symplectic import siegel_to_obj

        z = k_family_point(sample_vcube(2, 5), 1.2)
        path = tmp_path / "z.json"
        path.write_text(json.dumps(siegel_to_obj(z)))
        code, payload = run_json(capsys, ["family-check", "--family", "k",
                                          "--siegel-file", str(path),
                                          "--verify", "--stable-output"])
        assert code == 0
        assert payload["result"]["count"] == 1
        assert payload["result"]["checks"]["symplectic"] is True

    def test_bw(self, capsys):
        code, payload = run_json(capsys, ["bw", "--n", "2", "--verify",
                                          "--stable-output"])
        assert code == 0
        res = payload["result"]
        assert res["g"] == 8
        assert res["systole2"] == pytest.approx(2.0, rel=1e-9)
        assert res["kissing"] == 240

    def test_bw_long_gate(self, capsys):
        code, payload = run_json(capsys, ["bw", "--n", "4"])
        assert code == 2
        assert payload["error"]["type"] == "OutOfRange"

    def test_meanvalue(self, capsys):
        code, payload = run_json(capsys, [
            "meanvalue", "--g", "2", "--y", "8", "--r2", "0.25",
            "--samples", "50", "--seed", "3",
            "--stable-output",
        ])
        assert code == 0
        assert payload["result"]["samples"] == 50
        assert payload["result"]["analytic_limit"] == pytest.approx(
            math.pi ** 2 / 32.0
        )

    def test_multiplicity(self, capsys):
        code, payload = run_json(capsys, [
            "multiplicity", "--family", "k", "--g", "2", "--samples", "5",
            "--seed", "1", "--stable-output",
        ])
        assert code == 0
        assert payload["result"]["all_divisible"] is True

    def test_search(self, capsys):
        code, payload = run_json(capsys, [
            "search", "--family", "k", "--g", "2", "--budget", "20",
            "--seed", "2", "--stable-output",
        ])
        assert code == 0
        assert payload["result"]["systole2"] > 0


class TestOutputContracts:
    def test_stable_output_byte_identical(self, capsys):
        argv = ["meanvalue", "--g", "2", "--y", "8", "--r2", "0.25",
                "--samples", "30", "--seed", "9",
                "--stable-output"]
        _, out1 = run_cli(capsys, argv)
        _, out2 = run_cli(capsys, argv)
        assert out1 == out2

    def test_default_output_has_meta(self, capsys):
        _, payload = run_json(capsys, ["bounds", "--g", "2"])
        assert "timestamp" in payload["meta"]

    def test_emitted_basis_reingests(self, capsys, tmp_path):
        code, payload = run_json(capsys, ["bw", "--n", "1", "--stable-output"])
        path = tmp_path / "b.json"
        path.write_text(json.dumps(payload["result"]["basis"]))
        m = load_basis(str(path))
        rows = payload["result"]["basis"]["rows"]
        assert np.array_equal(m, np.array(rows))

    def test_sweep_csv(self, capsys):
        code, out = run_cli(capsys, [
            "sweep", "--g", "2", "--r2", "0.25", "--ys", "4,8",
            "--samples", "20", "--seed", "1",
            "--output", "csv",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,mean,stderr,analytic_limit"
        assert len(lines) == 3

    def test_csv_rejected_elsewhere(self, capsys):
        # --output exists on sweep only, --tol only where a check reads it
        for argv in (["bounds", "--g", "2", "--output", "csv"],
                     ["bw", "--n", "1", "--output", "json"],
                     ["bounds", "--g", "2", "--tol", "1e-6"],
                     ["systole", "--basis-file", "b.json", "--tol", "1e-6"],
                     ["enumerate", "--basis-file", "b.json", "--r2", "1", "--tol", "1e-6"],
                     ["meanvalue", "--g", "2", "--y", "8", "--r2", "0.25",
                      "--samples", "1", "--tol", "1e-6"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "sing.json"
        path.write_text(json.dumps(mat_to_obj([[1.0, 2.0], [2.0, 4.0]])))
        code, payload = run_json(capsys, ["systole", "--basis-file", str(path)])
        assert code == 3
        assert payload["error"]["type"] == "Singular"

    def test_budget_error_exit_code(self, capsys, id4_file):
        code, payload = run_json(capsys, [
            "enumerate", "--basis-file", id4_file, "--r2", "400.0",
            "--node-budget", "100",
        ])
        assert code == 3
        assert payload["error"]["type"] == "RadiusTooLarge"

    def test_validation_error_exit_code(self, capsys):
        code, payload = run_json(capsys, ["bounds", "--g", "3"])
        assert code == 2
        assert payload["error"]["type"] == "OddDimension"


class TestEntryPoint:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "symplat.cli", "bounds", "--g", "2",
             "--stable-output"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["result"]["g"] == 2
