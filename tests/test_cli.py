import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symplat.cli import _DISPATCH, _build_parser, load_basis, load_siegel, main
from symplat.errors import ParseError, SchemaError
from symplat.linalg import mat_to_obj

from conftest import siegel_to_obj


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

    def test_boolean_integers_are_refused(self, tmp_path, capsys):
        basis = tmp_path / "b.json"
        basis.write_text(json.dumps({"dim": True, "rows": [[2.0]]}))
        point = tmp_path / "z.json"
        point.write_text(json.dumps({"g": True, "x": mat_to_obj([[0.0]]),
                                     "y": mat_to_obj([[1.0]])}))
        for argv in (["systole", "--basis-file", str(basis)],
                     ["family-check", "--family", "a2n", "--siegel-file", str(point)]):
            code, payload = run_json(capsys, argv)
            assert code == 2
            assert payload["error"]["type"] == "SchemaError"


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

        z = k_family_point(sample_vcube(2, 5), 1.2)
        path = tmp_path / "z.json"
        path.write_text(json.dumps(siegel_to_obj(z)))
        code, payload = run_json(capsys, ["family-check", "--family", "k",
                                          "--siegel-file", str(path),
                                          "--verify", "--stable-output"])
        assert code == 0
        assert payload["result"]["count"] == 1
        assert payload["result"]["checks"]["symplectic"] is True

    def test_family_check_a2n_large_y(self, capsys, tmp_path):
        # Y = S^2 reaches 1e8; BLAS rounding leaves its XOR pattern ~1e-9 off
        from symplat import a2n_family_point

        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 8)
        s = rng.uniform(0, 1, 8)
        s[0] += 8
        s *= 1e3
        path = tmp_path / "z.json"
        path.write_text(json.dumps(siegel_to_obj(a2n_family_point(x, s))))
        code, payload = run_json(capsys, ["family-check", "--family", "a2n",
                                          "--siegel-file", str(path),
                                          "--verify", "--stable-output"])
        assert code == 0, payload
        assert payload["result"]["count"] == 7
        checks = payload["result"]["checks"]
        assert checks["x_patterned"] is True and checks["y_patterned"] is True
        assert checks["symplectic"] is True

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
        # --output exists on sweep only; no command takes --tol, each check
        # owns its threshold
        valid = [["bounds", "--g", "2"],
                 ["systole", "--basis-file", "b.json"],
                 ["enumerate", "--basis-file", "b.json", "--r2", "1"],
                 ["eig", "--basis-file", "b.json"],
                 ["symmetries", "--basis-file", "b.json", "--candidates", "cyclic"],
                 ["family-check", "--family", "k", "--siegel-file", "z.json"],
                 ["bw", "--n", "1"],
                 ["meanvalue", "--g", "2", "--y", "8", "--r2", "0.25", "--samples", "1"],
                 ["sweep", "--g", "2", "--r2", "0.25", "--ys", "4", "--samples", "1"],
                 ["multiplicity", "--family", "k", "--g", "2", "--samples", "1"],
                 ["search", "--family", "k", "--g", "2", "--budget", "1"]]
        assert sorted(argv[0] for argv in valid) == sorted(_DISPATCH)
        for argv in [["bounds", "--g", "2", "--output", "csv"],
                     ["bw", "--n", "1", "--output", "json"],
                     *(argv + ["--tol", "1e-6"] for argv in valid)]:
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

    def test_every_error_exits_with_its_family_code(self, capsys, monkeypatch):
        from symplat import errors

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        every = set(subclasses(errors.SymplatError))
        assert len(every) == 18
        for cls in every:
            codes = [code for family, code in ((errors.InputError, 2), (errors.NumericalError, 3))
                     if issubclass(cls, family)]
            assert len(codes) == 1, cls

            def failing(args, cls=cls):
                raise cls("boom")

            monkeypatch.setitem(_DISPATCH, "bounds", failing)
            code, payload = run_json(capsys, ["bounds", "--g", "2"])
            assert (code, payload) == (codes[0], {"error": {"type": cls.__name__, "message": "boom"}})

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


class TestReadme:
    def test_cli_block_parses(self):
        """Every ``symplat ...`` line of README's CLI block is a valid command line."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"^## CLI$.*?^```sh\n(.*?)^```$", readme, re.M | re.S).group(1)
        lines = [ln for ln in block.splitlines() if ln.startswith("symplat ")]
        assert len(lines) == len(_DISPATCH)
        parser = _build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line, comments=True)[1:])
