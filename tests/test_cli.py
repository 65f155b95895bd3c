"""End-to-end command line runs against the bundled models."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lumpkit as lk
from lumpkit.cli import _build_parser, main
from lumpkit.errors import MonotonicityError

from conftest import DEEP_NESTING, NON_FINITE, scaled_chain

MODELS = Path(__file__).resolve().parent.parent / "models"
RATIONAL3 = str(MODELS / "rational3.ode")
PERTURBED = str(MODELS / "rational3_perturbed.ode")

# the image of row a under J has a norm past the float range
OVERFLOW = (
    "model over\nvar a, b, c\neq a = 1.5e308*b + 1.5e308*c\neq b = b\neq c = c\n"
    "init a = 1\ninit b = 1\ninit c = 1\nobs a\nhorizon 1\n"
)
# the product of the observable row and J passes the float range by itself
PRODUCT_OVERFLOW = (
    "model over\nvar a, b, c\neq a = 1.7e308*c\neq b = 1.7e308*c\neq c = c\n"
    "init a = 1\ninit b = 1\ninit c = 1\nobs a + b\nhorizon 1\n"
)

REFERENCE_PROJECTOR = np.array(
    [[1.0, 0.0, 0.0], [0.0, 0.2, 0.4], [0.0, 0.4, 0.8]]
)


def run(argv):
    """main(argv) with any RuntimeWarning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main(argv)


def read_json(path):
    return json.loads(Path(path).read_text())


def read_strict_json(path):
    """The JSON value in ``path``, read by a parser that rejects Infinity and
    NaN, which are not JSON (RFC 8259)."""

    def reject(token):
        raise ValueError(f"{path}: non-standard JSON token {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def write_reference_lumping(path, epsilon=0.05):
    s = 5.0**0.5
    payload = {
        "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0 / s, 2.0 / s]],
        "epsilon": epsilon,
        "observable_rank": 1,
    }
    Path(path).write_text(json.dumps(payload))


def assert_same_artifacts(dir_a, dir_b):
    """Byte-identical outputs; manifests may differ in timings only."""
    names = sorted(p.name for p in Path(dir_a).iterdir())
    assert names == sorted(p.name for p in Path(dir_b).iterdir())
    for name in names:
        a, b = Path(dir_a) / name, Path(dir_b) / name
        if name == "manifest.json":
            ma, mb = read_json(a), read_json(b)
            ma.pop("timings"), mb.pop("timings")
            assert ma == mb
        else:
            assert a.read_bytes() == b.read_bytes(), name


class TestLump:
    def test_exact_reduction_artifacts(self, tmp_path, capsys):
        points = tmp_path / "points.json"
        points.write_text(
            json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 5, 2], [3, 3, 2]])
        )
        out = tmp_path / "out"
        code = run(
            ["lump", "--model", RATIONAL3, "--out", str(out), "--seed", "0",
             "--epsilon", "0", "--points", str(points)]
        )
        assert code == 0
        assert {p.name for p in out.iterdir()} == {
            "basis.json", "L.json", "manifest.json"
        }

        lump = read_json(out / "L.json")
        assert lump["rows"] == 2
        assert lump["cols"] == 3
        assert lump["epsilon"] == 0.0
        assert lump["observable_rank"] == 1
        L = np.array(lump["matrix"])
        np.testing.assert_allclose(L.T @ L, REFERENCE_PROJECTOR, rtol=0, atol=1e-8)
        assert [pr["origin"] for pr in lump["provenance"]] == [
            "observable", "appended"
        ]

        basis = read_json(out / "basis.json")
        assert basis["seed"] == 0
        assert basis["state_dim"] == 3
        assert len(basis["matrices"]) == 5

        manifest = read_json(out / "manifest.json")
        assert manifest["tool"] == "lumpkit"
        assert manifest["command"] == "lump"
        assert manifest["settings"]["epsilon"] == 0.0
        assert set(manifest["timings"]) == {"parse", "basis", "lump"}

        stdout = capsys.readouterr().out
        assert "reduced size: 2 of 3" in stdout

    def test_repeat_runs_are_identical(self, tmp_path):
        for out in ("a", "b"):
            code = run(
                ["lump", "--model", PERTURBED, "--out", str(tmp_path / out),
                 "--seed", "3", "--epsilon", "0.05"]
            )
            assert code == 0
        assert_same_artifacts(tmp_path / "a", tmp_path / "b")

    def test_seed_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LUMPKIT_SEED", "7")
        out = tmp_path / "env"
        assert run(["lump", "--model", RATIONAL3, "--out", str(out),
                    "--epsilon", "0.1"]) == 0
        assert read_json(out / "basis.json")["seed"] == 7

        out2 = tmp_path / "flag"
        assert run(["lump", "--model", RATIONAL3, "--out", str(out2),
                    "--seed", "2", "--epsilon", "0.1"]) == 0
        assert read_json(out2 / "basis.json")["seed"] == 2

    def test_bad_environment_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LUMPKIT_SEED", "abc")
        code = run(["lump", "--model", RATIONAL3, "--out", str(tmp_path / "o"),
                    "--epsilon", "0.1"])
        assert code == 1
        assert "LUMPKIT_SEED" in capsys.readouterr().err

    def test_negative_epsilon(self, tmp_path):
        assert run(["lump", "--model", RATIONAL3, "--out", str(tmp_path / "o"),
                    "--epsilon", "-1"]) == 1

    def test_infinite_epsilon_exits_1(self, tmp_path, capsys):
        # L.json's epsilon must stay a number that strict JSON can hold
        assert run(["lump", "--model", RATIONAL3, "--out", str(tmp_path / "o"),
                    "--epsilon", "inf"]) == 1
        assert capsys.readouterr().err == "error: --epsilon must be non-negative and finite\n"
        assert not (tmp_path / "o").exists()

    def test_nan_epsilon(self, tmp_path, capsys):
        assert run(["lump", "--model", RATIONAL3, "--out", str(tmp_path / "o"),
                    "--epsilon", "nan"]) == 1
        assert "--epsilon" in capsys.readouterr().err

    def test_manifest_records_the_points_file(self, tmp_path):
        points = tmp_path / "points.json"
        points.write_text(json.dumps([[1, 5, 2], [3, 3, 2]]))
        for name, extra, expected in (
            ("with", ["--points", str(points)], str(points)),
            ("without", [], None),
        ):
            out = tmp_path / name
            assert run(["lump", "--model", RATIONAL3, "--out", str(out), "--seed", "0",
                        "--epsilon", "0", *extra]) == 0
            manifest = read_json(out / "manifest.json")
            assert manifest["settings"]["points"] == expected
            assert set(manifest["timings"]) == {"parse", "basis", "lump"}

    def test_points_file_must_hold_a_list(self, tmp_path, capsys):
        points = tmp_path / "points.json"
        points.write_text("5")
        assert run(["lump", "--model", RATIONAL3, "--out", str(tmp_path / "o"),
                    "--epsilon", "0", "--points", str(points)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_flat_points_list_exits_1(self, tmp_path, capsys):
        points = tmp_path / "points.json"
        points.write_text("[1, 2, 3]")
        assert run(["lump", "--model", RATIONAL3, "--out", str(tmp_path / "o"),
                    "--epsilon", "0", "--points", str(points)]) == 1
        err = capsys.readouterr().err
        assert err == "error: sample point 0 is not a vector of length 3: shape ()\n"

    def test_points_file_of_non_numbers_exits_1(self, tmp_path, capsys):
        points = tmp_path / "points.json"
        points.write_text('[{"a": 1}]')
        assert run(["lump", "--model", RATIONAL3, "--out", str(tmp_path / "o"),
                    "--epsilon", "0", "--points", str(points)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {points}: ") and err.count("\n") == 1

    def test_image_past_the_float_range_is_appended(self, tmp_path, capsys):
        model = tmp_path / "over.ode"
        model.write_text(OVERFLOW)
        assert run(["lump", "--model", str(model), "--out", str(tmp_path / "o"),
                    "--epsilon", "0.1"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "reduced size: 2 of 3"
        assert err == ""

    def test_product_past_the_float_range_is_appended(self, tmp_path, capsys):
        model = tmp_path / "over.ode"
        model.write_text(PRODUCT_OVERFLOW)
        assert run(["lump", "--model", str(model), "--out", str(tmp_path / "o"),
                    "--epsilon", "0.1"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "reduced size: 2 of 3"
        assert err == ""
        lump = read_strict_json(tmp_path / "o" / "L.json")
        assert lump["matrix"][1] == [0.0, 0.0, 1.0]
        assert lump["provenance"][1]["distance"] is None  # inf, written as null

    def test_deeply_nested_model_exits_1(self, tmp_path, capsys):
        model = tmp_path / "deep.ode"
        model.write_text(DEEP_NESTING["parentheses_5000"])
        assert run(["lump", "--model", str(model), "--out", str(tmp_path / "o"),
                    "--epsilon", "0.1"]) == 1
        assert capsys.readouterr().err == "error: line 3: expression nests too deeply\n"

    @staticmethod
    def assert_observable_overflow_exits_1(tmp_path, capsys, observable):
        model = tmp_path / "big.ode"
        text = Path(RATIONAL3).read_text()
        model.write_text(text.replace("obs x1", f"obs {observable}"))
        assert run(["lump", "--model", str(model), "--out", str(tmp_path / "o"),
                    "--epsilon", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow in observable" in err

    def test_observable_power_overflow_exits_1(self, tmp_path, capsys):
        self.assert_observable_overflow_exits_1(tmp_path, capsys, "x1 + (x2 - x2 + 10)^400")

    def test_observable_product_overflow_exits_1(self, tmp_path, capsys):
        # the product's form is inf, and inf times the zero coefficients of x1 nan
        observable = "x1 + (x2 - x2 + 1e200)*(x2 - x2 + 1e200)*x1"
        self.assert_observable_overflow_exits_1(tmp_path, capsys, observable)

    @pytest.mark.parametrize("scale", ["1e200", "1e-170"])
    def test_observable_scale_changes_no_lumping(self, tmp_path, scale):
        # the squares of the row's entry overflow or vanish, but the rank
        # test measures the row at a power-of-two scale
        model = tmp_path / "scaled.ode"
        model.write_text(Path(RATIONAL3).read_text().replace("obs x1", f"obs {scale}*x1"))
        for name, path in (("plain", RATIONAL3), ("scaled", str(model))):
            assert run(["lump", "--model", path, "--out", str(tmp_path / name),
                        "--seed", "0", "--epsilon", "0.1"]) == 0
        assert (tmp_path / "scaled" / "L.json").read_bytes() == (tmp_path / "plain" / "L.json").read_bytes()


class TestFindEpsilon:
    def test_bisection_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["find-epsilon", "--model", PERTURBED, "--out", str(out),
                    "--seed", "0", "--ratio", "0.67"])
        assert code == 0

        search = read_json(out / "search.json")
        assert search["ratio"] == 0.67
        assert search["cutoff_size"] == 2
        assert search["d_min"] == 1e-6
        assert search["boundary"] is None
        assert 1 <= search["reduced_size"] <= 2
        assert search["epsilon"] > 0
        history = search["history"]
        assert search["iterations"] == len(history)
        widths = [step["hi"] - step["lo"] for step in history]
        for prev, cur in zip(widths, widths[1:]):
            assert cur <= 0.5 * prev * (1 + 1e-12)
        assert all(1 <= step["size"] <= 3 for step in history)

        lump = read_json(out / "L.json")
        assert lump["rows"] == search["reduced_size"]
        assert "epsilon:" in capsys.readouterr().out

    def test_badly_scaled_bracket_is_searched_to_the_end(self, tmp_path, capsys):
        model = tmp_path / "chain.ode"
        model.write_text(scaled_chain("1e70", "0.001"))
        code = run(["find-epsilon", "--model", str(model), "--out", str(tmp_path / "out"),
                    "--ratio", "0.67"])
        assert code == 0
        assert "iterations: 253\n" in capsys.readouterr().out

    def test_cutoff_below_observable_rank(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["find-epsilon", "--model", PERTURBED, "--out", str(out),
                    "--seed", "0", "--ratio", "0.1"])
        assert code == 0
        assert "below the observable rank" in capsys.readouterr().err
        search = read_json(out / "search.json")
        assert search["cutoff_size"] == 0
        assert search["boundary"] == "cutoff_below_observable_rank"
        assert search["iterations"] == 1
        assert search["reduced_size"] == 1
        assert search["epsilon"] > 0

    def test_exact_reduction_fits_cutoff(self, tmp_path):
        out = tmp_path / "out"
        code = run(["find-epsilon", "--model", RATIONAL3, "--out", str(out),
                    "--seed", "0", "--ratio", "1.0"])
        assert code == 0
        search = read_json(out / "search.json")
        assert search["cutoff_size"] == 3
        assert search["boundary"] == "exact_fits_cutoff"
        assert search["epsilon"] == 0.0
        assert search["reduced_size"] == 2

    @pytest.mark.parametrize(
        "extra",
        (
            ["--ratio", "0"],
            ["--ratio", "1.5"],
            ["--ratio", "0.5", "--d-min", "0"],
            ["--ratio", "0.5", "--d-min", "nan"],
            ["--ratio", "0.5", "--d-min", "inf"],
        ),
    )
    def test_parameter_validation(self, tmp_path, extra):
        assert run(["find-epsilon", "--model", RATIONAL3,
                    "--out", str(tmp_path / "o")] + extra) == 1

    def test_nan_d_min_fails_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("basis sampled before the flags were checked")

        monkeypatch.setattr("lumpkit.cli.sample_jacobian_basis", no_sampling)
        assert run(["find-epsilon", "--model", RATIONAL3, "--out", str(tmp_path / "o"),
                    "--ratio", "0.5", "--d-min", "nan"]) == 1
        assert "--d-min" in capsys.readouterr().err

    def test_infinite_tolerance_exits_2(self, tmp_path, capsys):
        # every finite tolerance appends the infinite defect, so the search
        # ends at inf, which no artifact can hold as a number
        model = tmp_path / "over.ode"
        model.write_text(OVERFLOW)
        out = tmp_path / "o"
        assert run(["find-epsilon", "--model", str(model), "--out", str(out),
                    "--ratio", "0.34"]) == 2
        err = capsys.readouterr().err
        assert err == "error: the tolerance found is inf: a defect lies past the float range\n"
        assert not (out / "search.json").exists() and not (out / "L.json").exists()


class TestSimulate:
    def test_original_only(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["simulate", "--model", RATIONAL3, "--out", str(out)])
        assert code == 0
        assert {p.name for p in out.iterdir()} == {"original.csv", "manifest.json"}
        lines = (out / "original.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3"
        assert len(lines) == 201
        assert lines[1].split(",") == ["0", "1", "1", "1"]
        assert "integrated to t=1.75" in capsys.readouterr().out

    def test_with_lumping(self, tmp_path, capsys):
        lpath = tmp_path / "L.json"
        write_reference_lumping(lpath)
        out = tmp_path / "out"
        code = run(["simulate", "--model", PERTURBED, "--out", str(out),
                    "--lumping", str(lpath)])
        assert code == 0
        assert {p.name for p in out.iterdir()} == {
            "original.csv", "reduced.csv", "error.csv", "deviation.csv",
            "report.json", "manifest.json",
        }
        report = read_json(out / "report.json")
        assert report["e_at_T"] == pytest.approx(0.0107596, abs=1e-5)
        assert report["e_max"] == report["e_at_T"]
        assert report["e_rel_at_T"] == pytest.approx(0.0042874, abs=1e-5)
        assert report["eta"] == pytest.approx(0.0509385, abs=1e-5)
        assert report["bound_satisfied"] is True

        error_lines = (out / "error.csv").read_text().splitlines()
        assert error_lines[0] == "t,error"
        assert error_lines[1] == "0,0"
        reduced_lines = (out / "reduced.csv").read_text().splitlines()
        assert reduced_lines[0] == "t,y1,y2"
        stdout = capsys.readouterr().out
        assert "e(T)=" in stdout and "eta=" in stdout

    def test_exact_lumping_small_error(self, tmp_path):
        lpath = tmp_path / "L.json"
        write_reference_lumping(lpath, epsilon=0.0)
        out = tmp_path / "out"
        code = run(["simulate", "--model", RATIONAL3, "--out", str(out),
                    "--lumping", str(lpath), "--rel-tol", "1e-8"])
        assert code == 0
        assert read_json(out / "report.json")["e_max"] <= 1e-6

    def test_identity_lumping_bound_is_zero(self, tmp_path, capsys):
        # no deviation: the bound is 0, where 0 times the saturated growth
        # factor would be nan
        lpath = tmp_path / "L.json"
        lpath.write_text(json.dumps({"matrix": np.eye(3).tolist(), "observable_rank": 1}))
        out = tmp_path / "out"
        assert run(["simulate", "--model", PERTURBED, "--out", str(out),
                    "--lumping", str(lpath)]) == 0
        report = read_strict_json(out / "report.json")
        assert (report["e_max"], report["eta"], report["bound"]) == (0.0, 0.0, 0.0)
        assert report["bound_satisfied"] is True
        assert capsys.readouterr().err == ""

    def test_overflowing_first_step_exits_2(self, tmp_path, capsys):
        model = tmp_path / "nonfinite.ode"
        model.write_text(NON_FINITE)
        assert run(["simulate", "--model", str(model), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [err[0]] and err[0].startswith("error: first step guess overflows at t=0")

    def test_corrupt_lumping_file(self, tmp_path):
        lpath = tmp_path / "L.json"
        lpath.write_text("{not json")
        assert run(["simulate", "--model", RATIONAL3, "--out",
                    str(tmp_path / "o"), "--lumping", str(lpath)]) == 1

    @pytest.mark.parametrize(
        "payload", ('{"epsilon": 0.1}', "[1, 2]", '{"matrix": {"a": 1}}')
    )
    def test_malformed_lumping_payload(self, tmp_path, capsys, payload):
        lpath = tmp_path / "L.json"
        lpath.write_text(payload)
        assert run(["simulate", "--model", RATIONAL3, "--out",
                    str(tmp_path / "o"), "--lumping", str(lpath)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_lumping_shape(self, tmp_path):
        lpath = tmp_path / "L.json"
        lpath.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 1.0]]}))
        assert run(["simulate", "--model", RATIONAL3, "--out",
                    str(tmp_path / "o"), "--lumping", str(lpath)]) == 2

    def test_non_orthonormal_lumping(self, tmp_path):
        lpath = tmp_path / "L.json"
        lpath.write_text(
            json.dumps({"matrix": [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]})
        )
        assert run(["simulate", "--model", RATIONAL3, "--out",
                    str(tmp_path / "o"), "--lumping", str(lpath)]) == 2

    @pytest.mark.parametrize(
        "payload, code",
        (('{"matrix": [[NaN, 0, 0]]}', 2), ('{"matrix": [[1, 0, 0]], "epsilon": NaN}', 1)),
        ids=("nan_matrix", "nan_epsilon"),
    )
    def test_nan_lumping(self, tmp_path, capsys, payload, code):
        lpath = tmp_path / "L.json"
        lpath.write_text(payload)
        assert run(["simulate", "--model", RATIONAL3, "--out",
                    str(tmp_path / "o"), "--lumping", str(lpath)]) == code
        assert "error:" in capsys.readouterr().err

    def test_blowup_exits_2(self, tmp_path, capsys):
        model = tmp_path / "blowup.ode"
        model.write_text(
            "model blowup\nvar a, b\neq a = a^2\neq b = -b\n"
            "init a = 1\ninit b = 1\nobs a\nhorizon 2\n"
        )
        code = run(["simulate", "--model", str(model),
                    "--out", str(tmp_path / "o")])
        assert code == 2
        assert "stiff" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        (
            ["--rel-tol", "0"],
            ["--abs-tol", "-1"],
            ["--grid", "100"],
            ["--horizon", "0"],
            ["--rel-tol", "inf"],
            ["--abs-tol", "inf"],
        ),
    )
    def test_parameter_validation(self, tmp_path, extra):
        assert run(["simulate", "--model", RATIONAL3,
                    "--out", str(tmp_path / "o")] + extra) == 1

    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_horizon_must_be_finite(self, tmp_path, capsys, horizon):
        # an infinite horizon used to integrate toward the million-step budget
        assert run(["simulate", "--model", RATIONAL3, "--out", str(tmp_path / "o"),
                    "--horizon", horizon]) == 1
        assert "--horizon must be positive and finite" in capsys.readouterr().err

    def test_confirmations_flag_rejected(self, tmp_path, capsys):
        # simulate samples no Jacobian basis, so it has no --confirmations
        assert run(["simulate", "--model", RATIONAL3, "--out", str(tmp_path / "o"),
                    "--confirmations", "3"]) == 1
        assert "--confirmations" in capsys.readouterr().err

    def test_non_latin1_names_are_read_and_written_as_utf8(self, tmp_path):
        # in a locale whose encoding is ASCII, so that only an explicit
        # encoding gets xα through
        model = tmp_path / "alpha.ode"
        model.write_text(Path(RATIONAL3).read_text().replace("x1", "xα"), encoding="utf-8")
        package_root = str(Path(lk.__file__).parent.parent)
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        env["PYTHONPATH"] = os.pathsep.join([package_root, env.get("PYTHONPATH", "")])
        argv = ["simulate", "--model", str(model), "--out", str(tmp_path / "o")]
        subprocess.run([sys.executable, "-m", "lumpkit.cli", *argv], env=env, check=True, timeout=120)
        header = (tmp_path / "o" / "original.csv").read_bytes().split(b"\n")[0]
        assert header.decode("utf-8") == "t,xα,x2,x3"

    @pytest.mark.parametrize("name", DEEP_NESTING)
    def test_deeply_nested_model_exits_1(self, tmp_path, capsys, name):
        model = tmp_path / "deep.ode"
        model.write_text(DEEP_NESTING[name])
        code = run(["simulate", "--model", str(model), "--out", str(tmp_path / "o")])
        if name.endswith("_sum"):  # a sum of any length is parsed, compiled and read in a loop
            assert code == 0
            assert (tmp_path / "o" / "original.csv").is_file()
            return
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "extra", [["lump", "--epsilon", "0.1"], ["find-epsilon", "--ratio", "0.67"], ["sweep"], ["simulate"]],
        ids=["lump", "find-epsilon", "sweep", "simulate"],
    )
    def test_observables_failing_the_rank_test_exit_1(self, tmp_path, capsys, extra):
        # the sweep's rank test rejects the second row, so parsing does too
        model = tmp_path / "near.ode"
        model.write_text(Path(RATIONAL3).read_text().replace("obs x1", "obs x1\nobs x1 + 1e-10*x2"))
        code = run([extra[0], "--model", str(model), "--out", str(tmp_path / "o"), *extra[1:]])
        assert code == 1
        assert capsys.readouterr().err == "error: observable matrix is rank-deficient\n"

    def test_missing_model_exits_3(self, tmp_path):
        assert run(["simulate", "--model", str(tmp_path / "nope.ode"),
                    "--out", str(tmp_path / "o")]) == 3

    def test_model_syntax_error_exits_1(self, tmp_path, capsys):
        model = tmp_path / "bad.ode"
        model.write_text("model bad\nvar a, b\neq a = $\n")
        assert run(["simulate", "--model", str(model),
                    "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_staircase_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["sweep", "--model", PERTURBED, "--out", str(out),
                    "--seed", "0", "--grid", "9"])
        assert code == 0
        lines = (out / "staircase.csv").read_text().splitlines()
        assert lines[0] == "epsilon,epsilon_over_epsilon_max,reduced_size"
        assert len(lines) == 10
        rows = [line.split(",") for line in lines[1:]]
        sizes = [int(r[2]) for r in rows]
        assert sizes[0] == 3
        assert sizes[-1] == 1
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert float(rows[0][1]) == 0.0
        assert float(rows[-1][1]) == 1.0
        assert "epsilon_max:" in capsys.readouterr().out

    @pytest.mark.parametrize("model", ["rational3", "rational3_perturbed", "poly4"])
    def test_rows_are_the_staircase_of_the_whole_grid(self, tmp_path, sweep_log, model):
        # the last row is not swept: a sweep at epsilon_max keeps the observables alone
        path = str(MODELS / f"{model}.ode")
        assert run(["sweep", "--model", path, "--out", str(tmp_path), "--grid", "50"]) == 0
        swept = list(sweep_log)

        system = lk.parse_model(Path(path).read_text())
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=0, confirmations=3))
        eps_mx = lk.epsilon_max(basis, system.observables)
        pairs = lk.staircase(basis, system.observables, np.linspace(0.0, eps_mx, 50))
        rows = [line.split(",") for line in (tmp_path / "staircase.csv").read_text().splitlines()]
        assert [(float(e), int(size)) for e, _, size in rows[1:]] == list(pairs)
        assert eps_mx not in swept

    def test_monotonicity_failure_exits_2(self, tmp_path, monkeypatch):
        import lumpkit.cli as cli_mod

        def broken(basis, observables, grid):
            raise MonotonicityError("reduction size grew with the tolerance")

        monkeypatch.setattr(cli_mod, "staircase", broken)
        assert run(["sweep", "--model", PERTURBED,
                    "--out", str(tmp_path / "o")]) == 2

    def test_infinite_epsilon_max_exits_2(self, tmp_path, capsys):
        model = tmp_path / "over.ode"
        model.write_text(OVERFLOW)
        assert run(["sweep", "--model", str(model), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "error: epsilon_max is inf: a defect lies past the float range\n"

    def test_grid_validation(self, tmp_path):
        assert run(["sweep", "--model", PERTURBED, "--out", str(tmp_path / "o"),
                    "--grid", "1"]) == 1


class TestStrictJson:
    @pytest.mark.parametrize("model", ["rational3", "rational3_perturbed", "poly4"])
    def test_every_artifact_parses_strictly(self, tmp_path, capsys, model):
        path = str(MODELS / f"{model}.ode")
        for argv in (
            ["lump", "--out", str(tmp_path / "lump"), "--epsilon", "0.1"],
            ["find-epsilon", "--out", str(tmp_path / "find"), "--ratio", "0.67"],
            ["simulate", "--out", str(tmp_path / "simulate"),
             "--lumping", str(tmp_path / "lump" / "L.json")],
            ["sweep", "--out", str(tmp_path / "sweep"), "--grid", "50"],
        ):
            assert run([*argv, "--model", path, "--seed", "0"]) == 0
        assert capsys.readouterr().err == ""
        artifacts = sorted(tmp_path.rglob("*.json"))
        assert len(artifacts) == 9  # lump 3, find 3, simulate 2, sweep 1
        for artifact in artifacts:
            read_strict_json(artifact)
        # the growth factor saturates to inf on both rational models
        bound = read_json(tmp_path / "simulate" / "report.json")["bound"]
        assert (bound is None) == model.startswith("rational3")


class TestParser:
    def test_unknown_command(self):
        assert run(["bogus"]) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert "lumpkit" in capsys.readouterr().out

    def test_parser_is_built_once_and_outlives_a_usage_error(self, tmp_path, capsys):
        argv = ["lump", "--model", RATIONAL3, "--seed", "1", "--epsilon", "0.1"]
        assert run(argv) == 1  # no --out
        assert capsys.readouterr().err.startswith("error: ")
        assert run([*argv, "--out", str(tmp_path / "reused")]) == 0
        assert _build_parser() is _build_parser()

        package_root = str(Path(lk.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([package_root, env.get("PYTHONPATH", "")])
        fresh = [*argv, "--out", str(tmp_path / "fresh")]
        subprocess.run([sys.executable, "-m", "lumpkit.cli", *fresh], env=env, check=True, timeout=120)
        assert_same_artifacts(tmp_path / "reused", tmp_path / "fresh")
