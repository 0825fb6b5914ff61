"""End-to-end command-line behavior: exit codes, JSON reports, CSV output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import nahmkit
from nahmkit.cli import main
from nahmkit.moduli import HiggsData, InfinityGroup, LogPoint, WeightedEigen
from nahmkit.spectral import approach_path
from nahmkit.nahm import data_match, higgs_transform
from nahmkit.serialize import data_from_dict, data_to_dict


DATA = Path(__file__).parent / "data"
GOLDEN_PATH = "3,0;2.947,0.559;2.792,1.099;2.538,1.6;2.195,2.045;1.775,2.418;1.294,2.707;0.766,2.9;0.212,2.992"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def t1_spec(tmp_path, t1):
    path = tmp_path / "t1.json"
    path.write_text(json.dumps(data_to_dict(t1)))
    return str(path)


@pytest.fixture
def bad_spec(tmp_path, t1):
    obj = data_to_dict(t1)
    obj["kind"] = "nope"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestTransform:
    def test_json_report(self, runner, t1_spec, t1):
        result = runner.invoke(main, ["transform", t1_spec])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["r_hat"] == 2
        assert payload["induced_degree"] == 3
        assert payload["transformed_degree"] == -1
        assert payload["hypothesis_preserved"] is True
        out = data_from_dict(payload["output"])
        ok, res = data_match(out, higgs_transform(t1))
        assert ok and res <= 1e-12

    def test_out_file(self, runner, t1_spec, tmp_path):
        dest = tmp_path / "report.json"
        result = runner.invoke(main, ["transform", t1_spec, "--out", str(dest)])
        assert result.exit_code == 0
        assert json.loads(dest.read_text())["r_hat"] == 2

    def test_parse_error_exit_code(self, runner, bad_spec):
        result = runner.invoke(main, ["transform", bad_spec])
        assert result.exit_code == 2
        assert "$.kind" in result.output

    def test_log_point_without_entries_is_a_parse_error(self, runner, tmp_path, t1):
        obj = data_to_dict(t1)
        obj["log_points"][0]["entries"] = []
        path = tmp_path / "no_entries.json"
        path.write_text(json.dumps(obj))
        result = runner.invoke(main, ["transform", str(path)])
        assert result.exit_code == 2
        assert "$.log_points[0]: log point needs at least one entry" in result.output

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["transform", "/nonexistent.json"])
        assert result.exit_code == 2

    def test_untransformable_exit_code(self, runner, tmp_path):
        obj = {
            "kind": "higgs",
            "rank": 3,
            "degree": 0,
            "log_points": [
                {
                    "position": [0.0, 0.0],
                    "entries": [
                        {"value": [0.0, 0.0], "weight": 0.0},
                        {"value": [0.0, 0.0], "weight": 0.0},
                        {"value": [0.3, 0.0], "weight": 0.5},
                    ],
                }
            ],
            "inf_groups": [
                {
                    "xi": [1.0, 0.0],
                    "entries": [
                        {"value": [0.2, 0.0], "weight": 0.5},
                        {"value": [0.4, 0.0], "weight": 0.5},
                    ],
                },
                {"xi": [2.0, 0.0], "entries": [{"value": [0.6, 0.0], "weight": 0.5}]},
            ],
        }
        path = tmp_path / "overfull.json"
        path.write_text(json.dumps(obj))
        result = runner.invoke(main, ["transform", str(path)])
        assert result.exit_code == 1
        assert "transform failed" in result.output


class TestInvolution:
    def test_pass(self, runner, t1_spec):
        result = runner.invoke(main, ["involution", t1_spec])
        assert result.exit_code == 0
        assert "[PASS]" in result.output


class TestVerify:
    def test_instance(self, runner, t1_spec):
        result = runner.invoke(main, ["verify", t1_spec])
        assert result.exit_code == 0
        assert "checks passed" in result.output

    def test_corpus_small(self, runner):
        result = runner.invoke(main, ["verify", "--count", "5", "--seed", "3"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if l.startswith("[")]
        assert lines and all(l.startswith("[PASS]") for l in lines)

    def test_seed_envvar(self, runner):
        result = runner.invoke(main, ["verify", "--count", "3"], env={"NAHMKIT_SEED": "11"})
        assert result.exit_code == 0

    @pytest.mark.parametrize("count", ["-2", "0"])
    def test_count_below_one_is_a_parse_error(self, runner, count):
        result = runner.invoke(main, ["verify", "--count", count, "--seed", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("option, env", [(["--seed", "-1"], {}), ([], {"NAHMKIT_SEED": "-1"})])
    def test_negative_seed_is_a_parse_error(self, runner, option, env):
        result = runner.invoke(main, ["verify", "--count", "1"] + option, env=env)
        assert result.exit_code == 2
        assert "checks passed" not in result.output


class TestSpectralScan:
    def test_explicit_path_csv(self, runner, t1_spec):
        result = runner.invoke(main, ["spectral-scan", t1_spec, "--xi-path", "3,0;3,0.5;3,1"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "xi_re,xi_im,branch,q_re,q_im,coker_dim"
        # 3 path nodes x 2 branches
        assert len(lines) == 1 + 6
        row = lines[1].split(",")
        assert len(row) == 6
        assert int(row[2]) in (0, 1)
        assert int(row[5]) >= 0

    def test_seventeen_digit_values(self, runner, t1_spec):
        result = runner.invoke(main, ["spectral-scan", t1_spec, "--xi-path", "0.1,5"])
        # repr-exact floats: 0.1 needs all 17 significant digits
        assert result.output.splitlines()[1].startswith("0.10000000000000001,5,")

    def test_around_mode_deterministic(self, runner, t1_spec, tmp_path):
        args = ["spectral-scan", t1_spec, "--around", "0", "--radii", "1e-2,1e-3"]
        a = runner.invoke(main, args + ["--out", str(tmp_path / "a.csv")])
        b = runner.invoke(main, args + ["--out", str(tmp_path / "b.csv")])
        assert a.exit_code == 0 and b.exit_code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header == "xi_re,xi_im,branch,q_re,q_im,coker_dim"

    def test_around_xi_columns_are_the_approach_path(self, runner, t1_spec, t1):
        result = runner.invoke(main, ["spectral-scan", t1_spec, "--around", "0"])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
        got = [complex(float(row[0]), float(row[1])) for row in rows]
        nodes = approach_path(t1.inf_groups[0].xi, 1e-2, 1e-4, (1e-4, 1e-3, 1e-2))
        assert got == [x for x in nodes for _ in range(t1.r_hat)]

    def test_mode_exclusivity(self, runner, t1_spec):
        result = runner.invoke(main, ["spectral-scan", t1_spec])
        assert result.exit_code == 2
        both = runner.invoke(
            main, ["spectral-scan", t1_spec, "--xi-path", "3,0", "--around", "0"]
        )
        assert both.exit_code == 2

    def test_options_are_checked_before_realization(self, runner, t1_spec, monkeypatch):
        def forbidden(*args):
            raise AssertionError("realized before the options were checked")

        monkeypatch.setattr(nahmkit.fields, "realize", forbidden)
        for option in ([], ["--around", "5"], ["--xi-path", "3;x,y"], ["--around", "0", "--radii", "0"]):
            assert runner.invoke(main, ["spectral-scan", t1_spec] + option).exit_code == 2

    @pytest.mark.parametrize("option", [["--around", "0"], ["--xi-path", "3,0;3,1"]])
    def test_datum_without_log_points_has_no_branches(self, runner, tmp_path, option):
        obj = data_to_dict(HiggsData(1, 0, (), (InfinityGroup(1.0, (WeightedEigen(0.5, 0.3),)),)))
        assert obj["log_points"] == []
        path = tmp_path / "no_log_points.json"
        path.write_text(json.dumps(obj))
        result = runner.invoke(main, ["spectral-scan", str(path)] + option)
        assert result.exit_code == 0, result.output
        assert result.output == "xi_re,xi_im,branch,q_re,q_im,coker_dim\n"

    def test_path_through_a_leading_eigenvalue_names_that_node(self, runner, t1_spec):
        # t1 has the infinity group xi = 2: a puncture of the transform
        result = runner.invoke(main, ["spectral-scan", t1_spec, "--xi-path", "3,0;2.5,0;2,0;1,0"])
        assert result.exit_code == 1
        assert result.stderr == "spectral scan failed: xi=(2+0j) is a puncture of the transform\n"

    # the golden CSVs were written by the one-node-at-a-time tracker that the
    # batched one replaced; the path has segments rejected by the whole-step match
    @pytest.mark.parametrize(
        "spec, option, golden",
        [
            ("scan-diagonal.json", ["--xi-path", GOLDEN_PATH], "scan-diagonal-path.csv"),
            ("scan-random.json", ["--xi-path", GOLDEN_PATH], "scan-random-path.csv"),
            ("scan-diagonal.json", ["--around", "0"], "scan-diagonal-around0.csv"),
            ("scan-random.json", ["--around", "1"], "scan-random-around1.csv"),
        ],
    )
    def test_csv_is_byte_identical_to_the_golden_file(self, runner, tmp_path, monkeypatch, spec, option, golden):
        fallbacks = []
        advance = nahmkit.spectral._advance_segment
        monkeypatch.setattr(nahmkit.spectral, "_advance_segment", lambda *args: fallbacks.append(args) or advance(*args))
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["spectral-scan", str(DATA / spec)] + option + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (DATA / golden).read_bytes()
        if option[0] == "--xi-path":
            assert fallbacks

    def test_bad_path_syntax(self, runner, t1_spec):
        result = runner.invoke(main, ["spectral-scan", t1_spec, "--xi-path", "3;x,y"])
        assert result.exit_code == 2

    def test_around_out_of_range(self, runner, t1_spec):
        result = runner.invoke(main, ["spectral-scan", t1_spec, "--around", "5"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "option",
        [
            ["--around", "0", "--radii", "nan"],
            ["--around", "0", "--radii", "inf"],
            ["--around", "0", "--radii", "1e-2,inf"],
            ["--xi-path", "nan,0;1,1"],
            ["--xi-path", "inf,0;1,1"],
        ],
    )
    def test_non_finite_input_is_a_parse_error(self, runner, t1_spec, option):
        result = runner.invoke(main, ["spectral-scan", t1_spec] + option)
        assert result.exit_code == 2
        assert "finite" in result.output

    def test_random_realization(self, runner, tmp_path, t1):
        obj = data_to_dict(t1)
        obj["realization"] = {"mode": "random", "seed": 4}
        path = tmp_path / "rand.json"
        path.write_text(json.dumps(obj))
        result = runner.invoke(main, ["spectral-scan", str(path), "--xi-path", "3,0;3,0.5"])
        assert result.exit_code == 0
        assert len(result.output.strip().splitlines()) == 1 + 4

    def test_random_realization_of_rank_seventeen(self, runner, tmp_path):
        entries = tuple(WeightedEigen(0.3 + 0.1 * k + 0.05j, 0.5) for k in range(17))
        obj = data_to_dict(HiggsData(17, 0, (LogPoint(0.0, entries),), (InfinityGroup(1.0, entries),)))
        obj["realization"] = {"mode": "random", "seed": 4}
        path = tmp_path / "rank17.json"
        path.write_text(json.dumps(obj))
        result = runner.invoke(main, ["spectral-scan", str(path), "--xi-path", "3,0;3,1"])
        assert result.exit_code == 0
        # 2 path nodes x r_hat = 17 branches
        assert len(result.output.strip().splitlines()) == 1 + 34

    def test_negative_realization_seed_is_a_parse_error(self, runner, tmp_path, t1):
        obj = data_to_dict(t1)
        obj["realization"] = {"mode": "random", "seed": -1}
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(obj))
        result = runner.invoke(main, ["spectral-scan", str(path), "--xi-path", "3,0;3,0.5"])
        assert result.exit_code == 2
        assert "$.realization.seed: expected a non-negative integer" in result.output


class TestLocalCheck:
    def test_pass(self, runner, t1_spec):
        result = runner.invoke(main, ["local-check", t1_spec, "--count", "50"])
        assert result.exit_code == 0
        assert result.output.count("[PASS]") == 2

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_count_below_one_is_a_parse_error(self, runner, t1_spec, count):
        result = runner.invoke(main, ["local-check", t1_spec, "--count", count])
        assert result.exit_code == 2
        assert "[PASS]" not in result.output

    def test_negative_seed_is_a_parse_error(self, runner, t1_spec):
        result = runner.invoke(main, ["local-check", t1_spec, "--seed", "-2"])
        assert result.exit_code == 2
        assert "[PASS]" not in result.output


def test_verify_loads_no_scipy_module():
    # the package depends on numpy and click only; a verify run must not pull scipy in
    env = dict(os.environ, PYTHONPATH=str(Path(nahmkit.__file__).parents[1]))
    code = (
        "import sys, nahmkit.cli\n"
        "try:\n"
        "    nahmkit.cli.main(['verify', '--count', '5'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "[]"
