"""Command-line interface: dispatch, exit codes, serialization."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import entmanip
from entmanip import cli
from entmanip.cli import run
from util import CYCLING_LP, highs_optimum


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def worked_state(tmp_path):
    return write_json(tmp_path / "s532.json", {"spectrum": [0.5, 0.3, 0.2]})


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestDecompose:
    def test_spectrum_input(self, capsys, worked_state):
        code, doc = run_json(capsys, ["decompose", "--state", worked_state])
        assert code == 0
        assert doc["spectrum"] == pytest.approx([0.5, 0.3, 0.2])
        assert doc["units"] == "nats"

    def test_amplitude_input(self, capsys, tmp_path):
        r = 1 / math.sqrt(2)
        path = write_json(
            tmp_path / "amp.json",
            {"amplitudes": [[{"re": r, "im": 0.0}, 0.0], [0.0, {"re": 0.0, "im": r}]]},
        )
        code, doc = run_json(capsys, ["decompose", "--state", path])
        assert code == 0
        assert doc["spectrum"] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert doc["entropy"] == pytest.approx(math.log(2), abs=1e-12)

    def test_bits_units(self, capsys, tmp_path):
        path = write_json(tmp_path / "half.json", {"spectrum": [0.5, 0.5]})
        code, doc = run_json(
            capsys, ["decompose", "--state", path, "--units", "bits"]
        )
        assert code == 0
        assert doc["entropy"] == pytest.approx(1.0, abs=1e-12)

    def test_missing_file(self, capsys):
        assert run(["decompose", "--state", "/nonexistent.json"]) == 4

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["decompose", "--state", str(path)]) == 4

    def test_bad_spectrum(self, tmp_path, capsys):
        path = write_json(tmp_path / "neg.json", {"spectrum": [1.5, -0.5]})
        assert run(["decompose", "--state", str(path)]) == 4

    def test_nan_spectrum(self, tmp_path, capsys):
        path = write_json(tmp_path / "nan.json", {"spectrum": [0.5, math.nan, 0.5]})
        assert run(["decompose", "--state", str(path)]) == 4

    @pytest.mark.parametrize("spectrum", [5, [10**400, 1]])
    def test_malformed_spectrum(self, tmp_path, capsys, spectrum):
        path = write_json(tmp_path / "bad.json", {"spectrum": spectrum})
        assert run(["decompose", "--state", str(path)]) == 4

    def test_overflowing_amplitudes_exit_4_without_a_warning(self, tmp_path):
        path = write_json(tmp_path / "huge.json", {"amplitudes": [[1e300, 0], [0, 0]]})
        package_root = os.path.dirname(os.path.dirname(entmanip.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "entmanip", "decompose", "--state", path],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=package_root),
        )
        assert proc.returncode == 4
        assert proc.stderr == (
            "entmanip: amplitude matrix is not normalized: |psi|^2 = inf\n"
        )

    def test_zero_tol_sets_what_is_dropped(self, tmp_path, capsys):
        path = write_json(tmp_path / "tiny.json", {"spectrum": [0.5, 0.5, 1e-8]})
        code, doc = run_json(capsys, ["decompose", "--state", path])
        assert code == 0
        assert len(doc["spectrum"]) == 3
        argv = ["decompose", "--state", path, "--zero-tol", "1e-6"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert len(doc["spectrum"]) == 2


class TestCheckFeasible:
    def test_feasible_pair(self, capsys, tmp_path):
        a = write_json(tmp_path / "a.json", {"spectrum": [0.6, 0.4]})
        b = write_json(tmp_path / "b.json", {"spectrum": [0.8, 0.2]})
        code, doc = run_json(
            capsys, ["check-feasible", "--source", a, "--target", b]
        )
        assert code == 0
        assert doc["feasible"] is True

    def test_infeasible_pair(self, capsys, tmp_path):
        a = write_json(tmp_path / "a.json", {"spectrum": [0.8, 0.2]})
        b = write_json(tmp_path / "b.json", {"spectrum": [0.6, 0.4]})
        code, doc = run_json(
            capsys, ["check-feasible", "--source", a, "--target", b]
        )
        assert code == 3
        assert doc["feasible"] is False
        assert doc["violated_indices"] == [2]

    def test_tol_sets_the_verdict(self, capsys, tmp_path):
        # the worst slack is about -5e-9: past the default 1e-9, inside 1e-8
        a = write_json(tmp_path / "a.json", {"spectrum": [0.6, 0.4]})
        b = write_json(tmp_path / "b.json", {"spectrum": [0.6 - 5e-9, 0.4 + 5e-9]})
        argv = ["check-feasible", "--source", a, "--target", b]
        code, doc = run_json(capsys, argv)
        assert code == 3
        assert doc["violated_indices"] == [2]
        assert doc["slack"][1] == pytest.approx(-5e-9, rel=1e-6)
        code, doc = run_json(capsys, argv + ["--tol", "1e-8"])
        assert code == 0
        assert doc["feasible"] is True

    def test_maximally_entangled_rank_1e5_source(self, capsys, tmp_path):
        src = write_json(tmp_path / "a.json", {"spectrum": [1.0] * 100_000})
        tgt = write_json(tmp_path / "b.json", {"spectrum": [1.0]})
        code, doc = run_json(
            capsys, ["check-feasible", "--source", src, "--target", tgt]
        )
        assert code == 0
        assert doc["feasible"] is True

    def test_ensemble(self, capsys, tmp_path):
        src = write_json(tmp_path / "src.json", {"spectrum": [0.75, 0.25]})
        ens = write_json(
            tmp_path / "e.json",
            {
                "ensemble": [
                    {"probability": 0.5, "spectrum": [0.5, 0.5]},
                    {"probability": 0.5, "spectrum": [1.0]},
                ]
            },
        )
        code, doc = run_json(
            capsys, ["check-feasible", "--source", src, "--ensemble", ens]
        )
        assert code == 0
        assert doc["feasible"] is True

    def test_ensemble_entry_without_probability(self, capsys, tmp_path):
        src = write_json(tmp_path / "src.json", {"spectrum": [0.75, 0.25]})
        ens = write_json(tmp_path / "e.json", {"ensemble": [{"spectrum": [1.0]}]})
        assert run(["check-feasible", "--source", src, "--ensemble", ens]) == 4

    def test_requires_exactly_one_mode(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", {"spectrum": [1.0]})
        assert run(["check-feasible", "--source", a]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, tmp_path, tol):
        # NaN used to pass every index (exit 0 on a pair that exits 3) and
        # -1 to flag a slack of exactly 0
        a = write_json(tmp_path / "a.json", {"spectrum": [0.9, 0.1]})
        b = write_json(tmp_path / "b.json", {"spectrum": [0.5, 0.5]})
        argv = ["check-feasible", "--source", a, "--target", b, "--tol", tol]
        assert run(argv) == 2
        assert capsys.readouterr().out == ""
        assert run(["decompose", "--state", a, "--zero-tol", tol]) == 2
        assert capsys.readouterr().out == ""


class TestBuildPovm:
    def test_emits_elements_and_die(self, capsys, tmp_path):
        src = write_json(tmp_path / "src.json", {"spectrum": [0.6, 0.4]})
        ens = write_json(
            tmp_path / "e.json",
            {
                "ensemble": [
                    {"probability": 0.5, "spectrum": [1.0]},
                    {"probability": 0.5, "spectrum": [0.5, 0.5]},
                ]
            },
        )
        out = tmp_path / "povm.json"
        code, doc = run_json(
            capsys,
            ["build-povm", "--source", src, "--ensemble", ens, "--out", str(out)],
        )
        assert code == 0
        assert doc["support_rank"] == 2
        assert [el["label"] for el in doc["elements"]] == [1, 2]
        assert json.loads(out.read_text()) == doc

    def test_infeasible_exits_3(self, capsys, tmp_path):
        src = write_json(tmp_path / "src.json", {"spectrum": [0.9, 0.1]})
        ens = write_json(
            tmp_path / "e.json",
            {"ensemble": [{"probability": 1.0, "spectrum": [0.5, 0.5]}]},
        )
        assert run(["build-povm", "--source", src, "--ensemble", ens]) == 3

    def test_merged_duplicates_die(self, capsys, tmp_path):
        src = write_json(tmp_path / "src.json", {"spectrum": [0.5, 0.5]})
        ens = write_json(
            tmp_path / "e.json",
            {
                "ensemble": [
                    {"probability": 0.3, "spectrum": [0.5, 0.5]},
                    {"probability": 0.7, "spectrum": [0.5, 0.5]},
                ]
            },
        )
        code, doc = run_json(capsys, ["build-povm", "--source", src, "--ensemble", ens])
        assert code == 0
        assert len(doc["elements"]) == 1
        (group,) = doc["die"]
        assert [m["outcome"] for m in group["members"]] == [1, 2]
        assert [m["probability"] for m in group["members"]] == pytest.approx(
            [0.3, 0.7]
        )


class TestConcentrate:
    def test_uniform_four(self, capsys, tmp_path):
        path = write_json(tmp_path / "u4.json", {"spectrum": [0.25] * 4})
        code, doc = run_json(capsys, ["concentrate", "--state", path])
        assert code == 0
        assert doc["plan"]["p"] == pytest.approx([0, 0, 0, 1], abs=1e-12)
        assert doc["plan"]["expected_nats"] == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_worked_with_certificate(self, capsys, worked_state):
        code, doc = run_json(
            capsys, ["concentrate", "--state", worked_state, "--certify"]
        )
        assert code == 0
        assert doc["plan"]["p"] == pytest.approx([0.2, 0.2, 0.6], abs=1e-12)
        assert doc["certificate"]["passed"] is True
        assert len(doc["certificate"]["z"]) == 3

    def test_indicator_weights(self, capsys, worked_state):
        code, doc = run_json(
            capsys,
            ["concentrate", "--state", worked_state, "--weights", "indicator"],
        )
        assert code == 0
        assert doc["plan"]["objective"] == pytest.approx(1.0, abs=1e-9)
        assert math.fsum(doc["plan"]["p"]) == pytest.approx(1.0, abs=1e-12)

    def test_indicator_certificate_fails(self, capsys, worked_state):
        # the certificate belongs to the weights in use, not to ln
        code, doc = run_json(
            capsys,
            [
                "concentrate", "--state", worked_state,
                "--weights", "indicator", "--certify",
            ],
        )
        assert code == 0
        assert doc["plan"]["p"] == [0, 1, 0]
        assert doc["certificate"] == {"z": [0, 2, -1], "passed": False}

    def test_weight_file(self, capsys, worked_state, tmp_path):
        weights = write_json(tmp_path / "w.json", [0.0, 1.0, 1.0])
        code, doc = run_json(
            capsys,
            ["concentrate", "--state", worked_state, "--weights", weights],
        )
        assert code == 0
        assert doc["plan"]["objective"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "weights, objective", [([-1.0, -0.5], -0.6), ([-1.0, 0.5], 0.2)]
    )
    def test_weight_file_with_nonzero_first_weight(
        self, capsys, tmp_path, weights, objective
    ):
        # every plan sums to 1, so level 1 is never free: the optimum on
        # [0.6, 0.4] moves 0.8 to level 2 and leaves 0.2 on level 1
        state = write_json(tmp_path / "s64.json", {"spectrum": [0.6, 0.4]})
        path = write_json(tmp_path / "w.json", weights)
        code, doc = run_json(
            capsys, ["concentrate", "--state", state, "--weights", path]
        )
        assert code == 0
        assert doc["plan"]["p"] == pytest.approx([0.2, 0.8], abs=1e-12)
        assert doc["plan"]["objective"] == pytest.approx(objective, abs=1e-12)
        assert doc["plan"]["objective"] == math.fsum(
            w * p for w, p in zip(weights, doc["plan"]["p"])
        )

    @pytest.mark.parametrize(
        "text",
        [
            "[0.0, null, 1.0]",
            '[0.0, "1.0", 1.0]',
            "[0.0, true, 1.0]",
            "[0.0, 1e999, 1.0]",
            '{"weights": [0.0, 1.0, 1.0]}',
        ],
    )
    def test_bad_weight_file_exits_4(self, capsys, worked_state, tmp_path, text):
        path = tmp_path / "w.json"
        path.write_text(text)
        argv = ["concentrate", "--state", worked_state, "--weights", str(path)]
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entmanip: weight file")

    def test_asymptotic_curve(self, capsys, tmp_path):
        path = write_json(tmp_path / "p82.json", {"spectrum": [0.8, 0.2]})
        code, doc = run_json(
            capsys, ["concentrate", "--state", path, "--asymptotic", "4"]
        )
        assert code == 0
        assert [n for n, _ in doc["curve"]] == [1, 2, 3, 4]
        yields = [y for _, y in doc["curve"]]
        assert yields[-1] > yields[0]

    def test_asymptotic_rank_four_to_eleven_copies(self, capsys, tmp_path):
        # 4**11 expanded coefficients, but only 1364 type classes
        path = write_json(tmp_path / "r4.json", {"spectrum": [0.4, 0.3, 0.2, 0.1]})
        code, doc = run_json(
            capsys, ["concentrate", "--state", path, "--asymptotic", "11"]
        )
        assert code == 0
        assert [n for n, _ in doc["curve"]] == list(range(1, 12))

    @pytest.mark.parametrize("copies", ["0", "-2"])
    def test_asymptotic_must_be_positive(self, capsys, worked_state, copies):
        argv = ["concentrate", "--state", worked_state, "--asymptotic", copies]
        assert run(argv) == 2

    def test_csv_format(self, capsys, worked_state):
        code = run(
            ["concentrate", "--state", worked_state, "--format", "csv",
             "--asymptotic", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "level,probability"
        assert lines[1].startswith("1,")
        assert "n,per_copy_yield_nats" in lines

    def test_bits_units(self, capsys, tmp_path):
        path = write_json(tmp_path / "u4.json", {"spectrum": [0.25] * 4})
        code, doc = run_json(
            capsys, ["concentrate", "--state", path, "--units", "bits"]
        )
        assert code == 0
        assert doc["plan"]["expected_bits"] == pytest.approx(2.0, abs=1e-12)


class TestLpSolve:
    def test_trivial(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "lp.json",
            {"objective": [1.0], "matrix": [[1.0]], "bounds": [1.0]},
        )
        code, doc = run_json(capsys, ["lp-solve", path])
        assert code == 0
        assert doc["status"] == "optimal"
        assert doc["values"] == pytest.approx([1.0])

    def test_unbounded_exits_3(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "lp.json",
            {"objective": [1.0], "matrix": [[-1.0]], "bounds": [1.0]},
        )
        code, doc = run_json(capsys, ["lp-solve", path])
        assert code == 3
        assert doc["status"] == "unbounded"

    def test_degenerate_drift_does_not_cycle(self, capsys, tmp_path):
        path = write_json(tmp_path / "lp.json", CYCLING_LP)
        code = run(["lp-solve", path])
        captured = capsys.readouterr()
        assert code == 0 and "Traceback" not in captured.err
        doc = json.loads(captured.out)
        assert doc["status"] == "optimal"
        assert doc["objective"] == pytest.approx(highs_optimum(**CYCLING_LP), abs=1e-9)
        # float drift of the degenerate rows is read out as 0, never below
        assert all(v >= 0 for v in doc["values"])

    def test_small_right_hand_side_keeps_its_ratio(self, capsys, tmp_path):
        lp_doc = {"objective": [1.0], "matrix": [[1e-10], [1.0]], "bounds": [5e-12, 0.01]}
        path = write_json(tmp_path / "lp.json", lp_doc)
        assert run(["lp-solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "optimal"
        assert doc["objective"] == pytest.approx(0.01, abs=1e-12)
        prob = entmanip.LpProblem(lp_doc["objective"], lp_doc["matrix"], lp_doc["bounds"])
        claim = entmanip.LpSolution(
            tuple(doc["values"]), doc["objective"], tuple(doc["basis"]), (), "optimal"
        )
        assert entmanip.verify_solution(prob, claim)

    def test_zero_weight_prints_no_negative_zero(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "lp.json",
            {"objective": [0.0], "matrix": [[1.0]], "bounds": [1.0]},
        )
        assert run(["lp-solve", path]) == 0
        out = capsys.readouterr().out
        assert "-0" not in out
        assert json.loads(out)["reduced_costs"] == [0, 0]

    def test_nan_bound_exits_4(self, capsys, tmp_path):
        path = tmp_path / "lp.json"
        path.write_text('{"objective": [1.0], "matrix": [[1.0]], "bounds": [NaN]}')
        assert run(["lp-solve", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bounds" in captured.err and "Traceback" not in captured.err


class TestSimulate:
    def test_optimal_protocol(self, capsys, worked_state):
        code, doc = run_json(
            capsys,
            ["simulate", "--state", worked_state, "--trials", "2000",
             "--seed", "9"],
        )
        assert code == 0
        assert sum(doc["counts"]) == 2000
        assert doc["labels"] == [1, 2, 3]

    def test_povm_file_protocol(self, capsys, tmp_path, worked_state):
        src = write_json(tmp_path / "src.json", {"spectrum": [0.6, 0.4]})
        ens = write_json(
            tmp_path / "e.json",
            {
                "ensemble": [
                    {"probability": 0.5, "spectrum": [1.0]},
                    {"probability": 0.5, "spectrum": [0.5, 0.5]},
                ]
            },
        )
        povm_path = tmp_path / "povm.json"
        assert run(
            ["build-povm", "--source", src, "--ensemble", ens,
             "--out", str(povm_path)]
        ) == 0
        capsys.readouterr()
        avg = write_json(tmp_path / "avg.json", {"spectrum": [0.75, 0.25]})
        code, doc = run_json(
            capsys,
            ["simulate", "--state", avg, "--protocol", str(povm_path),
             "--trials", "1000", "--seed", "4"],
        )
        assert code == 0
        assert abs(doc["empirical_probs"][0] - 0.5) < 0.1

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_must_be_positive(self, capsys, worked_state, trials):
        argv = ["simulate", "--state", worked_state, "--trials", trials]
        assert run(argv) == 2

    def test_povm_element_without_label(self, capsys, tmp_path, worked_state):
        doc = {"elements": [{"diag": [1.0, 1.0, 1.0]}]}
        path = write_json(tmp_path / "nolabel.json", doc)
        argv = ["simulate", "--state", worked_state, "--protocol", str(path),
                "--trials", "10"]
        assert run(argv) == 4

    def test_mismatched_support_exits_3(self, capsys, tmp_path, worked_state):
        # a 2-level protocol cannot measure a 3-level state
        doc = {
            "support_rank": 2,
            "elements": [
                {"label": 1, "diag": [1.0, 0.0]},
                {"label": 2, "diag": [0.0, 1.0]},
            ],
        }
        path = write_json(tmp_path / "small.json", doc)
        code = run(
            ["simulate", "--state", worked_state, "--protocol", str(path),
             "--trials", "10", "--seed", "1"]
        )
        assert code == 3

    def test_support_rank_must_match_the_diagonals(
        self, capsys, tmp_path, worked_state
    ):
        doc = {
            "support_rank": 2,
            "elements": [{"label": 1, "diag": [1.0, 1.0, 1.0]}],
        }
        path = write_json(tmp_path / "wrong.json", doc)
        argv = ["simulate", "--state", worked_state, "--protocol", path,
                "--trials", "10"]
        assert run(argv) == 4
        assert "full support" in capsys.readouterr().err
        del doc["support_rank"]
        write_json(tmp_path / "wrong.json", doc)
        code, out = run_json(capsys, argv)
        assert code == 0
        assert out["counts"] == [10]

    @pytest.mark.parametrize("label", [0, -1])
    def test_label_below_one_exits_4(self, capsys, tmp_path, worked_state, label):
        # a yield is ln(label), undefined for a label below 1
        doc = {"elements": [{"label": label, "diag": [1.0, 1.0, 1.0]}]}
        path = write_json(tmp_path / "label.json", doc)
        argv = ["simulate", "--state", worked_state, "--protocol", path,
                "--trials", "10"]
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "measurement labels must be >= 1" in captured.err

    def test_overflowing_diagonal_exits_4(self, capsys, tmp_path, worked_state):
        # no diagonal may exceed 1, and squaring 1e300 would overflow
        doc = {"support_rank": 2, "elements": [{"label": 1, "diag": [1e300, 0]}]}
        path = write_json(tmp_path / "huge.json", doc)
        code = run(
            ["simulate", "--state", worked_state, "--protocol", str(path),
             "--trials", "10"]
        )
        assert code == 4
        assert "Traceback" not in capsys.readouterr().err


class TestHarness:
    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        assert "entmanip" in capsys.readouterr().out

    def test_usage_error(self, capsys):
        assert run(["not-a-command"]) == 2

    def test_no_command(self, capsys):
        assert run([]) == 2

    def test_round_trip_decompose_into_concentrate(self, capsys, tmp_path):
        amp = write_json(
            tmp_path / "amp.json",
            {"amplitudes": [[0.6, 0.48], [0.0, 0.64]]},
        )
        code = run(["decompose", "--state", amp])
        assert code == 0
        decomposed = capsys.readouterr().out
        spectrum_file = tmp_path / "spec.json"
        spectrum_file.write_text(decomposed)

        assert run(["concentrate", "--state", str(spectrum_file)]) == 0
        via_decompose = capsys.readouterr().out

        direct_file = write_json(
            tmp_path / "direct.json",
            {"spectrum": json.loads(decomposed)["spectrum"]},
        )
        assert run(["concentrate", "--state", direct_file]) == 0
        direct = capsys.readouterr().out
        assert via_decompose == direct

    def test_seventeen_digit_serialization_round_trips(self, capsys, tmp_path):
        path = write_json(tmp_path / "s.json", {"spectrum": [0.5, 0.3, 0.2]})
        code, doc = run_json(capsys, ["decompose", "--state", path])
        assert code == 0
        for original, parsed in zip([0.5, 0.3, 0.2], doc["spectrum"]):
            assert parsed == original  # lossless round trip

    def test_stdin_state(self, capsys, monkeypatch, tmp_path):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"spectrum": [0.5, 0.5]}')
        )
        code, doc = run_json(capsys, ["decompose", "--state", "-"])
        assert code == 0
        assert doc["spectrum"] == pytest.approx([0.5, 0.5])


_SPECTRUM = {"spectrum": [0.5, 0.5]}
_POVM = {"support_rank": 2, "elements": [{"label": 1, "diag": [1.0, 1.0]}]}


_DECOMPOSE = ["decompose", "--state", "{doc}"]
_ENSEMBLE = ["check-feasible", "--source", "{spectrum}", "--ensemble", "{doc}"]
_POVM_RUN = ["simulate", "--state", "{spectrum}", "--protocol", "{doc}", "--trials", "10"]
_LP = ["lp-solve", "{doc}"]


@pytest.mark.parametrize(
    "argv, doc",
    [
        pytest.param(_DECOMPOSE, {"spectrum": ["0.5", "0.5"]}, id="spectrum-strings"),
        pytest.param(_DECOMPOSE, {"spectrum": [True, 1]}, id="spectrum-bool"),
        pytest.param(_DECOMPOSE, {"amplitudes": [[{"re": "1"}]]}, id="amplitude-string"),
        pytest.param(_DECOMPOSE, {"amplitudes": [[True]]}, id="amplitude-bool"),
        pytest.param(
            _ENSEMBLE,
            {"ensemble": [{"probability": "1", "spectrum": [1.0]}]},
            id="probability-string",
        ),
        pytest.param(
            _ENSEMBLE,
            {"ensemble": [{"probability": 1.0, "spectrum": [True]}]},
            id="ensemble-spectrum-bool",
        ),
        pytest.param(
            _POVM_RUN,
            dict(_POVM, elements=[{"label": "1", "diag": [1.0, 1.0]}]),
            id="label-string",
        ),
        pytest.param(
            _POVM_RUN,
            dict(_POVM, elements=[{"label": 1.5, "diag": [1.0, 1.0]}]),
            id="label-fraction",
        ),
        pytest.param(
            _POVM_RUN,
            dict(_POVM, elements=[{"label": 1, "diag": [True, 1.0]}]),
            id="diag-bool",
        ),
        pytest.param(_POVM_RUN, dict(_POVM, support_rank="2"), id="support-string"),
        pytest.param(
            _LP,
            {"objective": ["1"], "matrix": [[True]], "bounds": ["2"]},
            id="lp-strings",
        ),
        pytest.param(
            _LP,
            {"objective": [1.0], "matrix": [[True]], "bounds": [2.0]},
            id="lp-bool",
        ),
    ],
)
def test_loaders_refuse_non_numbers(capsys, tmp_path, argv, doc):
    files = {
        "doc": write_json(tmp_path / "doc.json", doc),
        "spectrum": write_json(tmp_path / "spectrum.json", _SPECTRUM),
    }
    assert run([a.format(**files) for a in argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err and "Traceback" not in captured.err


# ------------------------------------------ any document through the loaders

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(),
    st.floats(),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-300, 1e300]),
    st.text(max_size=3),
)
_KEYS = st.sampled_from(
    [
        "spectrum", "amplitudes", "re", "im", "ensemble", "probability",
        "support_rank", "elements", "label", "diag", "objective", "matrix",
        "bounds",
    ]
)


def _lists(elements, size=None):
    if size is None:
        return st.lists(elements, max_size=4)
    return st.lists(elements, min_size=size, max_size=size)


def _record(**fields):
    return st.fixed_dictionaries(fields)


@st.composite
def _shaped_lp(draw):
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return {
        "objective": draw(_lists(_SCALARS, n)),
        "matrix": draw(_lists(_lists(_SCALARS, n), m)),
        "bounds": draw(_lists(_SCALARS, m)),
    }


# free-form JSON, and documents shaped like each loader's format with any
# JSON values in them, so that the fuzz reaches past the first key check
_DOCUMENTS = st.one_of(
    st.recursive(
        _SCALARS,
        lambda kids: _lists(kids)
        | st.dictionaries(_KEYS | st.text(max_size=2), kids, max_size=4),
        max_leaves=12,
    ),
    _record(spectrum=_lists(_SCALARS)),
    _record(amplitudes=_lists(_lists(_SCALARS | _record(re=_SCALARS, im=_SCALARS)))),
    _record(ensemble=_lists(_record(probability=_SCALARS, spectrum=_lists(_SCALARS)))),
    _record(
        support_rank=_SCALARS,
        elements=_lists(_record(label=_SCALARS, diag=_lists(_SCALARS))),
    ),
    _shaped_lp(),
    _lists(_SCALARS),
)

# one call per loader: load_state, load_ensemble, load_povm, load_lp,
# load_weights
_LOADER_CALLS = [
    ["decompose", "--state", "{doc}"],
    ["check-feasible", "--source", "{spectrum}", "--ensemble", "{doc}"],
    ["simulate", "--state", "{spectrum}", "--protocol", "{doc}", "--trials", "10"],
    ["lp-solve", "{doc}"],
    ["concentrate", "--state", "{spectrum}", "--weights", "{doc}"],
]


def _main_exit_code(argv):
    """Exit code of ``cli.main`` on ``argv``, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", ["entmanip", *argv]):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main()
            except SystemExit as exc:
                return exc.code, out.getvalue(), err.getvalue()
    raise AssertionError("cli.main returned without exiting")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_DOCUMENTS)
def test_any_document_exits_with_a_mapped_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: os.path.join(tmp, f"{name}.json") for name in ("doc", "spectrum")}
        with open(files["doc"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # NaN and Infinity are written as such
        with open(files["spectrum"], "w", encoding="utf-8") as fh:
            json.dump({"spectrum": [0.5, 0.3, 0.2]}, fh)
        for argv in _LOADER_CALLS:
            code, out, err = _main_exit_code([a.format(**files) for a in argv])
            assert code in (0, 2, 3, 4), (argv[0], code, err)
            assert "Traceback" not in err
            if code == 4:
                assert out == ""


def _call(argv, *modules):
    """An argv and the ``entmanip`` submodules its call may load."""
    loaded = {"cli", "jsonio", "schmidt", *modules}
    return pytest.param(argv, loaded, id=" ".join(a.strip("{}") for a in argv))


class TestNumpyStaysUnimported:
    """Each call loads only the modules its subcommand uses.

    Each call runs ``cli.run`` in a fresh interpreter, which then reports
    whether ``numpy`` got imported and which ``entmanip`` submodules did.
    Spectrum-only calls never import numpy; only the SVD and simulate do.
    A numpy tableau in ``lp.py`` would put the import back on ``lp-solve``
    and ``concentrate --weights``, and a module-level kernel import in
    ``cli``, ``jsonio`` or the package would load modules a call never
    runs.  The value types are plain classes, so only ``simulate``, whose
    report is a dataclass, imports ``dataclasses``; without numpy nothing
    imports ``inspect``, which ``dataclasses`` would bring in.
    """

    CHILD = (
        "import json, sys\n"
        "from entmanip.cli import run\n"
        "code = run(json.loads(sys.argv[1]))\n"
        "modules = [m.split('.', 1)[1] for m in sys.modules if m.startswith('entmanip.')]\n"
        "loaded = [m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')]\n"
        "sys.stderr.write(json.dumps([code, loaded, modules]))\n"
    )

    @pytest.fixture
    def files(self, tmp_path):
        ensemble = {
            "ensemble": [
                {"probability": 0.5, "spectrum": [1.0]},
                {"probability": 0.5, "spectrum": [0.5, 0.5]},
            ]
        }
        r = 1 / math.sqrt(2)
        docs = {
            "state": {"spectrum": [0.5, 0.3, 0.2]},
            "source": {"spectrum": [0.6, 0.4]},
            "target": {"spectrum": [0.8, 0.2]},
            "ensemble": ensemble,
            "weights": [0.0, 1.0, 1.0],
            "lp": {"objective": [1.0], "matrix": [[1.0]], "bounds": [1.0]},
            "amplitudes": {"amplitudes": [[r, 0.0], [0.0, r]]},
            "povm": {"support_rank": 3, "elements": [{"label": 1, "diag": [1, 1, 1]}]},
        }
        return {k: write_json(tmp_path / f"{k}.json", v) for k, v in docs.items()}

    def child(self, argv):
        package_root = os.path.dirname(os.path.dirname(entmanip.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, json.dumps(argv)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        code, loaded, modules = json.loads(proc.stderr.splitlines()[-1])
        numpy_imported, dataclasses_imported, inspect_imported = loaded
        assert dataclasses_imported == (argv[0] == "simulate")
        assert numpy_imported or not inspect_imported
        return code, numpy_imported, set(modules), proc.stdout

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            _call(["decompose", "--state", "{state}"]),
            _call(
                ["check-feasible", "--source", "{source}", "--target", "{target}"],
                "monotones",
            ),
            _call(
                ["check-feasible", "--source", "{source}", "--ensemble", "{ensemble}"],
                "monotones", "transform",
            ),
            _call(
                ["build-povm", "--source", "{source}", "--ensemble", "{ensemble}"],
                "monotones", "transform",
            ),
            _call(["concentrate", "--state", "{state}"], "concentrate", "monotones"),
            _call(
                ["concentrate", "--state", "{state}", "--weights", "indicator"],
                "concentrate", "monotones", "lp",
            ),
            _call(
                ["concentrate", "--state", "{state}", "--weights", "log2"],
                "concentrate", "monotones", "lp",
            ),
            _call(
                ["concentrate", "--state", "{state}", "--weights", "{weights}"],
                "concentrate", "monotones", "lp",
            ),
            _call(
                ["concentrate", "--state", "{state}", "--certify", "--asymptotic", "3"],
                "concentrate", "monotones",
            ),
            _call(["lp-solve", "{lp}"], "lp"),
        ],
    )
    def test_spectrum_only_calls(self, files, argv, loaded):
        code, numpy_imported, modules, out = self.child(
            [a.format(**files) for a in argv]
        )
        assert code == 0 and json.loads(out)
        assert not numpy_imported
        assert modules == loaded

    def test_amplitudes_and_simulate_still_work(self, files):
        code, numpy_imported, modules, out = self.child(
            ["decompose", "--state", files["amplitudes"]]
        )
        assert code == 0 and numpy_imported
        assert modules == {"cli", "jsonio", "schmidt"}
        assert json.loads(out)["spectrum"] == pytest.approx([0.5, 0.5], abs=1e-12)
        code, numpy_imported, modules, out = self.child(
            ["simulate", "--state", files["state"], "--trials", "1000"]
        )
        assert code == 0 and numpy_imported
        assert modules == {
            "cli", "jsonio", "schmidt", "concentrate", "monotones", "transform", "sim"
        }
        assert sum(json.loads(out)["counts"]) == 1000
        code, numpy_imported, modules, out = self.child(
            ["simulate", "--state", files["state"], "--protocol", files["povm"],
             "--trials", "10"]
        )
        assert code == 0 and numpy_imported
        assert modules == {"cli", "jsonio", "schmidt", "transform", "sim"}
        assert json.loads(out)["counts"] == [10]
