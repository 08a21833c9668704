"""Command-line interface: dispatch, exit codes, serialization."""

import contextlib
import gc
import io
import itertools
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
from entmanip import cli, jsonio, lp
from entmanip.cli import run
from entmanip.schmidt import FailedCheck
from entmanip.sim import _CHUNK_TRIALS, _python_tally
from entmanip.transform import IncompletePovmError
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


def failed_check_message(err):
    """The message of the one stderr line a failed check prints."""
    assert "Traceback" not in err
    (line,) = err.splitlines()
    prefix = "entmanip: failed check: "
    assert line.startswith(prefix), line
    return line[len(prefix):]


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

    def test_a_coefficient_lost_to_underflow_is_dropped(self, tmp_path, capsys):
        # normalised, 1e-300 / 1e300 underflows to 0, which is not blamed on
        # the input: the state is a product state
        path = write_json(tmp_path / "wide.json", {"spectrum": [1e300, 1e-300]})
        argv = ["decompose", "--state", path, "--zero-tol", "0"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert doc["spectrum"] == [1] and doc["entropy"] == 0


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

    def test_unwritable_out_exits_4_with_empty_stdout(self, capsys, tmp_path):
        src = write_json(tmp_path / "src.json", {"spectrum": [0.6, 0.4]})
        ens = write_json(
            tmp_path / "e.json",
            {"ensemble": [{"probability": 1.0, "spectrum": [0.6, 0.4]}]},
        )
        out = tmp_path / "missing" / "povm.json"
        argv = ["build-povm", "--source", src, "--ensemble", ens, "--out", str(out)]
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("entmanip: ")
        assert "Traceback" not in captured.err

    def test_infeasible_exits_3(self, capsys, tmp_path):
        src = write_json(tmp_path / "src.json", {"spectrum": [0.9, 0.1]})
        ens = write_json(
            tmp_path / "e.json",
            {"ensemble": [{"probability": 1.0, "spectrum": [0.5, 0.5]}]},
        )
        assert run(["build-povm", "--source", src, "--ensemble", ens]) == 3

    def test_target_component_lost_to_underflow_exits_4(self, capsys, tmp_path):
        # the ensemble is feasible, but 5e-324 * 0.4 underflows, so the
        # average state lacks the first target's second component
        src = write_json(tmp_path / "src.json", {"spectrum": [0.5, 0.5]})
        ens = write_json(
            tmp_path / "e.json",
            {
                "ensemble": [
                    {"probability": 5e-324, "spectrum": [0.6, 0.4]},
                    {"probability": 1.0, "spectrum": [1.0]},
                ]
            },
        )
        assert run(["check-feasible", "--source", src, "--ensemble", ens]) == 0
        capsys.readouterr()
        assert run(["build-povm", "--source", src, "--ensemble", ens]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "underflow" in captured.err

    @pytest.mark.parametrize("p", [0.5000000005, 0.4999999995])
    def test_probabilities_off_one_within_tolerance_give_a_complete_povm(
        self, capsys, worked_state, tmp_path, p
    ):
        # the probabilities sum to 1 + (p - 0.5), inside NORM_TOL but outside
        # POVM_TOL: the measurement divides by the sum of its numerators
        ens = write_json(
            tmp_path / "e.json",
            {
                "ensemble": [
                    {"probability": 0.5, "spectrum": [1.0]},
                    {"probability": p, "spectrum": [0.5, 0.5]},
                ]
            },
        )
        out = tmp_path / "povm.json"
        argv = ["build-povm", "--source", worked_state, "--ensemble", ens, "--out", str(out)]
        code, doc = run_json(capsys, argv)
        assert code == 0
        for i in range(doc["support_rank"]):
            total = math.fsum(el["diag"][i] ** 2 for el in doc["elements"])
            assert abs(total - 1.0) <= 1e-15
        # simulated on the normalised average, target j comes out with p_j / sum p
        total = 0.5 + p
        avg = write_json(
            tmp_path / "avg.json", {"spectrum": [(0.5 + p / 2) / total, p / 2 / total]}
        )
        argv = ["simulate", "--state", avg, "--protocol", str(out), "--trials", "100"]
        code, sim = run_json(capsys, argv)
        assert code == 0
        assert sim["expected_probs"] == pytest.approx([0.5 / total, p / total], abs=1e-15)

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

    @pytest.mark.parametrize(
        "weights, z",
        [
            ([0, 1e-14, 1e-14], [0, 2e-14, -1.0000000000000002e-14]),
            ([0, 1e-320, 1e-320], [0, 1.999977734365366e-320, -9.9998886718268301e-321]),
        ],
        ids=["1e-14", "1e-320"],
    )
    def test_tiny_weights_fail_the_certificate(
        self, capsys, worked_state, tmp_path, weights, z
    ):
        # z_3 < 0 as for [0, 1, 1]: the tolerance follows the scale of j c_j
        path = write_json(tmp_path / "w.json", weights)
        argv = ["concentrate", "--state", worked_state, "--weights", path, "--certify"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert doc["certificate"] == {"z": z, "passed": False}

    @pytest.mark.parametrize(
        "weights, certify",
        [([0, 8e307, 0], True), ([1e308, -1e308, 1e308], False)],
        ids=["certificate-z", "lp-shift"],
    )
    def test_weights_whose_derived_values_overflow_exit_4(
        self, capsys, worked_state, tmp_path, weights, certify
    ):
        # finite entries, but 2 * (2 * 8e307) and 1e308 - (-1e308) overflow:
        # the message names the range limit of the weights, not the LP or
        # the serializer
        path = write_json(tmp_path / "w.json", weights)
        argv = ["concentrate", "--state", worked_state, "--weights", path]
        assert run(argv + ["--certify"] * certify) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("entmanip: weight file entries out of range")
        assert "1.798e+308" in line

    def test_large_weights_whose_shift_stays_finite_solve(
        self, capsys, worked_state, tmp_path
    ):
        # only the certificate of [0, 8e307, 0] overflows
        path = write_json(tmp_path / "w.json", [0, 8e307, 0])
        code, doc = run_json(
            capsys, ["concentrate", "--state", worked_state, "--weights", path]
        )
        assert code == 0
        assert doc["plan"]["p"] == [0, 1, 0]

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
        # IncompletePovmError is a ValueError too, which alone would exit 4
        assert issubclass(IncompletePovmError, ValueError)
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert failed_check_message(captured.err) == (
            "state rank exceeds the measurement support"
        )

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
    """Exit code of ``cli.main`` on ``argv``, with its stdout and stderr.

    ``cli.main`` freezes the collector's view of every live object before
    it exits; this process goes on, so the objects are handed back.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", ["entmanip", *argv]):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main()
            except SystemExit as exc:
                return exc.code, out.getvalue(), err.getvalue()
            finally:
                gc.unfreeze()
    raise AssertionError("cli.main returned without exiting")


def test_main_freezes_the_collector_before_it_exits():
    gc.unfreeze()
    code, out, _ = _main_exit_code(["--version"])
    assert code == 0 and out.startswith("entmanip ")
    assert gc.get_freeze_count() == 0  # handed back
    with mock.patch.object(sys, "argv", ["entmanip", "--version"]):
        with contextlib.redirect_stdout(io.StringIO()):
            with pytest.raises(SystemExit):
                cli.main()
    try:
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


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


def _nested(depth):
    """JSON texts nested ``depth`` deep: bare, as a loader's key, as objects."""
    lists = "[" * depth + "]" * depth
    return [
        lists,
        '{"spectrum": ' + lists + "}",
        '{"ensemble": ' + lists + "}",
        '{"support_rank": 1, "elements": ' + lists + "}",
        '{"objective": ' + lists + ', "matrix": [], "bounds": []}',
        '{"a": ' * depth + "1" + "}" * depth,
    ]


@pytest.mark.parametrize("limit", [None, 12000], ids=["default-limit", "raised-limit"])
@pytest.mark.parametrize("depth", [1200, 5000])
@pytest.mark.parametrize("argv", _LOADER_CALLS, ids=lambda argv: argv[0])
def test_documents_nested_deep_exit_4(argv, depth, limit, tmp_path):
    # Whether json parses such nesting depends on the interpreter: up to
    # 3.11 it counts Python's recursion limit (so the raised limit lets it
    # parse both depths), from 3.12 on a fixed C limit.  Either way every
    # loader reports a document it cannot use.
    files = {"spectrum": write_json(tmp_path / "s.json", {"spectrum": [0.5, 0.3, 0.2]})}
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit or old_limit)
    try:
        for text in _nested(depth):
            (tmp_path / "doc.json").write_text(text)
            files["doc"] = str(tmp_path / "doc.json")
            code, out, err = _main_exit_code([a.format(**files) for a in argv])
            assert (code, out) == (4, ""), (argv[0], err[:200])
            assert "Traceback" not in err
    finally:
        sys.setrecursionlimit(old_limit)


def test_json_too_deep_for_the_parser_names_the_nesting(tmp_path):
    doc = write_json(tmp_path / "doc.json", {"spectrum": [1.0]})
    with mock.patch.object(json, "load", side_effect=RecursionError):
        with pytest.raises(ValueError, match="nested too deeply"):
            jsonio.read_json(doc)
        code, out, err = _main_exit_code(["decompose", "--state", doc])
    assert (code, out) == (4, "")
    assert err == f"entmanip: {doc}: JSON nested too deeply to parse\n"


def _klee_minty(n):
    """The Klee-Minty cube, on which Bland's rule takes exponentially many pivots.

    maximize sum_j 2^(n-j) x_j  s.t.  sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^i.
    """
    return {
        "objective": [2 ** (n - j) for j in range(1, n + 1)],
        "matrix": [
            [2 ** (i - j + 1) if j < i else int(j == i) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ],
        "bounds": [5**i for i in range(1, n + 1)],
    }


def test_the_pivot_cap_exits_3(tmp_path):
    doc = _klee_minty(18)
    code, out, err = _main_exit_code(["lp-solve", write_json(tmp_path / "km.json", doc)])
    assert (code, out) == (3, "")
    assert "pivot cap of 2560" in failed_check_message(err)
    # a library caller still gets the RuntimeError
    prob = entmanip.LpProblem(doc["objective"], doc["matrix"], doc["bounds"])
    with pytest.raises(RuntimeError, match="pivot cap") as info:
        entmanip.simplex_solve(prob)
    assert isinstance(info.value, FailedCheck)
    # a smaller cube solves: 25 pivots at n = 6
    code, out, _ = _main_exit_code(["lp-solve", write_json(tmp_path / "km6.json", _klee_minty(6))])
    assert code == 0 and json.loads(out)["objective"] == 5**6


def test_the_pivot_cap_of_a_weighted_concentration_exits_3(tmp_path):
    # weights whose LP the crash check does not settle, so the pivots run
    state = write_json(tmp_path / "s.json", {"spectrum": [0.4, 0.3, 0.2, 0.1]})
    weights = write_json(tmp_path / "w.json", [0.0, 5.0, 0.0, 1.0])
    argv = ["concentrate", "--state", state, "--weights", weights]
    assert _main_exit_code(argv)[0] == 0
    with mock.patch.object(lp, "_MAX_PIVOTS_FACTOR", 0):
        code, out, err = _main_exit_code(argv)
    assert (code, out) == (3, "")
    assert "pivot cap" in failed_check_message(err)


def test_a_non_optimal_concentration_lp_exits_3(tmp_path):
    # the LP is feasible and bounded for any weights, so only a numerical
    # failure can make it come back otherwise
    state = write_json(tmp_path / "s.json", {"spectrum": [0.5, 0.3, 0.2]})
    argv = ["concentrate", "--state", state, "--weights", "log2"]
    unbounded = lp.LpSolution((), None, (), (), "unbounded")
    with mock.patch.object(lp, "simplex_solve", return_value=unbounded):
        code, out, err = _main_exit_code(argv)
    assert (code, out) == (3, "")
    assert failed_check_message(err) == "concentration LP came back unbounded"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_lp_solve_exits_with_a_mapped_code_at_a_low_pivot_cap(data):
    n, m = data.draw(st.integers(1, 20)), data.draw(st.integers(0, 20))
    entries = st.integers(-5, 5) | st.floats(-10, 10, allow_nan=False)
    doc = {
        "objective": data.draw(_lists(entries, n)),
        "matrix": data.draw(st.lists(_lists(entries, n), min_size=m, max_size=m)),
        "bounds": data.draw(st.lists(st.floats(-1, 10), min_size=m, max_size=m)),
    }
    factor = data.draw(st.integers(0, 2))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lp.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with mock.patch.object(lp, "_MAX_PIVOTS_FACTOR", factor):
            code, out, err = _main_exit_code(["lp-solve", path])
    assert code in (0, 3, 4), err
    assert "Traceback" not in err
    if "pivot cap" in err or code == 4:
        assert code != 0 and out == ""


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
    data=st.data(),
    k=st.integers(-50, 50),
)
def test_a_constant_added_to_the_weights_moves_only_the_objective(coeffs, data, k):
    # _lp_plan solves on c_j - c_1, so integer weights c and c + k give the
    # same LP, the same plan bit for bit, and an objective k higher
    state = entmanip.make_spectrum(coeffs)
    weights = [float(c) for c in data.draw(_lists(st.integers(-50, 50), state.rank))]
    probs, objective = cli._lp_plan(state, weights)
    shifted_probs, shifted_objective = cli._lp_plan(state, [c + k for c in weights])
    assert repr(shifted_probs) == repr(probs)
    scale = max(map(abs, weights)) + abs(k)
    assert abs(shifted_objective - (objective + k)) <= 1e-12 * scale


_SPECTRUM_CALLS = [
    ["decompose", "--state", "{state}"],
    ["concentrate", "--state", "{state}"],
    ["concentrate", "--state", "{state}", "--weights", "log2", "--certify", "--asymptotic", "3"],
]
# calls that also read a target or an ensemble; their verdict may be either
_TARGET_CALLS = [
    ["check-feasible", "--source", "{state}", "--target", "{target}"],
    ["check-feasible", "--source", "{state}", "--ensemble", "{ensemble}"],
    ["build-povm", "--source", "{state}", "--ensemble", "{ensemble}"],
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spectrum=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
    target=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
    zeros=st.lists(st.sampled_from([0, 0.0]), min_size=1, max_size=4),
)
def test_trailing_zeros_in_a_spectrum_change_no_output(spectrum, target, zeros):
    # the padded run pads the source, the target and one ensemble member
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for name, pad in (("plain", []), ("padded", zeros)):
            members = [(0.5, target + pad), (0.5, [1.0])]
            docs = {
                "state": {"spectrum": spectrum + pad},
                "target": {"spectrum": target + pad},
                "ensemble": {"ensemble": [{"probability": p, "spectrum": v} for p, v in members]},
            }
            files = {}
            for key, doc in docs.items():
                files[key] = os.path.join(tmp, f"{name}-{key}.json")
                with open(files[key], "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            outputs.append([
                _main_exit_code([a.format(**files) for a in argv])
                for argv in _SPECTRUM_CALLS + _TARGET_CALLS
            ])
    assert outputs[0] == outputs[1]
    assert all(code == 0 for code, _, _ in outputs[0][: len(_SPECTRUM_CALLS)])
    assert all(code in (0, 3) for code, _, _ in outputs[0])


def _call(argv, *modules):
    """An argv and the ``entmanip`` submodules its call may load."""
    loaded = {"cli", "jsonio", "schmidt", *modules}
    return pytest.param(argv, loaded, id=" ".join(a.strip("{}") for a in argv))


class TestNumpyStaysUnimported:
    """Each call loads only the modules its subcommand uses.

    Each call runs ``cli.run`` in a fresh interpreter, which then reports
    whether ``numpy`` got imported and which ``entmanip`` submodules did.
    Small calls never import numpy: an amplitude matrix whose smaller side
    is at most 8, and that is not long, is decomposed in pure Python, and a
    simulation of one chunk is tallied in pure Python.  Only a larger
    decomposition or simulation imports it.  A numpy tableau in ``lp.py``
    would put the import back on ``lp-solve`` and ``concentrate
    --weights``, and a module-level kernel import in ``cli``, ``jsonio`` or
    the package would load modules a call never runs.  Every CLI call
    computes in floats, so none loads ``fractions`` or ``exact``; none
    verifies an LP, so none loads ``verify``.  Only a state given as
    amplitudes loads ``amplitudes``, and ``simulate`` takes its measurement
    from ``transform``, without ``concentrate`` or ``monotones``.  The value types are plain classes,
    so only ``simulate``, whose report is a dataclass, imports
    ``dataclasses``; otherwise only numpy may import ``inspect``, which
    ``dataclasses`` brings in.
    """

    CHILD = (
        "import json, sys\n"
        "from entmanip.cli import run\n"
        "code = run(json.loads(sys.argv[1]))\n"
        "modules = [m.split('.', 1)[1] for m in sys.modules if m.startswith('entmanip.')]\n"
        "loaded = [m in sys.modules for m in ('numpy', 'dataclasses', 'inspect', 'fractions')]\n"
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
            "amplitudes8": {"amplitudes": _diagonal_amplitudes(8, 9)},
            "amplitudes9": {"amplitudes": _diagonal_amplitudes(9, 9)},
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
        numpy_imported, dataclasses_imported, inspect_imported, fractions_imported = loaded
        assert dataclasses_imported == (argv[0] == "simulate")
        assert not inspect_imported or numpy_imported or dataclasses_imported
        assert not fractions_imported
        assert not {"exact", "verify"} & set(modules)
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

    def test_small_amplitudes_and_simulate_need_no_numpy(self, files):
        code, numpy_imported, modules, out = self.child(
            ["decompose", "--state", files["amplitudes"]]
        )
        assert code == 0 and not numpy_imported
        assert modules == {"cli", "jsonio", "schmidt", "amplitudes"}
        assert json.loads(out)["spectrum"] == pytest.approx([0.5, 0.5], abs=1e-12)
        code, numpy_imported, modules, out = self.child(
            ["decompose", "--state", files["amplitudes8"]]
        )
        assert code == 0 and not numpy_imported
        assert modules == {"cli", "jsonio", "schmidt", "amplitudes"}
        assert json.loads(out)["spectrum"] == pytest.approx([1 / 8] * 8, abs=1e-15)
        code, numpy_imported, modules, out = self.child(
            ["simulate", "--state", files["state"], "--trials", str(_CHUNK_TRIALS)]
        )
        assert code == 0 and not numpy_imported
        assert modules == {"cli", "jsonio", "schmidt", "transform", "sim"}
        assert sum(json.loads(out)["counts"]) == _CHUNK_TRIALS
        code, numpy_imported, modules, out = self.child(
            ["simulate", "--state", files["state"], "--protocol", files["povm"],
             "--trials", "10"]
        )
        assert code == 0 and not numpy_imported
        assert modules == {"cli", "jsonio", "schmidt", "transform", "sim"}
        assert json.loads(out)["counts"] == [10]

    def test_amplitudes_and_simulate_still_work(self, files):
        # past the small sizes numpy does the work, and the output is the
        # one the other path gives
        code, numpy_imported, modules, out = self.child(
            ["decompose", "--state", files["amplitudes9"]]
        )
        assert code == 0 and numpy_imported
        assert modules == {"cli", "jsonio", "schmidt", "amplitudes"}
        assert json.loads(out)["spectrum"] == pytest.approx([1 / 9] * 9, abs=1e-15)
        trials = _CHUNK_TRIALS + 1
        code, numpy_imported, modules, out = self.child(
            ["simulate", "--state", files["state"], "--trials", str(trials),
             "--seed", "7"]
        )
        assert code == 0 and numpy_imported
        assert modules == {"cli", "jsonio", "schmidt", "transform", "sim"}
        doc = json.loads(out)
        cdf = list(itertools.accumulate(doc["expected_probs"]))
        cdf[-1] = max(cdf[-1], 1.0)
        assert doc["counts"] == _python_tally(cdf, 7, trials)


def _diagonal_amplitudes(rank, cols):
    """A rank x cols maximally entangled amplitude matrix as JSON rows."""
    r = 1 / math.sqrt(rank)
    return [[r if i == j else 0.0 for j in range(cols)] for i in range(rank)]


# each subcommand once; build-povm also writes its JSON to a file
_PROCESS_CALLS = [
    ["decompose", "--state", "{amplitudes}", "--units", "bits"],
    ["check-feasible", "--source", "{state}", "--target", "{target}"],
    ["build-povm", "--source", "{state}", "--ensemble", "{ensemble}", "--out", "{out}"],
    ["concentrate", "--state", "{state}", "--weights", "log2", "--format", "csv"],
    ["lp-solve", "{lp}"],
    ["simulate", "--state", "{state}", "--trials", "1000", "--seed", "3"],
]


@pytest.mark.parametrize("argv", _PROCESS_CALLS, ids=lambda argv: argv[0])
def test_module_entry_point_matches_run(tmp_path, capsys, argv):
    # a process that exits through cli.main, frozen collector and all,
    # prints and writes what run() does in this one
    docs = {
        "amplitudes": {"amplitudes": [[0.6, {"re": 0.0, "im": 0.48}], [0.0, 0.64]]},
        "state": {"spectrum": [0.5, 0.3, 0.2]},
        "target": {"spectrum": [0.8, 0.2]},
        "ensemble": {
            "ensemble": [
                {"probability": 0.5, "spectrum": [1.0]},
                {"probability": 0.5, "spectrum": [0.5, 0.5]},
            ]
        },
        "lp": {"objective": [1.0, 1.0], "matrix": [[1.0, 2.0], [3.0, 1.0]], "bounds": [4.0, 6.0]},
    }
    files = {k: write_json(tmp_path / f"{k}.json", v) for k, v in docs.items()}
    args = [a.format(**files, out=str(tmp_path / "run.json")) for a in argv]
    code = run(args)
    expected = capsys.readouterr()
    package_root = os.path.dirname(os.path.dirname(entmanip.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "entmanip",
         *[a.format(**files, out=str(tmp_path / "process.json")) for a in argv]],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)
    assert code == 0 and expected.out
    if "--out" in argv:
        written = (tmp_path / "process.json").read_text(encoding="utf-8")
        assert written == (tmp_path / "run.json").read_text(encoding="utf-8") == expected.out
