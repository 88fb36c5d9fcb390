import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsconic
from nsconic.barriers import NonnegativeBarrier
from nsconic.cli import _make_options, _sample_near_start, build_parser, main
from nsconic.cones import CONE_TYPES
from nsconic.fileio import load_problem
from nsconic.solver import SolverOptions

from _util import lp_doc, without_timing, write_doc


def infeasible_doc():
    # x1 = -1 with x >= 0
    return {
        "c": [0.0, 0.0],
        "b": [-1.0],
        "A": {"m": 1, "n": 2, "rows": [0], "cols": [0], "vals": [1.0]},
        "cones": [{"type": "lp", "dim": 2}],
    }


def test_solve_writes_result_to_stdout(tmp_path, capsys):
    code = main(["solve", write_doc(tmp_path, lp_doc())])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Optimal"
    assert doc["pObj"] == pytest.approx(2.0, abs=1e-5)
    assert doc["x"] == pytest.approx([2.0, 0.0], abs=1e-5)


def test_solve_output_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "result.json"
    code = main(["solve", write_doc(tmp_path, lp_doc()), "--output", str(dest)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["status"] == "Optimal"


def test_solve_verbose_logs_iterations(tmp_path, capsys):
    dest = tmp_path / "result.json"
    code = main(
        ["solve", write_doc(tmp_path, lp_doc()), "--verbose", "--output", str(dest)]
    )
    assert code == 0
    log = capsys.readouterr().err
    assert "iter" in log and "mu" in log
    assert json.loads(dest.read_text())["status"] == "Optimal"


def test_verbose_stdout_is_the_result_document(capsys):
    code = main(["random-lp", "--m", "3", "--n", "6", "--seed", "1", "--verbose"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["status"] == "Optimal"
    assert captured.err.startswith("iter")


def test_overflowing_data_exits_5_with_a_document(tmp_path, capsys):
    doc = {
        "c": [1e200, 2e200, 3e200],
        "b": [2.0, 0.5],
        "A": {
            "m": 2,
            "n": 3,
            "rows": [0, 0, 0, 1, 1],
            "cols": [0, 1, 2, 0, 1],
            "vals": [1.0, 1.0, 1.0, 1.0, -1.0],
        },
        "cones": [{"type": "lp", "dim": 3}],
    }
    code = main(["solve", write_doc(tmp_path, doc)])

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    # strict JSON: a non-finite number is written as null
    result = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 5
    assert result["status"] == "NumericalError" and result["iterations"] == 0
    assert "overflowed" in result["statusString"]
    assert result["residualNorms"]["dual"] is None


def test_solver_flag_defaults_are_the_solver_options_defaults():
    args = build_parser().parse_args(["random-lp", "--m", "3", "--n", "5"])
    assert _make_options(args) == SolverOptions()


def test_infeasible_exits_2(tmp_path, capsys):
    code = main(["solve", write_doc(tmp_path, infeasible_doc())])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["status"] == "PrimalInfeasible"


def test_iteration_limit_exits_3(tmp_path, capsys):
    code = main(["solve", write_doc(tmp_path, lp_doc()), "--max-iter", "1"])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["status"] == "IterationLimit"


def test_input_errors_exit_4(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text('{"c": [1.0]}')
    assert main(["solve", str(bad)]) == 4
    assert main(["random-lp", "--m", "9", "--n", "6"]) == 4
    assert main(["random-lp", "--n", "6"]) == 4  # --m is required
    assert main(["no-such-command"]) == 4
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("flag", ["--output", "--emit"])
def test_unwritable_path_exits_4(tmp_path, capsys, flag):
    dest = tmp_path / "no-such-dir" / "out.json"
    assert main(["random-lp", "--m", "3", "--n", "6", flag, str(dest)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(dest) in err


def test_non_integral_field_exits_4_and_names_it(tmp_path, capsys):
    doc = lp_doc()
    doc["A"]["rows"] = [0.7, 0]
    assert main(["solve", write_doc(tmp_path, doc)]) == 4
    assert "'rows'" in capsys.readouterr().err


def test_tolerance_flag_tightens_result(tmp_path, capsys):
    path = write_doc(tmp_path, lp_doc())
    main(["solve", path, "--tol", "1e-10"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["residualNorms"]["mu"] <= 1e-10


def test_random_lp_solves_and_emits(tmp_path, capsys):
    emitted = tmp_path / "inst.json"
    code = main(
        ["random-lp", "--m", "4", "--n", "9", "--seed", "11", "--emit", str(emitted)]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "Optimal"
    c, A, b, cones, x0 = load_problem(emitted)
    assert A.shape == (4, 9)
    assert len(cones) == 1 and cones[0].type == "lp" and cones[0].dim == 9
    assert A.matvec(x0) == pytest.approx(b, abs=1e-12)


def test_random_lp_deterministic_for_seed(capsys):
    args = ["random-lp", "--m", "3", "--n", "7", "--seed", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert without_timing(first) == without_timing(second)
    assert first != without_timing(first)  # timing line present


def test_solving_emitted_file_matches_direct_run(tmp_path, capsys):
    # random-lp solves the problem it emits, through the same path as solve
    for m, n, seed in [("3", "8", "4"), ("20", "50", "1")]:
        emitted = tmp_path / f"inst-{seed}.json"
        args = ["random-lp", "--m", m, "--n", n, "--seed", seed, "--emit", str(emitted)]
        assert main(args) == 0
        direct = capsys.readouterr().out
        assert main(["solve", str(emitted)]) == 0
        from_file = capsys.readouterr().out
        assert without_timing(from_file) == without_timing(direct)


def test_edesign_command(capsys):
    code = main(["edesign", "--n", "3", "--seed", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "Optimal"
    # p defaults to 2n, variables are (t, x)
    assert len(doc["x"]) == 7
    weights = np.array(doc["x"][1:])
    assert weights.sum() == pytest.approx(1.0, abs=1e-6)
    assert weights.min() > -1e-9
    assert doc["pObj"] < 0.0  # maximizing a positive eigenvalue


# free's example block is 3-dimensional; its Lorentz cone is one dimension up
_EXAMPLE_DIMS = {"lp": 5, "socp": 4, "free": 4, "exp": 3, "gpow": 3}


@pytest.mark.parametrize("cone", CONE_TYPES)
def test_check_barrier_passes_for_builtins(cone, capsys):
    assert main(["check-barrier", "--cone", cone]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"cone {cone} (dim {_EXAMPLE_DIMS[cone]},")
    assert "max gradient error" in out
    assert "result: OK" in out


def test_check_barrier_custom_shape(capsys):
    code = main(
        ["check-barrier", "--cone", "gpow", "--lambda", "0.2", "0.3", "0.5"]
    )
    assert code == 0
    assert "dim 4" in capsys.readouterr().out
    assert main(["check-barrier", "--cone", "lp", "--dim", "9"]) == 0
    assert "dim 9" in capsys.readouterr().out


def test_check_barrier_rejects_bad_weights(capsys):
    code = main(["check-barrier", "--cone", "gpow", "--lambda", "0.9", "0.9"])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_check_barrier_rejects_nan_weights(capsys):
    code = main(["check-barrier", "--cone", "gpow", "--lambda", "nan", "0.5"])
    assert code == 4
    assert "power-cone weights" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--cone", "exp", "--dim", "7"],
        ["--cone", "lp", "--lambda", "0.5", "0.5"],
    ],
)
def test_check_barrier_rejects_flags_the_cone_does_not_take(flags, capsys):
    # the cone description is validated like a problem file's, not ignored
    assert main(["check-barrier", *flags]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_sample_near_start_falls_back_to_the_start():
    # when every draw around the start is rejected, the start itself is used
    class Nowhere(NonnegativeBarrier):
        def contains(self, x):
            return False

    oracle = Nowhere(3)
    x = _sample_near_start(oracle, np.random.default_rng(0))
    np.testing.assert_array_equal(x, np.ones(3))


def test_console_entry_point_runs():
    # the child imports the same nsconic as this process, installed or not
    src = str(Path(nsconic.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nsconic.cli", "check-barrier", "--cone", "exp"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "result: OK" in proc.stdout
