"""Command-line interface.

Subcommands:

* ``solve <file>``: solve a problem file and emit the result document.
* ``random-lp --m --n --seed``: generate a feasible random LP, solve it,
  optionally write the instance with ``--emit``.
* ``edesign --n --p --seed``: generate and solve an E-optimal design
  instance with standard-normal candidates.
* ``check-barrier --cone <tag>``: finite-difference self-check of a built-in
  barrier at seeded interior points.

Exit codes: 0 optimal, 2 infeasibility certified, 3 iteration limit,
4 input error or unwritable output path, 5 numerical error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple

import numpy as np

from .barriers import FdCheckReport, NonnegativeBarrier, fd_check
from .cones import CONE_TYPES, ConeSpec, block_oracle, solve_cones
from .edesign import build_edesign, random_design_matrix
from .fileio import load_problem, save_problem, write_result
from .generators import random_lp
from .solver import SolverOptions, SolverStatus, solve

__all__ = ["main"]

_EXIT_CODES = {
    SolverStatus.OPTIMAL: 0,
    SolverStatus.PRIMAL_INFEASIBLE: 2,
    SolverStatus.DUAL_INFEASIBLE: 2,
    SolverStatus.ITERATION_LIMIT: 3,
    SolverStatus.NUMERICAL_ERROR: 5,
}

EXIT_INPUT_ERROR = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default, which collides with the
    # infeasibility exit code; funnel usage errors into exit 4 instead
    def error(self, message):
        raise ValueError(message)


def _add_solver_flags(p):
    tol, max_iter = SolverOptions.optim_tol, SolverOptions.max_iter
    p.add_argument("--tol", type=float, default=tol, help="optimality tolerance")
    p.add_argument("--max-iter", type=int, default=max_iter, help="iteration cap")
    p.add_argument("--verbose", action="store_true", help="per-iteration log")
    p.add_argument("--output", help="write the result document to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nsconic", description="nonsymmetric conic solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.set_defaults(run=_cmd_solve)
    p_solve.add_argument("file", help="path to the problem file")
    _add_solver_flags(p_solve)

    p_rlp = sub.add_parser("random-lp", help="generate and solve a random LP")
    p_rlp.set_defaults(run=_cmd_random_lp)
    p_rlp.add_argument("--m", type=int, required=True, help="number of equalities")
    p_rlp.add_argument("--n", type=int, required=True, help="number of variables")
    p_rlp.add_argument("--seed", type=int, default=0)
    p_rlp.add_argument("--emit", help="also write the instance as a problem file")
    _add_solver_flags(p_rlp)

    p_ed = sub.add_parser("edesign", help="random E-optimal design instance")
    p_ed.set_defaults(run=_cmd_edesign)
    p_ed.add_argument("--n", type=int, required=True, help="feature dimension")
    p_ed.add_argument("--p", type=int, help="number of candidates (default 2n)")
    p_ed.add_argument("--seed", type=int, default=0)
    _add_solver_flags(p_ed)

    p_chk = sub.add_parser("check-barrier", help="finite-difference oracle check")
    p_chk.set_defaults(run=_cmd_check_barrier)
    p_chk.add_argument(
        "--cone",
        required=True,
        choices=CONE_TYPES,
        help="barrier to check",
    )
    p_chk.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        nargs="+",
        help="gpow weights (positive, summing to 1)",
    )
    p_chk.add_argument("--dim", type=int, help="cone dimension where variable")
    p_chk.add_argument("--seed", type=int, default=0)
    return parser


def _make_options(args) -> SolverOptions:
    return SolverOptions(
        optim_tol=args.tol, max_iter=args.max_iter, verbose=args.verbose
    )


def _emit_result(result, args) -> int:
    write_result(result, args.output or sys.stdout)
    return _EXIT_CODES[result.status]


def _cmd_solve(args) -> int:
    c, A, b, cones, x0 = load_problem(args.file)
    result = solve_cones(c, A, b, cones, x0=x0, options=_make_options(args))
    return _emit_result(result, args)


def _cmd_random_lp(args) -> int:
    prob, x_hat = random_lp(args.m, args.n, args.seed)
    if args.emit:
        save_problem(
            args.emit,
            prob.c,
            prob.A,
            prob.b,
            [ConeSpec("lp", prob.n)],
            x0=x_hat,
        )
    result = solve(prob, NonnegativeBarrier(prob.n), x_hat, _make_options(args))
    return _emit_result(result, args)


def _cmd_edesign(args) -> int:
    V = random_design_matrix(args.n, args.p, args.seed)
    prob, barrier, x0 = build_edesign(V)
    result = solve(prob, barrier, x0, _make_options(args))
    return _emit_result(result, args)


_CHECK_DIMS = {"lp": 5, "socp": 4, "free": 3}


def _barrier_for_check(args):
    """Built-in barrier from the flags, with ConeSpec's validation."""
    dim, lam = args.dim, args.lam
    if args.cone == "gpow":
        lam = (0.5, 0.5) if lam is None else lam
    elif dim is None:
        dim = _CHECK_DIMS.get(args.cone)
    return block_oracle(ConeSpec(args.cone, dim, lam))


def _sample_near_start(oracle, rng):
    """Rejection-sample an interior point around the canonical start."""
    x0 = oracle.initial_point
    radius = 0.5
    for _ in range(60):
        candidate = x0 + radius * rng.standard_normal(oracle.dim)
        if oracle.contains(candidate):
            return candidate
        radius *= 0.7
    return x0


def _cmd_check_barrier(args) -> int:
    oracle = _barrier_for_check(args)
    rng = np.random.default_rng(args.seed)
    n_points = 10
    points = (_sample_near_start(oracle, rng) for _ in range(n_points))
    reports = [astuple(fd_check(oracle, x)) for x in points]
    worst = FdCheckReport(*map(max, zip(*reports)))
    print(f"cone {args.cone} (dim {oracle.dim}, nu {oracle.nu:g}): {n_points} points")
    print(f"  max gradient error (rel):  {worst.grad_err:.3e}")
    print(f"  max Hessian error (rel):   {worst.hess_err:.3e}")
    print(f"  max |x'g + nu| / nu:       {worst.grad_identity:.3e}")
    print(f"  max ||Hx + g|| (rel):      {worst.hess_identity:.3e}")
    ok = worst.ok()
    print("result: OK" if ok else "result: FAILED")
    return 0 if ok else 5


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
