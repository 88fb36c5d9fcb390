"""Predictor-corrector interior-point solver on the self-dual embedding.

One iteration is a predictor step (aim at the solution, long line search
inside a wide proximity ball) followed by damped corrector steps that pull
the iterate back into a tight neighborhood of the central path. They differ
only in the Newton right-hand side, the acceptance test and the search's
first step and factor; the step is written once in ``_step``: solve the
Newton system, cap the step at the tau/kappa boundary, then try one
geometric sequence of steps down to 2^-59 of the cap until the trial point
is interior and its proximity passes the caller's test. The corrector's
search starts at the cap and halves; the predictor's at the step a fitted
proximity model predicts, however small, backtracking by a finer factor
(see the step-rule constants below). The accepted point's proximity is
carried forward, and each iterate's residuals are computed once and shared
by the status test, the predictor, the history record and the result.

Ownership: at most one factored Hessian is alive at a time, so when the
oracle evaluates a point, no earlier interior result is reachable. The
iterate's oracle result lives in a one-element list, ``held``, and only
``_step`` moves it: it takes the result out for the Newton solve, drops each
rejected trial's result before the next trial and leaves the accepted one
in ``held`` for the next step.

When the corrector fails, the predictor point is recorded as the iterate and
goes through the status test; the failure ends the solve only if that point
certifies nothing. No path reads an oracle result after that: the solve
either returns or re-raises the failure. A point becomes the iterate only
once it is recorded, so the returned point and its residual norms are
always those of the last history record, also when a Newton system turns
singular mid-iteration. The embedding makes infeasibility detection a
byproduct: a status is returned as soon as the iterate passes its
certificate test (an optimal point (x, y, s)/tau, a Farkas ray in (y, s) or
an improving ray in x).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .barriers import Barrier, ExteriorPointError
from .hsd import (
    Direction,
    Iterate,
    NewtonRhs,
    ProblemData,
    SingularSystemError,
    centrality_residual,
    gap,
    newton_solve,
    proximity,
    residuals,
)
from .linalg import DimensionMismatch, as_int, as_real

__all__ = [
    "SolverStatus",
    "SolverOptions",
    "SolverResult",
    "IterationRecord",
    "LineSearchError",
    "initial_iterate",
    "solve",
]


class SolverStatus(Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    ITERATION_LIMIT = "IterationLimit"
    NUMERICAL_ERROR = "NumericalError"


_STATUS_STRINGS = {
    SolverStatus.OPTIMAL: "optimal solution found",
    SolverStatus.PRIMAL_INFEASIBLE: "primal infeasible; Farkas certificate in (y, s)",
    SolverStatus.DUAL_INFEASIBLE: "dual infeasible; improving ray in x",
    SolverStatus.ITERATION_LIMIT: "iteration limit reached",
    SolverStatus.NUMERICAL_ERROR: "numerical difficulties",
}


class LineSearchError(RuntimeError):
    """A line search or corrector phase could not make progress.

    ``trials`` counts the oracle calls the failed phase made.
    """

    def __init__(self, message, trials=0):
        super().__init__(message)
        self.trials = trials


# Step-rule constants, read by the steps and ``_predictor_start``. ETA is
# the central-path proximity kept after correction and PRED_BETA the wider
# ball the predictor may roam. Every search tries one geometric sequence of
# steps and stops at the last one of at least MIN_STEP times the boundary
# cap. A corrector search starts at the cap and halves the step
# (LS_FACTOR). A predictor search that steps a from proximity p0 to p fits
# K = max(p - p0, 0)(1 - a) / a^2 in p(a) = p0 + K a^2 / (1 - a); the next
# one starts where that model, from the new p0, reaches THETA * PRED_BETA
# (1 for the first, whose K is 0), never above the cap, and backtracks by
# WARM_FACTOR; the new p0 is at most ETA, below that target.
ETA = 0.07
THETA = 0.8
PRED_BETA = 0.5
MAX_CORR_STEPS = 8
LS_FACTOR = 0.5
WARM_FACTOR = 0.8
MIN_STEP = 2.0**-59


@dataclass
class SolverOptions:
    """What a caller may set; the step rule itself is fixed (see ETA above).

    optim_tol is the tolerance of the three certificate tests that decide
    the status (see _classify).
    """

    optim_tol: float = 1e-6
    max_iter: int = 500
    verbose: bool = False

    def __post_init__(self):
        if not (0.0 < self.optim_tol < 1.0):
            raise ValueError("optim_tol must be in (0, 1)")
        self.max_iter = as_int(self.max_iter, "max_iter")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One recorded iterate; ``pred_trials`` and ``corr_trials`` count the
    oracle calls of its predictor and corrector line searches."""

    iteration: int
    mu: float
    primal_norm: float
    dual_norm: float
    gap_abs: float
    step: float
    corrector_steps: int
    prox: float
    pred_trials: int
    corr_trials: int


@dataclass
class SolverResult:
    status: SolverStatus
    status_string: str
    p_obj: float
    d_obj: float
    iterations: int
    tau: float
    kappa: float
    residual_norms: dict
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    history: list = field(default_factory=list)
    solve_seconds: float = 0.0


def initial_iterate(prob: ProblemData, oracle: Barrier, x0=None) -> Iterate:
    """Canonical embedding start: y = 0, tau = kappa = 1, s = -grad f(x0).

    By the homogeneity identity x0's0 = nu, so the initial complementarity
    gap is exactly 1 and the point sits on the central path.
    """
    return _start(prob, oracle, x0)[0]


def _start(prob, oracle, x0):
    """The initial iterate with the oracle result at its x, from one evaluation."""
    if oracle.dim != prob.n:
        raise DimensionMismatch(
            f"oracle dimension {oracle.dim} does not match n = {prob.n}"
        )
    if x0 is None:
        x0 = oracle.initial_point
        if x0 is None:
            raise ValueError("oracle has no canonical initial point; pass x0")
    x0 = as_real(x0, "x0")
    ev = oracle.eval(x0)
    if not ev.in_interior:
        raise ExteriorPointError("initial point is not strictly interior")
    return Iterate(np.zeros(prob.m), x0.copy(), 1.0, -ev.gradient, 1.0), ev


def _boundary_cap(z: Iterate, d: Direction) -> float:
    """Largest step keeping at least 1% of the current tau and kappa."""
    alpha = 1.0
    if d.dtau < 0.0:
        alpha = min(alpha, -0.99 * z.tau / d.dtau)
    if d.dkappa < 0.0:
        alpha = min(alpha, -0.99 * z.kappa / d.dkappa)
    return alpha


def _take(held):
    """The oracle result in the one-element list ``held``, leaving None there."""
    ev, held[0] = held[0], None
    return ev


def _step(prob, oracle, z, held, rhs, accept, failure, first, factor, trials):
    """One Newton step from z for ``rhs``, backtracking into ``accept``.

    ``held`` holds z's oracle result; the Newton solve takes it out, so no
    frame holds it while the search evaluates trials. The trial steps are
    min(first, cap) * factor^k down to MIN_STEP * cap, where cap is the
    ``_boundary_cap`` of the direction. Each rejected trial's result is
    dropped before the next trial; the first trial that is interior with a
    positive gap and whose proximity passes ``accept`` leaves its result in
    ``held``. Returns (point, step, proximity, trials), where ``trials`` is
    the count passed in plus this search's oracle calls. When every trial
    fails, raises LineSearchError with the message ``failure`` and that
    count.
    """
    nu = oracle.nu
    d = newton_solve(prob, z, gap(z, nu), _take(held), rhs)
    cap = _boundary_cap(z, d)
    alpha = min(first, cap)
    while alpha >= MIN_STEP * cap:
        trials += 1
        zt = z.step(d, alpha)
        held[0] = None  # free a rejected trial's factor before the next one is built
        held[0] = oracle.eval(zt.x)
        if held[0].in_interior and gap(zt, nu) > 0.0:
            prox = proximity(zt, held[0], nu)
            if accept(prox):
                return zt, alpha, prox, trials
        alpha *= factor
    raise LineSearchError(failure, trials)


def _predictor_start(fit, p0):
    """The root a of p0 + fit a^2 / (1 - a) = THETA * PRED_BETA; 1 when fit = 0."""
    c = THETA * PRED_BETA - p0  # p0 <= ETA: the corrector re-centered it
    return 2.0 * c / (c + np.sqrt(c * c + 4.0 * fit * c))


def _predictor(prob, oracle, z, held, res, start):
    """Aim at the embedding solution, backtrack by WARM_FACTOR from ``start``
    into the PRED_BETA ball. Returns ``_step``'s tuple."""
    rhs = NewtonRhs(*(-r for r in res), -z.s, -z.kappa)
    failure = "predictor line search found no acceptable step"
    return _step(prob, oracle, z, held, rhs, lambda p: p <= PRED_BETA, failure,
                 start, WARM_FACTOR, 0)


def _corrector(prob, oracle, z, held, prox):
    """Damped centering steps until the iterate is back within ETA.

    Returns (point, proximity, steps, trials). Each step's search starts at
    the cap and halves (LS_FACTOR)."""
    trials = 0
    for k in range(MAX_CORR_STEPS + 1):
        if prox <= ETA:
            return z, prox, k, trials
        if k == MAX_CORR_STEPS:
            raise LineSearchError("corrector failed to re-center the iterate", trials)
        psi_x, psi_k = centrality_residual(z, gap(z, oracle.nu), held[0].gradient)
        rhs = NewtonRhs(np.zeros(prob.m), np.zeros(prob.n), 0.0, -psi_x, -psi_k)
        z, _, prox, trials = _step(prob, oracle, z, held, rhs, lambda p: p < prox,
                                   "corrector step stalled", 1.0, LS_FACTOR, trials)


def _classify(z, res, prob, eps):
    """The status whose certificate the iterate passes, or None.

    Each test is the one bench/check.py applies, read off the embedding
    residuals; there is no separate convergence gate and tau and kappa are
    not compared. Optimal: (x, y, s)/tau has scaled primal and dual
    residuals and relative gap at most eps. PrimalInfeasible: b'y > 0 and
    |A'y + s| <= eps b'y. DualInfeasible: c'x < 0 and |Ax| <= eps (-c'x).
    """
    b, c = prob.b, prob.c
    # at (x, y, s) / tau the residuals are the embedding's over tau
    rp = np.linalg.norm(res.primal) / z.tau / (1.0 + np.linalg.norm(b))
    rd = np.linalg.norm(res.dual) / z.tau / (1.0 + np.linalg.norm(c))
    by, cx = float(b @ z.y), float(c @ z.x)
    p_obj, d_obj = cx / z.tau, by / z.tau
    dgap = abs(p_obj - d_obj) / (1.0 + abs(d_obj))
    if max(rp, rd, dgap) <= eps:
        return SolverStatus.OPTIMAL
    if by > 0.0 and np.linalg.norm(c * z.tau - res.dual) <= eps * by:
        return SolverStatus.PRIMAL_INFEASIBLE  # |A'y + s|
    if cx < 0.0 and np.linalg.norm(res.primal + b * z.tau) <= eps * -cx:
        return SolverStatus.DUAL_INFEASIBLE  # |A x|
    return None


def _build_result(status, detail, z, res, prob, nu, history, t0):
    with np.errstate(over="ignore"):  # an overflowed norm is inf, written as null
        norms = {
            "primal": float(np.linalg.norm(res.primal)),
            "dual": float(np.linalg.norm(res.dual)),
            "gap": abs(res.gap),
            "mu": gap(z, nu),
        }
    scale = z.tau if status is SolverStatus.OPTIMAL else 1.0
    x, y, s = z.x / scale, z.y / scale, z.s / scale
    status_string = _STATUS_STRINGS[status]
    if detail:
        status_string = f"{status_string}: {detail}"
    return SolverResult(
        status=status,
        status_string=status_string,
        p_obj=float(prob.c @ x),
        d_obj=float(prob.b @ y),
        iterations=len(history),
        tau=z.tau,
        kappa=z.kappa,
        residual_norms=norms,
        x=x,
        y=y,
        s=s,
        history=history,
        solve_seconds=time.perf_counter() - t0,
    )


# the --verbose column of each IterationRecord field: (label, width, format)
_LOG_FORMATS = {
    "iteration": ("iter", 4, ""),
    "mu": ("mu", 10, ".3e"),
    "primal_norm": ("|rP|", 10, ".3e"),
    "dual_norm": ("|rD|", 10, ".3e"),
    "gap_abs": ("|rG|", 10, ".3e"),
    "step": ("step", 8, ".2e"),
    "corrector_steps": ("corr", 4, ""),
    "prox": ("prox", 8, ".2e"),
    "pred_trials": ("ptry", 4, ""),
    "corr_trials": ("ctry", 4, ""),
}
# in field order; a record field without a column fails the import
_LOG_COLUMNS = [(f.name, *_LOG_FORMATS[f.name]) for f in fields(IterationRecord)]
_LOG_HEADER = " ".join(f"{label:>{width}}" for _, label, width, _ in _LOG_COLUMNS)


def solve(
    prob: ProblemData,
    oracle: Barrier,
    x0=None,
    options: SolverOptions | None = None,
) -> SolverResult:
    """Run the predictor-corrector method on the embedded problem.

    Parameters
    ----------
    prob : ProblemData
        Equality data (A, b, c) of the conic program min c'x, Ax = b, x in K.
    oracle : Barrier
        Barrier oracle for K; its dimension must equal the number of columns
        of A.
    x0 : array, optional
        Strictly interior starting point; the oracle's canonical point is
        used when omitted.
    options : SolverOptions, optional

    Returns
    -------
    SolverResult
        Status plus the (de-homogenized, when optimal) primal-dual solution,
        objective values, residual norms, and the per-iteration history.
    """
    opts = options if options is not None else SolverOptions()
    t0 = time.perf_counter()
    held = [None]  # the oracle result at z or zt; only _step moves it
    z, held[0] = _start(prob, oracle, x0)
    nu = oracle.nu
    res = residuals(z, prob)
    history: list[IterationRecord] = []
    if opts.verbose:
        print(_LOG_HEADER, file=sys.stderr)
    status = SolverStatus.ITERATION_LIMIT
    detail = ""
    stalled = None
    fit, prox = 0.0, 0.0  # the start point is central
    try:
        if not np.isfinite(res.norm()):
            raise OverflowError(
                "problem data overflowed: the start's residuals are not finite"
            )
        for it in range(opts.max_iter + 1):
            verdict = _classify(z, res, prob, opts.optim_tol)
            if verdict is not None:
                status = verdict
                break
            if stalled is not None:
                raise stalled
            if it == opts.max_iter:
                break
            p0, start = prox, _predictor_start(fit, prox)
            zt, alpha, prox, ptrials = _predictor(prob, oracle, z, held, res, start)
            fit = max(prox - p0, 0.0) * (1.0 - alpha) / alpha**2
            try:
                zt, prox, ncorr, ctrials = _corrector(prob, oracle, zt, held, prox)
            except LineSearchError as exc:
                # centering can stall near the solution, where the predictor
                # point may already certify: record that point and let the
                # next _classify decide; if it certifies nothing, the failure
                # is re-raised there
                stalled, ncorr, ctrials = exc, 0, exc.trials
            z = zt
            res = residuals(z, prob)
            rec = IterationRecord(
                iteration=it + 1,
                mu=gap(z, nu),
                primal_norm=float(np.linalg.norm(res.primal)),
                dual_norm=float(np.linalg.norm(res.dual)),
                gap_abs=abs(res.gap),
                step=alpha,
                corrector_steps=ncorr,
                prox=prox,
                pred_trials=ptrials,
                corr_trials=ctrials,
            )
            history.append(rec)
            if opts.verbose:
                row = (f"{getattr(rec, k):>{w}{fmt}}" for k, _, w, fmt in _LOG_COLUMNS)
                print(" ".join(row), file=sys.stderr)
    except (LineSearchError, SingularSystemError, OverflowError) as exc:
        status = SolverStatus.NUMERICAL_ERROR
        detail = str(exc)
    result = _build_result(status, detail, z, res, prob, nu, history, t0)
    if opts.verbose:
        status_line = f"status: {result.status.value} ({result.status_string})"
        print(status_line, file=sys.stderr)
    return result
