"""Predictor-corrector interior-point solver on the self-dual embedding.

One iteration is a predictor step (aim at the solution, long line search
inside a wide proximity ball) followed by damped corrector steps that pull
the iterate back into a tight neighborhood of the central path. Both make
the same move, written once in ``_step``: solve the Newton system for a
right-hand side, cap the step at the tau/kappa boundary, then try the
steps that ``_trials`` generates until the trial point is interior and its
proximity passes the caller's test. Each search is one geometric sequence
down to 2^-59 of the cap. The corrector's starts at the cap and halves; the
predictor's at the step a fitted proximity model predicts, backtracking by
a finer factor (see the step-rule constants below). The accepted
point's oracle result and proximity are carried forward, and each
iterate's residuals are computed once and shared by the status test, the
predictor, the history record and the result. When the corrector fails,
the predictor point is recorded as the iterate and goes through the status
test; the failure ends the solve only if that point certifies nothing. A
point becomes the iterate only once it is recorded, so the returned point
and its residual norms are always those of the last history record, also
when a Newton system turns singular mid-iteration. The embedding makes
infeasibility detection a byproduct: a status is returned as soon as the
iterate passes its certificate test (an optimal point (x, y, s)/tau, a
Farkas ray in (y, s) or an improving ray in x).
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
from .linalg import DimensionMismatch, as_int

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


# Step-rule constants, read by ``_trials`` and ``_predictor_start``. ETA is
# the central-path proximity kept after correction and PRED_BETA the wider
# ball the predictor may roam. Every search tries one geometric sequence of
# steps and stops at the last one of at least MIN_STEP times the boundary
# cap. A corrector search starts at the cap and halves the step
# (LS_FACTOR). A predictor search that steps a from proximity p0 to p fits
# K = max(p - p0, 0)(1 - a) / a^2 in p(a) = p0 + K a^2 / (1 - a); the next
# one starts where that model, from the new p0, reaches THETA * PRED_BETA,
# at most at twice the last step (the first at the cap), and backtracks by
# WARM_FACTOR; the new p0 is at most ETA, below that target. A start below
# COLD_START searches as the corrector does.
ETA = 0.07
THETA = 0.8
PRED_BETA = 0.5
MAX_CORR_STEPS = 8
LS_FACTOR = 0.5
WARM_FACTOR = 0.8
COLD_START = 1e-3
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
    x0 = np.asarray(x0, dtype=np.float64)
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


def _trials(cap, start):
    """A line search's trial steps down to MIN_STEP * cap: from min(cap, start)
    by WARM_FACTOR when start >= COLD_START, else from cap by LS_FACTOR."""
    warm = start >= COLD_START
    alpha, factor = (min(cap, start), WARM_FACTOR) if warm else (cap, LS_FACTOR)
    while alpha >= MIN_STEP * cap:
        yield alpha
        alpha *= factor


def _step(prob, oracle, z, ev, rhs, accept, failure, start, trials):
    """Newton direction for rhs, then the steps of ``_trials(cap, start)``.

    Returns the first trial point that is interior with a positive gap and
    whose proximity passes ``accept``, as (point, oracle result, step,
    proximity, trials), where ``trials`` is the count passed in plus this
    search's oracle calls. When every trial fails, raises LineSearchError
    with the message ``failure`` and that count.
    """
    nu = oracle.nu
    d = newton_solve(prob, z, gap(z, nu), ev, rhs)
    for alpha in _trials(_boundary_cap(z, d), start):
        trials += 1
        zt = z.step(d, alpha)
        evt = oracle.eval(zt.x)
        if evt.in_interior and gap(zt, nu) > 0.0:
            prox = proximity(zt, evt, nu)
            if accept(prox):
                return zt, evt, alpha, prox, trials
    raise LineSearchError(failure, trials)


def _predictor_start(last, fit, p0):
    """The root a of p0 + fit a^2 / (1 - a) = THETA * PRED_BETA, at most 2 last."""
    if last == np.inf:
        return last
    c = THETA * PRED_BETA - p0  # p0 <= ETA: the corrector re-centered it
    return min(2.0 * last, 2.0 * c / (c + np.sqrt(c * c + 4.0 * fit * c)))


def _predictor(prob, oracle, z, ev, res, start):
    """Aim at the embedding solution, backtrack into the PRED_BETA ball."""
    rhs = NewtonRhs(-res.primal, -res.dual, -res.gap, -z.s, -z.kappa)
    failure = "predictor line search found no acceptable step"
    return _step(prob, oracle, z, ev, rhs, lambda p: p <= PRED_BETA, failure, start, 0)


def _corrector(prob, oracle, z, ev, prox):
    """Damped centering steps until the iterate is back within ETA.

    Each step's search is the cold one (start 0.0 < COLD_START)."""
    trials = 0
    for k in range(MAX_CORR_STEPS + 1):
        if prox <= ETA:
            return z, ev, prox, k, trials
        if k == MAX_CORR_STEPS:
            raise LineSearchError("corrector failed to re-center the iterate", trials)
        mu = gap(z, oracle.nu)
        psi_x, psi_k = centrality_residual(z, mu, ev.gradient)
        rhs = NewtonRhs(np.zeros(prob.m), np.zeros(prob.n), 0.0, -psi_x, -psi_k)
        failure = "corrector step stalled"
        z, ev, _, prox, trials = _step(
            prob, oracle, z, ev, rhs, lambda p: p < prox, failure, 0.0, trials
        )


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
    z, ev = _start(prob, oracle, x0)
    nu = oracle.nu
    res = residuals(z, prob)
    history: list[IterationRecord] = []
    if opts.verbose:
        print(_LOG_HEADER, file=sys.stderr)
    status = SolverStatus.ITERATION_LIMIT
    detail = ""
    stalled = None
    last_step, fit, prox = np.inf, 0.0, 0.0  # the start point is central
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
            p0, start = prox, _predictor_start(last_step, fit, prox)
            zt, ev, alpha, prox, ptrials = _predictor(prob, oracle, z, ev, res, start)
            last_step, fit = alpha, max(prox - p0, 0.0) * (1.0 - alpha) / alpha**2
            try:
                zt, ev, prox, ncorr, ctrials = _corrector(prob, oracle, zt, ev, prox)
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
