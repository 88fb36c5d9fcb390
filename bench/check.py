"""Independent answer checks for benchmark instances.

Everything here is recomputed from the generated data (c, A, b, cones or V)
and the returned (x, y, s), with closed-form cone tests and scipy's HiGHS as
the reference for LPs. Nothing calls back into the solver's own residual,
oracle or classification code.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from workloads import DUAL_INFEASIBLE, OPTIMAL, PRIMAL_INFEASIBLE, Instance

# HiGHS and the solver each meet their tolerance on their own, so their
# objectives can differ by a small multiple of it.
HIGHS_OBJ_FACTOR = 10.0
_HIGHS_STATUS = {OPTIMAL: 0, PRIMAL_INFEASIBLE: 2, DUAL_INFEASIBLE: 3}


def _in_cone(kind, x, w) -> bool:
    """Strict interior test of the primal cone."""
    if kind == "free":
        return True
    if kind == "lp":
        return bool(x.min() > 0.0)
    if kind == "socp":
        return bool(x[0] > np.linalg.norm(x[1:]))
    if kind == "exp":
        x1, x2, x3 = x
        return bool(x1 > 0.0 and x2 > 0.0 and x2 * np.log(x1 / x2) - x3 > 0.0)
    u, z = x[:-1], x[-1]
    return bool(u.min() > 0.0 and np.exp(np.asarray(w) @ np.log(u)) > abs(z))


def _dual_violation(kind, s, w) -> float:
    """How far s lies outside the (closed) dual cone; 0 when inside."""
    if kind == "free":  # K* = {0}; _project_free moves s there first
        return float(np.abs(s).max())
    if kind == "lp":
        return max(0.0, -float(s.min()))
    if kind == "socp":
        return max(0.0, float(np.linalg.norm(s[1:]) - s[0]))
    if kind == "exp":  # closure of {u > -t exp(v / t - 1), t < 0}
        u, v, t = s
        if t < 0.0:
            return max(0.0, float(-t * np.exp(v / t - 1.0) - u))
        return max(0.0, float(t), -float(u), -float(v))
    w = np.asarray(w)  # gpow dual: prod (u/w)^w >= |v|, u >= 0
    u, v = s[:-1], s[-1]
    if u.min() < 0.0:
        return float(-u.min()) + abs(float(v))
    return max(0.0, abs(float(v)) - float(np.prod((u / w) ** w)))


def _blocks(inst: Instance, v):
    off = 0
    for kind, dim, w in inst.cones:
        yield kind, v[off:off + dim], w
        off += dim


def _project_free(inst: Instance, s):
    """s with its free-block entries set to 0, the only point of their dual cone.

    Whatever s held there then shows up in the dual residual, scaled as the
    solver's own tolerance is.
    """
    s = s.copy()
    off = 0
    for kind, dim, _ in inst.cones:
        if kind == "free":
            s[off:off + dim] = 0.0
        off += dim
    return s


def _check_primal_cone(inst, x, what):
    bad = [k for k, xb, w in _blocks(inst, x) if not _in_cone(k, xb, w)]
    return [f"{what} outside the cone interior in {len(bad)} block(s), e.g. {bad[0]}"] if bad else []


def _check_dual_cone(inst, s, what, tol):
    worst = max(
        _dual_violation(k, sb, w) / (1.0 + np.linalg.norm(sb))
        for k, sb, w in _blocks(inst, s)
    )
    return [f"{what} violates the dual cone by {worst:.2e}"] if worst > tol else []


def _highs(inst: Instance):
    res = linprog(inst.c, A_eq=inst.A, b_eq=inst.b, bounds=(0, None), method="highs")
    return res.status, (res.fun if res.status == 0 else None)


class Checker:
    """Checks answers; caches the HiGHS reference per instance."""

    def __init__(self):
        self._highs = {}

    def highs(self, inst: Instance):
        if inst.name not in self._highs:
            self._highs[inst.name] = _highs(inst)
        return self._highs[inst.name]

    def check(self, inst: Instance, status: str, x, y, s) -> list[str]:
        """Return the list of failed conditions; empty means the answer holds."""
        if status != inst.expected:
            return [f"status {status}, expected {inst.expected}"]
        if inst.V is not None:
            return _check_edesign(inst, x, y, s)
        tol = inst.optim_tol
        A, b, c = inst.A, inst.b, inst.c
        s = _project_free(inst, s)
        errs = []
        if all(k == "lp" for k, _, _ in inst.cones):
            hs, hobj = self.highs(inst)
            if hs != _HIGHS_STATUS[inst.expected]:
                errs.append(f"HiGHS status {hs} disagrees with {inst.expected}")
        else:
            hobj = None
        if status == OPTIMAL:
            p_obj, d_obj = float(c @ x), float(b @ y)
            rp = np.linalg.norm(A @ x - b) / (1.0 + np.linalg.norm(b))
            rd = np.linalg.norm(c - A.T @ y - s) / (1.0 + np.linalg.norm(c))
            dgap = abs(p_obj - d_obj) / (1.0 + abs(d_obj))
            for name, val in (("primal residual", rp), ("dual residual", rd), ("gap", dgap)):
                if not val <= tol:
                    errs.append(f"{name} {val:.2e} > {tol:.0e}")
            errs += _check_primal_cone(inst, x, "x")
            errs += _check_dual_cone(inst, s, "s", tol)
            if inst.bounds is not None:
                lo, hi = inst.bounds
                slack = tol * (1.0 + abs(p_obj))
                if not lo - slack <= p_obj <= hi + slack:
                    errs.append(f"objective {p_obj} outside the weak-duality bracket [{lo}, {hi}]")
            if hobj is not None:
                rel = abs(p_obj - hobj) / (1.0 + abs(hobj))
                if not rel <= HIGHS_OBJ_FACTOR * tol:
                    errs.append(f"objective differs from HiGHS by {rel:.2e}")
        elif status == PRIMAL_INFEASIBLE:
            # Farkas: b'y > 0 and -A'y in K*, witnessed by s in K* with A'y + s ~ 0
            by = float(b @ y)
            if not by > 0.0:
                errs.append(f"b'y = {by} is not positive")
            else:
                r = np.abs(A.T @ y + s).max() / by
                if not r <= tol:
                    errs.append(f"|A'y + s| / b'y = {r:.2e} > {tol:.0e}")
                errs += _check_dual_cone(inst, s / by, "s", tol)
        elif status == DUAL_INFEASIBLE:
            # improving ray: x in K, A x ~ 0, c'x < 0
            cx = float(c @ x)
            if not cx < 0.0:
                errs.append(f"c'x = {cx} is not negative")
            else:
                r = np.abs(A @ x).max() / -cx
                if not r <= tol:
                    errs.append(f"|A x| / -c'x = {r:.2e} > {tol:.0e}")
                errs += _check_primal_cone(inst, x, "x")
        return errs


def _check_edesign(inst: Instance, x, y, s) -> list[str]:
    """E-design: min -t s.t. sum(w) = 1, (t, w) in K_E; A = [0, 1'], b = [1].

    Besides residuals and gap, lambda_min of the returned design (from
    eigvalsh, not the oracle's Cholesky) must exceed t by at most the
    tolerance, and must beat the uniform design the solver starts from.
    """
    V, tol = inst.V, inst.optim_tol
    t, wts = float(x[0]), x[1:]
    errs = []
    c = np.zeros_like(x)
    c[0] = -1.0
    ATy = np.concatenate([[0.0], np.full(wts.size, float(y[0]))])
    rp = abs(wts.sum() - 1.0) / 2.0
    rd = np.linalg.norm(c - ATy - s) / 2.0
    dgap = abs(-t - float(y[0])) / (1.0 + abs(float(y[0])))
    for name, val in (("primal residual", rp), ("dual residual", rd), ("gap", dgap)):
        if not val <= tol:
            errs.append(f"{name} {val:.2e} > {tol:.0e}")
    if not wts.min() > 0.0:
        return errs + ["design weights are not positive"]
    lam = float(np.linalg.eigvalsh((V * wts) @ V.T)[0])
    if not lam > t:
        errs.append(f"lambda_min {lam} <= t {t}: x outside the cone interior")
    elif not lam - t <= tol * (1.0 + abs(t)):
        errs.append(f"t {t} is {lam - t:.2e} below the design's lambda_min {lam}")
    uniform = float(np.linalg.eigvalsh(V @ V.T / V.shape[1])[0])
    if not t >= uniform:
        errs.append(f"t {t} is worse than the uniform design's {uniform}")
    return errs
