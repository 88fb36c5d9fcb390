"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Run as ``pytest -v tests/test_acceptance.py`` for a pass/fail line per
criterion; each test also prints a one-line summary with the measured
margins (visible with ``-s`` or on failure).
"""

import itertools
import time

import numpy as np

from _util import (
    dense_newton_reference,
    direction_as_vector,
    random_mixed_cone,
    random_problem,
    random_state,
    sample_block,
    without_timing,
    write_doc,
)
from nsconic.barriers import (
    ExponentialBarrier,
    NonnegativeBarrier,
    PowerBarrier,
    ProductBarrier,
    PullbackBarrier,
    SecondOrderBarrier,
    fd_check,
)
from nsconic.cli import main
from nsconic.cones import ConeSpec, block_oracle
from nsconic.edesign import build_edesign, random_design_matrix
from nsconic.generators import random_lp
from nsconic.hsd import NewtonRhs, ProblemData, gap, newton_solve, proximity, residuals
from nsconic.solver import SolverOptions, SolverStatus, initial_iterate, solve

# ------------------------------------------------------------- interior samplers


def sample_edesign(V, rng):
    x = rng.uniform(0.5, 2.0, V.shape[1])
    t = rng.uniform(0.1, 0.8) * np.linalg.eigvalsh((V * x) @ V.T)[0]
    return np.concatenate([[t], x])


def oracle_suite(rng):
    """Every built-in oracle paired with an interior sampler."""
    pull_map = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.5]])
    inner = NonnegativeBarrier(3)
    V = random_design_matrix(5, 10, seed=31)
    from nsconic.edesign import EDesignBarrier

    blocks = [
        ("lp", NonnegativeBarrier(5)),
        ("socp", SecondOrderBarrier(4)),
        ("exp", ExponentialBarrier()),
        ("gpow(1/2,1/2)", PowerBarrier([0.5, 0.5])),
        ("gpow(1/4,3/4)", PowerBarrier([0.25, 0.75])),
        (
            "product",
            ProductBarrier(
                [NonnegativeBarrier(2), SecondOrderBarrier(3), ExponentialBarrier()]
            ),
        ),
    ]
    return [(name, f, lambda r, f=f: sample_block(f, r)) for name, f in blocks] + [
        (
            "pullback",
            PullbackBarrier(inner, pull_map),
            lambda r: np.linalg.solve(pull_map, sample_block(inner, r)),
        ),
        ("edesign(5,10)", EDesignBarrier(V), lambda r: sample_edesign(V, r)),
    ]


# --------------------------------------------------------------------- criteria


def test_criterion_1_barrier_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = {"euler": 0.0, "hx": 0.0, "homog": 0.0, "fd": 0.0}
    for name, oracle, sampler in oracle_suite(rng):
        nu = oracle.nu
        for _ in range(100):
            x = sampler(rng)
            ev = oracle.eval(x)
            assert ev.in_interior, name

            euler = abs(x @ ev.gradient + nu)
            assert euler <= 1e-8 * nu, name
            worst["euler"] = max(worst["euler"], euler / nu)

            hx = np.linalg.norm(ev.hessian @ x + ev.gradient)
            gnorm = np.linalg.norm(ev.gradient)
            assert hx <= 1e-7 * gnorm, name
            worst["hx"] = max(worst["hx"], hx / gnorm)

            for t in (0.5, 3.0):
                ev_t = oracle.eval(t * x)
                r_val = abs(ev_t.value - ev.value + nu * np.log(t)) / max(
                    1.0, abs(ev.value)
                )
                r_grad = np.linalg.norm(t * ev_t.gradient - ev.gradient) / gnorm
                r_hess = np.linalg.norm(
                    t * t * ev_t.hessian.toarray() - ev.hessian.toarray()
                ) / np.linalg.norm(ev.hessian.toarray())
                assert r_val <= 1e-9, name
                assert r_grad <= 1e-9, name
                assert r_hess <= 1e-9, name
                worst["homog"] = max(worst["homog"], r_val, r_grad, r_hess)

            report = fd_check(oracle, x)
            assert report.grad_err <= 1e-5, name
            assert report.hess_err <= 1e-5, name
            worst["fd"] = max(worst["fd"], report.grad_err, report.hess_err)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\n[criterion 1] barrier identities: PASS "
        f"(euler {worst['euler']:.1e}, Hx+g {worst['hx']:.1e}, "
        f"homogeneity {worst['homog']:.1e}, fd {worst['fd']:.1e}, {elapsed:.1f}s)"
    )


def test_criterion_2_initialization_on_central_path():
    rng = np.random.default_rng(1002)
    cases = [
        NonnegativeBarrier(4),
        SecondOrderBarrier(4),
        ExponentialBarrier(),
        PowerBarrier([0.5, 0.5]),
        PowerBarrier([0.25, 0.75]),
        block_oracle(ConeSpec("free", 3)),
        ProductBarrier(
            [NonnegativeBarrier(2), SecondOrderBarrier(3), ExponentialBarrier()]
        ),
    ]
    worst_mu = worst_prox = 0.0
    for oracle in cases:
        prob = random_problem(oracle, 2, rng)
        z0 = initial_iterate(prob, oracle)
        mu0 = gap(z0, oracle.nu)
        prox0 = proximity(z0, oracle.eval(z0.x), oracle.nu)
        assert abs(mu0 - 1.0) <= 1e-13
        assert prox0 <= 1e-12
        worst_mu = max(worst_mu, abs(mu0 - 1.0))
        worst_prox = max(worst_prox, prox0)
    # builder-supplied start for the design cone
    prob, barrier, x0 = build_edesign(random_design_matrix(4, 8, seed=3))
    z0 = initial_iterate(prob, barrier, x0)
    assert abs(gap(z0, barrier.nu) - 1.0) <= 1e-13
    assert proximity(z0, barrier.eval(z0.x), barrier.nu) <= 1e-12
    print(
        f"\n[criterion 2] initialization: PASS "
        f"(|mu0-1| <= {worst_mu:.1e}, proximity <= {worst_prox:.1e})"
    )


def test_criterion_3_newton_against_dense_reference():
    rng = np.random.default_rng(1003)
    worst_dir = worst_contraction = 0.0
    for _ in range(20):
        oracle = random_mixed_cone(rng, int(rng.integers(4, 21)))
        m = int(rng.integers(1, min(oracle.dim, 8) + 1))
        prob = random_problem(oracle, m, rng)
        z = random_state(prob, oracle, rng)
        ev = oracle.eval(z.x)
        mu = gap(z, oracle.nu)

        rhs = NewtonRhs(
            rng.standard_normal(m),
            rng.standard_normal(oracle.dim),
            rng.standard_normal(),
            rng.standard_normal(oracle.dim),
            rng.standard_normal(),
        )
        d = direction_as_vector(newton_solve(prob, z, mu, ev, rhs))
        ref = dense_newton_reference(prob, z, mu, ev, rhs)
        err = np.linalg.norm(d - ref) / max(1.0, np.linalg.norm(ref))
        assert err <= 1e-8
        worst_dir = max(worst_dir, err)

        res = residuals(z, prob)
        pred = newton_solve(
            prob, z, mu, ev, NewtonRhs(-res.primal, -res.dual, -res.gap, -z.s, -z.kappa)
        )
        scale = max(1.0, res.norm())
        for alpha in (0.25, 0.75):
            res_a = residuals(z.step(pred, alpha), prob)
            gap_err = max(
                np.linalg.norm(res_a.primal - (1 - alpha) * res.primal),
                np.linalg.norm(res_a.dual - (1 - alpha) * res.dual),
                abs(res_a.gap - (1 - alpha) * res.gap),
            )
            assert gap_err <= 1e-9 * scale
            worst_contraction = max(worst_contraction, gap_err / scale)
    print(
        f"\n[criterion 3] newton correctness: PASS "
        f"(dense mismatch <= {worst_dir:.1e}, "
        f"contraction error <= {worst_contraction:.1e})"
    )


def vertex_optimum(prob):
    """Brute-force LP optimum over all basic feasible solutions."""
    A = prob.A.toarray()
    m, n = A.shape
    best = np.inf
    for basis in itertools.combinations(range(n), m):
        B = A[:, basis]
        if np.linalg.cond(B) > 1e12:
            continue
        xb = np.linalg.solve(B, prob.b)
        if xb.min() < -1e-9:
            continue
        best = min(best, float(prob.c[list(basis)] @ xb))
    return best


def test_criterion_4_random_lp_correctness():
    start = time.perf_counter()
    worst_res = worst_obj = 0.0
    for seed in range(50):
        prob, x_hat = random_lp(20, 50, seed=seed)
        res = solve(prob, NonnegativeBarrier(50), x_hat)
        assert res.status is SolverStatus.OPTIMAL, seed
        x, y, s = res.x, res.y, res.s
        primal = np.linalg.norm(prob.A.matvec(x) - prob.b) / (
            1.0 + np.linalg.norm(prob.b)
        )
        dual = np.linalg.norm(prob.A.matvec(y, transpose=True) + s - prob.c) / (
            1.0 + np.linalg.norm(prob.c)
        )
        gap_rel = abs(prob.c @ x - prob.b @ y) / (
            1.0 + abs(prob.c @ x) + abs(prob.b @ y)
        )
        assert primal <= 1e-6 and dual <= 1e-6 and gap_rel <= 1e-6, seed
        worst_res = max(worst_res, primal, dual, gap_rel)
    # the 1e-6 bound is on objective accuracy, so solve beyond it
    tight = SolverOptions(optim_tol=1e-8)
    for seed in range(10):
        prob, x_hat = random_lp(3, 6, seed=seed)
        res = solve(prob, NonnegativeBarrier(6), x_hat, tight)
        assert res.status is SolverStatus.OPTIMAL, seed
        obj_err = abs(res.p_obj - vertex_optimum(prob))
        assert obj_err <= 1e-6, seed
        worst_obj = max(worst_obj, obj_err)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\n[criterion 4] LP correctness: PASS "
        f"(scaled residuals <= {worst_res:.1e}, "
        f"vertex-oracle gap <= {worst_obj:.1e}, {elapsed:.1f}s)"
    )


def test_criterion_5_analytic_conic_optima():
    opts = SolverOptions(optim_tol=1e-8)
    errs = {}

    # min -x3 s.t. x1 = x2 = 1 over the exponential cone: optimum 0
    prob = ProblemData(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([1.0, 1.0]),
        np.array([0.0, 0.0, -1.0]),
    )
    res = solve(prob, ExponentialBarrier(), options=opts)
    assert res.status is SolverStatus.OPTIMAL
    errs["exp"] = abs(res.p_obj - 0.0)

    # max z s.t. x = (2, 8) over the power cone: geometric mean, z* = 4
    prob = ProblemData(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([2.0, 8.0]),
        np.array([0.0, 0.0, -1.0]),
    )
    res = solve(prob, PowerBarrier([0.5, 0.5]), options=opts)
    assert res.status is SolverStatus.OPTIMAL
    errs["gpow"] = abs(-res.p_obj - 4.0)

    for V, t_star, tag in [
        (np.eye(2), 0.5, "edesign I"),
        (np.diag([1.0, 2.0]), 0.8, "edesign diag"),
    ]:
        prob, barrier, x0 = build_edesign(V)
        res = solve(prob, barrier, x0, opts)
        assert res.status is SolverStatus.OPTIMAL
        errs[tag] = abs(-res.p_obj - t_star)

    assert all(err <= 1e-6 for err in errs.values()), errs
    detail = ", ".join(f"{k} {v:.1e}" for k, v in errs.items())
    print(f"\n[criterion 5] analytic optima: PASS ({detail})")


def test_criterion_6_edesign_desk_scale():
    start = time.perf_counter()
    opts = SolverOptions(optim_tol=1e-8)
    counts = {}
    for n in (50, 100):
        V = random_design_matrix(n, 2 * n, seed=0)
        prob, barrier, x0 = build_edesign(V)
        res = solve(prob, barrier, x0, opts)
        assert res.status is SolverStatus.OPTIMAL, n
        counts[n] = res.iterations
        assert 20 <= res.iterations <= 114, (n, res.iterations)
    assert counts[50] <= 114
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"\n[criterion 6] edesign desk scale: PASS "
        f"(iterations n=50: {counts[50]}, n=100: {counts[100]}; "
        f"times not reproduced, run took {elapsed:.1f}s)"
    )


def test_criterion_7_infeasibility_certificates():
    # x1 = -1 with x >= 0 has no feasible point
    prob = ProblemData(
        np.array([[1.0, 0.0]]), np.array([-1.0]), np.array([0.0, 0.0])
    )
    res_p = solve(prob, NonnegativeBarrier(2))
    assert res_p.status is SolverStatus.PRIMAL_INFEASIBLE
    assert res_p.iterations <= 200

    # min -x1 with only the trivial constraint 0 x = 0: unbounded below
    prob = ProblemData(
        np.array([[0.0, 0.0]]), np.array([0.0]), np.array([-1.0, 0.0])
    )
    res_d = solve(prob, NonnegativeBarrier(2))
    assert res_d.status is SolverStatus.DUAL_INFEASIBLE
    assert res_d.iterations <= 200
    print(
        f"\n[criterion 7] infeasibility: PASS "
        f"(primal cert in {res_p.iterations} iters, "
        f"dual cert in {res_d.iterations} iters)"
    )


def test_criterion_8_cli_determinism(tmp_path, capsys):
    doc = {
        "c": [1.0, 2.0, 0.0, 0.0, -1.0],
        "b": [2.0, 1.0],
        "A": {
            "m": 2,
            "n": 5,
            "rows": [0, 0, 1, 1],
            "cols": [0, 1, 2, 4],
            "vals": [1.0, 1.0, 1.0, 1.0],
        },
        "cones": [{"type": "lp", "dim": 2}, {"type": "socp", "dim": 3}],
    }
    path = write_doc(tmp_path, doc)
    runs = []
    for arglist in (
        ["solve", path],
        ["solve", path],
        ["random-lp", "--m", "5", "--n", "12", "--seed", "9"],
        ["random-lp", "--m", "5", "--n", "12", "--seed", "9"],
        ["edesign", "--n", "4", "--seed", "7"],
        ["edesign", "--n", "4", "--seed", "7"],
    ):
        assert main(arglist) == 0
        runs.append(capsys.readouterr().out)
    for first, second in zip(runs[::2], runs[1::2]):
        assert without_timing(first) == without_timing(second)
        assert "solveSeconds" in first
    print("\n[criterion 8] determinism: PASS (3 command pairs byte-identical)")
