"""SHA-256 digests over a fixed set of solves, to show a change is bit-identical.

Run it on two checkouts and compare the printed digests:

    python3 tools/solve_hash.py

It prints one digest per family (``lp_sparse``, ``cone_blocks``,
``edesign``, ``random_lp``), then the digest over all solves as its last
line. A change that alters one family on purpose can show with the
per-family lines that the others did not move.

The hashed solves are the ``lp_sparse`` instances of seed 7 (all four), the
first two ``edesign`` instances of seed 7, the first two ``cone_blocks``
instances of seed 5 (mixed products, so the dense block-diagonal Hessian
path) and ``random_lp(20, 50, s)`` for s = 0..4. Each solve adds its status
and status string, its iteration count, every field of every
``IterationRecord``, tau, kappa, both objectives and the residual norms
(floats as ``float.hex``), and the bytes of x, y and s. Instances come from
``bench/workloads.py``, read only. The script uses no more of nsconic than
``solve``, ``solve_cones``, ``build_edesign``, ``ConeSpec``,
``NonnegativeBarrier``, ``generators.random_lp`` and
``solver.SolverOptions``, so one copy of it runs on older checkouts too.
BLAS is pinned to one thread, as in ``bench/run.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
# leave no bytecode cache inside bench/
sys.dont_write_bytecode, _saved = True, sys.dont_write_bytecode
try:
    from workloads import cone_blocks, edesign, lp_sparse
finally:
    sys.dont_write_bytecode = _saved

import numpy as np  # noqa: E402

from nsconic import ConeSpec, NonnegativeBarrier, build_edesign, solve, solve_cones  # noqa: E402
from nsconic.generators import random_lp  # noqa: E402
from nsconic.solver import SolverOptions  # noqa: E402


def _solves():
    """(name, result) for every hashed solve, in a fixed order."""
    conic = [("lp_sparse", i) for i in lp_sparse(7)]
    conic += [("cone_blocks", i) for i in cone_blocks(5)[:2]]
    for family, inst in conic:
        cones = [ConeSpec(k, d, w) for k, d, w in inst.cones]
        opts = SolverOptions(optim_tol=inst.optim_tol)
        yield f"{family}/{inst.name}", solve_cones(inst.c, inst.A, inst.b, cones, None, opts)
    for inst in edesign(7)[:2]:
        prob, barrier, x0 = build_edesign(inst.V)
        yield f"edesign/{inst.name}", solve(prob, barrier, x0, SolverOptions(optim_tol=inst.optim_tol))
    for s in range(5):
        prob, x_hat = random_lp(20, 50, s)
        yield f"random_lp/{s}", solve(prob, NonnegativeBarrier(prob.n), x_hat)


def _field(value) -> str:
    return float(value).hex() if isinstance(value, float) else repr(value)


def _chunks(name, res):
    """The bytes one solve adds to the digests."""
    yield f"{name} {res.status.value} {res.iterations}\n".encode()
    yield f"{res.status_string}\n".encode()
    for rec in res.history:
        fields = dataclasses.astuple(rec)
        yield (" ".join(_field(v) for v in fields) + "\n").encode()
    scalars = [res.tau, res.kappa, res.p_obj, res.d_obj]
    scalars += [res.residual_norms[k] for k in sorted(res.residual_norms)]
    yield (" ".join(_field(v) for v in scalars) + "\n").encode()
    for arr in (res.x, res.y, res.s):
        yield np.ascontiguousarray(arr, dtype=np.float64).tobytes()


def main() -> int:
    digest = hashlib.sha256()
    families = {}
    for name, res in _solves():
        family = families.setdefault(name.split("/")[0], hashlib.sha256())
        for chunk in _chunks(name, res):
            digest.update(chunk)
            family.update(chunk)
        print(f"{name}: {res.status.value}, {res.iterations} iterations", file=sys.stderr)
    for family, fdigest in families.items():
        print(f"{family}: {fdigest.hexdigest()}")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
