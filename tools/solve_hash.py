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
``bench/workloads.py``, read only, and are solved by ``_bench.solve_instance``.
Beyond what ``_bench`` uses, the script calls only ``solve``,
``NonnegativeBarrier`` and ``generators.random_lp`` of nsconic, so one copy
of it runs on older checkouts too. BLAS is pinned to one thread, as in
``bench/run.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys

from _bench import bench_module, solve_instance

import numpy as np  # noqa: E402  (after _bench pins BLAS)

from nsconic import NonnegativeBarrier, solve  # noqa: E402
from nsconic.generators import random_lp  # noqa: E402


def _solves():
    """(name, result) for every hashed solve, in a fixed order."""
    workloads = bench_module("workloads")
    instances = [("lp_sparse", i) for i in workloads.lp_sparse(7)]
    instances += [("cone_blocks", i) for i in workloads.cone_blocks(5)[:2]]
    instances += [("edesign", i) for i in workloads.edesign(7)[:2]]
    for family, inst in instances:
        yield f"{family}/{inst.name}", solve_instance(inst)
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
