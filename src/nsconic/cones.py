"""Tagged cone descriptions and the matrix lift that makes them solvable.

Users describe the cone as an ordered list of ConeSpec entries (types:
``free``, ``lp``, ``socp``, ``exp``, ``gpow``). Free blocks have no barrier
of their own: each one gets a dummy coordinate prepended and is embedded in
a second-order cone one dimension up, which keeps every block a proper cone
without touching the constraint matrix rows. ``lift`` inserts the matching
zero columns into (A, c), and results are stripped back to the ambient
coordinates before being returned.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .barriers import (
    Barrier,
    ExponentialBarrier,
    NonnegativeBarrier,
    PowerBarrier,
    ProductBarrier,
    SecondOrderBarrier,
    power_weights,
)
from .hsd import ProblemData
from .linalg import DimensionMismatch, SparseMatrix, as_int, as_real, as_vector
from .solver import SolverOptions, SolverResult, solve

__all__ = [
    "ConeSpecError",
    "ConeSpec",
    "ConeProduct",
    "block_oracle",
    "build_cones",
    "embed_point",
    "strip_point",
    "lift",
    "solve_cones",
]

# tag -> (block-oracle builder, the dimension the tag fixes or None, the
# ConeSpec fields of the example block that check-barrier builds). A free
# block's oracle is a second-order cone one dimension wider than its spec;
# build_cones and embed_point find its dummy, the first coordinate, by that
# extra width alone.
_BUILTINS = {
    "free": (lambda spec: SecondOrderBarrier(spec.dim + 1), None, {"dim": 3}),
    "lp": (lambda spec: NonnegativeBarrier(spec.dim), None, {"dim": 5}),
    "socp": (lambda spec: SecondOrderBarrier(spec.dim), None, {"dim": 4}),
    "exp": (lambda spec: ExponentialBarrier(), lambda spec: 3, {}),
    "gpow": (
        lambda spec: PowerBarrier(spec.lam),
        lambda spec: len(spec.lam) + 1,
        {"lam": (0.5, 0.5)},
    ),
}
CONE_TYPES = tuple(_BUILTINS)


class ConeSpecError(ValueError):
    """A cone description is malformed."""


@dataclass(frozen=True)
class ConeSpec:
    """One cone block: a type tag, its dimension, and gpow weights if any.

    ``dim`` may be omitted for exp (always 3) and gpow (len(lam) + 1).
    """

    type: str
    dim: int | None = None
    lam: tuple | None = None

    def __post_init__(self):
        if self.type not in CONE_TYPES:
            raise ConeSpecError(f"unknown cone type {self.type!r}")
        if self.dim is not None:
            object.__setattr__(self, "dim", as_int(self.dim, "dim", ConeSpecError))
        if self.type == "gpow":
            if self.lam is None:
                raise ConeSpecError("gpow requires weights (lam)")
            lam = tuple(map(float, power_weights(self.lam, ConeSpecError)))
            object.__setattr__(self, "lam", lam)
        elif self.lam is not None:
            raise ConeSpecError(f"{self.type} does not take weights")
        fixed_dim = _BUILTINS[self.type][1]
        if fixed_dim is None:
            if self.dim is None or self.dim < 1:
                raise ConeSpecError(f"{self.type} needs a positive dimension")
            return
        dim = fixed_dim(self)
        if self.dim not in (None, dim):
            raise ConeSpecError(f"{self.type} cone has dimension {dim}, got {self.dim}")
        object.__setattr__(self, "dim", dim)

    @classmethod
    def coerce(cls, spec) -> "ConeSpec":
        """Return spec as a ConeSpec: kept as is, or built from a mapping with
        a ``type`` key and optional ``dim`` and ``lam`` keys."""
        if isinstance(spec, cls):
            return spec
        keys = set(spec) if isinstance(spec, Mapping) else set()
        if "type" not in keys or not keys <= {"type", "dim", "lam"}:
            raise ConeSpecError(f"cone keys are type (required), dim and lam; got {spec!r}")
        return cls(**spec)


def block_oracle(spec: ConeSpec) -> Barrier:
    """The barrier of one cone block (a free block gets its Lorentz embedding)."""
    return _BUILTINS[spec.type][0](spec)


@dataclass(frozen=True)
class ConeProduct:
    """Compiled cone list: layout bookkeeping plus the product oracle.

    ``ambient_to_internal[i]`` is where ambient coordinate i lives in the
    lifted vector; ``dummy_positions`` are the internal indices of the
    free-block dummies (internal_dim = ambient_dim + len(dummy_positions)).
    """

    specs: tuple
    ambient_dim: int
    internal_dim: int
    dummy_positions: tuple
    ambient_to_internal: np.ndarray = field(repr=False)
    oracle: Barrier = field(repr=False)


def build_cones(specs) -> ConeProduct:
    """Validate a cone list and compile layout plus product barrier."""
    specs = tuple(map(ConeSpec.coerce, specs))
    if not specs:
        raise ConeSpecError("cone list is empty")
    oracle = ProductBarrier(block_oracle(spec) for spec in specs)
    wider = [f.dim > spec.dim for f, spec in zip(oracle.factors, specs)]
    dummies = oracle.offsets[:-1][wider]
    ambient_to_internal = np.setdiff1d(np.arange(oracle.dim), dummies)
    return ConeProduct(
        specs=specs,
        ambient_dim=ambient_to_internal.size,
        internal_dim=oracle.dim,
        dummy_positions=tuple(dummies.tolist()),
        ambient_to_internal=ambient_to_internal,
        oracle=oracle,
    )


def embed_point(cp: ConeProduct, x) -> np.ndarray:
    """Lift an ambient point, giving each free dummy a strictly feasible value."""
    x = as_vector(as_real(x, "point"), cp.ambient_dim, "point")
    v = np.zeros(cp.internal_dim)
    v[cp.ambient_to_internal] = x
    for spec, block in zip(cp.specs, cp.oracle.blocks(v)):
        if block.size > spec.dim:
            block[0] = np.sqrt(1.0 + block[1:] @ block[1:])
    return v


def strip_point(cp: ConeProduct, v) -> np.ndarray:
    """Drop dummy coordinates, returning the ambient point."""
    return as_vector(v, cp.internal_dim, "point")[cp.ambient_to_internal]


def lift(prob: ProblemData, cp: ConeProduct) -> ProblemData:
    """Insert zero columns for the dummies into A and zero entries into c."""
    if prob.n != cp.ambient_dim:
        raise DimensionMismatch(
            f"problem has {prob.n} columns, cone list spans {cp.ambient_dim}"
        )
    if not cp.dummy_positions:
        return prob
    coo = prob.A.csc.tocoo()
    A_int = SparseMatrix(
        prob.m, cp.internal_dim, coo.row, cp.ambient_to_internal[coo.col], coo.data
    )
    c_int = np.zeros(cp.internal_dim)
    c_int[cp.ambient_to_internal] = prob.c
    return ProblemData(A_int, prob.b, c_int)


def solve_cones(
    c, A, b, cones, x0=None, options: SolverOptions | None = None
) -> SolverResult:
    """Solve min c'x s.t. Ax = b with x in the product of tagged cones.

    ``cones`` is a sequence of ConeSpec (or mappings, see ``ConeSpec.coerce``)
    laid out in variable order. The returned x and s are in ambient
    coordinates; free-block dummies never leave this function.
    """
    cp = build_cones(cones)
    lifted = lift(ProblemData(A, b, c), cp)
    start = None if x0 is None else embed_point(cp, x0)
    result = solve(lifted, cp.oracle, start, options)
    if cp.dummy_positions:
        # dummies carry zero cost, so objectives are unaffected by the strip
        result.x = strip_point(cp, result.x)
        result.s = strip_point(cp, result.s)
    return result
