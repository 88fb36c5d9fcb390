"""Nonsymmetric conic optimization by a predictor-corrector interior-point
method on the homogeneous self-dual embedding.

The solver accepts any logarithmically homogeneous self-concordant barrier
through the :class:`Barrier` oracle protocol; built-ins cover the nonnegative
orthant, second-order, exponential, and generalized power cones, plus product
cones, linear pullbacks, and the E-optimal experiment design cone.
"""

from .barriers import (
    Barrier,
    BarrierEval,
    ExponentialBarrier,
    ExteriorPointError,
    FdCheckReport,
    NonnegativeBarrier,
    PowerBarrier,
    ProductBarrier,
    PullbackBarrier,
    SecondOrderBarrier,
    fd_check,
)
from .cones import ConeProduct, ConeSpec, ConeSpecError, build_cones, solve_cones
from .edesign import EDesignBarrier, build_edesign, random_design_matrix
from .fileio import ProblemFileError, load_problem, save_problem, write_result
from .generators import random_lp
from .hsd import Iterate, ProblemData, Residuals, SingularSystemError
from .linalg import DenseHessian, DiagonalHessian, DimensionMismatch, SparseMatrix
from .solver import (
    IterationRecord,
    LineSearchError,
    SolverOptions,
    SolverResult,
    SolverStatus,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "Barrier",
    "BarrierEval",
    "ConeProduct",
    "ConeSpec",
    "ConeSpecError",
    "DenseHessian",
    "DiagonalHessian",
    "DimensionMismatch",
    "EDesignBarrier",
    "ExponentialBarrier",
    "ExteriorPointError",
    "FdCheckReport",
    "IterationRecord",
    "Iterate",
    "LineSearchError",
    "NonnegativeBarrier",
    "PowerBarrier",
    "ProblemData",
    "ProblemFileError",
    "ProductBarrier",
    "PullbackBarrier",
    "Residuals",
    "SecondOrderBarrier",
    "SingularSystemError",
    "SolverOptions",
    "SolverResult",
    "SolverStatus",
    "SparseMatrix",
    "build_cones",
    "build_edesign",
    "fd_check",
    "load_problem",
    "random_design_matrix",
    "random_lp",
    "save_problem",
    "solve",
    "solve_cones",
    "write_result",
]
