"""Exact construction of bipartite/multipartite Chebyshev polynomials and
elementary closed forms for elliptic integrals int x/sqrt(+-p(x)) dx with
monic quartic p.

Everything decision-relevant runs in exact rational arithmetic over Q;
floating point appears only in the continuation tracker and the
independent quadrature oracle.
"""

from .bipartite import (
    BipartiteSolution,
    Branch,
    ConditionsNotMet,
    EvenOuterOnHyperbolic,
    IdentityResidualNonzero,
    InvalidBranchIndex,
    PathResult,
    QuarticCoeffs,
    build_solution,
    coefficients_from_recurrence,
    compose_outer,
    conditions,
    continuation,
    fk_table,
    identity_residual,
    solve_c1,
)
from .elliptic import (
    ClosedForm,
    ClassNotCovered,
    CompletionResult,
    IntervalNotValid,
    Refusal,
    complete_coefficient,
    decide,
    numeric_check,
    render,
    render_refusal,
)
from .multipartite import (
    MultipartiteSystem,
    NoConsistentConstants,
    OutsideData,
    coefficients_general,
    integration_constant,
    solvability_residuals,
)
from .partitions import (
    FkTable,
    Partition,
    distinct_perms,
    fk_table_by_products,
    fk_table_by_recurrence,
    part_factor,
    partition_coeff,
    partitions_bounded,
)
from .poly import Poly
from .quadrature import Integrand, RegionViolation, ToleranceNotReached, integrate_adaptive
from .roots import IsolatedRoot, real_roots, squarefree_decomposition
from .scalars import parse_rational

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
