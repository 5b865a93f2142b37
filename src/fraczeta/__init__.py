"""Numerical verification of arithmetic series over the fractional part function.

Library layout:

- arith: sieves for Lambda, mu and the sqrt-weighted convolutions
- bernpoly: Bernoulli machinery, sawtooth kernels, Euler-Maclaurin self-check
- zeta: complex zeta engine, Mellin kernel H_k, nontrivial-zero table
- explicit: prime-power series vs contour residues + zero sums
- fourier: sawtooth-weighted sums, cosine right sides, decay diagnostic
- cli: verification harness (`python -m fraczeta.cli` or the fraczeta script)
"""

from .arith import ArithmeticTable, CapacityError, build_sieve, dirichlet_convolve
from .bernpoly import (
    BERNOULLI,
    bernoulli_number,
    bernoulli_poly,
    em_identity_residual,
    integral_Ik,
    periodic_bernoulli,
    sawtooth_S,
    sdot,
)
from .explicit import (
    ExplicitFormulaRHS,
    TruncatedSum,
    lhs_theorem1,
    printed_Pk,
    residue_at,
    rhs_theorem1,
    trivial_sum,
    zero_sum,
)
from .fourier import (
    SlopeFit,
    lhs_weighted_sdot,
    rh_decay_profile,
    rh_slope,
    rhs_th2_log,
    rhs_th2_mu,
    rhs_th4_upsilon,
)
from .zeta import (
    EULER_GAMMA,
    Hk_closed,
    Hk_quadrature,
    ZeroEntry,
    ZeroTable,
    bundled_zeros_path,
    load_zero_table,
    neg_zeta_log_deriv,
    refine_table,
    refine_zero,
    zeta_deriv,
    zeta_em,
)

__version__ = "0.1.0"

__all__ = [
    "ArithmeticTable", "CapacityError", "build_sieve", "dirichlet_convolve",
    "BERNOULLI", "bernoulli_number", "bernoulli_poly", "em_identity_residual",
    "integral_Ik", "periodic_bernoulli", "sawtooth_S", "sdot",
    "ExplicitFormulaRHS", "TruncatedSum", "lhs_theorem1", "printed_Pk",
    "residue_at", "rhs_theorem1", "trivial_sum", "zero_sum",
    "SlopeFit", "lhs_weighted_sdot", "rh_decay_profile", "rh_slope",
    "rhs_th2_log", "rhs_th2_mu", "rhs_th4_upsilon",
    "EULER_GAMMA", "Hk_closed", "Hk_quadrature", "ZeroEntry", "ZeroTable",
    "bundled_zeros_path", "load_zero_table", "neg_zeta_log_deriv",
    "refine_table", "refine_zero", "zeta_deriv", "zeta_em",
    "__version__",
]
