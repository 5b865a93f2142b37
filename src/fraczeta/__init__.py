"""Numerical verification of arithmetic series over the fractional part function.

Library layout:

- arith: sieves for Lambda, mu and the sqrt-weighted convolutions
- bernpoly: Bernoulli machinery, sawtooth kernels, Euler-Maclaurin self-check
- zeta: complex zeta engine, Mellin kernel H_k, nontrivial-zero table
- explicit: prime-power series vs contour residues + zero sums
- fourier: sawtooth-weighted sums, cosine right sides, decay diagnostic
- cli: verification harness (`python -m fraczeta.cli` or the fraczeta script)
"""

__version__ = "0.1.0"
