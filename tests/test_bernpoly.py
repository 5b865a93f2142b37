import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraczeta.bernpoly import (
    BERNOULLI,
    EM_FUNCTIONS,
    bernoulli_poly,
    em_identity_residual,
    em_period_integrals,
    integral_Ik,
    integral_ik_array,
    sdot,
)


class TestBernoulliNumbers:
    def test_low_indices(self):
        assert BERNOULLI[0] == 1.0
        assert BERNOULLI[1] == -0.5
        assert BERNOULLI[2] == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert BERNOULLI[3] == 0.0

    def test_b12_exact_rational(self):
        # -691/2730, from the exact recurrence
        assert BERNOULLI[12] == pytest.approx(-691.0 / 2730.0, rel=1e-15)

    def test_odd_vanish(self):
        for j in range(3, 64, 2):
            assert BERNOULLI[j] == 0.0

    def test_recurrence(self):
        # sum_{i<=m} C(m+1, i) B_i = 0, relative to the largest term
        for m in range(1, 64):
            terms = [math.comb(m + 1, i) * BERNOULLI[i] for i in range(m + 1)]
            scale = max(abs(t) for t in terms)
            assert abs(math.fsum(terms)) <= 1e-12 * scale


class TestBernoulliPoly:
    def test_examples(self):
        assert bernoulli_poly(2, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-16)
        assert bernoulli_poly(3, 0.5) == pytest.approx(0.0, abs=1e-16)
        assert bernoulli_poly(1, 0.75) == 0.25

    def test_range_error(self):
        with pytest.raises(ValueError):
            bernoulli_poly(65, 0.5)


class TestPeriodicBernoulli:
    def test_examples(self):
        # B_k({x}) = B_k(x - floor(x))
        assert bernoulli_poly(1, 2.75 - math.floor(2.75)) == 0.25
        assert bernoulli_poly(2, 5.0 - math.floor(5.0)) == pytest.approx(1.0 / 6.0, abs=1e-16)
        assert bernoulli_poly(3, 7.5 - math.floor(7.5)) == pytest.approx(0.0, abs=1e-16)


class TestIntegralIk:
    def test_examples(self):
        assert integral_Ik(1, 0.5) == -0.125
        assert integral_Ik(1, 7.0) == 0.0
        assert integral_Ik(2, 0.5) == pytest.approx(0.0, abs=1e-17)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_array_out_matches_allocating_form(self, k):
        # With out, the result lands there bit for bit and y is scratch.
        y = np.linspace(0.0, 40.0, 10_001)
        want = integral_ik_array(k, y)
        assert want[5000] == integral_Ik(k, float(y[5000]))
        scratch, out = y.copy(), np.empty_like(y)
        assert integral_ik_array(k, scratch, out=out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(integral_ik_array(k, y), want)  # y untouched without out


class TestSawtooth:
    def test_sdot_values(self):
        assert sdot(0.5) == -0.125
        assert sdot(7.0) == 0.0
        assert sdot(2.25) == -0.09375

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 50.0, allow_nan=False))
    def test_sdot_equals_I1_exactly(self, x):
        # sdot is I_1, and both equal the direct quadratic bit for bit
        fr = x - math.floor(x)
        assert sdot(x) == integral_Ik(1, x) == (fr * fr - fr) / 2.0


class TestEulerMaclaurinIdentity:
    def test_unknown_function(self):
        with pytest.raises(ValueError):
            em_identity_residual("cubic", 1.0, 2.0, 1)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            em_identity_residual("square", 5.0, 1.0, 2)

    def test_non_integer_endpoints_rejected(self):
        with pytest.raises(ValueError):
            em_identity_residual("square", 1.5, 6.5, 2)

    @pytest.mark.parametrize("f_id", ["square", "inverse_square", "exp_decay"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_all_orders_small(self, f_id, k):
        assert em_identity_residual(f_id, 2.0, 7.0, k) <= 1e-9

    def test_periods_against_adaptive_quadrature(self):
        quad = pytest.importorskip("scipy.integrate").quad
        for f_id, f in EM_FUNCTIONS.items():
            for k in range(1, 7):
                pieces = em_period_integrals(f_id, 1, 10, k)
                assert len(pieces) == 9
                for n, got in zip(range(1, 10), pieces):
                    ref, _ = quad(lambda t: f.deriv(k, t) * float(bernoulli_poly(k, t - n)),
                                  n, n + 1, epsabs=1e-13, epsrel=1e-13, limit=200)
                    assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (f_id, k, n)
                assert em_identity_residual(f_id, 1.0, 10.0, k) <= 1e-14, (f_id, k)
