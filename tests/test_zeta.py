import cmath
import dataclasses
import math

import numpy as np
import pytest

from fraczeta import explicit
from fraczeta import zeta as zeta_module
from fraczeta.zeta import (
    DomainError,
    FormatError,
    Hk_closed,
    Hk_quadrature,
    PoleError,
    PoleProximityError,
    RefinementError,
    ZeroEntry,
    ZeroTable,
    bundled_zeros_path,
    hk_limit_at_zero,
    load_zero_table,
    neg_zeta_log_deriv,
    refine_table,
    zeta_deriv,
    zeta_em,
)


def zeta_deriv_series_oracle(s: float, N: int = 10**5) -> float:
    """Independent oracle for zeta'(s) at real s > 1: direct differentiated
    Dirichlet series with Euler-Maclaurin tail corrections for f = -log(t) t^-s."""
    partial = math.fsum(-math.log(n) * n**-s for n in range(2, N + 1))

    def f(t):
        return -math.log(t) * t**-s

    def fp(t):
        return (-1.0 / t + s * math.log(t) / t) * t**-s

    # integral_N^inf -log t * t^-s dt = -(log N / (s-1) + 1/(s-1)^2) N^(1-s)
    tail_int = -(math.log(N) / (s - 1.0) + 1.0 / (s - 1.0) ** 2) * N ** (1.0 - s)
    # sum_{n>N} f(n) = tail_int - f(N)/2 - f'(N)/12 + O(f''')
    return partial + tail_int - f(N) / 2.0 - fp(N) / 12.0


def zeta_deriv_circle_oracle(s: complex, radius: float = 0.05, nodes: int = 32) -> complex:
    """Independent oracle for zeta'(s): Cauchy's integral of zeta_em over the
    circle |z - s| = radius by the nodes-point trapezoid, spectrally accurate
    while the circle keeps clear of the pole."""
    total = 0j
    for m in range(nodes):
        ph = cmath.exp(2j * math.pi * m / nodes)
        total += zeta_em(s + radius * ph) / ph
    return total / (nodes * radius)


class TestZetaEm:
    def test_more_classical(self):
        assert abs(zeta_em(4.0) - math.pi**4 / 90.0) <= 1e-12
        assert abs(zeta_em(-2.0)) <= 1e-12  # trivial zero

    def test_pole(self):
        with pytest.raises(PoleError):
            zeta_em(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta_em(complex(-11.0, 0.0))
        with pytest.raises(DomainError):
            zeta_em(complex(2.0, 501.0))

    def test_conjugate_symmetry(self):
        s = complex(0.5, 37.5)
        a = zeta_em(s)
        b = zeta_em(s.conjugate())
        assert a == b.conjugate()


class TestZetaDeriv:
    def test_at_2_against_series_oracle(self):
        oracle = zeta_deriv_series_oracle(2.0)
        assert abs(zeta_deriv(2.0) - oracle) <= 1e-8

    def test_at_0_closed_form(self):
        # zeta'(0) = -log(2 pi)/2
        assert abs(zeta_deriv(0.0) - (-0.5 * math.log(2.0 * math.pi))) <= 1e-8

    def test_at_4_against_series_oracle(self):
        oracle = zeta_deriv_series_oracle(4.0)
        assert abs(zeta_deriv(4.0) - oracle) <= 1e-8

    def test_near_pole_rejected(self):
        with pytest.raises(DomainError):
            zeta_deriv(1.05)

    def test_margin_to_region_rejected(self):
        with pytest.raises(DomainError):
            zeta_deriv(complex(-9.97, 0.0))
        with pytest.raises(DomainError):
            zeta_deriv(complex(0.5, 499.97))

    @pytest.mark.parametrize("s", [-0.5000001, -2.0, -3.0 + 5.0j, -7.5 + 2.0j, np.array([2.0, -0.6])])
    def test_left_of_minus_half_rejected(self, s):
        # zeta' is computed only for Re s >= -1/2; zeta itself reflects.
        with pytest.raises(DomainError):
            zeta_deriv(s)
        with pytest.raises(DomainError):
            neg_zeta_log_deriv(s)

    @pytest.mark.parametrize(
        "s", [2.0, 4.0, 0.0, -0.5, 1.2 + 0.1j, 0.5 + 14.1j, 0.5 + 100.0j, 3.0 + 400.0j]
    )
    def test_against_circle_oracle(self, s):
        # The circle divides zeta_em's ~1e-14 relative noise by its radius.
        oracle = zeta_deriv_circle_oracle(s)
        assert abs(zeta_deriv(s) - oracle) <= 1e-11 * max(abs(oracle), 1.0)


class TestNegZetaLogDeriv:
    def test_at_2_against_sieve_oracle(self, table_1e6):
        # direct sum Lambda(n)/n^2 plus the 1/N tail from psi(t) ~ t
        N = 10**6
        pp = table_1e6.prime_powers
        partial = math.fsum((table_1e6.lam / pp.astype(np.float64) ** 2).tolist())
        oracle = partial + 1.0 / N
        assert abs(neg_zeta_log_deriv(2.0) - oracle) <= 1e-8

    def test_at_4_ratio_of_oracles(self):
        oracle = -zeta_deriv_series_oracle(4.0) / (math.pi**4 / 90.0)
        assert abs(neg_zeta_log_deriv(4.0) - oracle) <= 1e-8

    def test_simple_pole_residue(self):
        s = 1.001
        v = neg_zeta_log_deriv(s)
        assert 0.9 <= ((s - 1.0) * v).real <= 1.1
        assert abs(v.imag) <= 1e-9

    def test_zero_proximity_rejected(self, zeros100):
        rho = complex(0.5, zeros100.entries[0].gamma)
        with pytest.raises(PoleProximityError):
            neg_zeta_log_deriv(rho)

    def test_pole_at_one(self):
        with pytest.raises(PoleError):
            neg_zeta_log_deriv(1.0)


class TestHkClosed:
    def test_k1_s2_from_basel(self):
        expected = -(math.pi**2 / 6.0 - 1.0 - 0.5) / 2.0
        assert abs(Hk_closed(1, 2.0) - expected) <= 1e-10

    def test_k1_limit_at_zero(self):
        expected = math.log(2.0 * math.pi) / 2.0 - 1.0
        assert abs(Hk_closed(1, 0.0) - expected) <= 1e-8
        assert abs(Hk_closed(1, 0.0) - Hk_quadrature(1, 0.0)) <= 1e-8

    def test_k2_limit_at_zero(self):
        # -2 (zeta'(0) + 11/12)
        expected = -2.0 * (-0.5 * math.log(2.0 * math.pi) + 11.0 / 12.0)
        got = Hk_closed(2, 0.0)
        assert abs(got - expected) <= 1e-8
        assert abs(got - 0.0045437) <= 1e-6
        assert abs(got - Hk_quadrature(2, 0.0)) <= 1e-8 * abs(got)

    def test_limit_consistent_with_nearby_closed_form(self):
        for k in range(1, 5):
            lim = hk_limit_at_zero(k)
            near = Hk_closed(k, 1e-4).real
            assert abs(lim - near) <= 1e-3 * max(abs(lim), 1e-3)

    def test_pole_and_range_errors(self):
        with pytest.raises(PoleError):
            Hk_closed(1, 1.0)
        with pytest.raises(ValueError):
            Hk_closed(5, 2.0)


class TestHkQuadrature:
    def test_k1_s2_value(self):
        got = Hk_quadrature(1, 2.0)
        assert abs(got - (-0.0724670334241132)) <= 1e-8
        assert abs(got - Hk_closed(1, 2.0)) <= 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_two_term_tail_against_closed_form(self, k):
        # The remainder after the two kept tail terms is bounded by 1e-12,
        # for odd k (B_{k+1} != 0) and even k (B_{k+2} != 0) alike.
        for s in (0.0, 0.5, 2.5, 4.0, 3.0 + 2.0j, 0.5 + 14.0j):
            assert abs(Hk_quadrature(k, s) - Hk_closed(k, s)) <= 1e-10, s

    def test_peak_memory(self, traced_peak_bytes):
        # 4096-period chunks keep each 32-node complex temporary at 2 MB.
        assert traced_peak_bytes(lambda: Hk_quadrature(1, 0.0)) <= 20e6

    def test_domain_error(self):
        with pytest.raises(DomainError):
            Hk_quadrature(1, -1.5)
        with pytest.raises(ValueError):
            Hk_quadrature(0, 2.0)


class TestZeroTable:
    def test_bundled_seed(self):
        tab = load_zero_table(bundled_zeros_path())
        assert len(tab) == 100
        assert tab.entries[0].gamma == pytest.approx(14.134725, abs=1e-6)
        gaps = [b.gamma - a.gamma for a, b in zip(tab.entries, tab.entries[1:])]
        assert min(gaps) > 0.1

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(FormatError):
            load_zero_table(p)

    def test_decreasing_ordinates(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("index,gamma\n1,14.134725\n2,14.1\n")
        with pytest.raises(FormatError):
            load_zero_table(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_zero_table(tmp_path / "nope.csv")

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("index,gamma\n1,fourteen\n")
        with pytest.raises(FormatError):
            load_zero_table(p)


def seed_table(*gammas: float) -> ZeroTable:
    return ZeroTable(entries=tuple(ZeroEntry(index=i, gamma=g) for i, g in enumerate(gammas, 1)),
                     source="test")


class TestRefineZero:
    """A single coarse seed refined through refine_table."""

    def test_first_zero_from_coarse_seed(self):
        (e,) = refine_table(seed_table(14.1347)).entries
        assert e.index == 1
        assert e.gamma == pytest.approx(14.134725142, abs=1e-8)
        assert e.residual <= 1e-10
        assert e.re_deviation <= 1e-9

    def test_second_zero(self):
        # A table must start at the first zero, so the second zero's coarse
        # seed follows an exact first one.
        first, e = refine_table(seed_table(14.134725142, 21.0220)).entries
        assert first.gamma == pytest.approx(14.134725142, abs=1e-8)
        assert e.index == 2
        assert e.gamma == pytest.approx(21.022039639, abs=1e-8)
        assert e.residual <= 1e-10
        assert e.re_deviation <= 1e-9


class TestRefineTable:
    def test_coarse_and_exact_seeds_in_one_table(self):
        seeds = load_zero_table(bundled_zeros_path())
        entries = list(seeds.entries[:5])
        entries[2] = dataclasses.replace(entries[2], gamma=25.01)
        refined = refine_table(ZeroTable(entries=tuple(entries), source="mixed"))
        for i, (seed, e) in enumerate(zip(seeds.entries, refined.entries)):
            assert e.residual <= 1e-10 and e.re_deviation <= 1e-9
            if i == 2:
                assert abs(e.gamma - seed.gamma) <= 1e-9
            else:
                # A converged seed takes no Newton step, so it stays as it was.
                assert e.gamma == seed.gamma

    def test_no_zero_nearby(self):
        with pytest.raises(RefinementError, match="ordinate 3.0"):
            refine_table(seed_table(14.134725142, 3.0))

    def test_seed_domain(self):
        with pytest.raises(DomainError):
            refine_table(seed_table(14.134725142, 501.0))

    @pytest.mark.parametrize("count", [0, -95])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="at least 1"):
            refine_table(load_zero_table(bundled_zeros_path()), count)

    def test_one_pass_when_every_seed_converged(self, monkeypatch):
        passes = []
        direct = zeta_module._zeta_direct

        def counting(s, deriv):
            passes.append((len(s), deriv))
            return direct(s, deriv)

        monkeypatch.setattr(zeta_module, "_zeta_direct", counting)
        refined = refine_table(load_zero_table(bundled_zeros_path()), 100)
        assert passes == [(100, True)]
        assert max(e.residual for e in refined.entries) <= 1e-10


class TestAnalyticConstants:
    def test_refine_matches_seed_digits(self, zeros100):
        seeds = load_zero_table(bundled_zeros_path())
        refreshed = refine_table(seeds, count=5)
        for seed, ref in zip(seeds.entries[:5], refreshed.entries):
            assert abs(seed.gamma - ref.gamma) <= 1e-9


class TestZeroSumEvaluations:
    def test_hk_once_per_pair_member(self, zeros100, hk_batch_sizes):
        # The first zero sum for (k, table) evaluates H_k(1-rho) and
        # H_k(1-conj(rho)) once each over the table; they serve the pair
        # terms and the tail constant A_k at every later x and sign.
        explicit.zero_sum(2, 5.5, zeros100)
        assert hk_batch_sizes == [100, 100]
        hk_batch_sizes.clear()
        explicit.zero_sum(2, 9.5, zeros100)
        explicit.zero_sum(2, 5.5, zeros100, sign=+1.0)
        explicit.zero_pair_terms(2, 7.5, zeros100)
        assert hk_batch_sizes == []

        # A table with one zero moved is a new key.
        entries = list(zeros100.entries)
        entries[50] = dataclasses.replace(entries[50], gamma=entries[50].gamma + 1e-12)
        explicit.zero_sum(2, 5.5, ZeroTable(entries=tuple(entries), source=zeros100.source))
        assert hk_batch_sizes == [100, 100]


class TestAgainstMpmath:
    """zeta, zeta' and -zeta'/zeta against mpmath at 30 digits on a fixed set:
    the four residue circles of theorem 1, the refined zeros and points on
    both sides of the reflection line Re s = -1/2."""

    EXTRA = [0.0, 2.0, 4.0, -2.0, -4.0, -3.0 + 5.0j, -7.5 + 2.0j, -3.0 + 450.0j, 3.0 + 400.0j, 0.5 + 499.0j]

    @pytest.fixture(scope="class")
    def reference(self, zeros100):
        mpmath = pytest.importorskip("mpmath")
        theta = 2.0 * np.pi * np.arange(explicit.RESIDUE_NODES) / explicit.RESIDUE_NODES
        circles = [complex(s0 + 0.25 * np.exp(1j * t)) for s0 in (1, 2, 3, 4) for t in theta]
        zeros = [complex(0.5, e.gamma) for e in zeros100.entries]
        with mpmath.workdps(30):
            def ref(s):
                z = mpmath.mpc(s.real, s.imag)
                return complex(mpmath.zeta(z)), complex(mpmath.zeta(z, derivative=1))

            return {"circles": [(s, *ref(s)) for s in circles],
                    "other": [(s, *ref(s)) for s in zeros + [complex(e) for e in self.EXTRA]]}

    def test_zeta(self, reference):
        import mpmath

        for s, z, _ in reference["circles"] + reference["other"]:
            tol = 2e-13
            if s.real < -0.5:
                # chi(s) is exp of a double near |log Gamma(1-s)| (2300 at
                # -3+450i), each ulp of which is a relative error of zeta.
                tol += 2.0**-52 * abs(complex(mpmath.loggamma(mpmath.mpc(1.0 - s))))
            assert abs(zeta_em(s) - z) <= tol * max(abs(z), 1.0), s

    def test_zeta_deriv(self, reference):
        for s, _, dz in reference["circles"] + reference["other"]:
            if s.real >= -0.5:
                assert abs(zeta_deriv(s) - dz) <= 1e-12 * max(abs(dz), 1.0), s

    def test_neg_log_deriv_on_residue_circles(self, reference):
        for s, z, dz in reference["circles"]:
            assert abs(neg_zeta_log_deriv(s) - (-dz / z)) <= 5e-14, s


class TestLogGamma:
    """The private log Gamma of the reflected zeta against exact values, its
    recurrence, mpmath at 30 digits and scipy; each error within its bound."""

    THETA = 2.0 * np.pi * np.arange(explicit.RESIDUE_NODES) / explicit.RESIDUE_NODES
    # The circles around s0 = 2..4 that theorem 1 reflects through log Gamma(z).
    CIRCLES = (np.array([2.0, 3.0, 4.0])[:, None] + 0.25 * np.exp(1j * THETA)).ravel()
    GRID = np.concatenate([CIRCLES, [4 - 450j, 1.5 + 499j, 11 - 500j, 0.5 + 0.5j, 0.01 + 3j,
                                     7.5 + 2j, 14.9 + 0j, 15.0 + 0j, 40.0 + 1e-3j, 1e-3 + 0j]])

    def test_exact_values(self):
        n = np.arange(1, 21)
        value, bound = zeta_module._loggamma(n.astype(complex))
        exact = np.array([math.log(math.factorial(k - 1)) for k in n])
        assert np.all(np.abs(value - exact) <= bound)
        assert np.all(bound <= 1e-12)
        value, bound = zeta_module._loggamma(np.array([0.5 + 0j]))
        assert abs(value[0] - 0.5 * math.log(math.pi)) <= bound[0]

    def test_recurrence_on_residue_circles(self):
        # log Gamma(z+1) - log Gamma(z) = log z on the principal branch.  The
        # slack holds np.log's error and the rounding of z + 1 (|psi| < 2 there).
        z, u = self.CIRCLES, 2.0**-53
        (lo, b_lo), (hi, b_hi) = zeta_module._loggamma(z), zeta_module._loggamma(z + 1.0)
        slack = 4.0 * u * (1.0 + np.abs(np.log(z))) + 2.0 * u * np.abs(z + 1.0)
        assert np.all(np.abs(hi - lo - np.log(z)) <= b_lo + b_hi + slack)

    @pytest.mark.parametrize("z", [0.0, -0.5 + 3j, -3.0 - 450j, complex("nan")])
    def test_left_half_plane_rejected(self, z):
        with pytest.raises(DomainError):
            zeta_module._loggamma(np.array([2.0, z], dtype=complex))

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = {z: complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag))) for z in self.GRID}
        # As one batch (one shift for all), each circle alone and each point alone.
        extra = self.GRID[self.CIRCLES.size:]
        for z in [self.GRID, *np.split(self.CIRCLES, 3), *np.split(extra, extra.size)]:
            value, bound = zeta_module._loggamma(z)
            err = np.abs(value - np.array([ref[c] for c in z]))
            assert np.all(err <= bound), z[np.argmax(err / bound)]

    def test_against_scipy(self):
        loggamma = pytest.importorskip("scipy.special").loggamma
        value, bound = zeta_module._loggamma(self.GRID)
        ref = loggamma(self.GRID)
        # scipy's own rounding reaches 2 ulp (9.1e-13 at 1.5 + 499i).
        assert np.all(np.abs(value - ref) <= bound + 4.0 * 2.0**-53 * np.abs(ref))


class TestBatch:
    """Each public function takes a 1-d array as one batch.  Its N follows
    the batch's largest |Im s|, so a batch agrees with scalar calls within
    the engine's tolerance, not bit for bit.  The rounding of the n^-s sums
    grows with N: batched with 3+400i, zeta'(-1/2) moves by 3.3e-12 from
    its scalar value (mpmath: 1.8e-13 off alone, 3.1e-12 in the batch)."""

    CASES = [
        (zeta_em, [2.0, 0.3, -1.0, -3.0 + 5.0j, 0.5 + 14.1j, 3.0 + 400.0j]),
        (zeta_deriv, [2.0, 0.0, -0.5, 0.5 + 14.1j, 3.0 + 400.0j]),
        (neg_zeta_log_deriv, [1.2 + 0.1j, 1.001, 2.0, 4.0, 0.5 + 100.0j]),
        (lambda s: Hk_closed(2, s), [0.0, 2.5, 4.0, -1.0 + 0.3j, 0.5 + 14.0j]),
    ]

    @pytest.mark.parametrize("fn,points", CASES)
    def test_batch_matches_scalar_calls(self, fn, points):
        scalars = [fn(s) for s in points]
        assert all(type(v) is complex for v in scalars)
        batch = fn(np.array(points))
        assert isinstance(batch, np.ndarray) and batch.shape == (len(points),)
        for s, a, b in zip(points, scalars, batch):
            assert abs(a - b) <= 5e-12 * max(abs(a), 1.0), s

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            zeta_em(np.ones((2, 2)))
