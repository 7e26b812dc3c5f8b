"""Closed-form state functions against independent numerical oracles.

Frozen reference values were computed with 30-digit mpmath arithmetic from
the defining integrals; quadrature oracles here re-derive them independently
of the closed forms under test.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from catomo import (
    CatState,
    NoiseModel,
    WITNESS_PAIRING,
    incoherent_witness_mean,
    noisy_quadrature_density,
    pure_witness_mean,
    quadrature_density,
    wigner_fourier,
    wigner_true,
    witness_phase_fn,
)
from catomo.states import phase_amplitudes

ALPHA1 = 3.0 / math.sqrt(2.0)

# mpmath-frozen values for the reference state alpha = 3/sqrt(2)
W_AT_3_0 = 0.15917458194861431
F_AT_1_1 = -0.59963321853252741
P_0_HALFPI = 1.1282399312266371
P_1_07 = 0.051991377248215571
PETA_1_0 = 0.10125217509171990
O_AT_0_0 = 0.56411996561331856
INCOH_REF = 1.2339457598623173e-04

# states with alpha off both axes, where a fringe along the wrong direction shows
OFF_AXIS = [CatState(1.0, 0.7), CatState(0.8, -1.3), CatState(1.5, -0.25)]


def radon_oracle(state: CatState, x: float, phi: float, tol: float = 1e-10) -> float:
    """Line integral of `wigner_true` along the direction phi, by adaptive quadrature.

    Integrates W(x cos(phi) - t sin(phi), x sin(phi) + t cos(phi)) over t: the
    reference for `quadrature_density`.  Raises RuntimeError if the quadrature
    cannot certify the requested tolerance.
    """
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)

    def integrand(t: float) -> float:
        return float(wigner_true(state, x * cos_phi - t * sin_phi, x * sin_phi + t * cos_phi))

    half_span = 9.0 + math.sqrt(2.0 * state.abs_alpha_sq)
    value, abserr = quad(integrand, -half_span, half_span, epsabs=tol * 1e-2, epsrel=1e-12, limit=200)
    if abserr > tol:
        raise RuntimeError(f"Radon quadrature reached error {abserr:.3e} > requested {tol:.3e}")
    return value


class TestCatState:
    def test_norm_const_range(self):
        assert CatState(0.0).norm_const == 4.0
        for a1, a2 in [(0.5, 0.0), (ALPHA1, 0.0), (1.0, 2.0)]:
            nc = CatState(a1, a2).norm_const
            assert 2.0 < nc <= 4.0
        # e^{-2|alpha|^2} underflows the 1 ulp gap for large alpha: saturates at 2
        assert CatState(4.0, -3.0).norm_const == pytest.approx(2.0, rel=1e-15)

    def test_abs_alpha_sq(self):
        assert CatState(1.0, 2.0).abs_alpha_sq == 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CatState(float("nan"))
        with pytest.raises(ValueError):
            CatState(0.0, float("inf"))


class TestNoiseModel:
    def test_gamma_values(self):
        assert NoiseModel(1.0).gamma == 0.0
        assert NoiseModel(0.5).gamma == 0.25
        assert NoiseModel(0.45).gamma == pytest.approx(11.0 / 36.0, rel=1e-15)

    @pytest.mark.parametrize("eta", [0.0, -0.1, 1.2])
    def test_rejects_bad_eta(self, eta):
        with pytest.raises(ValueError):
            NoiseModel(eta)


class TestWignerTrue:
    def test_origin_is_inv_pi_for_all_alpha(self):
        for state in [CatState(0.0), CatState(ALPHA1), CatState(1.0, 2.0), CatState(-2.5, 0.3)]:
            assert wigner_true(state, 0.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)

    def test_vacuum_gaussian(self):
        state = CatState(0.0)
        q = np.linspace(-2, 2, 7)
        expected = np.exp(-q * q - 0.25) / math.pi
        np.testing.assert_allclose(wigner_true(state, q, 0.5), expected, rtol=1e-14)

    def test_lobe_value_frozen(self, cat):
        assert wigner_true(cat, 3.0, 0.0) == pytest.approx(W_AT_3_0, rel=1e-14)

    def test_purity_norm(self, cat):
        # 2 pi Int W^2 = 1 for a pure state; grid sum is spectrally accurate.
        # A fringe that is not perpendicular to the lobe axis gives 0.82 at (1, 0.7)
        ax = np.linspace(-8.0, 8.0, 201)
        qq, pp = np.meshgrid(ax, ax, indexing="ij")
        cell = (ax[1] - ax[0]) ** 2
        for state in [cat] + OFF_AXIS:
            total = 2.0 * math.pi * np.sum(wigner_true(state, qq, pp) ** 2) * cell
            assert total <= 1.0 + 1e-6
            assert total == pytest.approx(1.0, abs=1e-4)


class TestWignerFourier:
    def test_unit_at_origin(self):
        for state in [CatState(0.0), CatState(ALPHA1), CatState(1.0, 2.0)]:
            assert wigner_fourier(state, 0.0, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_vacuum(self):
        state = CatState(0.0)
        w = np.array([0.3, 1.0, 2.5])
        np.testing.assert_allclose(
            wigner_fourier(state, w, -w), np.exp(-2 * w * w / 4.0), rtol=1e-14
        )

    def test_frozen_value(self, cat):
        assert wigner_fourier(cat, 1.0, 1.0) == pytest.approx(F_AT_1_1, rel=1e-13)

    @pytest.mark.parametrize("state,w1,w2", [
        (CatState(ALPHA1), 1.0, 1.0),
        (CatState(1.0, 0.7), 0.9, -0.4),
        (CatState(0.8, -1.3), -1.7, 0.6),
    ])
    def test_matches_2d_quadrature(self, state, w1, w2):
        # tensor Gauss-Legendre quadrature of Int W e^{-i(w1 q + w2 p)}
        gx, gw = leggauss(220)
        nodes, weights = 9.0 * gx, 9.0 * gw
        qq = nodes[:, None]
        pp = nodes[None, :]
        w_vals = wigner_true(state, qq, pp)
        re = weights @ (w_vals * np.cos(w1 * qq + w2 * pp)) @ weights
        im = weights @ (w_vals * np.sin(w1 * qq + w2 * pp)) @ weights
        assert wigner_fourier(state, w1, w2) == pytest.approx(re, abs=1e-9)
        assert abs(im) < 1e-12


class TestQuadratureDensity:
    def test_vacuum_marginal(self):
        state = CatState(0.0)
        x = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(
            quadrature_density(state, x, 0.3), np.exp(-x * x) / math.sqrt(math.pi), rtol=1e-14
        )

    @pytest.mark.parametrize("phi", [0.0, math.pi / 4, math.pi / 2])
    def test_normalization(self, cat, phi):
        val, _ = quad(lambda x: quadrature_density(cat, x, phi), -12, 12, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_frozen_values(self, cat):
        assert quadrature_density(cat, 0.0, math.pi / 2) == pytest.approx(P_0_HALFPI, rel=1e-14)
        assert quadrature_density(cat, 1.0, 0.7) == pytest.approx(P_1_07, rel=1e-13)

    def test_matches_radon_oracle_on_grid(self, cat):
        xs = np.linspace(-4.5, 4.5, 20)
        phis = np.linspace(0.0, math.pi, 5)
        for phi in phis:
            for x in xs:
                assert quadrature_density(cat, x, phi) == pytest.approx(
                    radon_oracle(cat, x, phi), abs=1e-6)

    def test_matches_radon_oracle_complex_alpha(self):
        state = CatState(1.0, 2.0)
        for x, phi in [(0.3, 1.1), (-1.8, 0.4), (2.2, 2.9)]:
            assert quadrature_density(state, x, phi) == pytest.approx(
                radon_oracle(state, x, phi), abs=1e-8)

    def test_nonnegative(self, cat):
        x = np.linspace(-6, 6, 2001)
        for phi in np.linspace(0, math.pi, 9):
            assert quadrature_density(cat, x, phi).min() >= -1e-12

    def test_rejects_phase_outside_range(self, cat):
        with pytest.raises(ValueError):
            quadrature_density(cat, 0.0, -0.1)
        with pytest.raises(ValueError):
            quadrature_density(cat, 0.0, 3.2)


class TestNoisyQuadratureDensity:
    def test_reduces_to_ideal_at_unit_efficiency(self, cat):
        x = np.linspace(-4, 4, 17)
        perfect = NoiseModel(1.0)
        for phi in [0.0, 0.9, math.pi / 2]:
            np.testing.assert_allclose(
                noisy_quadrature_density(cat, perfect, x, phi),
                quadrature_density(cat, x, phi), rtol=1e-13)

    def test_normalization(self, cat, noise):
        val, _ = quad(lambda x: noisy_quadrature_density(cat, noise, x, 0.0), -12, 12, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_frozen_value(self, cat, noise):
        assert noisy_quadrature_density(cat, noise, 1.0, 0.0) == pytest.approx(PETA_1_0, rel=1e-13)

    def test_matches_numerical_convolution(self, cat):
        # direct quadrature of the defining Gaussian convolution
        rng = np.random.default_rng(7)
        for _ in range(8):
            eta = rng.uniform(0.3, 0.95)
            x0 = rng.uniform(-3, 3)
            phi = rng.uniform(0, math.pi)
            nm = NoiseModel(eta)

            def convolved(u):
                return (math.exp(-u * u / (1 - eta)) / math.sqrt(math.pi * (1 - eta))
                        * quadrature_density(cat, (x0 - u) / math.sqrt(eta), phi) / math.sqrt(eta))

            ref, _ = quad(convolved, -10, 10, limit=300, epsabs=1e-12)
            assert noisy_quadrature_density(cat, nm, x0, phi) == pytest.approx(ref, abs=1e-8)

    def test_fourier_noise_identity(self, cat):
        # F[p](xi) = e^{gamma xi^2} F[p_eta](xi / sqrt(eta)), by 1-D Fourier quadrature
        rng = np.random.default_rng(11)
        for _ in range(20):
            xi = rng.uniform(-3.0, 3.0)
            phi = rng.uniform(0.0, math.pi)
            eta = rng.uniform(0.35, 0.95)
            nm = NoiseModel(eta)

            def ft(f, freq):
                re, _ = quad(lambda x: f(x) * math.cos(freq * x), -12, 12, limit=300)
                im, _ = quad(lambda x: f(x) * math.sin(freq * x), -12, 12, limit=300)
                return complex(re, -im)

            lhs = ft(lambda x: quadrature_density(cat, x, phi), xi)
            rhs = math.exp(nm.gamma * xi * xi) * ft(
                lambda x: noisy_quadrature_density(cat, nm, x, phi), xi / math.sqrt(eta))
            assert abs(lhs - rhs) < 1e-6


class TestRadonOracle:
    def test_vacuum(self):
        assert radon_oracle(CatState(0.0), 0.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-10)

    def test_lobe_position_is_density_maximum(self, cat):
        # at phi = 0 the positive hump peaks at x = sqrt(2) alpha1 = 3
        xs = np.linspace(2.0, 4.0, 41)
        vals = [radon_oracle(cat, x, 0.0) for x in xs]
        peak = xs[int(np.argmax(vals))]
        assert abs(peak - math.sqrt(2.0) * cat.alpha1) <= (xs[1] - xs[0])


class TestPhaseFunctions:
    def test_pythagorean_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            state = CatState(rng.uniform(-4, 4), rng.uniform(-4, 4))
            phi = rng.uniform(-2 * math.pi, 2 * math.pi)
            m, a, b = phase_amplitudes(state, phi)
            assert a ** 2 + b ** 2 == pytest.approx(state.abs_alpha_sq, rel=1e-12, abs=1e-12)
            # the first amplitude is sqrt2 a(phi), a the projection of alpha on (cos, sin)(phi)
            assert m == math.sqrt(2.0) * a
            assert a == pytest.approx(state.alpha1 * math.cos(phi) + state.alpha2 * math.sin(phi), abs=1e-14)


class TestWitness:
    def test_center_value_frozen(self, cat):
        assert witness_phase_fn(cat, 0.0, 0.0) == pytest.approx(O_AT_0_0, rel=1e-14)

    def test_cosine_zero(self, cat):
        p0 = math.pi / (2.0 * 2.0 * math.sqrt(2.0) * cat.alpha1)
        assert abs(witness_phase_fn(cat, 0.0, p0)) < 1e-15

    def test_pairing_returns_half_on_analytic_state(self, cat):
        # the calibrated pairing maps the analytic Wigner function to 1/2:
        # Int O W dq dp = 1/(4 sqrt(pi)) exactly, for every alpha
        ax = np.linspace(-8.0, 8.0, 321)
        qq, pp = np.meshgrid(ax, ax, indexing="ij")
        cell = (ax[1] - ax[0]) ** 2
        for state in [cat] + OFF_AXIS:
            raw = np.sum(witness_phase_fn(state, qq, pp) * wigner_true(state, qq, pp)) * cell
            assert raw == pytest.approx(1.0 / (4.0 * math.sqrt(math.pi)), abs=1e-10)
            assert WITNESS_PAIRING * raw == pytest.approx(0.5, abs=1e-9)

    def test_incoherent_mean(self, cat):
        assert incoherent_witness_mean(CatState(0.0)) == pytest.approx(0.5, rel=1e-15)
        assert incoherent_witness_mean(cat) == pytest.approx(INCOH_REF, rel=1e-12)
        big = CatState(math.sqrt(30.0))
        assert incoherent_witness_mean(big) < 1e-10

    @pytest.mark.parametrize("state", [CatState(0.0), CatState(ALPHA1), CatState(1.0, 2.0)])
    def test_pure_mean_is_half(self, state):
        # oracle: <Psi|O|Psi> from the coherent-state Gram matrix.
        # In the non-orthogonal basis {|a>, |-a>} with overlap k = e^{-2|a|^2}:
        # |Psi> = (1,1)/sqrt(2(1+k)), O = (|a><-a| + |-a><a|)/(2(1+k)).
        kappa = state.overlap
        psi = np.array([1.0, 1.0]) / math.sqrt(2.0 * (1.0 + kappa))
        gram = np.array([[1.0, kappa], [kappa, 1.0]])
        op = np.array([[0.0, 1.0], [1.0, 0.0]]) / (2.0 * (1.0 + kappa))
        # <Psi|O|Psi> with O = sum_ij op[i,j] |b_i><b_j| in that basis:
        # components <Psi|b_i> = (gram @ psi)_i
        bra = gram @ psi
        value = bra @ op @ bra
        assert value == pytest.approx(0.5, rel=1e-14)
        assert pure_witness_mean(state) == 0.5
