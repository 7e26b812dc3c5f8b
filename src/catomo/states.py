"""Closed-form phase-space description of an even coherent-state superposition.

The state is the normalized superposition (|alpha> + |-alpha>) / sqrt(2(1 + e^{-2|alpha|^2}))
with alpha = alpha1 + i*alpha2.  Everything observable about it under homodyne
detection is available in closed form:

* the Wigner function W(q, p): two Gaussian lobes displaced to
  +-(sqrt(2)*alpha1, sqrt(2)*alpha2) plus an oscillatory interference ridge,
* its 2-D Fourier transform,
* the quadrature probability density p(x, phi) (the Radon transform of W),
* the same density degraded by Gaussian detection noise of efficiency eta,
* the interference-witness function O(q, p) together with the exact witness
  means for the pure superposition (1/2) and for any incoherent mixture.

All functions are pure and accept numpy arrays in the phase-space / quadrature
arguments (broadcasting applies).  A slow line-integral oracle `radon_oracle`
is provided for cross-checking the analytic marginals in tests.

Conventions: hbar = 1, quadrature x_phi = q cos(phi) + p sin(phi), and the
Fourier transform F[f](w) = integral f(x) e^{-i w.x} dx.  The published form
of the marginal densities contains typographical slips; the expressions here
are re-derived directly from the Wigner function and are validated against
numerical Radon/convolution integrals in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CatState",
    "NoiseModel",
    "amplitude_along",
    "amplitude_across",
    "wigner_true",
    "wigner_fourier",
    "phase_amplitudes",
    "quadrature_density",
    "noisy_quadrature_density",
    "radon_oracle",
    "witness_phase_fn",
    "incoherent_witness_mean",
    "pure_witness_mean",
    "WITNESS_PAIRING",
]

SQRT2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)

# Constant turning the grid overlap sum(O * W) dA into a trace-like mean value:
# the self-overlap integral of O against W equals 1/(4 sqrt(pi)) exactly for
# every alpha, so this prefactor maps the analytic state to the exact pure
# witness mean 1/2.  Fixed once here; reconstructed grids reuse it unchanged.
WITNESS_PAIRING = 2.0 * SQRT_PI


@dataclass(frozen=True)
class CatState:
    """Superposition amplitude alpha = alpha1 + i*alpha2 and derived constants."""

    alpha1: float
    alpha2: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha1) and math.isfinite(self.alpha2)):
            raise ValueError("cat-state amplitude must be finite")

    @property
    def abs_alpha_sq(self) -> float:
        """|alpha|^2 = alpha1^2 + alpha2^2."""
        return self.alpha1 ** 2 + self.alpha2 ** 2

    @property
    def overlap(self) -> float:
        """<alpha|-alpha> = e^{-2|alpha|^2}, the interference suppression factor."""
        return math.exp(-2.0 * self.abs_alpha_sq)

    @property
    def norm_const(self) -> float:
        """Squared normalization 2(1 + e^{-2|alpha|^2}), in (2, 4]."""
        return 2.0 * (1.0 + self.overlap)


@dataclass(frozen=True)
class NoiseModel:
    """Detection efficiency eta in (0, 1] and deconvolution strength gamma."""

    eta: float

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"efficiency eta must lie in (0, 1], got {self.eta}")

    @property
    def gamma(self) -> float:
        """(1 - eta) / (4 eta); zero for a perfect detector."""
        return (1.0 - self.eta) / (4.0 * self.eta)


def amplitude_along(state: CatState, phi):
    """Component of alpha along the measured quadrature: alpha1 cos(phi) + alpha2 sin(phi)."""
    return state.alpha1 * np.cos(phi) + state.alpha2 * np.sin(phi)


def amplitude_across(state: CatState, phi):
    """Orthogonal component alpha2 cos(phi) - alpha1 sin(phi).

    Satisfies amplitude_along(phi)^2 + amplitude_across(phi)^2 = |alpha|^2.
    """
    return state.alpha2 * np.cos(phi) - state.alpha1 * np.sin(phi)


def _check_phase(phi) -> None:
    phi = np.asarray(phi)
    if np.any(phi < 0.0) or np.any(phi > np.pi):
        raise ValueError("quadrature phase phi must lie in [0, pi]")


def wigner_true(state: CatState, q, p):
    """Wigner function of the superposition at phase-space point(s) (q, p).

    W(q,p) = [ e^{-(q-sqrt2 a1)^2-(p-sqrt2 a2)^2} + e^{-(q+sqrt2 a1)^2-(p+sqrt2 a2)^2}
               + 2 e^{-q^2-p^2} cos(2 sqrt2 (q a2 + p a1)) ] / (2 pi (1 + e^{-2|a|^2}))

    Takes the value 1/pi at the origin for every alpha.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    a1, a2 = state.alpha1, state.alpha2
    lobe_plus = np.exp(-((q - SQRT2 * a1) ** 2) - (p - SQRT2 * a2) ** 2)
    lobe_minus = np.exp(-((q + SQRT2 * a1) ** 2) - (p + SQRT2 * a2) ** 2)
    ridge = 2.0 * np.exp(-q * q - p * p) * np.cos(2.0 * SQRT2 * (q * a2 + p * a1))
    return (lobe_plus + lobe_minus + ridge) / (math.pi * state.norm_const)


def wigner_fourier(state: CatState, w1, w2):
    """Fourier transform of the Wigner function at frequency (w1, w2).

    Real-valued because W is symmetric under (q,p) -> (-q,-p); equals 1 at the
    origin (normalization).  The lobes map to an origin-centered oscillatory
    term while the interference ridge maps to Gaussians displaced to
    +-(2 sqrt2 alpha2, 2 sqrt2 alpha1).
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    a1, a2 = state.alpha1, state.alpha2
    c = 2.0 * SQRT2
    shift_plus = np.exp(-((w1 - c * a2) ** 2 + (w2 - c * a1) ** 2) / 4.0)
    shift_minus = np.exp(-((w1 + c * a2) ** 2 + (w2 + c * a1) ** 2) / 4.0)
    center = 2.0 * np.exp(-(w1 * w1 + w2 * w2) / 4.0) * np.cos(SQRT2 * (w1 * a1 + w2 * a2))
    return (shift_plus + shift_minus + center) / (2.0 * (1.0 + state.overlap))


def phase_amplitudes(state: CatState, phi):
    """(sqrt2 amplitude_along(phi), amplitude_along(-phi), amplitude_across(-phi)).

    The three amplitudes `quadrature_density` needs at phase(s) phi, from one
    cos/sin pair: cos(-phi) == cos(phi) and sin(-phi) == -sin(phi) exactly,
    so they equal the separate calls bit for bit.
    """
    a1, a2 = state.alpha1, state.alpha2
    c, s = np.cos(phi), np.sin(phi)
    return SQRT2 * (a1 * c + a2 * s), a1 * c - a2 * s, a2 * c + a1 * s


def quadrature_density(state: CatState, x, phi=None, *, amplitudes=None):
    """Ideal quadrature density p(x, phi), the Radon transform of the Wigner function.

    Two Gaussians of variance 1/2 centered at +-sqrt2 * amplitude_along(phi)
    plus the interference term

        2 e^{-x^2 - 2 amplitude_along(-phi)^2} cos(2 sqrt2 x amplitude_across(-phi)),

    normalized by 2 sqrt(pi) (1 + e^{-2|alpha|^2}).  Integrates to 1 for each phi.

    Takes either the phase(s) phi or `amplitudes = phase_amplitudes(state, phi)`
    of phases already checked, so a caller that evaluates many x at the same
    phases does the phase trigonometry once.
    """
    if amplitudes is None:
        _check_phase(phi)
        amplitudes = phase_amplitudes(state, phi)
    x = np.asarray(x, dtype=float)
    m, a_neg, b_neg = amplitudes
    humps = np.exp(-((x - m) ** 2)) + np.exp(-((x + m) ** 2))
    ridge = 2.0 * np.exp(-x * x - 2.0 * a_neg * a_neg) * np.cos(2.0 * SQRT2 * x * b_neg)
    return (humps + ridge) / (SQRT_PI * state.norm_const)


def noisy_quadrature_density(state: CatState, noise: NoiseModel, x, phi):
    """Quadrature density after Gaussian detection noise of efficiency eta.

    Closed-form convolution of `quadrature_density` with the noise law of the
    measured variable sqrt(eta) x + sqrt((1-eta)/2) y: the Gaussian humps keep
    variance 1/2 with centers rescaled to +-sqrt(2 eta) amplitude_along(phi),
    and the interference term becomes

        2 e^{-x^2 - 2|alpha|^2 + 2 eta amplitude_across(-phi)^2}
          cos(2 sqrt(2 eta) x amplitude_across(-phi)).

    That is `quadrature_density` at the amplitudes (sqrt(eta) m, sqrt(|alpha|^2
    - eta b^2), sqrt(eta) b) of (m, a, b) = `phase_amplitudes(state, phi)`.
    """
    _check_phase(phi)
    root_eta = math.sqrt(noise.eta)
    m, _, b_neg = phase_amplitudes(state, phi)
    a_noisy = np.sqrt(np.maximum(state.abs_alpha_sq - noise.eta * b_neg * b_neg, 0.0))
    return quadrature_density(state, x, amplitudes=(root_eta * m, a_noisy, root_eta * b_neg))


def radon_oracle(state: CatState, x: float, phi: float, tol: float = 1e-10) -> float:
    """Line integral of `wigner_true` along the direction phi (slow reference path).

    Integrates W(x cos(phi) - t sin(phi), x sin(phi) + t cos(phi)) over t.
    Used in tests as the independent oracle for `quadrature_density`.

    Raises RuntimeError if the quadrature cannot certify the requested
    tolerance (the achieved error estimate is included in the message).
    """
    from scipy.integrate import quad

    _check_phase(phi)
    x = float(x)
    phi = float(phi)
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)

    def integrand(t: float) -> float:
        return float(wigner_true(state, x * cos_phi - t * sin_phi, x * sin_phi + t * cos_phi))

    half_span = 9.0 + SQRT2 * math.sqrt(state.abs_alpha_sq)
    value, abserr = quad(integrand, -half_span, half_span, epsabs=tol * 1e-2, epsrel=1e-12, limit=200)
    if abserr > tol:
        raise RuntimeError(f"Radon quadrature reached error {abserr:.3e} > requested {tol:.3e}")
    return value


def witness_phase_fn(state: CatState, q, p):
    """Phase-space function of the interference witness observable.

    O(q,p) = e^{-q^2-p^2} cos(2 sqrt2 (q a2 + p a1)) / (sqrt(pi) (1 + e^{-2|a|^2}))

    Pairing it with a Wigner grid through `WITNESS_PAIRING * sum(O*W) dA`
    returns the witness mean value; on the analytic W this gives exactly 1/2.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    a1, a2 = state.alpha1, state.alpha2
    osc = np.cos(2.0 * SQRT2 * (q * a2 + p * a1))
    return np.exp(-q * q - p * p) * osc / (SQRT_PI * (1.0 + state.overlap))


def incoherent_witness_mean(state: CatState) -> float:
    """Witness mean on any incoherent mixture of |alpha> and |-alpha>.

    Equals e^{-2|alpha|^2} / (1 + e^{-2|alpha|^2}) independently of the mixing
    weight; vanishes rapidly as |alpha| grows.
    """
    kappa = state.overlap
    return kappa / (1.0 + kappa)


def pure_witness_mean(state: CatState) -> float:
    """Witness mean on the pure superposition: exactly 1/2 for every alpha."""
    return 0.5
