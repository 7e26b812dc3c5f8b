"""Reconstruction error metrology and the interference witness.

Error side: the squared L2 distance between the true Wigner function and a
reconstructed grid (midpoint sum inside the truncation disk plus an analytic
radial-quadrature tail outside, where the reconstruction is exactly zero),
its average over replicates, and the closed-form upper bound

    Delta = (r^2 / n h) e^{2 gamma/h^2} Delta_1(gamma)
          + e^{-beta r^2} Delta_2(beta) + e^{-beta/h^2} Delta_3(beta)

with Delta_1 = sqrt(pi)/(16 pi^2 sqrt(gamma)) and Delta_2/Delta_3 the
Cauchy-Schwarz constants of the state's Gaussian-localized phase-space and
frequency content.  The bound reproduces the reference values 2.39
(beta = 0.05) and 26.07 (beta = 0.1) at eta = 0.45, n = 16e6, |alpha|^2 = 4.5.

Witness side: pairing a grid with the witness function O(q, p) yields a
mean value that is 1/2 on the true superposition but ~e^{-2|alpha|^2} on any
incoherent mixture.  Replicate statistics use the population (divisor-M)
standard deviation, and the interference test declares separation when
|Av - incoherent| > Sd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimator import ReconstructionParams, WignerGrid, optimal_bandwidth, _EXP_LIMIT, _leggauss
from .states import (
    CatState,
    NoiseModel,
    WITNESS_PAIRING,
    incoherent_witness_mean,
    pure_witness_mean,
    wigner_fourier,
    wigner_true,
    witness_phase_fn,
)

__all__ = [
    "ErrorReport",
    "WitnessStats",
    "l2_error",
    "mean_square_error",
    "delta_terms",
    "error_upper_bound",
    "sweep_beta",
    "sweep_terms_csv",
    "witness_mean_from_grid",
    "witness_mean_oracle",
    "witness_stats",
]


@dataclass
class ErrorReport:
    """Measured mean square L2 error next to its closed-form upper bound."""

    delta_numeric: float
    delta_bound: float
    term_variance: float
    term_tail: float
    term_bias: float
    params: dict = field(default_factory=dict)
    m: int = 0


@dataclass
class WitnessStats:
    """Replicate witness means with the incoherent/pure reference values."""

    means: list[float]
    av: float
    sd: float
    incoherent_ref: float
    pure_ref: float
    separated: bool


def _check_grid_state(grid: WignerGrid, state: CatState) -> None:
    for key in ("alpha1", "alpha2"):
        if key not in grid.meta:
            raise ValueError(f"grid meta lacks {key!r}, so its state cannot be checked")
    a1, a2 = grid.meta["alpha1"], grid.meta["alpha2"]
    if not (math.isclose(a1, state.alpha1, abs_tol=1e-12)
            and math.isclose(a2, state.alpha2, abs_tol=1e-12)):
        raise ValueError(
            f"grid was reconstructed for alpha=({a1}, {a2}) but analysis targets "
            f"alpha=({state.alpha1}, {state.alpha2})"
        )


def _tail_norm_sq(state: CatState, r: float) -> float:
    """Integral of W^2 outside the disk of radius r, by polar Gauss-Legendre."""
    rho_hi = r + 9.0 + math.sqrt(2.0 * state.abs_alpha_sq)
    gx, gw = _leggauss(220)
    rho = 0.5 * (rho_hi + r) + 0.5 * (rho_hi - r) * gx
    rho_w = 0.5 * (rho_hi - r) * gw
    tx, tw = _leggauss(256)
    theta = math.pi * (tx + 1.0)
    theta_w = math.pi * tw
    qq = rho[:, None] * np.cos(theta)[None, :]
    pp = rho[:, None] * np.sin(theta)[None, :]
    w2 = wigner_true(state, qq, pp) ** 2
    return float(rho_w @ (w2 @ theta_w * rho))


def l2_error(grid: WignerGrid, state: CatState) -> float:
    """Squared L2 distance between the true Wigner function and the grid.

    Inside the disk: midpoint sum of |W_true - W_grid|^2 over grid cells
    (spectrally accurate here because the integrand is smooth and Gaussian-
    enveloped).  Outside: the reconstruction is exactly zero, so the analytic
    tail integral of W_true^2 is added; it is evaluated by radial quadrature
    to well below 1e-8.
    """
    _check_grid_state(grid, state)
    ax = grid.axis()
    inside = grid.inside_disk()
    qq, pp = np.meshgrid(ax, ax, indexing="ij")
    diff = wigner_true(state, qq, pp) - grid.values
    cell_area = grid.cell ** 2
    inside_part = float(np.sum(diff[inside] ** 2) * cell_area)
    return inside_part + _tail_norm_sq(state, grid.r)


def mean_square_error(errors) -> float:
    """Average of per-replicate squared L2 distances."""
    errors = list(errors)
    if not errors:
        raise ValueError("need at least one replicate error")
    return float(np.mean(errors))


def _delta2(beta: float, state: CatState) -> float:
    s = 1.0 - beta
    a2 = state.abs_alpha_sq
    grow = 4.0 * beta * a2 / s
    if grow > _EXP_LIMIT:
        raise OverflowError("Delta_2/Delta_3 growth exponent overflows float64")
    inner = 1.0 + math.exp(grow) * (1.0 + 2.0 * math.sqrt(math.pi) * math.sqrt(a2) / math.sqrt(s)
                                    - math.exp(-4.0 * a2 / s))
    return math.sqrt(3.0 * inner / (4.0 * math.pi ** 3 * s))


def _delta3(beta: float, state: CatState) -> float:
    return _delta2(4.0 * beta, state)


def delta_terms(n: int, beta: float, eta: float, state: CatState) -> tuple[float, float, float]:
    """The three addends of the error upper bound, with (r, h) from the bandwidth rule.

    Returns (variance term, outside-disk tail term, frequency-cutoff bias term).
    Requires eta < 1: a perfect detector makes gamma = 0 and the variance
    constant sqrt(pi)/(16 pi^2 sqrt(gamma)) divergent.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"delta_terms requires eta in (0, 1), got {eta}")
    gamma = NoiseModel(eta).gamma
    r, h = optimal_bandwidth(n, beta, gamma)
    grow = 2.0 * gamma / (h * h)
    if grow > _EXP_LIMIT:
        raise OverflowError("variance-term exponent 2 gamma/h^2 overflows float64")
    d1 = math.sqrt(math.pi) / (16.0 * math.pi ** 2 * math.sqrt(gamma))
    term_var = (r * r / (n * h)) * math.exp(grow) * d1
    term_tail = math.exp(-beta * r * r) * _delta2(beta, state)
    term_bias = math.exp(-beta / (h * h)) * _delta3(beta, state)
    return term_var, term_tail, term_bias


def error_upper_bound(n: int, beta: float, eta: float, state: CatState) -> float:
    """Closed-form upper bound Delta on the mean square reconstruction error."""
    return float(sum(delta_terms(n, beta, eta, state)))


def sweep_beta(n: int, eta: float, state: CatState, betas) -> list[dict]:
    """Bound curve Delta(beta): large at both ends with an interior minimum."""
    rows = []
    for beta in betas:
        tv, tt, tb = delta_terms(n, float(beta), eta, state)
        rows.append({
            "beta": float(beta),
            "delta": tv + tt + tb,
            "term_var": tv,
            "term_tail": tt,
            "term_bias": tb,
        })
    return rows


def sweep_terms_csv(rows) -> str:
    """Serialize a bound sweep as `beta,delta,term_var,term_tail,term_bias`."""
    lines = ["beta,delta,term_var,term_tail,term_bias"]
    for row in rows:
        lines.append(",".join(f"{row[k]:.17g}" for k in
                              ("beta", "delta", "term_var", "term_tail", "term_bias")))
    return "\n".join(lines) + "\n"


def witness_mean_from_grid(grid: WignerGrid, state: CatState) -> float:
    """Witness mean value of a gridded Wigner function.

    Midpoint-rule pairing 2 sqrt(pi) * sum O(q,p) W(q,p) dA.  The prefactor is
    the calibrated phase-space convention: applied to the analytic Wigner
    function it returns the exact pure-state mean 1/2 (the self-overlap
    integral of O against W equals 1/(4 sqrt(pi)) for every alpha).
    """
    _check_grid_state(grid, state)
    ax = grid.axis()
    qq, pp = np.meshgrid(ax, ax, indexing="ij")
    overlap = np.sum(witness_phase_fn(state, qq, pp) * grid.values) * grid.cell ** 2
    return float(WITNESS_PAIRING * overlap)


def witness_mean_oracle(state: CatState, params: ReconstructionParams) -> float:
    """Expected witness mean of the estimator: the witness paired with `estimator_mean_oracle`.

    E[W] is W with its spectrum cut to |w| <= c = 1/h, so by Parseval it is
    (2 sqrt(pi) / 4 pi^2) Int_{|w| <= c} F[O] F[W] dw, where
    F[O](w) = sqrt(pi) [e^{-|w - w0|^2/4} + e^{-|w + w0|^2/4}] / (2 (1 + e^{-2|alpha|^2}))
    and w0 = 2 sqrt2 (alpha2, alpha1).  A polar rule evaluates it: 96
    Gauss-Legendre radii up to min(c, |w0| + 16), past which F[O] < e^{-64},
    times 512 periodic trapezoid angles.  Like the oracle it ignores the disk
    truncation at r, where O < e^{-r^2}.
    """
    w01, w02 = 2.0 * math.sqrt(2.0) * state.alpha2, 2.0 * math.sqrt(2.0) * state.alpha1
    rho_hi = min(1.0 / params.h, math.hypot(w01, w02) + 16.0)
    gx, gw = _leggauss(96)
    rho = 0.5 * rho_hi * (gx + 1.0)
    rho_w = 0.5 * rho_hi * gw * rho
    theta = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    w1, w2 = rho[:, None] * np.cos(theta), rho[:, None] * np.sin(theta)
    shifted = np.exp(-((w1 - w01) ** 2 + (w2 - w02) ** 2) / 4.0) + np.exp(-((w1 + w01) ** 2 + (w2 + w02) ** 2) / 4.0)
    total = rho_w @ (shifted * wigner_fourier(state, w1, w2)).sum(axis=1) * (2.0 * math.pi / theta.size)
    f_o_norm = math.sqrt(math.pi) / (2.0 * (1.0 + state.overlap))  # F[O] = f_o_norm * shifted
    return float(WITNESS_PAIRING * f_o_norm * total / (4.0 * math.pi ** 2))


def witness_stats(means, state: CatState) -> WitnessStats:
    """Replicate mean / population standard deviation and the separation test.

    sd = sqrt( (1/M) sum m_i^2 - av^2 ), divisor M (not M-1).  `separated`
    holds when |av - incoherent reference| > sd, i.e. the replicate scatter
    cannot explain the distance from the incoherent-mixture value.
    """
    means = [float(m) for m in means]
    if len(means) < 2:
        raise ValueError("need at least 2 replicate means for a standard deviation")
    arr = np.asarray(means)
    av = float(arr.mean())
    sd = float(math.sqrt(max(float(np.mean(arr * arr)) - av * av, 0.0)))
    inc = incoherent_witness_mean(state)
    return WitnessStats(
        means=means,
        av=av,
        sd=sd,
        incoherent_ref=inc,
        pure_ref=pure_witness_mean(state),
        separated=bool(abs(av - inc) > sd),
    )
