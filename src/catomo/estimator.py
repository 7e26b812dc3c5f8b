"""Kernel-deconvolution Wigner estimator with frequency cutoff and disk truncation.

The reconstruction at a phase-space point (q, p) is the sample average

    W(q, p) = (1/n) sum_l K(q cos(phi_l) + p sin(phi_l) - x_l / sqrt(eta))

set to zero outside the disk q^2 + p^2 > r^2.  The kernel is the real, even
frequency integral

    K(t) = (1/2 pi) Integral_0^{1/h} xi e^{gamma xi^2} cos(xi t) d xi,

whose e^{gamma xi^2} factor undoes the Gaussian detection noise while the
cutoff 1/h keeps it finite; r and h follow the bandwidth rule
r = 1/h = sqrt(ln n / (beta + 2 gamma)).  `kernel` evaluates it in closed
form through the Faddeeva function; `KernelTable` tabulates it to 1e-6 K(0),
and every direct kernel sum (`estimate_at_points`) goes through the table.

Two evaluation routes are provided.  `reconstruct_exact` sums the kernel per
sample and per node with compensated accumulation (the authoritative slow
path).  `reconstruct_fast` linearly bins samples on a (phase x offset)
lattice, turns each phase bin into a 1-D FFT correlation against closed-form
kernel values at the lattice offsets, and maps grid nodes through cubic
interpolation, whose weights at one quadrant of nodes serve all four mirror
images of it (`_interp_grid`); a self-check against the direct sum at a few
nodes falls back to the exact path if the lattice resolutions are ever
insufficient.  A deterministic mean-value oracle (the exact expectation of
the estimator, one radial Bessel integral per point) supports bias tests
without Monte Carlo.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import fft
from scipy.special import erfcx, factorial, hyp1f1, ive, j0, wofz

from .sampling import QuadratureBatch, _atomic_bytes, _read_framed, _write_framed
from .states import CatState, NoiseModel

__all__ = [
    "optimal_bandwidth",
    "kernel",
    "KernelTable",
    "ReconstructionParams",
    "WignerGrid",
    "estimate_at_points",
    "reconstruct_exact",
    "reconstruct_fast",
    "estimator_mean_oracle",
    "mean_grid",
    "write_grid",
    "read_grid",
    "grid_to_csv",
    "GRID_MAGIC",
]

GRID_MAGIC = b"CATWG1\n"

# e^{gamma/h^2} beyond this overflows float64; reject rather than return inf.
_EXP_LIMIT = 700.0


def optimal_bandwidth(n: int, beta: float, gamma: float) -> tuple[float, float]:
    """Truncation radius and bandwidth minimizing the error bound for large n.

    r = 1/h = sqrt(ln n / (beta + 2 gamma)), natural logarithm.  This
    convention is the one that reproduces the published bound table.
    """
    if n < 2:
        raise ValueError("need n >= 2 for a meaningful bandwidth")
    if not (0.0 < beta < 0.25):
        raise ValueError(f"beta must lie in (0, 1/4), got {beta}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    r = math.sqrt(math.log(n) / (beta + 2.0 * gamma))
    return r, 1.0 / r


# Below this value of a = gamma/h^2 the closed form cancels terms of size
# ~1/a against each other and `kernel` switches to a power series in a.
_SERIES_LIMIT = 0.1
_SERIES_TERMS = 8


def _cos_moments(omega: np.ndarray, n_max: int) -> np.ndarray:
    """m_n(omega) = Int_0^1 s^n cos(omega s) ds for n = 0..n_max and omega >= 0.

    Below omega = 4: the Taylor series sum_j (-1)^j omega^{2j} / ((2j)! (n + 2j + 1)),
    cut after j = 20 (remainder < 4^42/42! ~ 1e-26).  Above: the upward
    recurrence I_n = (e^{i omega} - n I_{n-1}) / (i omega) for
    I_n = Int_0^1 s^n e^{i omega s} ds, which amplifies rounding by at most
    n!/omega^n.
    """
    out = np.empty((n_max + 1,) + omega.shape)
    low = omega < 4.0
    j = np.arange(21)
    coef = (-1.0) ** j / (factorial(2 * j) * (np.arange(n_max + 1)[:, None] + 2 * j + 1))
    out[:, low] = coef @ omega[low] ** (2 * j[:, None])
    i_omega = 1j * omega[~low]
    cis = np.exp(i_omega)
    moment = (cis - 1.0) / i_omega
    out[0][~low] = moment.real
    for n in range(1, n_max + 1):
        moment = (cis - n * moment) / i_omega
        out[n][~low] = moment.real
    return out


def kernel(t, gamma: float, h: float):
    """Deconvolution kernel K(t) = (1/2 pi) Int_0^{1/h} xi e^{gamma xi^2} cos(xi t) dxi.

    Evaluated in closed form (Butucea, Guta & Artiles 2007).  With c = 1/h,
    a = gamma c^2 and y = |t| / (2 sqrt(gamma)),

        J = (i sqrt(pi) / (2 sqrt(gamma))) [erfcx(y) - e^{a + ic|t|} w(sqrt(gamma) c + iy)],
        K(t) = (1/2 pi) Re[(e^{a + ic|t|} - 1 - i|t| J) / (2 gamma)],

    where w is the Faddeeva function (`scipy.special.wofz`).  Both of its
    arguments lie in the upper half-plane, so |w| <= 1 and nothing grows like
    e^{t^2 / 4 gamma}.  The form cancels terms of size ~K(0)/a, which costs
    about 2e-15/a * K(0) of accuracy, so below a* = 0.1, that is
    gamma* = 0.1 h^2, the kernel is the series

        K(t) = (c^2 / 2 pi) sum_{k=0}^{8} a^k / k! * m_{2k+1}(c|t|)

    in the cosine moments m_n of `_cos_moments`.  Its truncation error is at
    most 2 a^9 e^a / (9! * 20) * K(0) < 3.1e-16 K(0), and at a = 0 it is the
    exact gamma = 0 form [(1/h) sin(t/h)/t + (cos(t/h) - 1)/t^2] / (2 pi).
    Measured against quadrature over 1/h in {1, 3, 4.6, 6, 30} and |t| <= 40,
    both branches stay within 2.5e-14 K(0), the closed form's worst case
    being just above a*.  K(0) = (e^{gamma/h^2} - 1) / (4 pi gamma).  Even in
    t.  Rejects gamma/h^2 > 700 (float64 overflow).
    """
    if h <= 0.0:
        raise ValueError("bandwidth h must be positive")
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    if gamma / (h * h) > _EXP_LIMIT:
        raise OverflowError(f"gamma/h^2 = {gamma / (h * h):.1f} exceeds the overflow threshold {_EXP_LIMIT:g}")
    c = 1.0 / h
    a = gamma * c * c
    t_abs = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    if a < _SERIES_LIMIT:
        moments = _cos_moments(c * t_abs, 2 * _SERIES_TERMS + 1)
        out = sum(a ** k / math.factorial(k) * moments[2 * k + 1] for k in range(_SERIES_TERMS + 1))
        out = out * (c * c / (2.0 * math.pi))
    else:
        root = math.sqrt(gamma)
        y = t_abs / (2.0 * root)
        phase = np.exp(a + 1j * c * t_abs)
        j = (0.5j * math.sqrt(math.pi) / root) * (erfcx(y) - phase * wofz(root * c + 1j * y))
        out = ((phase - 1.0) - 1j * t_abs * j).real / (4.0 * math.pi * gamma)
    return out if np.ndim(t) else float(out[0])


_TABLE_TOL = 1e-6


def _cubic_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (4, n - 1) of the not-a-knot cubic spline through n > 3 points.

    The operations of `scipy.interpolate.CubicSpline(x, y).c`, in its order,
    so the same bits, without importing scipy.interpolate: it loads
    scipy.optimize, which adds about 23 MB to the peak RSS of a reconstruction.
    """
    from scipy.linalg import solve_banded

    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    ab = np.zeros((3, x.size))  # upper, main and lower diagonal of the slope equations
    ab[0, 2:], ab[1, 1:-1], ab[2, :-2] = dx[:-1], 2 * (dx[:-1] + dx[1:]), dx[1:]
    ab[1, 0], ab[0, 1], ab[1, -1], ab[2, -2] = dx[1], d0, dx[-2], d1
    b = np.empty(x.size)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    s = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True, check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.array([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])


class KernelTable:
    """Uniform-grid cubic-spline lookup for the kernel at fixed (gamma, h).

    The step is sized from an analytic bound on |K''''| so the interpolation
    error stays below 1e-6 * K(0), then verified on random offsets (the table
    refuses to build otherwise).  Offsets beyond the tabulated span fall back
    to direct kernel evaluation.  A lookup (`lookup`, in table units
    (t - t0) / step) is one gather of an interval's four coefficients,
    pre-scaled by step^(3-k), and a Horner evaluation in the fractional
    position; on a 256 x 64 block it costs about a thirtieth of a closed-form
    evaluation (about 100 M against 2.8 M evaluations/s on one core of a
    2-core Xeon), which the ~1e8 scattered evaluations of a direct
    reconstruction need.
    """

    def __init__(self, gamma: float, h: float, t_max: float):
        self.gamma = float(gamma)
        self.h = float(h)
        self.t_max = float(t_max)
        self.k0 = float(kernel(0.0, gamma, h))

        # |d^4 K / dt^4| <= (1/2pi) Int_0^c xi^5 e^{gamma xi^2} dxi = c^6 1F1(3; 4; gamma c^2) / (12 pi)
        c = 1.0 / self.h
        m4 = c ** 6 * float(hyp1f1(3.0, 4.0, self.gamma * c * c)) / (12.0 * math.pi)
        step = (384.0 / 5.0 * _TABLE_TOL * abs(self.k0) / max(m4, 1e-300)) ** 0.25
        step = min(step, self.h / 4.0)

        for _ in range(4):
            self._build(step)
            if self._max_check_error() <= _TABLE_TOL * abs(self.k0):
                break
            step *= 0.5
        else:
            raise RuntimeError("kernel table failed to reach interpolation tolerance")

    def _build(self, step: float) -> None:
        # pad past t_max so lookups never touch the spline's boundary intervals
        span = self.t_max + 6.0 * step
        n_pts = int(math.ceil(2.0 * span / step)) + 1
        n_pts += n_pts % 2 == 0  # odd count keeps the grid symmetric about zero
        self.step = 2.0 * span / (n_pts - 1)
        self.t0 = -span
        grid = self.t0 + self.step * np.arange(n_pts)
        # coefficient k multiplies tau^(3-k) with tau = frac * step, so scaled
        # by step^(3-k) it multiplies frac^(3-k); an interval's four are adjacent
        coeffs = _cubic_spline(grid, kernel(grid, self.gamma, self.h))
        self._coef = np.stack([coeffs[k] * self.step ** (3 - k) for k in range(4)], axis=1)

    def _max_check_error(self) -> float:
        probe = np.random.default_rng(1234).uniform(-self.t_max, self.t_max, 257)
        return float(np.max(np.abs(self(probe) - kernel(probe, self.gamma, self.h))))

    def lookup(self, pos: np.ndarray) -> np.ndarray:
        """Spline values at table positions pos = (t - t0) / step, overwriting `pos`.

        Positions off the table clip to its end intervals, so the caller
        evaluates any |t| > t_max itself.
        """
        whole = np.floor(pos)
        idx = whole.astype(np.intp)
        pos -= whole  # position within the interval, in [0, 1)
        coef = self._coef.take(idx, axis=0, mode="clip")
        out = np.multiply(coef[..., 0], pos)
        for k in (1, 2):
            out += coef[..., k]
            out *= pos
        out += coef[..., 3]
        return out

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        pos = t_arr - self.t0
        pos /= self.step
        out = self.lookup(pos)
        if t_arr.size and (t_arr.min() < -self.t_max or t_arr.max() > self.t_max):
            outside = np.abs(t_arr) > self.t_max
            out[outside] = kernel(t_arr[outside], self.gamma, self.h)
        return out if np.ndim(t) else float(out[0])


@dataclass(frozen=True)
class ReconstructionParams:
    """Estimator configuration: bandwidth pair and grid size; the grid spans [-r, r]."""

    r: float
    h: float
    beta: float | None = None
    gamma: float | None = None
    grid_size: int = 201

    def __post_init__(self):
        if self.r <= 0.0 or self.h <= 0.0:
            raise ValueError("r and h must be positive")
        if self.beta is not None and not (0.0 < self.beta < 0.25):
            raise ValueError("beta must lie in (0, 1/4)")
        if self.grid_size < 3 or self.grid_size % 2 == 0:
            raise ValueError("grid_size must be an odd integer >= 3")

    @classmethod
    def for_experiment(cls, n: int, beta: float, noise: NoiseModel,
                       grid_size: int = 201) -> "ReconstructionParams":
        """Parameters with (r, h) from the optimal bandwidth rule."""
        r, h = optimal_bandwidth(n, beta, noise.gamma)
        return cls(r=r, h=h, beta=beta, gamma=noise.gamma, grid_size=grid_size)

    @property
    def extent(self) -> float:
        return self.r

    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.grid_size)


@dataclass
class WignerGrid:
    """Wigner values on a uniform square grid; exactly zero outside the disk radius r.

    values[i, j] = W(q_i, p_j) with both axes running from -extent to extent.
    """

    values: np.ndarray
    extent: float
    r: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("grid values must be square")

    @property
    def grid_size(self) -> int:
        return self.values.shape[0]

    @property
    def cell(self) -> float:
        return 2.0 * self.extent / (self.grid_size - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.grid_size)

    def inside_disk(self) -> np.ndarray:
        return _disk_nodes(self.axis(), self.r)[0]


def _check_gamma(batch: QuadratureBatch, params: ReconstructionParams) -> float:
    g = batch.noise.gamma
    if params.gamma is not None and not math.isclose(params.gamma, g, rel_tol=1e-12, abs_tol=1e-15):
        raise ValueError(
            f"params were derived for gamma={params.gamma!r} but the batch carries gamma={g!r}"
        )
    return g


def _default_table(batch: QuadratureBatch, params: ReconstructionParams, gamma: float) -> KernelTable:
    u_max = float(max(batch.x.max(), -batch.x.min())) / math.sqrt(batch.noise.eta) if batch.n else 0.0
    return KernelTable(gamma, params.h, t_max=params.extent * math.sqrt(2.0) + u_max + 1.0)


# Nodes per block of the direct sum.  A block's offsets and the lookup's
# temporaries (256 x 64 doubles, 128 KB each, 512 KB for the gathered
# coefficients) stay in L2 cache; 1024-node blocks ran about 40 % slower on a
# Xeon with 2 MB of L2 per core.
_NODE_BLOCK = 256


def estimate_at_points(batch: QuadratureBatch, params: ReconstructionParams, q, p,
                       sample_block: int = 64):
    """Raw estimator values (no disk truncation) at arbitrary points.

    Per-sample kernel sums through the batch's `KernelTable` (within
    1e-6 * K(0) of the closed form), with Kahan-compensated accumulation over
    fixed `sample_block`-sample blocks, which makes the result insensitive to
    sample order at the level of rounding noise despite the ~e^{2 gamma/h^2}
    dynamic range.  Offsets are formed in table units, (t - t0) / step, by
    one product per block of 256 node rows [q, p, 1] against per-sample
    columns [cos phi, sin phi, -(u + t0)] / step, then looked up by
    `KernelTable.lookup`; a node block reaching past the table's t_max takes
    the closed form there.  Nodes are summed in fixed, zero-padded blocks, so a
    node's value does not depend on the other points of the call.
    """
    if batch.n == 0:
        raise ValueError("cannot reconstruct from an empty batch")
    table = _default_table(batch, params, _check_gamma(batch, params))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))

    # offset of node (q, p) from sample l in table units: [q, p, 1] @ cols[:, l]
    cols = np.empty((3, batch.n))
    np.cos(batch.phi, out=cols[0])
    np.sin(batch.phi, out=cols[1])
    np.multiply(batch.x, 1.0 / math.sqrt(batch.noise.eta), out=cols[2])  # u
    u_max = float(max(cols[2].max(), -cols[2].min()))
    cols[2] += table.t0
    cols[:2] /= table.step
    cols[2] /= -table.step

    # every product has 256 rows: numpy sends a one-row product to gemv, which
    # rounds differently, so zero rows pad the last node block; only the
    # block's own rows are looked up and summed
    nodes = np.zeros((_NODE_BLOCK, 3))
    nodes[:, 2] = 1.0
    buf = np.empty((_NODE_BLOCK, sample_block))
    out = np.empty(q.size)
    for a in range(0, q.size, _NODE_BLOCK):
        k = min(_NODE_BLOCK, q.size - a)
        nodes[:k, 0], nodes[:k, 1] = q[a:a + k], p[a:a + k]
        nodes[k:, :2] = 0.0
        # |t| <= |(q, p)| + max|u|, which `_default_table` keeps below t_max inside
        # the grid's square, so only a block of farther nodes needs the closed form
        far = np.max(np.hypot(q[a:a + k], p[a:a + k])) + u_max > table.t_max
        sums = np.zeros(k)
        comp = np.zeros(k)
        for lo in range(0, batch.n, sample_block):
            sl = slice(lo, min(lo + sample_block, batch.n))
            pos = np.matmul(nodes, cols[:, sl], out=buf[:, :sl.stop - lo])[:k]
            block = (table(pos * table.step + table.t0) if far else table.lookup(pos)).sum(axis=1)
            y = block - comp
            tot = sums + y
            comp = (tot - sums) - y
            sums = tot
        out[a:a + k] = sums
    return out / batch.n


def _grid_meta(batch: QuadratureBatch, params: ReconstructionParams, method: str, route: str) -> dict:
    """Provenance header of one replicate grid; `route` names the evaluation
    that ran: "direct" (kernel sum), "binned" (lattice + FFT) or "fallback"
    (the direct sum after a failed binned self-check)."""
    return {
        "kind": "replicate",
        "method": method,
        "route": route,
        "n": batch.n,
        "seed": batch.seed,
        "replicate": batch.replicate,
        "alpha1": batch.state.alpha1,
        "alpha2": batch.state.alpha2,
        "eta": batch.noise.eta,
        "beta": params.beta,
        "r": params.r,
        "h": params.h,
        "source_sha256": batch.source_sha256,
    }


def _disk_nodes(ax: np.ndarray, r: float):
    """Mask of the nodes of the square grid on `ax` inside the disk of radius r, and their (q, p)."""
    Q, P = np.meshgrid(ax, ax, indexing="ij")
    mask = Q * Q + P * P <= r * r
    return mask, Q[mask], P[mask]


def reconstruct_exact(batch: QuadratureBatch, params: ReconstructionParams) -> WignerGrid:
    """Authoritative slow path: direct kernel sum at every inside-disk node."""
    mask, qs, ps = _disk_nodes(params.axis(), params.r)
    values = np.zeros(mask.shape)
    values[mask] = estimate_at_points(batch, params, qs, ps)
    return WignerGrid(values, extent=params.extent, r=params.r,
                      meta=_grid_meta(batch, params, "exact", "direct"))


# ---------------------------------------------------------------------------
# fast path: linear binning + FFT correlation + cubic node interpolation
# ---------------------------------------------------------------------------

class _Lattice(NamedTuple):
    """Binned-route lattice: phi_bins phase bins, node offsets s0 + i delta (i < n_s),
    sample offsets u0 + j delta (j < n_u) and the kernel kv at every difference of the two."""

    phi_bins: int
    delta: float
    s0: float
    n_s: int
    u0: float
    n_u: int
    kv: np.ndarray


def _resolution(r: float, h: float) -> tuple[int, int]:
    """Phase bins and node offsets of the binned lattice for radius r and cutoff 1/h.

    Binning errors grow like (r/h * step)^2, so both resolutions scale with
    s = ceil(r / (24 h)) beyond the 512 phase bins and 4096 node offsets they
    were validated at.  s is capped at 4 to bound the lattice's memory; past
    that the self-check falls back to the exact path.
    """
    sharp = max(1, min(4, math.ceil(r / (24.0 * h))))
    return 512 * sharp, 4096 * sharp


def _lattice(batch: QuadratureBatch, params: ReconstructionParams, gamma: float) -> _Lattice:
    """The lattice at `_resolution(r, h)` that covers the grid and every sample offset."""
    phi_bins, n_s = _resolution(params.r, params.h)
    delta = 2.0 * params.r / (n_s - 9)
    s0 = -delta * (n_s - 1) / 2.0

    # max|x| / sqrt(eta) is max|u|, as dividing by sqrt(eta) is monotone
    u_abs_max = max(batch.x.max(), -batch.x.min()) / math.sqrt(batch.noise.eta)
    half_u = math.ceil((u_abs_max + 2.0 * delta) / delta)
    n_u = 2 * half_u + 1
    if (n_u - n_s) % 2:
        n_u += 1
    u0 = -delta * (n_u - 1) / 2.0

    offsets = (s0 - u0) + np.arange(-(n_u - 1), n_s) * delta
    return _Lattice(phi_bins, delta, s0, n_s, u0, n_u, kernel(offsets, gamma, params.h))


# Samples per binning pass and phase rows per FFT block.  The binned field's
# working memory is the lattice, the field and one chunk's shares (2 MiB) or
# one block's transforms (under 1 MiB), whatever n is.  Medians of five at
# n = 4e6 on a 512 x 6974 lattice (2-core Xeon), three runs: `add.at` over
# 2^15-sample chunks took 0.31-0.45 s against 0.42-0.49 s at 2^17, and 8-row
# blocks 0.10-0.13 s against 0.12-0.15 s for the whole lattice at once.
_BIN_CHUNK = 1 << 15
_FFT_ROWS = 8


def _shares(batch: QuadratureBatch, lat: _Lattice, part=slice(None)):
    """Flat lattice indices and weights of the four bilinear shares of each sample in `part`.

    The lattice is (phi-bin, offset-bin), flattened row-major.  Phase
    spreading respects the half-turn identity (phi + pi, u) ~ (phi, -u): a
    share in row -1 or phi_bins re-enters at the opposite edge row with its
    offset column mirrored, i -> n_u - 1 - i (exact, as the offset lattice is
    symmetric about 0), so no first-order error appears at the phase seam.
    """
    n_u, size = lat.n_u, lat.phi_bins * lat.n_u
    pos = batch.phi[part] / (math.pi / lat.phi_bins) - 0.5
    upos = (batch.x[part] / math.sqrt(batch.noise.eta) - lat.u0) / lat.delta
    row, col = np.floor(pos), np.floor(upos)
    w_phi, w_u = pos - row, upos - col  # weights of row + 1 and col + 1
    base = (row * n_u + np.clip(col, 0, n_u - 2)).astype(np.int64)
    flat = base[:, None] + (0, 1, n_u, n_u + 1)
    low, high = np.flatnonzero(row < 0), np.flatnonzero(row == lat.phi_bins - 1)
    flat[low, :2] = (size - 1 - n_u) - flat[low, :2]
    flat[high, 2:] = (size - 1 + n_u) - flat[high, 2:]
    w_phi_lo, w_u_lo = 1.0 - w_phi, 1.0 - w_u
    weight = np.empty((base.size, 4))
    for m, (a, b) in enumerate(((w_phi_lo, w_u_lo), (w_phi_lo, w_u), (w_phi, w_u_lo), (w_phi, w_u))):
        np.multiply(a, b, out=weight[:, m])
    return flat.ravel(), weight.ravel()


def _fast_field(batch: QuadratureBatch, lat: _Lattice):
    """Per-phase-bin kernel response G[k, i] = sum_j counts[k, j] K(s_i - u_j).

    `add.at` sums the shares into counts in sample order, so the field does
    not depend on `_BIN_CHUNK`, nor on `_FFT_ROWS`, as each row transforms alone.
    """
    counts = np.zeros((lat.phi_bins, lat.n_u))
    for lo in range(0, batch.n, _BIN_CHUNK):
        np.add.at(counts.reshape(-1), *_shares(batch, lat, slice(lo, lo + _BIN_CHUNK)))
    # a circular correlation of length >= n_u + n_s - 1 leaves the n_s wanted
    # entries of the full one unaliased
    size = fft.next_fast_len(lat.n_u + lat.n_s - 1, True)
    kv_spectrum = fft.rfft(lat.kv, size)
    out = np.empty((lat.phi_bins, lat.n_s))
    for lo in range(0, lat.phi_bins, _FFT_ROWS):
        spectrum = fft.rfft(counts[lo:lo + _FFT_ROWS], size, axis=1)
        spectrum *= kv_spectrum
        out[lo:lo + _FFT_ROWS] = fft.irfft(spectrum, size, axis=1)[:, lat.n_u - 1:lat.n_u - 1 + lat.n_s]
    return out


def _interp_grid(g_field, ax, mask, lat: _Lattice):
    """Per-phase-bin responses summed at node offsets s = q cos + p sin, on the grid `ax` x `ax`.

    Nonzero only on `mask`.  Two identities of the offset serve all four
    mirror images of a node from one quadrant: s(-q, -p, phi) = -s(q, p, phi),
    which maps lattice entry i to n_s - 1 - i (the lattice is symmetric about
    0), and s(q, p, pi - phi) = s(-q, p, phi), which pairs phase bin k with
    K - 1 - k (K = phi_bins, which is even).  So for each bin pair the
    Catmull-Rom weights at the quadrant nodes (q, p >= 0) and at (-q, p)
    gather from the rows G[k], G[k, ::-1], G[K-1-k] and G[K-1-k, ::-1]: two
    weight computations serve eight (node, bin) terms.  The images sit at -q
    and -p, which lie within 1 ulp of `linspace`'s negative half-axis.
    """
    bins, c = lat.phi_bins, ax.size // 2
    images = (np.s_[c:, c:], np.s_[c::-1, c::-1], np.s_[c::-1, c:], np.s_[c:, c::-1])
    quadrant = np.logical_or.reduce([mask[im] for im in images])
    Q, P = np.meshgrid(ax[c:], ax[c:], indexing="ij")
    q, p = Q[quadrant], P[quadrant]
    # acc[0] holds the images (q, p), (-q, -p), (-q, p), (q, -p) in the order of
    # `images`; acc[1], from the weights at (-q, p), holds them in the order 2, 3, 0, 1
    acc = np.zeros((2, 4, q.size))
    rows, gathered = np.empty((4, lat.n_s)), np.empty((4, q.size))
    for k in range(bins // 2):
        phi = (k + 0.5) * math.pi / bins
        rows[0], rows[2] = g_field[k], g_field[bins - 1 - k]
        rows[1], rows[3] = rows[0, ::-1], rows[2, ::-1]
        for a, q_image in zip(acc, (q, -q)):
            i1, w = _catmull_rom((q_image * math.cos(phi) + p * math.sin(phi) - lat.s0) / lat.delta)
            for m in range(4):
                rows.take(i1 + (m - 1), axis=1, out=gathered)
                gathered *= w[m]
                a += gathered
    out = np.zeros(mask.shape)
    for im, v in zip(images, acc[0] + acc[1][[2, 3, 0, 1]]):
        out[im][quadrant] = v
    out[~mask] = 0.0
    return out


def _catmull_rom(pos: np.ndarray):
    """Lattice index i1 = floor(pos) and the Catmull-Rom weights of rows i1 - 1 .. i1 + 2."""
    i1 = pos.astype(np.int64)
    tau = pos - i1
    return i1, (tau * ((2.0 - tau) * tau - 1.0) * 0.5,
                (tau * tau * (3.0 * tau - 5.0) + 2.0) * 0.5,
                tau * ((4.0 - 3.0 * tau) * tau + 1.0) * 0.5,
                tau * tau * (tau - 1.0) * 0.5)


def _probe_sums(batch: QuadratureBatch, lat: _Lattice, qs, ps):
    """`_interp_grid(_fast_field(batch, lat), ...)` at a few nodes (qs, ps), without the FFT.

    The field is linear in the lattice counts, G[k, i] = sum_j counts[k, j]
    kv[i - j + n_u - 1], so each occupied cell (k, j), at most four per
    sample, is summed directly against the on-grid kernel values with the
    Catmull-Rom weights of its phase bin.
    """
    flat, weight = _shares(batch, lat)
    cells, slot = np.unique(flat, return_inverse=True)
    counts = np.bincount(slot, weights=weight)
    k, j = np.divmod(cells, lat.n_u)
    phi_k = (k + 0.5) * (math.pi / lat.phi_bins)
    i1, w = _catmull_rom((qs[:, None] * np.cos(phi_k) + ps[:, None] * np.sin(phi_k) - lat.s0) / lat.delta)
    base = i1 + (lat.n_u - 2) - j  # kv index of G[k, i1 - 1]
    return sum(w[m] * lat.kv[base + m] for m in range(4)) @ counts


# n * inside-disk nodes at and below which `reconstruct_fast` runs the direct
# sum.  The binned route costs ~0.2 s plus ~8 us per node for interpolation and
# the direct sum ~12 ns per sample and node, so the crossover grows with the
# grid: medians of five on a 2-core Xeon put it at 2.0e7-2.25e7 on a 41^2 grid
# (set by the self-check's whole-batch probe sums up to n = 16384),
# 2.25e7-2.5e7 on 101^2 and 3.5e7-4.0e7 on 201^2; 2e7 sits at the lower edge
# of that band.
_DIRECT_LIMIT = 20_000_000


def reconstruct_fast(batch: QuadratureBatch, params: ReconstructionParams,
                     self_check: bool = True) -> WignerGrid:
    """Accelerated estimator: identical contract to `reconstruct_exact` within
    a nodewise tolerance of 1e-3 * max|grid| at the lattice resolutions.

    Large workloads run the binned route: samples are spread linearly onto a
    (phase x offset) lattice, each phase bin becomes one FFT correlation
    against an on-grid kernel table, and grid nodes interpolate the result.
    A subsample self-check compares that against the direct evaluation and
    falls back to the exact path (with a warning) if the resolutions cannot
    meet the tolerance.  Up to `_DIRECT_LIMIT` (n * inside-disk nodes) the
    direct table-backed sum is cheaper than building the lattice, so small
    workloads route there.  The grid meta's `route` records which ran:
    "direct", "binned" or "fallback".
    """
    if batch.n == 0:
        raise ValueError("cannot reconstruct from an empty batch")
    gamma = _check_gamma(batch, params)

    mask, qs, ps = _disk_nodes(params.axis(), params.r)
    if batch.n * qs.size <= _DIRECT_LIMIT:
        grid = reconstruct_exact(batch, params)
        grid.meta["method"] = "fast"
        return grid

    lat = _lattice(batch, params, gamma)
    values = _interp_grid(_fast_field(batch, lat), params.axis(), mask, lat) / batch.n

    if self_check and not _fast_self_check(batch, params, lat, qs, ps, values):
        warnings.warn(
            "fast-path binning resolutions failed the subsample accuracy self-check; "
            "falling back to the exact path", RuntimeWarning)
        grid = reconstruct_exact(batch, params)
        grid.meta["route"] = "fallback"
        return grid

    return WignerGrid(values, extent=params.extent, r=params.r,
                      meta=_grid_meta(batch, params, "fast", "binned"))


# Self-check tolerance relative to max|grid|, subsample size and probe-node count.
_CHECK_TOL = 1e-3
_CHECK_SAMPLES = 2048
_CHECK_PROBES = 24


def _fast_self_check(batch, params, lat: _Lattice, qs, ps, fast_values) -> bool:
    """Compare the binned evaluation against the direct kernel sum at probe nodes.

    Both sums run over the same m samples: the whole batch when n <= 8 * 2048,
    else a subsample of m = 2048, with the tolerance widened by sqrt(n / m).
    Per-sample binning errors are oscillatory, so their full-batch average is
    no larger than the subsample average, while systematic components sit far
    below tolerance by construction.  `fast_values` sets the scale, max|grid|.
    """
    scale = np.max(np.abs(fast_values))  # max|grid|, as the grid is zero outside the disk
    if scale == 0.0:
        return True
    rng = np.random.default_rng(618)
    probe = rng.choice(qs.size, size=min(_CHECK_PROBES, qs.size), replace=False)
    pq, pp = qs[probe], ps[probe]
    sub = batch
    if batch.n > 8 * _CHECK_SAMPLES:
        sub_idx = rng.choice(batch.n, size=_CHECK_SAMPLES, replace=False)
        sub = QuadratureBatch(batch.x[sub_idx], batch.phi[sub_idx], batch.state, batch.noise,
                              seed=batch.seed, replicate=batch.replicate)
    binned = _probe_sums(sub, lat, pq, pp) / sub.n
    budget = _CHECK_TOL * scale * math.sqrt(batch.n / sub.n)
    return bool(np.max(np.abs(binned - estimate_at_points(sub, params, pq, pp))) <= budget)


# ---------------------------------------------------------------------------
# deterministic mean oracle
# ---------------------------------------------------------------------------

@functools.cache
def _leggauss(n: int):
    """Read-only Gauss-Legendre nodes and weights of order n, computed once per order."""
    nodes, weights = leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def estimator_mean_oracle(state: CatState, params: ReconstructionParams, q, p):
    """Exact expectation of the (untruncated-disk) estimator at points x = (q, p).

    E[W] is W with its spectrum cut to |w| <= c = 1/h (Butucea, Guta & Artiles
    2007), independent of n and eta.  F[W] is three Gaussians, so the angular
    integral is a Bessel function.  With a = (alpha1, alpha2),
    w0 = 2 sqrt2 (alpha2, alpha1), kappa = e^{-2|alpha|^2} and
    v = |w0|^2/4 - |x|^2 + i w0.x,

        E[W](x) = Int_0^c rho e^{-rho^2/4} [e^{-|w0|^2/4} 2 Re I0(rho sqrt(v))
                  + J0(rho |x + sqrt2 a|) + J0(rho |x - sqrt2 a|)] d rho / (4 pi (1 + kappa)).

    Gauss-Legendre panels (32 nodes per 0.5) run to min(c, |w0| + 16), past
    which the integrand is below e^{-64}.  I0 comes from `ive`, scaled by
    e^{-|Re z|} <= e^{-rho |w0| / 2}, which the Gaussians absorb, so no |alpha|
    or c overflows.  Points must lie inside the disk of radius r; q and p
    broadcast against each other, and the result takes their shape.
    """
    shape = np.broadcast_shapes(np.shape(q), np.shape(p))
    q = np.broadcast_to(np.asarray(q, dtype=float), shape).ravel()
    p = np.broadcast_to(np.asarray(p, dtype=float), shape).ravel()
    if np.any(q * q + p * p > params.r ** 2 * (1.0 + 1e-12)):
        raise ValueError("oracle points must lie inside the truncation disk")

    m1, m2 = math.sqrt(2.0) * state.alpha1, math.sqrt(2.0) * state.alpha2  # sqrt2 a; w0 = 2 (m2, m1)
    v0 = 2.0 * state.abs_alpha_sq  # |w0|^2 / 4
    rho_hi = min(1.0 / params.h, 2.0 * math.sqrt(v0) + 16.0)
    n_panels = max(4, int(math.ceil(rho_hi / 0.5)))
    edges = np.linspace(0.0, rho_hi, n_panels + 1)
    gl_x, gl_w = _leggauss(32)
    rho = (0.5 * (edges[1:] + edges[:-1])[:, None] + 0.5 * (edges[1:] - edges[:-1])[:, None] * gl_x).ravel()
    rho_w = (0.5 * (edges[1:] - edges[:-1])[:, None] * gl_w).ravel()
    rho_w *= rho / (4.0 * math.pi * (1.0 + state.overlap))
    damp = np.exp(-rho * rho / 4.0)

    out = np.empty(q.size)
    block = 1024  # nodes per block, bounding the (nodes x radii) temporaries
    for lo in range(0, q.size, block):
        qb, pb = q[lo:lo + block, None], p[lo:lo + block, None]
        z = rho * np.sqrt(v0 - qb * qb - pb * pb + 2j * (m2 * qb + m1 * pb))
        ridge = 2.0 * ive(0, z).real * np.exp(np.abs(z.real) - rho * rho / 4.0 - v0)
        lobes = j0(rho * np.hypot(qb + m1, pb + m2)) + j0(rho * np.hypot(qb - m1, pb - m2))
        out[lo:lo + qb.size] = (ridge + lobes * damp) @ rho_w
    return float(out[0]) if shape == () else out.reshape(shape)


def mean_grid(grids: list[WignerGrid]) -> WignerGrid:
    """Nodewise mean of replicate grids (the averaged reconstruction).

    The average's meta lists the replicates' routes in `routes`, in order.
    """
    if not grids:
        raise ValueError("no grids to average")
    first = grids[0]
    for g in grids[1:]:
        if g.grid_size != first.grid_size or not math.isclose(g.extent, first.extent):
            raise ValueError("grids must share geometry to be averaged")
    values = np.mean([g.values for g in grids], axis=0)
    meta = dict(first.meta)
    meta["kind"] = "average"
    meta["replicates"] = len(grids)
    meta["source_sha256"] = sorted(filter(None, (g.meta.get("source_sha256") for g in grids))) or None
    meta.pop("replicate", None)
    meta.pop("route", None)
    meta["routes"] = [g.meta.get("route") for g in grids]
    return WignerGrid(values, extent=first.extent, r=first.r, meta=meta)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def write_grid(grid: WignerGrid, path: str) -> None:
    """JSON header + row-major little-endian float64 payload, written atomically."""
    header = dict(grid.meta)
    header.update({"grid_size": grid.grid_size, "extent": grid.extent, "r": grid.r})
    _write_framed(path, GRID_MAGIC, header, [grid.values])


def read_grid(path: str) -> WignerGrid:
    header, payload = _read_framed(path, GRID_MAGIC, "Wigner grid", ("grid_size", "extent", "r"))
    size = int(header["grid_size"])
    if payload.size != size * size:
        raise ValueError(f"{path}: payload/header size mismatch")
    meta = {k: v for k, v in header.items() if k not in ("schema", "grid_size", "extent", "r")}
    return WignerGrid(payload.reshape(size, size), extent=float(header["extent"]),
                      r=float(header["r"]), meta=meta)


def grid_to_csv(grid: WignerGrid, path: str) -> None:
    """Plot-ready export: `q,p,w` rows with 17 significant digits."""
    ax = grid.axis()
    lines = ["q,p,w"]
    for i, qv in enumerate(ax):
        for j, pv in enumerate(ax):
            lines.append(f"{qv:.17g},{pv:.17g},{grid.values[i, j]:.17g}")
    _atomic_bytes(path, [("\n".join(lines) + "\n").encode("utf-8")])
