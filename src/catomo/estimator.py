"""Kernel-deconvolution Wigner estimator with frequency cutoff and disk truncation.

The reconstruction at a phase-space point (q, p) is the sample average

    W(q, p) = (1/n) sum_l K(q cos(phi_l) + p sin(phi_l) - x_l / sqrt(eta))

set to zero outside the disk q^2 + p^2 > r^2.  The kernel is the real, even
frequency integral

    K(t) = (1/2 pi) Integral_0^{1/h} xi e^{gamma xi^2} cos(xi t) d xi,

whose e^{gamma xi^2} factor undoes the Gaussian detection noise while the
cutoff 1/h keeps it finite; r and h follow the bandwidth rule
r = 1/h = sqrt(ln n / (beta + 2 gamma)).  `kernel` evaluates it by
composite Gauss-Legendre quadrature, on panels sized from t so that the
quadrature error sits far below rounding; `KernelTable` tabulates it in local
cubics at a step fixed in advance, within 1e-6 K(0), and every direct kernel
sum (`estimate_at_points`) goes through the table.  The module needs numpy
alone.

Two evaluation routes are provided, one per path.  `reconstruct_exact`
sums the kernel per sample and per node with compensated accumulation (the
authoritative slow path).  `reconstruct_fast` spreads samples onto a
(phase x offset) lattice, quadratically over three phase bins and linearly
over two offset bins, turns each phase bin into a 1-D FFT correlation
against kernel values at the lattice offsets (`numpy.fft`), and maps grid nodes
through linear interpolation, whose weights at one quadrant of nodes serve all
four mirror images of it (`_interp_grid`) and whose error the cutoff bounds
(`_resolution`); a self-check against the direct sum at a few nodes raises
`RuntimeError`, pointing to the exact path, if the lattice is too coarse.  A
`BinnedBatch` bins a batch once for a set of parameters: one lattice, set
by their largest radius and cutoff, serves every member's grid, each with
its own kernel values, and one self-check sample serves every member's
check.  Both routes are linear in the samples and take them in sample
order, block by block, so both also take a batch file that is never held
whole: the `reconstruct` stage scans the file once (validation, hash,
max|x|), then the binned route bins it in a second read, which also
gathers the self-check's sample, and the direct route reads it again for
each grid.  A deterministic mean-value oracle (the exact expectation of the
estimator, W with its spectrum cut to the disk |w| <= 1/h, by a Gauss-Legendre
rule on that disk whose node count a bound sets) supports bias tests without
Monte Carlo.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .sampling import ConfigError, QuadratureBatch, _atomic_bytes, _frame_head, _read_header
from .states import CatState, NoiseModel, wigner_fourier

__all__ = [
    "optimal_bandwidth",
    "kernel",
    "KernelTable",
    "ReconstructionParams",
    "WignerGrid",
    "estimate_at_points",
    "reconstruct_exact",
    "reconstruct_fast",
    "BinnedBatch",
    "estimator_mean_oracle",
    "mean_grid",
    "write_grid",
    "read_grid",
    "grid_to_csv",
    "GRID_MAGIC",
]

GRID_MAGIC = b"CATWG1\n"
_ROUTE = {"exact": "direct", "fast": "binned"}  # the evaluation each path runs, a grid's `route`

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


@functools.cache
def _leggauss(n: int):
    """Read-only Gauss-Legendre nodes and weights of order n, computed once per order."""
    nodes, weights = leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# Gauss-Legendre nodes per panel of the kernel integral, and the bound on
# c (|t| + 2 gamma c) / m that sets the number m of panels for offset t.
_PANEL_NODES = 32
_PANEL_PHASE = 40.0

# Entries of one (offsets x nodes) block of integrand values, 512 KB, which
# bounds `kernel`'s working memory whatever the number of offsets.
_KERNEL_BLOCK = 1 << 16


def kernel(t, gamma: float, h: float):
    """Deconvolution kernel K(t) = (1/2 pi) Int_0^{1/h} xi e^{gamma xi^2} cos(xi t) dxi.

    Composite Gauss-Legendre quadrature of that integral, the one route for
    every t.  With c = 1/h, the offset t takes m = ceil(c (|t| + 2 gamma c) / 40)
    equal panels of 32 nodes on [0, c].  On a panel of half-width H, a rule
    of n + 1 nodes errs by at most H (64/15) M rho^{-2n} / (rho^2 - 1), where M
    bounds the integrand on the Bernstein ellipse E_rho of the panel
    (Trefethen, Approximation Theory and Approximation Practice, Thm 19.3).
    On E_4, as H <= c/2 and H (|t| + 2 gamma c) <= 20, |xi| <= 2.5 c and
    |e^{gamma xi^2} cos(xi t)| <= e^{gamma c^2 + 37.5}, so the m panels
    together err by less than 7e-22 (1 + gamma c^2) K(0), and rounding sets
    the accuracy.  Every weight is positive, so the terms sum in magnitude to
    K(0) = (e^{gamma/h^2} - 1) / (4 pi gamma).  The integrand is formed as
    e^{gamma c^2} e^{-gamma (c - xi)(c + xi)} cos(c|t| - (c - xi)|t|), so the
    nodes near xi = c, which carry the weight when gamma c^2 is large, round
    gamma c^2 and c|t| once each.  Against the Faddeeva closed form of
    Butucea, Guta & Artiles (2007), over gamma c^2 <= 60 or = 699, c <= 30
    and |t| <= 40, the two agree within 6e-14 K(0).

    Each distinct |t| is evaluated once, from its own panels, and each row of
    integrand values is summed on its own, so a value does not depend on the
    other offsets of the call.  Even in t.  Rejects non-finite t, and
    gamma/h^2 > 700 (float64 overflow).
    """
    if h <= 0.0:
        raise ValueError("bandwidth h must be positive")
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    if gamma / (h * h) > _EXP_LIMIT:
        raise OverflowError(f"gamma/h^2 = {gamma / (h * h):.1f} exceeds the overflow threshold {_EXP_LIMIT:g}")
    c = 1.0 / h
    t_abs, inverse = np.unique(np.abs(np.asarray(t, dtype=float)).ravel(), return_inverse=True)
    if t_abs.size and not np.isfinite(t_abs[-1]):  # unique sorts inf and NaN last
        raise ValueError("kernel offsets must be finite")
    panels = np.maximum(1.0, np.ceil(c * (t_abs + 2.0 * gamma * c) / _PANEL_PHASE)).astype(np.intp)
    gl_x, gl_w = _leggauss(_PANEL_NODES)
    values = np.empty(t_abs.size)
    for m in np.unique(panels):
        half = 0.5 * c / m
        centre = 2.0 * np.arange(m) + 1.0
        xi = (centre[:, None] + gl_x).ravel() * half
        gap = (centre[::-1, None] - gl_x).ravel() * half  # c - xi
        weight = np.tile(gl_w, m) * (half / (2.0 * math.pi)) * xi * np.exp(-gamma * gap * (c + xi))
        first, stop = np.searchsorted(panels, (m, m + 1))
        rows = max(1, _KERNEL_BLOCK // xi.size)
        for lo in range(first, stop, rows):
            t_block = t_abs[lo:min(lo + rows, stop)]
            block = np.multiply.outer(t_block, gap)
            np.subtract((c * t_block)[:, None], block, out=block)
            np.cos(block, out=block)
            block *= weight
            values[lo:lo + t_block.size] = block.sum(axis=1)
    out = values[inverse] * math.exp(gamma * c * c)
    return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


_TABLE_TOL = 1e-6


class KernelTable:
    """Uniform-grid local-cubic lookup for the kernel at fixed (gamma, h).

    The nodes are the integer multiples of the step out to the second one
    past t_max on each side, so the table is symmetric about 0.  Between nodes
    i and i + 1 it is the cubic through the kernel at nodes i - 1 .. i + 2,
    which is within (3/128) step^4 max|K''''| of K.  Since
    |K''''| <= (1/2 pi) Int_0^c xi^5 e^{gamma xi^2} dxi <= c^4 K(0) with
    c = 1/h, the step (128/3 * 1e-6)^(1/4) h, about 0.081 h, keeps the error
    below 1e-6 * K(0) for every gamma and h; the table refuses to build if
    random offsets say otherwise.  Offsets beyond t_max fall back to direct
    kernel evaluation.  A lookup (`lookup`, in table units (t - t0) / step) is
    one gather of an interval's four coefficients, in powers of the position
    within the interval, and a Horner evaluation; on a 256 x 64 block it costs
    about a hundredth of a `kernel` evaluation of distinct offsets (about 100 M
    against 1 M evaluations/s on one core of a 2-core Xeon), which the ~1e8
    scattered evaluations of a direct reconstruction need.
    """

    def __init__(self, gamma: float, h: float, t_max: float):
        self.gamma = float(gamma)
        self.h = float(h)
        self.t_max = float(t_max)
        self.k0 = float(kernel(0.0, gamma, h))
        self.step = (128.0 / 3.0 * _TABLE_TOL) ** 0.25 * self.h
        half = math.floor(self.t_max / self.step) + 2
        y = kernel(self.step * np.arange(-half, half + 1), self.gamma, self.h)
        self.t0 = (1 - half) * self.step  # left node of the first interval
        # the cubic through y[i - 1 .. i + 2] from the differences d, in powers of (t - t_i) / step
        d = np.diff(y)
        c2 = 0.5 * (d[1:-1] - d[:-2])
        c3 = (d[2:] - 2.0 * d[1:-1] + d[:-2]) / 6.0
        self._coef = np.stack([c3, c2, d[1:-1] - c2 - c3, y[1:-2]], axis=1)
        if self._max_check_error() > _TABLE_TOL * abs(self.k0):
            raise RuntimeError("kernel table failed to reach interpolation tolerance")

    def _max_check_error(self) -> float:
        probe = np.random.default_rng(1234).uniform(-self.t_max, self.t_max, 257)
        return float(np.max(np.abs(self(probe) - kernel(probe, self.gamma, self.h))))

    def lookup(self, pos: np.ndarray) -> np.ndarray:
        """Table values at positions pos = (t - t0) / step, overwriting `pos`.

        Interval floor(pos)'s cubic, in powers of pos - floor(pos), by Horner.
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
    u_max = batch.x_abs_max / math.sqrt(batch.noise.eta)
    return KernelTable(gamma, params.h, t_max=params.extent * math.sqrt(2.0) + u_max + 1.0)


# Nodes per block of the direct sum.  A block's offsets and the lookup's
# temporaries (256 x 64 doubles, 128 KB each, 512 KB for the gathered
# coefficients) stay in L2 cache; 1024-node blocks ran about 40 % slower on a
# Xeon with 2 MB of L2 per core.
_NODE_BLOCK = 256


def estimate_at_points(batch, params: ReconstructionParams, q, p, sample_block: int = 64):
    """Raw estimator values (no disk truncation) at arbitrary points.

    Per-sample kernel sums through the batch's `KernelTable` (within
    1e-6 * K(0) of `kernel`), with Kahan-compensated accumulation over
    fixed `sample_block`-sample blocks, which makes the result insensitive to
    sample order at the level of rounding noise despite the ~e^{2 gamma/h^2}
    dynamic range.  Offsets are formed in table units, (t - t0) / step, by
    one product per block of up to 256 node rows [q, p, 1], zero-padded to a
    multiple of 16, against per-sample columns [cos phi, sin phi, -(u + t0)] / step,
    then looked up by `KernelTable.lookup`; in a node block reaching past the
    table's t_max, the offsets beyond it take `kernel` instead.  A node's
    value does not depend on the other points of the call.  q and p
    broadcast against each other; the result is flat, one value per
    broadcast point.

    `batch` is a `QuadratureBatch` or a scanned batch file
    (`sampling._BatchFile`): its samples are read by `blocks(size)`, each
    block the most whole `sample_block`s within `_BIN_CHUNK` samples (one if
    a sample block is larger), and each node keeps its compensated sum across
    them, so the batch is never held whole and the sum is the same for
    either source.
    """
    if batch.n == 0:
        raise ValueError("cannot reconstruct from an empty batch")
    table = _default_table(batch, params, _check_gamma(batch, params))
    shape = np.broadcast_shapes(np.shape(q), np.shape(p))
    q = np.broadcast_to(np.asarray(q, dtype=float), shape).ravel()
    p = np.broadcast_to(np.asarray(p, dtype=float), shape).ravel()

    # numpy sends a one-row product to gemv, which rounds differently, so zero
    # rows pad the last block to a multiple of 16; each row then rounds as in a full block
    nodes = np.zeros((-(-q.size // 16) * 16, 3))
    nodes[:q.size, 0], nodes[:q.size, 1], nodes[:, 2] = q, p, 1.0
    # max|x| (1/sqrt(eta)) is max|u| = max|x (1/sqrt(eta))|, as rounding is monotone
    u_max = batch.x_abs_max * (1.0 / math.sqrt(batch.noise.eta))
    size = sample_block * max(1, _BIN_CHUNK // sample_block)
    cols = np.empty((3, min(size, batch.n)))
    buf = np.empty((_NODE_BLOCK, sample_block))
    sums, comp = np.zeros(q.size), np.zeros(q.size)
    for x, phi in batch.blocks(size):
        # offset of node (q, p) from sample l in table units: [q, p, 1] @ col[:, l]
        col = cols[:, :x.size]
        np.cos(phi, out=col[0])
        np.sin(phi, out=col[1])
        np.multiply(x, 1.0 / math.sqrt(batch.noise.eta), out=col[2])  # u
        col[2] += table.t0
        col[:2] /= table.step
        col[2] /= -table.step
        for a in range(0, q.size, _NODE_BLOCK):
            k = min(_NODE_BLOCK, q.size - a)
            rows = nodes[a:a + -(-k // 16) * 16]
            # |t| <= |(q, p)| + max|u|, which `_default_table` keeps below t_max inside
            # the grid's square, so only a block of farther nodes needs `kernel` itself
            far = np.max(np.hypot(q[a:a + k], p[a:a + k])) + u_max > table.t_max
            s, c = sums[a:a + k], comp[a:a + k]
            for lo in range(0, x.size, sample_block):
                hi = min(lo + sample_block, x.size)
                pos = np.matmul(rows, col[:, lo:hi], out=buf[:len(rows), :hi - lo])[:k]
                t = pos * table.step + table.t0 if far else None
                values = table.lookup(pos)
                if far:
                    outside = np.abs(t) > table.t_max
                    values[outside] = kernel(t[outside], table.gamma, table.h)
                block = values.sum(axis=1)
                y = block - c
                tot = s + y
                c = (tot - s) - y
                s = tot
            sums[a:a + k], comp[a:a + k] = s, c
    return sums / batch.n


def _grid_meta(batch: QuadratureBatch, params: ReconstructionParams, method: str) -> dict:
    """Provenance header of one replicate grid; `route` names the evaluation
    that ran, which the path fixes: "direct" (kernel sum) for the exact path,
    "binned" (lattice + FFT) for the fast one."""
    return {
        "kind": "replicate",
        "method": method,
        "route": _ROUTE[method],
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


def reconstruct_exact(batch, params: ReconstructionParams) -> WignerGrid:
    """Authoritative slow path: direct kernel sum at every inside-disk node.

    `batch` is a `QuadratureBatch` or a scanned batch file, which
    `estimate_at_points` reads in blocks.
    """
    mask, qs, ps = _disk_nodes(params.axis(), params.r)
    values = np.zeros(mask.shape)
    values[mask] = estimate_at_points(batch, params, qs, ps)
    return WignerGrid(values, extent=params.extent, r=params.r,
                      meta=_grid_meta(batch, params, "exact"))


# ---------------------------------------------------------------------------
# fast path: quadratic x linear binning + FFT correlation + linear node interpolation
# ---------------------------------------------------------------------------

class _Lattice(NamedTuple):
    """Binned-route lattice: phi_bins phase bins, node offsets s0 + i delta (i < n_s)
    and sample offsets u0 + j delta (j < n_u)."""

    phi_bins: int
    delta: float
    s0: float
    n_s: int
    u0: float
    n_u: int


def _resolution(r: float, h: float) -> tuple[int, int]:
    """Phase bins and node offsets of the binned lattice for radius r and cutoff c = 1/h.

    The lattice has 256 min(8, s) phase bins and 2048 min(4, s) node offsets,
    s = ceil(r c / 24); the caps bound its memory (past them the self-check may
    refuse the grid; the exact path serves it).  A sample's response at a node,
    K(q cos phi + p sin phi - u), changes in phi through the offset alone, of
    phi-derivative at most r, so each phi-derivative brings down at most r c
    to leading order.  Quadratic spreading over the nearest three phase bins
    (`_shares`), of step dphi = pi / phi_bins, is then within
    dphi^3 / (9 sqrt 3) max|d^3/dphi^3| <= (dphi r c)^3 / (9 sqrt 3) <= 1.7e-3
    of the response's maximum, as dphi r c <= 24 pi / 256 below the phase cap.
    Below the offset cap the spacing delta = 2 r / (2048 s - 9) keeps
    c delta <= 48/2039, so linear interpolation of a phase row, band-limited
    to c, is within (c delta)^2 / 8 <= 7e-5 of its maximum (Bernstein's
    inequality).
    A set of parameters shares the lattice of r = r_max and c = c_max, the
    largest radius and cutoff among its members: every member, of r <= r_max
    and c <= c_max, then has c delta <= 48/2039 and r c <= 24 s below the caps.
    """
    sharp = max(1, math.ceil(r / (24.0 * h)))
    return 256 * min(8, sharp), 2048 * min(4, sharp)


def _geometry(batch, members) -> _Lattice:
    """The lattice at `_resolution(r_max, 1 / c_max)` of the parameter set `members`
    that covers every member's grid and every sample offset of `batch` (a
    `QuadratureBatch` or a scanned batch file)."""
    r = max(p.r for p in members)
    phi_bins, n_s = _resolution(r, min(p.h for p in members))
    delta = 2.0 * r / (n_s - 9)
    s0 = -delta * (n_s - 1) / 2.0

    # max|x| / sqrt(eta) is max|u|, as dividing by sqrt(eta) is monotone
    u_abs_max = batch.x_abs_max / math.sqrt(batch.noise.eta)
    half_u = math.ceil((u_abs_max + 2.0 * delta) / delta)
    n_u = 2 * half_u + 1
    if (n_u - n_s) % 2:
        n_u += 1
    u0 = -delta * (n_u - 1) / 2.0
    return _Lattice(phi_bins, delta, s0, n_s, u0, n_u)


# Samples per binning pass and phase rows per FFT block.  The binned field's
# working memory is the lattice, the field and one block's shares (384 KiB)
# or one FFT block's transforms (under 1 MiB), whatever n is.  A block's
# temporaries stay near glibc's 128 KiB mmap threshold: with four shares per
# sample the one pass over a batch file at n = 1.6e7 took 0.92-1.25 s in a
# fresh process with 2^12-sample blocks, against 1.54-2.40 s with 2^13-2^15,
# whose 256 KiB-1 MiB share arrays were mapped afresh for every block
# (1.4-1.6 M page faults against 10 k; 2-core Xeon, two runs of three).  With
# six shares, 192 KiB per array, a fresh `reconstruct` of both betas at that
# n made 11 k page faults in all.  8-row FFT blocks took 0.10-0.13 s against
# 0.12-0.15 s for a 512 x 6974 lattice at once.
_BIN_CHUNK = 1 << 12
_FFT_ROWS = 8


def _shares(x, phi, eta: float, lat: _Lattice):
    """Flat lattice indices and weights of the six shares of each sample
    (x, phi) at efficiency eta, sample by sample.

    In phase a sample spreads onto its nearest bin k and onto k -+ 1 with
    the quadratic Lagrange weights of f = pos - k in [-1/2, 1/2]; in offset
    onto the two bins on either side of it with linear weights.  The indices
    run row-major over the (phi-bin, offset-bin) lattice with a ghost row
    beyond each end of the phase range: rows -1 to phi_bins + 1 (phi = pi
    rounds to row phi_bins, so its third tap is row phi_bins + 1), flattened
    from row -1.  `_bin_counts` folds the ghost rows back.
    """
    n_u = lat.n_u
    pos = phi / (math.pi / lat.phi_bins) - 0.5
    upos = (x / math.sqrt(eta) - lat.u0) / lat.delta
    row, col = np.rint(pos), np.floor(upos)
    f, w_u = pos - row, upos - col  # f in [-1/2, 1/2]; w_u the weight of col + 1
    base = (row * n_u + np.clip(col, 0, n_u - 2)).astype(np.int64)  # cell (k - 1, col), rows from -1
    flat = np.empty((base.size, 6), np.int64)
    for m, step in enumerate((0, 1, n_u, n_u + 1, 2 * n_u, 2 * n_u + 1)):
        np.add(base, step, out=flat[:, m])
    half_f = 0.5 * f
    w_phi = (half_f * (f - 1.0), 1.0 - f * f, half_f * (f + 1.0))  # rows k - 1, k, k + 1
    w_u_lo = 1.0 - w_u
    weight = np.empty((base.size, 6))
    for m, a in enumerate(w_phi):
        np.multiply(a, w_u_lo, out=weight[:, 2 * m])
        np.multiply(a, w_u, out=weight[:, 2 * m + 1])
    return flat.ravel(), weight.ravel()


def _bin_counts(batch, lat: _Lattice, wanted: np.ndarray):
    """Lattice counts[k, j] of `batch`, and the (x, phi) rows of its samples
    at the sorted indices `wanted` (a `BinnedBatch`'s self-check sample),
    from one pass over its blocks.

    The shares are summed by `add.at` in sample order, one block of
    `_BIN_CHUNK` samples per call, so no bit depends on the blocks.  `batch`
    is a `QuadratureBatch` or a scanned batch file: anything whose
    `blocks(size)` yields its samples in order.  Phase spreading respects the
    half-turn identity (phi + pi, u) ~ (phi, -u): after the pass the ghost
    rows -1, phi_bins and phi_bins + 1 of `_shares` are added to rows
    phi_bins - 1, 0 and 1 with their offset columns mirrored,
    j -> n_u - 1 - j (exact, as the offset lattice is symmetric about 0), so
    no error appears at the phase seam.
    """
    bins = lat.phi_bins
    counts = np.zeros((bins + 3, lat.n_u))  # rows -1 to bins + 1
    picked = np.empty((2, wanted.size))
    lo = 0
    for x, phi in batch.blocks(_BIN_CHUNK):
        np.add.at(counts.reshape(-1), *_shares(x, phi, batch.noise.eta, lat))
        a, b = np.searchsorted(wanted, (lo, lo + x.size))
        picked[0, a:b], picked[1, a:b] = x[wanted[a:b] - lo], phi[wanted[a:b] - lo]
        lo += x.size
    for ghost, row in ((0, bins), (bins + 1, 1), (bins + 2, 2)):
        counts[row] += counts[ghost, ::-1]
    return counts[1:bins + 1], picked


def _fast_field(counts: np.ndarray, lat: _Lattice, kv: np.ndarray):
    """Per-phase-bin kernel response G[k, i] = sum_j counts[k, j] K(s_i - u_j),
    from the kernel values kv[i - j + n_u - 1] = K(s_i - u_j).

    Each phase row transforms alone, so the field does not depend on `_FFT_ROWS`.
    """
    # a circular correlation of length >= n_u + n_s - 1 leaves the n_s wanted
    # entries of the full one unaliased
    size = _next_fast_len(lat.n_u + lat.n_s - 1)
    kv_spectrum = np.fft.rfft(kv, size)
    out = np.empty((lat.phi_bins, lat.n_s))
    # rows zero-padded to `size` in place: numpy.fft pads a short input by a
    # slower copy of its own (8 ms more per 512 x 5625 field on a 2-core Xeon)
    padded = np.zeros((_FFT_ROWS, size))
    for lo in range(0, lat.phi_bins, _FFT_ROWS):
        block = padded[:min(_FFT_ROWS, lat.phi_bins - lo)]
        block[:, :lat.n_u] = counts[lo:lo + _FFT_ROWS]
        spectrum = np.fft.rfft(block, axis=1)
        spectrum *= kv_spectrum
        out[lo:lo + _FFT_ROWS] = np.fft.irfft(spectrum, size, axis=1)[:, lat.n_u - 1:lat.n_u - 1 + lat.n_s]
    return out


def _next_fast_len(target: int) -> int:
    """The smallest 2^i 3^j 5^k >= target, a length the FFT factors into radices 2, 3 and 5."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _interp_grid(g_field, ax, mask, lat: _Lattice):
    """Per-phase-bin responses summed at node offsets s = q cos + p sin, on the grid `ax` x `ax`.

    Nonzero only on `mask`.  Two identities of the offset serve all four
    mirror images of a node from one quadrant: s(-q, -p, phi) = -s(q, p, phi),
    which maps lattice entry i to n_s - 1 - i (the lattice is symmetric about
    0), and s(q, p, pi - phi) = s(-q, p, phi), which pairs phase bin k with
    K - 1 - k (K = phi_bins, which is even).  So for each bin pair the
    linear weights at the quadrant nodes (q, p >= 0) and at (-q, p) gather
    from the rows G[k], G[k, ::-1], G[K-1-k] and G[K-1-k, ::-1]: two weight
    computations serve eight (node, bin) terms, each within
    (c delta)^2 / 8 * max|G[k]| of the row at the node's offset (`_resolution`).
    The images sit at -q and -p, within 1 ulp of `linspace`'s negative half-axis.
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
            i0, w = _linear((q_image * math.cos(phi) + p * math.sin(phi) - lat.s0) / lat.delta)
            for m in range(2):
                rows.take(i0 + m, axis=1, out=gathered)
                gathered *= w[m]
                a += gathered
    out = np.zeros(mask.shape)
    for im, v in zip(images, acc[0] + acc[1][[2, 3, 0, 1]]):
        out[im][quadrant] = v
    out[~mask] = 0.0
    return out


def _linear(pos: np.ndarray):
    """Lattice index i0 = floor(pos) of positive positions and the linear weights of entries i0 and i0 + 1."""
    i0 = pos.astype(np.int64)
    tau = pos - i0
    return i0, (1.0 - tau, tau)


def _probe_sums(batch: QuadratureBatch, lat: _Lattice, kv: np.ndarray, qs, ps):
    """`_interp_grid(_fast_field(counts, lat, kv), ...)` of the batch's lattice
    counts at a few nodes (qs, ps), without the FFT.

    The field is linear in the lattice counts, G[k, i] = sum_j counts[k, j]
    kv[i - j + n_u - 1], so each sample's six shares, in cells (k, j), are
    summed directly against the on-grid kernel values with the linear
    weights of their phase bin, which carry the same (c delta)^2 / 8 bound.
    A share in a ghost row of `_shares` is summed at that row's own phase,
    outside [0, pi]: as s(q, p, phi - pi) = -s(q, p, phi), this is the sum
    at the mirrored cell its fold in `_bin_counts` gives.
    One node at a time, so the temporaries are share-sized, not node x share;
    the products are summed by `np.sum`, as a `@` over 6 x 2048 shares would
    pass OpenBLAS's threshold for a threaded dot product and spend CPU on a
    second thread to save no time.
    """
    flat, weight = _shares(batch.x, batch.phi, batch.noise.eta, lat)
    k, j = np.divmod(flat, lat.n_u)  # phase row k - 1
    phi_k = (np.arange(lat.phi_bins + 3) - 0.5) * (math.pi / lat.phi_bins)
    cos_k, sin_k = np.cos(phi_k)[k], np.sin(phi_k)[k]
    sums = np.empty(len(qs))
    for m, (q, p) in enumerate(zip(qs, ps)):
        i0, w = _linear((q * cos_k + p * sin_k - lat.s0) / lat.delta)
        base = i0 + (lat.n_u - 1) - j  # kv index of G[k, i0]
        terms = w[0] * kv[base]
        terms += w[1] * kv[base + 1]
        terms *= weight
        sums[m] = np.sum(terms)
    return sums


class BinnedBatch:
    """A batch binned once for a set of parameters, on the lattice `_resolution`
    gives the set's largest radius and cutoff, within every member's bound.

    `batch` is a `QuadratureBatch` or a scanned batch file
    (`sampling._BatchFile`), which is read in blocks and never held whole.
    The first `reconstruct_fast` call makes the one pass over its samples
    (`_bin_counts`): it adds each sample's six shares (`_shares`) to the
    counts and gathers the self-check's sample, min(n, 2048) of the n
    samples drawn without replacement from a fixed stream, in sample order.
    Later members reuse both, so every member checks the same sample.  At
    several betas of `ReconstructionParams.for_experiment`, the smallest beta
    sets the lattice, so its grid is bit for bit the one
    `reconstruct_fast(batch, params)` gives.
    """

    def __init__(self, batch, params_seq):
        if batch.n == 0:
            raise ValueError("cannot reconstruct from an empty batch")
        self.batch = batch
        self.params = tuple(params_seq)
        self.lattice = _geometry(batch, self.params)

    @functools.cached_property
    def counts_and_sample(self):
        """The lattice counts, and the self-check's sample of the batch."""
        b = self.batch
        draw = np.random.default_rng(_SAMPLE_SEED).choice(b.n, min(b.n, _CHECK_SAMPLES), replace=False)
        wanted = np.sort(draw)
        counts, picked = _bin_counts(b, self.lattice, wanted)
        return counts, QuadratureBatch(*picked, b.state, b.noise, seed=b.seed, replicate=b.replicate)


def reconstruct_fast(batch: QuadratureBatch | BinnedBatch, params: ReconstructionParams,
                     self_check: bool = True) -> WignerGrid:
    """Accelerated estimator: identical contract to `reconstruct_exact` within
    a nodewise tolerance of 1e-3 * max|grid| at the lattice resolutions.

    Samples are spread onto a (phase x offset) lattice, quadratically in
    phase and linearly in offset (`_shares`), each phase
    bin becomes one FFT correlation against an on-grid kernel table, and grid
    nodes interpolate the result.  A subsample self-check compares that
    against the direct evaluation and raises `RuntimeError` if the
    resolutions cannot meet the tolerance; `reconstruct_exact` (`--exact`)
    then gives the direct sum.  The grid meta's `route` is "binned".

    `batch` is a plain batch, binned for `params` alone, or a `BinnedBatch`
    that `params` is a member of, whose counts serve all its members.
    """
    binned = batch if isinstance(batch, BinnedBatch) else BinnedBatch(batch, (params,))
    if params not in binned.params:
        raise ValueError(f"params for beta={params.beta!r} are not among those this BinnedBatch was "
                         f"binned for (betas {[p.beta for p in binned.params]})")
    batch = binned.batch
    gamma = _check_gamma(batch, params)

    mask, qs, ps = _disk_nodes(params.axis(), params.r)
    lat = binned.lattice
    # s_i - u_j = (i - j + (n_u - n_s) / 2) delta: whole multiples of delta,
    # symmetric about 0, so `kernel` evaluates each |offset| once
    half_k = (lat.n_u + lat.n_s) // 2 - 1
    kv = kernel(lat.delta * np.arange(-half_k, half_k + 1), gamma, params.h)
    counts, sub = binned.counts_and_sample
    values = _interp_grid(_fast_field(counts, lat, kv), params.axis(), mask, lat) / batch.n
    if self_check:
        probe = np.random.default_rng(_PROBE_SEED).choice(qs.size, min(_CHECK_PROBES, qs.size), replace=False)
        _fast_self_check(sub, batch.n, params, lat, kv, qs[probe], ps[probe], values)
    return WignerGrid(values, extent=params.extent, r=params.r,
                      meta=_grid_meta(batch, params, "fast"))


# Self-check tolerance relative to max|grid|, subsample size and probe-node
# count, and the seeds of the fixed streams that draw each.
_CHECK_TOL = 1e-3
_CHECK_SAMPLES = 2048
_CHECK_PROBES = 24
_SAMPLE_SEED, _PROBE_SEED = 619, 618


def _fast_self_check(sub: QuadratureBatch, n: int, params, lat: _Lattice, kv: np.ndarray,
                     pq, pp, fast_values) -> None:
    """Compare the binned evaluation on `lat` with kernel values `kv` against
    the direct kernel sum at the probe nodes (pq, pp); raise `RuntimeError`
    naming the lattice if they differ by more than the budget.

    Both sums run over the same m = min(n, 2048) samples `sub` of the n, the
    sample every member of a `BinnedBatch` shares, with the tolerance widened
    by sqrt(n / m).  Per-sample binning errors are oscillatory, so their
    full-batch average is no larger than the subsample average, while
    systematic components sit far below tolerance by construction.
    `fast_values` sets the scale, max|grid|.
    """
    scale = np.max(np.abs(fast_values))  # max|grid|, as the grid is zero outside the disk
    if scale == 0.0:
        return
    binned = _probe_sums(sub, lat, kv, pq, pp) / sub.n
    budget = _CHECK_TOL * scale * math.sqrt(n / sub.n)
    dev = np.max(np.abs(binned - estimate_at_points(sub, params, pq, pp)))
    if not dev <= budget:
        raise RuntimeError(
            f"the binned lattice (phi_bins x n_s = {lat.phi_bins} x {lat.n_s}, n_u = {lat.n_u}) "
            f"failed its accuracy self-check: deviation {dev:.3e} exceeds the budget {budget:.3e}; "
            f"--exact gives the direct kernel sum")


# ---------------------------------------------------------------------------
# deterministic mean oracle
# ---------------------------------------------------------------------------

# The disk rule's error bound, below the rounding of its sums, and the entries
# of one (points x nodes) block of the mean oracle, 8 MB.
_DISK_TOL = 1e-16
_ORACLE_BLOCK = 1 << 20


def _disk_order(state: CatState, params: ReconstructionParams) -> tuple[float, int]:
    """The radius R and the even node count N per axis of `_disk_rule`."""
    abs_alpha = math.sqrt(state.abs_alpha_sq)
    big_r = min(1.0 / params.h, 2.0 * math.sqrt(2.0) * abs_alpha + 16.0)
    s = np.linspace(0.01, 3.0, 300)  # the candidate ellipses' semi-minor axes
    rho, v = s + np.sqrt(1.0 + s * s), 0.5 * math.pi * s
    delta = big_r * np.sinh(v)
    log_error = (math.log(128.0 / 15.0 / _DISK_TOL) + 2.0 * np.log(big_r * np.cosh(v))
                 + delta * (0.5 * delta + params.r + math.sqrt(2.0) * abs_alpha) - np.log(rho * rho - 1.0))
    n = max(2, 1 + math.ceil(np.min(log_error / (2.0 * np.log(rho)))))
    return big_r, n + n % 2


def _disk_rule(state: CatState, params: ReconstructionParams):
    """Nodes (w1, w2) and weights of a Gauss-Legendre rule for even integrands on the disk |w| <= R.

    R = min(c, |w0| + 16), c = 1/h, w0 = 2 sqrt2 (-alpha2, alpha1): past it both
    oracles' integrands are below e^{-64}.  w1 = R sin(theta), w2 = R tau cos(theta)
    maps [-pi/2, pi/2] x [-1, 1] onto the disk, Jacobian R^2 cos(theta)^2, without
    the disk's square-root edge: the integrands stay entire, and N nodes per
    axis converge geometrically.  They are even in w, so the nodes at theta < 0
    fold onto theta > 0 at twice the weight.

    N depends on (state, params) alone.  Where |Im w| <= delta, |F[W]| <=
    2 e^{delta^2/4 + sqrt2 |alpha| delta}, |F[O]| <= sqrt(pi) e^{delta^2/4} and
    |cos(w.x)| <= e^{r delta} for |x| <= r, so both integrands, F[W] cos(w.x) / 4 pi^2
    and WITNESS_PAIRING F[O] F[W] / 4 pi^2, are at most e^{delta^2/2 + L delta} / pi,
    L = r + sqrt2 |alpha|.  On the Bernstein ellipse E_rho of theta / (pi/2) or
    of tau, with s = (rho - 1/rho) / 2 and v = pi s / 2, |Im w| <= delta = R sinh(v)
    and |cos(theta)|^2 <= cosh(v)^2.  Trefethen's bound (Approximation Theory
    and Approximation Practice, Thm 19.3) along each axis, against the other's
    positive weights, bounds the rule's error by

        (128/15) R^2 cosh(v)^2 e^{delta^2/2 + L delta} rho^{-2(N-1)} / (rho^2 - 1);

    N is the least even count that puts this below 1e-16 for one of 300 s in
    [0.01, 3]: 78, 84 and 90 at desk, headline and paper scale (|alpha|^2 = 4.5,
    eta = 0.45, R = 4.30, 4.62, 5.01) and 334 at r = 6, c = 30 (R = 22).
    """
    big_r, n = _disk_order(state, params)
    x, wx = _leggauss(n)
    theta = 0.5 * math.pi * x[n // 2:]
    w1 = np.repeat(big_r * np.sin(theta), n)
    w2 = np.multiply.outer(big_r * np.cos(theta), x).ravel()
    weight = np.multiply.outer(math.pi * big_r * big_r * wx[n // 2:] * np.cos(theta) ** 2, wx).ravel()
    return w1, w2, weight


def estimator_mean_oracle(state: CatState, params: ReconstructionParams, q, p):
    """Exact expectation of the (untruncated-disk) estimator at points x = (q, p).

    E[W] is W with its spectrum cut to |w| <= c = 1/h (Butucea, Guta & Artiles
    2007), independent of n and eta: as F[W] (`wigner_fourier`) is real and even,
    (1 / 4 pi^2) Int_{|w| <= c} F[W](w) cos(w.x) dw, which `_disk_rule` evaluates,
    one block of points at a time.  Points must lie inside the disk of radius r;
    q and p broadcast against each other, and the result takes their shape.
    """
    shape = np.broadcast_shapes(np.shape(q), np.shape(p))
    q = np.broadcast_to(np.asarray(q, dtype=float), shape).ravel()
    p = np.broadcast_to(np.asarray(p, dtype=float), shape).ravel()
    if np.any(q * q + p * p > params.r ** 2 * (1.0 + 1e-12)):
        raise ValueError("oracle points must lie inside the truncation disk")
    w1, w2, weight = _disk_rule(state, params)
    weight *= wigner_fourier(state, w1, w2) / (4.0 * math.pi ** 2)
    out = np.empty(q.size)
    rows = max(1, _ORACLE_BLOCK // w1.size)
    for lo in range(0, q.size, rows):
        phase = np.multiply.outer(q[lo:lo + rows], w1)
        phase += np.multiply.outer(p[lo:lo + rows], w2)
        out[lo:lo + rows] = np.cos(phase, out=phase) @ weight
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
    _atomic_bytes(path, [_frame_head(GRID_MAGIC, header), np.ascontiguousarray(grid.values, "<f8")])


# The meta keys of replicate grids and averages that `read_grid` checks: all but
# `beta`, null in parameters built without one, and an average's `source_sha256` list.
_GRID_META = ("kind", "method", "route", "n", "seed", "replicate", "replicates", "alpha1", "alpha2", "eta", "h")


def read_grid(path: str) -> WignerGrid:
    with open(path, "rb") as fh:
        header = _read_header(fh, path, GRID_MAGIC, "Wigner grid", ("grid_size", "extent", "r"), _GRID_META)
        nbytes, size = os.fstat(fh.fileno()).st_size - fh.tell(), header["grid_size"]
        if nbytes != 8 * size * size:
            raise ConfigError(f"{path}: payload of {nbytes} bytes, not the {8 * size * size} of {size}^2 values")
        payload = np.fromfile(fh, dtype="<f8")
    if not np.all(np.isfinite(payload)):
        raise ConfigError(f"{path}: grid holds non-finite values (NaN or inf)")
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
