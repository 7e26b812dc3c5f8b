"""Kernel, bandwidth rule, reconstruction paths, and the deterministic mean oracle."""

import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.fft import next_fast_len
from scipy.integrate import quad
from scipy.special import erfcx, factorial, ive, j0, wofz

from catomo import (
    CatState,
    KernelTable,
    NoiseModel,
    QuadratureBatch,
    ReconstructionParams,
    estimate_at_points,
    estimator_mean_oracle,
    generate_batch,
    grid_to_csv,
    kernel,
    mean_grid,
    optimal_bandwidth,
    read_batch,
    read_grid,
    reconstruct_exact,
    reconstruct_fast,
    wigner_fourier,
    wigner_true,
    witness_mean_oracle,
    write_batch,
    write_grid,
)
from catomo import estimator as est
from catomo import sampling
from catomo.sampling import _BatchFile
from test_sampling import read_text, rewrite_header, stream_to_file

GAMMA_045 = 11.0 / 36.0
H_REF = 1.0 / 4.8297

# adaptive-quadrature oracle values, gamma = 11/36, h = 1/4.8297 (30-digit mpmath)
K_FROZEN = {
    0.0: 324.14333546896152,
    0.5: -195.76879636533960,
    2.0: -242.32858371729066,
    7.3: -106.69706416744777,
}


def kernel_quad_oracle(t, gamma, h):
    """Independent adaptive quadrature of the kernel integral."""
    val, err = quad(lambda xi: xi * math.exp(gamma * xi * xi) * math.cos(xi * t),
                    0.0, 1.0 / h, limit=500, epsabs=1e-12, epsrel=1e-12)
    return val / (2.0 * math.pi)


def closed_form_kernel(t, gamma, h):
    """The kernel in closed form (Butucea, Guta & Artiles 2007), an evaluation
    independent of quadrature.  With c = 1/h, a = gamma c^2 and y = |t| / (2 sqrt(gamma)),

        K(t) = (1/2 pi) Re[(e^{a + ic|t|} - 1 - i|t| J) / (2 gamma)],
        J = (i sqrt(pi) / (2 sqrt(gamma))) [erfcx(y) - e^{a + ic|t|} w(sqrt(gamma) c + iy)],

    w the Faddeeva function, which cancels terms of size ~K(0)/a.  Below
    a = 0.1 it is the power series (c^2 / 2 pi) sum_{k <= 8} a^k / k! m_{2k+1}(c|t|)
    in the cosine moments m_n(w) = Int_0^1 s^n cos(w s) ds (truncation below
    3.1e-16 K(0)).
    """
    c = 1.0 / h
    a = gamma * c * c
    t_abs = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    if a >= 0.1:
        root = math.sqrt(gamma)
        y = t_abs / (2.0 * root)
        phase = np.exp(a + 1j * c * t_abs)
        j = (0.5j * math.sqrt(math.pi) / root) * (erfcx(y) - phase * wofz(root * c + 1j * y))
        return ((phase - 1.0) - 1j * t_abs * j).real / (4.0 * math.pi * gamma)
    # m_n: Taylor series below w = 4 (cut after j = 20, remainder < 4^42/42!), else
    # the upward recurrence I_n = (e^{iw} - n I_{n-1}) / (iw) for Int_0^1 s^n e^{iws} ds
    omega = c * t_abs
    moments = np.empty((18,) + omega.shape)
    low = omega < 4.0
    j = np.arange(21)
    coef = (-1.0) ** j / (factorial(2 * j) * (np.arange(18)[:, None] + 2 * j + 1))
    moments[:, low] = coef @ omega[low] ** (2 * j[:, None])
    i_omega = 1j * omega[~low]
    cis = np.exp(i_omega)
    moment = (cis - 1.0) / i_omega
    moments[0][~low] = moment.real
    for n in range(1, 18):
        moment = (cis - n * moment) / i_omega
        moments[n][~low] = moment.real
    return sum(a ** k / math.factorial(k) * moments[2 * k + 1] for k in range(9)) * (c * c / (2.0 * math.pi))


# (gamma, 1/h) pairs with gamma c^2 <= 60, then gamma c^2 = 699, just inside the overflow guard
CUTOFFS = (1.0, 3.0, 4.455, 4.83, 6.0, 12.0, 20.0, 30.0)
KERNEL_SWEEP = [(gamma, inv_h) for gamma in (0.0, 1e-8, 1e-6, 0.01, 0.3056, 0.35, 1.0)
                for inv_h in CUTOFFS if gamma * inv_h ** 2 <= 60.0]
KERNEL_SWEEP += [(699.0 / inv_h ** 2, inv_h) for inv_h in CUTOFFS]


def fourier_truncation_reference(state, cutoff, q, p, n_rho=16, n_theta=256):
    """Inverse transform of `wigner_fourier` cut to |w| <= cutoff, at points (q, p).

    A 2-D polar rule, independent of the oracle's Bessel form: n_rho
    Gauss-Legendre radii on each unit-width panel of [0, cutoff] times
    n_theta periodic trapezoid angles.
    """
    n_panels = math.ceil(cutoff)
    edges = np.linspace(0.0, cutoff, n_panels + 1)
    gx, gw = leggauss(n_rho)
    half = 0.5 * np.diff(edges)[:, None]
    rho = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * gx).ravel()
    rho_w = (half * gw).ravel() * rho * (2.0 * math.pi / n_theta) / (4.0 * math.pi ** 2)
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    w1 = rho[:, None] * np.cos(theta)
    w2 = rho[:, None] * np.sin(theta)
    weighted = wigner_fourier(state, w1, w2) * rho_w[:, None]
    return np.array([np.sum(weighted * np.cos(w1 * qv + w2 * pv))
                     for qv, pv in zip(np.ravel(q), np.ravel(p))])


def bessel_mean_reference(state, params, q, p):
    """The estimator's expectation at points (q, p) by its Bessel form, a 1-D radial integral.

    F[W] is three Gaussians, so the angular integral over the frequency disk
    is a Bessel function.  With a = (alpha1, alpha2), w0 = 2 sqrt2 (-alpha2, alpha1),
    kappa = e^{-2|alpha|^2} and v = |w0|^2/4 - |x|^2 + i w0.x,

        E[W](x) = Int_0^c rho e^{-rho^2/4} [e^{-|w0|^2/4} 2 Re I0(rho sqrt(v))
                  + J0(rho |x + sqrt2 a|) + J0(rho |x - sqrt2 a|)] d rho / (4 pi (1 + kappa)),

    by Gauss-Legendre panels (32 nodes per 0.5) up to min(c, |w0| + 16).  I0
    comes from `ive`, scaled by e^{-|Re z|} <= e^{-rho |w0| / 2}, which the
    Gaussians absorb, so no |alpha| or c overflows.
    """
    q = np.ravel(np.asarray(q, dtype=float))
    p = np.ravel(np.asarray(p, dtype=float))
    m1, m2 = math.sqrt(2.0) * state.alpha1, math.sqrt(2.0) * state.alpha2  # sqrt2 a; w0 = 2 (-m2, m1)
    v0 = 2.0 * state.abs_alpha_sq  # |w0|^2 / 4
    rho_hi = min(1.0 / params.h, 2.0 * math.sqrt(v0) + 16.0)
    n_panels = max(4, int(math.ceil(rho_hi / 0.5)))
    edges = np.linspace(0.0, rho_hi, n_panels + 1)
    gl_x, gl_w = leggauss(32)
    half = 0.5 * np.diff(edges)[:, None]
    rho = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * gl_x).ravel()
    rho_w = (half * gl_w).ravel() * rho / (4.0 * math.pi * (1.0 + state.overlap))
    damp = np.exp(-rho * rho / 4.0)
    out = np.empty(q.size)
    for lo in range(0, q.size, 1024):
        qb, pb = q[lo:lo + 1024, None], p[lo:lo + 1024, None]
        z = rho * np.sqrt(v0 - qb * qb - pb * pb + 2j * (m1 * pb - m2 * qb))
        ridge = 2.0 * ive(0, z).real * np.exp(np.abs(z.real) - rho * rho / 4.0 - v0)
        lobes = j0(rho * np.hypot(qb + m1, pb + m2)) + j0(rho * np.hypot(qb - m1, pb - m2))
        out[lo:lo + qb.size] = (ridge + lobes * damp) @ rho_w
    return out


# (n, beta, grid_size) of the desk, headline and paper runs, at eta = 0.45
SCALES = {"desk": (500_000, 0.1, 101), "headline": (4_000_000, 0.1, 201), "paper": (16_000_000, 0.05, 201)}


def scale_params(name):
    n, beta, size = SCALES[name]
    return ReconstructionParams.for_experiment(n, beta, NoiseModel(0.45), grid_size=size)


def loaded_after(code, packages):
    """The modules of `packages`, each a package or module with its submodules,
    loaded in a fresh interpreter after `import catomo` and the lines of `code`."""
    src = os.path.dirname(os.path.dirname(est.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (f"import sys, catomo\n{code}\npackages = {tuple(packages)!r}\n"
             "print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in packages)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_kernel_table_leaves_interpolate_unloaded():
    # scipy.interpolate loads scipy.optimize, about 23 MB of resident memory;
    # the table solves no system, so it needs no scipy.linalg either
    modules = ["scipy.interpolate", "scipy.optimize", "scipy.linalg"]
    assert loaded_after("catomo.KernelTable(0.3, 0.2, t_max=5.0)", modules) == "[]"


class TestGamma:
    def test_values(self):
        assert NoiseModel(1.0).gamma == 0.0
        assert NoiseModel(0.5).gamma == 0.25
        assert NoiseModel(0.45).gamma == pytest.approx(GAMMA_045, rel=1e-15)

    @pytest.mark.parametrize("eta", [0.0, -0.2, 1.0001])
    def test_domain(self, eta):
        with pytest.raises(ValueError):
            NoiseModel(eta).gamma


class TestOptimalBandwidth:
    def test_unit_case(self):
        # ln n = 1 and beta + 2 gamma = 1
        r, h = optimal_bandwidth(math.e, 0.2, 0.4)
        assert r == pytest.approx(1.0, rel=1e-12)
        assert h == pytest.approx(1.0, rel=1e-12)

    def test_reference_values(self):
        r1, h1 = optimal_bandwidth(16_000_000, 0.1, GAMMA_045)
        assert r1 == pytest.approx(4.8298048213967149, rel=1e-12)
        assert r1 * h1 == pytest.approx(1.0, rel=1e-15)
        r2, _ = optimal_bandwidth(16_000_000, 0.05, GAMMA_045)
        assert r2 == pytest.approx(5.0091159508152750, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_bandwidth(1, 0.1, 0.3)
        with pytest.raises(ValueError):
            optimal_bandwidth(1000, 0.3, 0.3)
        with pytest.raises(ValueError):
            optimal_bandwidth(1000, 0.1, -0.1)


class TestKernel:
    def test_zero_offset_closed_form(self):
        for gamma, h in [(GAMMA_045, H_REF), (0.1, 0.5), (0.35, 1.0 / 6.0)]:
            expected = (math.exp(gamma / h**2) - 1.0) / (4.0 * math.pi * gamma)
            assert kernel(0.0, gamma, h) == pytest.approx(expected, rel=1e-12)

    def test_zero_gamma_closed_form(self):
        for t in [0.4, 2.0, 9.1]:
            c = 4.0
            expected = (c * math.sin(c * t) / t + (math.cos(c * t) - 1.0) / t**2) / (2.0 * math.pi)
            assert kernel(t, 0.0, 0.25) == pytest.approx(expected, rel=1e-12)
        assert kernel(0.0, 0.0, 0.25) == pytest.approx(1.0 / (4.0 * math.pi * 0.25**2), rel=1e-12)

    def test_frozen_values(self):
        for t, ref in K_FROZEN.items():
            assert kernel(t, GAMMA_045, H_REF) == pytest.approx(ref, rel=1e-12)

    def test_even(self):
        t = np.array([0.3, 1.7, 5.2, 11.0])
        np.testing.assert_allclose(kernel(t, GAMMA_045, H_REF), kernel(-t, GAMMA_045, H_REF),
                                   rtol=1e-14)

    def test_matches_adaptive_quadrature(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            gamma = rng.uniform(0.0, 0.35)
            inv_h = rng.uniform(1.0, 6.0)
            t = rng.uniform(0.0, 12.0)
            ours = kernel(t, gamma, 1.0 / inv_h)
            ref = kernel_quad_oracle(t, gamma, 1.0 / inv_h)
            assert ours == pytest.approx(ref, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("inv_h", [1.0, 3.0, 4.6, 6.0])
    def test_error_curve_against_quadrature(self, inv_h):
        # gamma* = 0.1 h^2 is where `closed_form_kernel` switches from its power
        # series to the Faddeeva form
        gamma_star = 0.1 / inv_h**2
        t = np.linspace(-40.0, 40.0, 81)
        for gamma in [0.0, 1e-8, 1e-6, 0.999 * gamma_star, gamma_star, 1e-2, GAMMA_045, 0.35]:
            k0 = kernel(0.0, gamma, 1.0 / inv_h)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # quad reports roundoff at this tolerance
                ref = np.array([kernel_quad_oracle(tv, gamma, 1.0 / inv_h) for tv in t])
            err = np.max(np.abs(kernel(t, gamma, 1.0 / inv_h) - ref))
            assert err <= 1e-12 * k0, f"gamma={gamma:.3g}: error {err / k0:.2e} K(0)"

    @pytest.mark.parametrize("gamma, inv_h", KERNEL_SWEEP)
    def test_matches_closed_form(self, gamma, inv_h):
        t = np.linspace(-40.0, 40.0, 4001)
        got = kernel(t, gamma, 1.0 / inv_h)
        assert np.all(np.isfinite(got))
        k0 = kernel(0.0, gamma, 1.0 / inv_h)
        err = np.max(np.abs(got - closed_form_kernel(t, gamma, 1.0 / inv_h)))
        assert err <= 1e-13 * k0, f"error {err / k0:.2e} K(0)"

    def test_wider_panels_miss_closed_form(self, monkeypatch):
        # panels twice as wide as the rule allows leave quadrature errors of ~3e-9 K(0)
        monkeypatch.setattr(est, "_PANEL_PHASE", 2.0 * est._PANEL_PHASE)
        t = np.linspace(-40.0, 40.0, 4001)
        worst = max(np.max(np.abs(kernel(t, gamma, 1.0 / inv_h) - closed_form_kernel(t, gamma, 1.0 / inv_h)))
                    / kernel(0.0, gamma, 1.0 / inv_h) for gamma, inv_h in KERNEL_SWEEP)
        assert worst > 1e-13

    def test_non_finite_offset_rejected(self):
        for t in (math.nan, math.inf, np.array([0.5, -math.inf])):
            with pytest.raises(ValueError, match="finite"):
                kernel(t, GAMMA_045, H_REF)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            kernel(1.0, 0.35, 0.02)


class TestKernelTable:
    def test_within_tolerance(self):
        table = KernelTable(GAMMA_045, H_REF, t_max=12.0)
        t = np.random.default_rng(5).uniform(-12, 12, 1000)
        err = np.max(np.abs(table(t) - kernel(t, GAMMA_045, H_REF)))
        assert err < 1e-6 * table.k0

    # gamma c^2 up to 60; the a-priori step meets 1e-6 K(0) with about 4 % to spare
    # at the worst case (9.6e-7 K(0)), so a step 1.2x larger (1.2^4 = 2.07) fails
    @pytest.mark.parametrize("gamma, inv_h", [
        (gamma, inv_h) for gamma in (0.0, 1e-6, 0.01, 0.3056, 0.35, 1.0)
        for inv_h in (1.0, 3.0, 4.455, 6.0, 12.0) if gamma * inv_h ** 2 <= 60.0])
    def test_within_tolerance_over_gamma_and_cutoff(self, gamma, inv_h):
        table = KernelTable(gamma, 1.0 / inv_h, t_max=20.0)
        t = np.random.default_rng(8).uniform(-20.0, 20.0, 20_000)
        err = np.max(np.abs(table(t) - kernel(t, gamma, 1.0 / inv_h)))
        assert err <= 1e-6 * table.k0

    def test_beyond_range_falls_back_to_direct(self):
        table = KernelTable(GAMMA_045, H_REF, t_max=5.0)
        assert table(8.5) == kernel(8.5, GAMMA_045, H_REF)
        mixed = table(np.array([0.5, 9.0]))
        assert mixed[1] == kernel(9.0, GAMMA_045, H_REF)

    def test_two_dimensional_mixed_offsets(self):
        table = KernelTable(GAMMA_045, H_REF, t_max=5.0)
        t = np.random.default_rng(6).uniform(-9.0, 9.0, (37, 64))
        got = table(t)
        assert got.shape == t.shape
        inside = np.abs(t) <= 5.0
        assert inside.any() and (~inside).any()
        assert np.max(np.abs(got[inside] - kernel(t[inside], GAMMA_045, H_REF))) <= 1e-6 * table.k0
        np.testing.assert_array_equal(got[~inside], kernel(t[~inside], GAMMA_045, H_REF))


def direct_sum_reference(batch, params, q, p, sample_block=64):
    """`estimate_at_points` as one Kahan-compensated loop over offsets t in
    kernel units, looked up through the batch's table (which takes the closed
    form beyond t_max), in the same node and sample blocks."""
    table = est._default_table(batch, params, batch.noise.gamma)
    q, p = np.atleast_1d(q).astype(float), np.atleast_1d(p).astype(float)
    u = batch.x / math.sqrt(batch.noise.eta)
    cos_phi, sin_phi = np.cos(batch.phi), np.sin(batch.phi)
    out = np.empty(q.size)
    for a in range(0, q.size, est._NODE_BLOCK):
        qb, pb = q[a:a + est._NODE_BLOCK, None], p[a:a + est._NODE_BLOCK, None]
        sums, comp = np.zeros(qb.size), np.zeros(qb.size)
        for lo in range(0, batch.n, sample_block):
            sl = slice(lo, min(lo + sample_block, batch.n))
            y = table(qb * cos_phi[sl] + pb * sin_phi[sl] - u[sl]).sum(axis=1) - comp
            tot = sums + y
            comp = (tot - sums) - y
            sums = tot
        out[a:a + qb.size] = sums
    return out / batch.n


class TestEstimateAtPoints:
    def test_node_blocks_do_not_change_values(self, cat, noise):
        # a node's value is the same alone as inside a call of several node blocks
        batch = generate_batch(cat, noise, 1000, seed=23)
        params = small_params(1000, grid_size=21)
        n_nodes = 3 * est._NODE_BLOCK + 17
        rng = np.random.default_rng(24)
        radius = params.r * np.sqrt(rng.uniform(0.0, 1.0, n_nodes))
        angle = rng.uniform(0.0, 2.0 * np.pi, n_nodes)
        q, p = radius * np.cos(angle), radius * np.sin(angle)
        full = estimate_at_points(batch, params, q, p)
        # one-node calls, at either end of a node block: a product of one row
        # would go to gemv, which rounds differently from the blocked product
        for i in (0, 5, est._NODE_BLOCK - 1, est._NODE_BLOCK, n_nodes - 1):
            assert estimate_at_points(batch, params, q[i], p[i]) == full[i]
        # 15, 16, 17 and 33 nodes pad to 16, 16, 32 and 48 rows, against 256 in a full block
        for k in (1, 15, 16, 17, 33, est._NODE_BLOCK - 1, est._NODE_BLOCK + 5, 2 * est._NODE_BLOCK + 100):
            np.testing.assert_array_equal(estimate_at_points(batch, params, q[:k], p[:k]), full[:k])
        tail = slice(est._NODE_BLOCK + 3, None)
        np.testing.assert_array_equal(estimate_at_points(batch, params, q[tail], p[tail]), full[tail])

    def test_points_broadcast(self, cat, noise):
        batch = generate_batch(cat, noise, 1000, seed=25)
        params = small_params(1000, grid_size=21)
        q = np.linspace(-params.r, params.r, 300)
        got = estimate_at_points(batch, params, q, 0.0)
        assert got.shape == (300,)
        np.testing.assert_array_equal(got, estimate_at_points(batch, params, q, np.zeros(300)))
        with pytest.raises(ValueError, match="broadcast"):
            estimate_at_points(batch, params, q[:10], q[:3])

    @pytest.mark.parametrize("sample_block", [64, 4096])
    @pytest.mark.parametrize("make_batch", [
        lambda cat, noise: generate_batch(cat, noise, 1000, seed=41),  # 1000 = 15 * 64 + 40
        lambda cat, noise: generate_batch(cat, noise, 1025, seed=42),  # a one-sample last block
        lambda cat, noise: seam_batch(2000, seed=43),
    ], ids=["n1000", "n1025", "seams"])
    def test_matches_offset_loop(self, cat, noise, make_batch, sample_block):
        batch = make_batch(cat, noise)
        params = small_params(batch.n, grid_size=41)
        _, qs, ps = est._disk_nodes(params.axis(), params.r)
        ref = direct_sum_reference(batch, params, qs, ps, sample_block)
        got = estimate_at_points(batch, params, qs, ps, sample_block=sample_block)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))

    def test_node_beyond_table_takes_closed_form(self, cat, noise):
        # offsets from (3r, 0) pass t_max, where a clipped lookup would return
        # the end interval's cubic instead of K(t); the grid's nodes in its
        # node block keep the bits they have without it
        batch = generate_batch(cat, noise, 1000, seed=44)
        params = small_params(1000, grid_size=21)
        _, qs, ps = est._disk_nodes(params.axis(), params.r)
        q, p = np.append(qs, 3.0 * params.r), np.append(ps, 0.0)
        table = est._default_table(batch, params, noise.gamma)
        u = batch.x / math.sqrt(noise.eta)
        assert np.max(np.abs(q[-1] * np.cos(batch.phi) - u)) > table.t_max
        ref = direct_sum_reference(batch, params, q[-2:], p[-2:])
        for k in (1, 2):  # the far node alone and beside a near one
            got = estimate_at_points(batch, params, q[-k:], p[-k:])
            np.testing.assert_allclose(got, ref[-k:], rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))
        beside = estimate_at_points(batch, params, q, p)[:-1]
        assert beside.tobytes() == estimate_at_points(batch, params, qs, ps).tobytes()


def small_params(n, beta=0.1, eta=0.45, grid_size=41):
    return ReconstructionParams.for_experiment(n, beta, NoiseModel(eta), grid_size=grid_size)


def interp_nodes_reference(g_field, qs, ps, lat):
    """Per-phase-bin responses summed at nodes (qs, ps): one two-tap linear
    interpolation per node and per bin, between the lattice entries on either
    side of the node's offset."""
    acc = np.zeros(qs.size)
    for node, (qv, pv) in enumerate(zip(qs, ps)):
        for k in range(lat.phi_bins):
            phi_k = (k + 0.5) * math.pi / lat.phi_bins
            pos = (qv * math.cos(phi_k) + pv * math.sin(phi_k) - lat.s0) / lat.delta
            i = math.floor(pos)
            acc[node] += (i + 1 - pos) * g_field[k, i] + (pos - i) * g_field[k, i + 1]
    return acc


def lone_lattice(batch, params):
    """The binned lattice that `reconstruct_fast(batch, params)` builds: the
    geometry of the one-member set {params}."""
    return est._geometry(batch, (params,))


def lattice_kernel(lat, params):
    """The kernel values `reconstruct_fast` correlates with `lat`'s phase rows
    for `params`: K at every node-sample offset difference s_i - u_j, the
    whole multiples of delta up to (n_u + n_s) / 2 - 1 either side of 0."""
    half_k = (lat.n_u + lat.n_s) // 2 - 1
    return kernel(lat.delta * np.arange(-half_k, half_k + 1), params.gamma, params.h)


def binned_field(batch, lat, kv):
    """`_fast_field` of the batch binned on `lat`, against kernel values kv."""
    return est._fast_field(est._bin_counts(batch, lat, np.empty(0, np.intp))[0], lat, kv)


class AddAtCounter:
    """numpy as the estimator module sees it, with `np.add.at` calls counted:
    one per binning pass of `_bin_counts`."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.add = functools.partial(np.add)
        self.add.at = self._add_at
        monkeypatch.setattr(est, "np", self)

    def _add_at(self, *args):
        self.calls += 1
        np.add.at(*args)

    def __getattr__(self, name):
        return getattr(np, name)


def field_reference(batch, lat, kv):
    """`binned_field` in one shot: a single `bincount` over every sample's shares,
    then one FFT correlation over the whole lattice."""
    bins = lat.phi_bins
    counts = np.bincount(*est._shares(batch.x, batch.phi, batch.noise.eta, lat),
                         minlength=(bins + 3) * lat.n_u).reshape(bins + 3, lat.n_u)
    counts[[bins, 1, 2]] += counts[[0, bins + 1, bins + 2], ::-1]  # ghost rows folded at the seam
    size = est._next_fast_len(lat.n_u + lat.n_s - 1)
    spectrum = np.fft.rfft(counts[1:bins + 1], size, axis=1) * np.fft.rfft(kv, size)
    return np.fft.irfft(spectrum, size, axis=1)[:, lat.n_u - 1:lat.n_u - 1 + lat.n_s]


def seam_batch(n, seed):
    """n uniform samples, a fifth of them on the phases 0 and pi or within 1e-3
    (under half a phase bin) of them, so their shares cross the seam."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, math.pi, n)
    phi[::20], phi[1::20] = 0.0, math.pi
    phi[2::20] = 1e-3 * rng.random(phi[2::20].size)
    phi[3::20] = math.pi - 1e-3 * rng.random(phi[3::20].size)
    return QuadratureBatch(rng.uniform(-1.5, 1.5, n), phi, CatState(1.5, 0.7), NoiseModel(0.45), seed=0)


class TestReconstructExact:
    def test_single_sample_is_kernel_translate(self, cat, noise):
        batch = QuadratureBatch(np.array([0.0]), np.array([0.0]), cat, noise, seed=0)
        params = ReconstructionParams(r=3.0, h=0.25, gamma=noise.gamma, grid_size=21)
        grid = reconstruct_exact(batch, params)
        ax = grid.axis()
        inside = grid.inside_disk()
        qq, _ = np.meshgrid(ax, ax, indexing="ij")
        expected = est._default_table(batch, params, noise.gamma)(qq[inside])
        np.testing.assert_allclose(grid.values[inside], expected, rtol=1e-13)

    def test_linearity_in_batches(self, cat, noise, monkeypatch):
        a = generate_batch(cat, noise, 700, seed=21, replicate=0)
        b = generate_batch(cat, noise, 1300, seed=21, replicate=1)
        merged = QuadratureBatch(np.concatenate([a.x, b.x]), np.concatenate([a.phi, b.phi]),
                                 cat, noise, seed=21)
        params = small_params(2000, grid_size=21)
        table = KernelTable(noise.gamma, params.h,
                            t_max=params.r * 2.0 + np.max(np.abs(merged.x)) / math.sqrt(noise.eta))
        monkeypatch.setattr(est, "_default_table", lambda *args: table)
        _, qs, ps = est._disk_nodes(params.axis(), params.r)
        va, vb, vm = (estimate_at_points(part, params, qs, ps) for part in (a, b, merged))
        combined = (700 * va + 1300 * vb) / 2000.0
        scale = np.max(np.abs(vm))
        np.testing.assert_allclose(vm, combined, atol=1e-12 * scale)

    def test_permutation_invariance(self, cat, noise):
        batch = generate_batch(cat, noise, 2000, seed=31)
        perm = np.random.default_rng(0).permutation(batch.n)
        shuffled = QuadratureBatch(batch.x[perm], batch.phi[perm], cat, noise, seed=31)
        params = small_params(2000, grid_size=21)
        g1 = reconstruct_exact(batch, params)
        g2 = reconstruct_exact(shuffled, params)
        scale = np.max(np.abs(g1.values))
        assert np.max(np.abs(g1.values - g2.values)) <= 1e-12 * scale

    def test_disk_truncation_exact_zeros(self, cat, noise):
        batch = generate_batch(cat, noise, 500, seed=41)
        params = small_params(500, grid_size=41)
        grid = reconstruct_exact(batch, params)
        outside = ~grid.inside_disk()
        assert outside.any()
        assert np.all(grid.values[outside] == 0.0)

    def test_gamma_mismatch_rejected(self, cat):
        batch = generate_batch(cat, NoiseModel(0.45), 100, seed=1)
        params = ReconstructionParams.for_experiment(100, 0.1, NoiseModel(0.9), grid_size=21)
        with pytest.raises(ValueError):
            reconstruct_exact(batch, params)

    def test_empty_batch_rejected(self, cat, noise):
        batch = QuadratureBatch(np.array([]), np.array([]), cat, noise, seed=0)
        params = small_params(100, grid_size=21)
        with pytest.raises(ValueError):
            reconstruct_exact(batch, params)


class TestReconstructFast:
    def test_binned_route_matches_exact_random_batches(self, noise):
        rng = np.random.default_rng(99)
        for trial in range(10):
            n = int(rng.integers(1000, 10_001))
            state = CatState(rng.uniform(0.5, 2.5), rng.uniform(-0.5, 0.5))
            beta = rng.uniform(0.03, 0.2)
            batch = generate_batch(state, noise, n, seed=1000 + trial)
            params = ReconstructionParams.for_experiment(n, beta, noise, grid_size=41)
            fast = reconstruct_fast(batch, params)
            exact = reconstruct_exact(batch, params)
            scale = np.max(np.abs(exact.values))
            dev = np.max(np.abs(fast.values - exact.values))
            assert dev <= 1e-3 * scale, f"trial {trial}: dev {dev:.3e} vs scale {scale:.3e}"

    def test_binned_route_high_cutoff(self):
        # eta = 0.95 with small beta pushes the cutoff past 9; the resolutions
        # scale up with r/h to hold the tolerance
        nm = NoiseModel(0.95)
        batch = generate_batch(CatState(2.0, 0.3), nm, 6000, seed=314)
        params = ReconstructionParams.for_experiment(6000, 0.05, nm, grid_size=41)
        assert lone_lattice(batch, params).phi_bins > 512
        fast = reconstruct_fast(batch, params)
        assert fast.meta["route"] == "binned"
        exact = reconstruct_exact(batch, params)
        scale = np.max(np.abs(exact.values))
        assert np.max(np.abs(fast.values - exact.values)) <= 1e-3 * scale

    def test_degenerate_batch(self, cat, noise):
        batch = QuadratureBatch(np.full(64, 0.7), np.full(64, 1.1), cat, noise, seed=0)
        params = small_params(64, grid_size=21)
        fast = reconstruct_fast(batch, params)
        exact = reconstruct_exact(batch, params)
        scale = np.max(np.abs(exact.values))
        assert np.max(np.abs(fast.values - exact.values)) <= 1e-3 * scale
        assert fast.meta["method"] == "fast" and fast.meta["route"] == "binned"

    def test_insufficient_resolution_refuses(self, cat, noise, monkeypatch):
        batch = generate_batch(cat, noise, 4000, seed=77)
        params = ReconstructionParams.for_experiment(4000, 0.1, noise, grid_size=21)
        monkeypatch.setattr(est, "_resolution", lambda r, h: (8, 128))
        named = r"phi_bins x n_s = 8 x 128, n_u = \d+\).* deviation \S+ exceeds the budget \S+; --exact"
        with pytest.raises(RuntimeError, match=named):
            reconstruct_fast(batch, params)

    def test_probe_sums_match_fft_field(self, cat, noise):
        batch = generate_batch(cat, noise, 2048, seed=79)
        params = small_params(2048, grid_size=21)
        lat = lone_lattice(batch, params)
        kv = lattice_kernel(lat, params)
        ax = params.axis()
        qq, pp = np.meshgrid(ax, ax, indexing="ij")
        inside = qq**2 + pp**2 <= params.r**2
        pick = np.random.default_rng(80).choice(np.count_nonzero(inside), 24, replace=False)
        qs, ps = qq[inside][pick], pp[inside][pick]
        ref = est._interp_grid(binned_field(batch, lat, kv), ax, inside, lat)[inside][pick]
        ours = est._probe_sums(batch, lat, kv, qs, ps)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_probe_sums_memory(self, cat, noise):
        # the self-check's 2048 samples at 24 probes on the desk lattice peak at
        # 0.94 MiB, summed one node at a time; (24 x 8192) node-by-share
        # temporaries all at once peaked at 10.8 MiB
        batch = generate_batch(cat, noise, 2048, seed=79)
        params = small_params(500_000, grid_size=101)
        lat = lone_lattice(batch, params)
        kv = lattice_kernel(lat, params)
        _, qs, ps = est._disk_nodes(params.axis(), params.r)
        pick = np.random.default_rng(81).choice(qs.size, 24, replace=False)
        tracemalloc.start()
        try:
            est._probe_sums(batch, lat, kv, qs[pick], ps[pick])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("grid_size", [3, 21, 41])
    @pytest.mark.parametrize("phi_bins", [512, 1024])
    def test_mirrored_interpolation_matches_per_bin_loop(self, noise, grid_size, phi_bins):
        # alpha2 != 0 breaks both reflection symmetries of the field, so an image
        # written to the wrong quadrant, or a bin paired with the wrong partner, shows
        batch = generate_batch(CatState(1.5, 0.7), noise, 3000, seed=84)
        params = small_params(3000, grid_size=grid_size)
        lat = lone_lattice(batch, params)._replace(phi_bins=phi_bins)
        g_field = binned_field(batch, lat, lattice_kernel(lat, params))
        ax = params.axis()
        mask, qs, ps = est._disk_nodes(ax, params.r)
        ref = np.zeros(mask.shape)
        ref[mask] = interp_nodes_reference(g_field, qs, ps, lat)
        scale = np.max(np.abs(ref))
        for mirrored in (ref[::-1, :], ref[:, ::-1], ref[::-1, ::-1]):
            assert np.max(np.abs(mirrored - ref)) > 1e-3 * scale
        grid = est._interp_grid(g_field, ax, mask, lat)
        assert np.all(grid[~mask] == 0.0)
        assert np.max(np.abs(grid - ref)) <= 1e-12 * scale

    def test_interpolation_allocates_no_lattice_sized_array(self, cat, noise, monkeypatch):
        # on a 512 x 4096 lattice: the grid-sized temporaries do not shrink with
        # the offset columns, so a narrower lattice would only test a smaller ratio
        monkeypatch.setattr(est, "_resolution", lambda r, h: (512, 4096))
        params = small_params(4_000_000, grid_size=201)
        x = np.linspace(-6.0, 6.0, 64)
        lat = lone_lattice(QuadratureBatch(x, np.zeros(64), cat, noise, seed=0), params)
        g_field = np.random.default_rng(85).normal(size=(lat.phi_bins, lat.n_s))
        ax = params.axis()
        mask = est._disk_nodes(ax, params.r)[0]
        tracemalloc.start()
        est._interp_grid(g_field, ax, mask, lat)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < g_field.nbytes / 4, f"peak {peak / 2**20:.1f} MiB, lattice {g_field.nbytes / 2**20:.1f} MiB"

    @pytest.mark.parametrize("n, beta", [(500_000, 0.1), (4_000_000, 0.05), (4_000_000, 0.1), (16_000_000, 0.05)],
                             ids=["desk", "headline-0.05", "headline-0.1", "paper-0.05"])
    def test_interpolation_within_band_limit_bound(self, cat, noise, n, beta):
        # rows band-limited to c = 1/h, a few cosines with frequencies up to c,
        # interpolate within (c delta)^2 / 8 of their maximum; at the origin every
        # offset sits halfway between two entries, where the bound is nearly met
        params = small_params(n, beta=beta, grid_size=41)
        x = np.linspace(-6.0, 6.0, 64)
        lat = lone_lattice(QuadratureBatch(x, np.zeros(64), cat, noise, seed=0), params)
        c = 1.0 / params.h
        assert c * lat.delta <= 48.0 / 2039.0
        rng = np.random.default_rng(88)
        xi = c * np.array([1.0, 0.9, 0.5, 0.1])
        amp = rng.uniform(-1.0, 1.0, (lat.phi_bins, xi.size))
        amp[:, 0] = 1.0  # a full-strength term at the cutoff in every row
        shift = rng.uniform(0.0, 2.0 * math.pi, (lat.phi_bins, xi.size))
        shift[:, 0] = 0.0

        def rows(k, s):  # phase row k at offsets s
            return np.cos(np.multiply.outer(s, xi) + shift[k]) @ amp[k]

        s_lattice = lat.s0 + lat.delta * np.arange(lat.n_s)
        g_field = np.array([rows(k, s_lattice) for k in range(lat.phi_bins)])
        ax = params.axis()
        mask, qs, ps = est._disk_nodes(ax, params.r)
        phi = (np.arange(lat.phi_bins) + 0.5) * math.pi / lat.phi_bins
        exact = np.zeros(mask.shape)
        exact[mask] = sum(rows(k, qs * math.cos(phi[k]) + ps * math.sin(phi[k])) for k in range(lat.phi_bins))
        per_unit = (c * lat.delta) ** 2 / 8.0
        dev = np.abs(est._interp_grid(g_field, ax, mask, lat) - exact)
        assert np.max(dev) <= per_unit * np.abs(amp).sum()
        # the cutoff terms alone reach nearly their share of the bound at the origin
        assert dev[ax.size // 2, ax.size // 2] > 0.5 * per_unit * lat.phi_bins

    @pytest.mark.parametrize("n, beta", [(500_000, 0.1), (4_000_000, 0.05), (4_000_000, 0.1), (16_000_000, 0.05)],
                             ids=["desk", "headline-0.05", "headline-0.1", "paper-0.05"])
    def test_phase_spreading_within_bound(self, cat, noise, n, beta):
        # a response K(q cos phi + p sin phi - u) changes in phi at up to r c times
        # its size per derivative, so a cosine in phase of frequency w = r c stands
        # for it: the shares of a sample at phi, summed against the cosine at their
        # rows' phases, are within (dphi w)^3 / (9 sqrt 3) of its value at phi,
        # dphi = pi / phi_bins; ghost rows lie at their own phases beyond [0, pi]
        params = small_params(n, beta=beta, grid_size=41)
        x = np.linspace(-6.0, 6.0, 64)
        lat = lone_lattice(QuadratureBatch(x, np.zeros(64), cat, noise, seed=0), params)
        dphi, w = math.pi / lat.phi_bins, params.r / params.h
        assert dphi * w <= 24.0 * math.pi / 256.0
        bound = (dphi * w) ** 3 / (9.0 * math.sqrt(3.0))
        rng = np.random.default_rng(93)
        phi = np.concatenate([[0.0, math.pi], rng.uniform(0.0, 1e-3, 64), math.pi - rng.uniform(0.0, 1e-3, 64),
                              rng.uniform(0.0, math.pi, 4096)])
        mid = rng.integers(0, lat.phi_bins + 1, 64) * dphi  # halfway between two rows' phases
        # at the midway phases the third derivative is at its largest, w^3
        for shift, at in [(rng.uniform(0.0, 2.0 * math.pi), phi), (math.pi / 2.0 - w * mid, mid)]:
            flat, weight = est._shares(rng.uniform(-4.0, 4.0, at.size), at, noise.eta, lat)
            row_phi = ((flat // lat.n_u).reshape(at.size, 6) - 0.5) * dphi
            spread = np.sum(weight.reshape(at.size, 6) * np.cos(w * row_phi + np.reshape(shift, (-1, 1))), axis=1)
            dev = np.abs(spread - np.cos(w * at + shift))
            assert np.max(dev) <= bound
        # there |f (f^2 - 1)| / 6 = 1/16 against 1 / (9 sqrt 3) = 0.064
        assert np.min(dev) > 0.9 * bound

    def test_resolution_keeps_offset_spacing_within_bound(self, cat, noise, monkeypatch):
        # c delta = 2 (r/h) / (n_s - 9) <= 48/2039 wherever the offset cap s <= 4 does
        # not bind, and dphi r c <= 24 pi / 256 wherever the phase cap s <= 8 does not
        for r_over_h in np.linspace(0.5, 240.0, 1000):
            phi_bins, n_s = est._resolution(r_over_h, 1.0)
            sharp = max(1, math.ceil(r_over_h / 24.0))
            assert (phi_bins, n_s) == (256 * min(8, sharp), 2048 * min(4, sharp))
            if sharp <= 4:
                assert 2.0 * r_over_h / (n_s - 9) <= 48.0 / 2039.0 * (1.0 + 1e-12)
            if sharp <= 8:
                assert math.pi / phi_bins * r_over_h <= 24.0 * math.pi / 256.0 * (1.0 + 1e-12)
        # a set of members shares the lattice of its largest r and its largest
        # c = 1/h, which may belong to different members; each member keeps
        # c delta <= 48/2039 and r c <= 24 s below the caps
        batch = QuadratureBatch(np.linspace(-5.0, 5.0, 64), np.zeros(64), cat, noise, seed=0)
        rng = np.random.default_rng(90)
        split = 0
        for _ in range(300):
            members = [ReconstructionParams(r=rng.uniform(0.5, 8.0), h=1.0 / rng.uniform(0.5, 12.0), grid_size=21)
                       for _ in range(rng.integers(1, 5))]
            split += np.argmax([p.r for p in members]) != np.argmin([p.h for p in members])
            lat = est._geometry(batch, members)
            r_max = max(p.r for p in members)
            sharp = max(1, math.ceil(r_max / (24.0 * min(p.h for p in members))))
            assert (lat.phi_bins, lat.n_s) == (256 * min(8, sharp), 2048 * min(4, sharp))
            assert lat.delta == 2.0 * r_max / (lat.n_s - 9)
            if sharp > 4:
                continue
            for p in members:
                assert lat.delta / p.h <= 48.0 / 2039.0 * (1.0 + 1e-12)
                assert p.r / p.h <= 24.0 * sharp * (1.0 + 1e-12)
        assert split > 100  # sets whose r_max and c_max come from different members
        # one member: the lattice `reconstruct_fast(batch, params)` builds, and
        # the kernel values it correlates with the lattice's rows
        field, kvs = est._fast_field, []
        monkeypatch.setattr(est, "_fast_field", lambda counts, lat, kv: kvs.append(kv) or field(counts, lat, kv))
        for beta in (0.05, 0.1):
            params = small_params(16_000_000, beta=beta)
            sharp = max(1, min(4, math.ceil(params.r / (24.0 * params.h))))
            delta = 2.0 * params.r / (2048 * sharp - 9)
            half_u = math.ceil((5.0 / math.sqrt(noise.eta) + 2.0 * delta) / delta)
            n_u = 2 * half_u + 1 + (2 * half_u + 1 - 2048 * sharp) % 2
            half_k = (n_u + 2048 * sharp) // 2 - 1
            lat = lone_lattice(batch, params)
            assert lat == (256 * sharp, delta, -delta * (2048 * sharp - 1) / 2.0, 2048 * sharp,
                           -delta * (n_u - 1) / 2.0, n_u)
            reconstruct_fast(batch, params, self_check=False)
            assert np.array_equal(kvs[-1], kernel(delta * np.arange(-half_k, half_k + 1), noise.gamma, params.h))

    def test_binned_batch_bins_once_for_all_members(self, cat, noise, monkeypatch):
        # beta = 0.05 has the larger r and c, so it sets the lattice of the set
        # whichever member comes first, and keeps the bits of its lone call
        n = 2 * est._BIN_CHUNK + 99
        batch = generate_batch(cat, noise, n, seed=89)
        coarse, fine = small_params(n, beta=0.1), small_params(n, beta=0.05)
        lone = reconstruct_fast(batch, fine)
        counter = AddAtCounter(monkeypatch)
        binned = est.BinnedBatch(batch, (coarse, fine))
        grids = [reconstruct_fast(binned, params) for params in (coarse, fine)]
        assert counter.calls == math.ceil(n / est._BIN_CHUNK)
        assert np.array_equal(grids[1].values, lone.values)
        mask, qs, ps = est._disk_nodes(coarse.axis(), coarse.r)
        pick = np.random.default_rng(91).choice(qs.size, 48, replace=False)
        direct = estimate_at_points(batch, coarse, qs[pick], ps[pick])
        scale = np.max(np.abs(grids[0].values))
        assert np.max(np.abs(grids[0].values[mask][pick] - direct)) <= 1e-3 * scale
        with pytest.raises(ValueError, match=r"beta=0\.2 are not among"):
            reconstruct_fast(binned, small_params(n, beta=0.2))

    def test_binned_batch_members_check_one_sample(self, cat, noise, monkeypatch):
        # members of different grid sizes, so of different inside-disk node
        # counts, check the one sample the binning pass gathers: 2048 sorted
        # indices drawn from its own stream; each member's probes are the
        # default_rng(618) draw of 24 of its nodes, and its check sums the
        # kernel values its field was correlated with
        n = 2 * est._BIN_CHUNK + 99
        batch = generate_batch(cat, noise, n, seed=95)
        members = (small_params(n, beta=0.1, grid_size=21), small_params(n, beta=0.05, grid_size=41))
        field, check, kvs, checks = est._fast_field, est._fast_self_check, [], []
        monkeypatch.setattr(est, "_fast_field", lambda *args: kvs.append(args[-1]) or field(*args))
        monkeypatch.setattr(est, "_fast_self_check", lambda *args: checks.append(args) or check(*args))
        binned = est.BinnedBatch(batch, members)
        for params in members:
            reconstruct_fast(binned, params)
        idx = np.sort(np.random.default_rng(619).choice(n, 2048, replace=False))
        subs = [args[0] for args in checks]
        assert subs[0] is subs[1] and subs[0].n == 2048
        assert subs[0].x.tobytes() == batch.x[idx].tobytes() and subs[0].phi.tobytes() == batch.phi[idx].tobytes()
        for params, kv, (_, n_all, _, lat, kv_check, pq, pp, _) in zip(members, kvs, checks):
            _, qs, ps = est._disk_nodes(params.axis(), params.r)
            probe = np.random.default_rng(618).choice(qs.size, 24, replace=False)
            assert n_all == n and lat == binned.lattice and kv_check is kv
            assert np.array_equal(pq, qs[probe]) and np.array_equal(pp, ps[probe])

    def test_chunked_binning_matches_one_pass(self, cat, noise, monkeypatch):
        batch = generate_batch(cat, noise, 5000, seed=81)
        params = small_params(5000)
        lat = lone_lattice(batch, params)
        kv = lattice_kernel(lat, params)
        whole = binned_field(batch, lat, kv)
        monkeypatch.setattr(est, "_BIN_CHUNK", 1000)
        assert np.array_equal(binned_field(batch, lat, kv), whole)

    # s = 1 is the 256 x 2048 lattice of beta = 0.1; beta = 0.05 at n = 1.6e7 needs s = 2
    @pytest.mark.parametrize("n_rule, beta, phi_bins", [(4_000_000, 0.1, 256), (16_000_000, 0.05, 512)])
    @pytest.mark.parametrize("chunk, rows", [(None, None), (1000, 7)])
    def test_field_matches_one_shot_reference(self, monkeypatch, n_rule, beta, phi_bins, chunk, rows):
        # counts are summed in sample order and each phase row transforms alone,
        # so neither the chunk nor the block size changes a bit of the field
        if chunk:
            monkeypatch.setattr(est, "_BIN_CHUNK", chunk)
            monkeypatch.setattr(est, "_FFT_ROWS", rows)
        batch = seam_batch(3 * est._BIN_CHUNK + 321 if chunk is None else 3210, seed=86)
        params = small_params(n_rule, beta=beta)
        lat = lone_lattice(batch, params)
        kv = lattice_kernel(lat, params)
        assert lat.phi_bins == phi_bins
        assert np.array_equal(binned_field(batch, lat, kv), field_reference(batch, lat, kv))

    def test_next_fast_len_is_smallest_5_smooth(self):
        targets = range(1, 20_001)
        assert [est._next_fast_len(n) for n in targets] == [next_fast_len(n, real=True) for n in targets]

    def test_phase_seam_half_turn(self, cat, noise):
        # (x, 0) and (-x, pi) are the same quadrature, so they must bin to the same field
        x = np.random.default_rng(82).normal(0.0, 1.5, 400)
        edge = np.where(np.arange(400) % 2, 0.0, math.pi)
        at_edge = QuadratureBatch(x, edge, cat, noise, seed=0)
        turned = QuadratureBatch(-x, math.pi - edge, cat, noise, seed=0)
        params = small_params(400)
        lat = lone_lattice(at_edge, params)
        kv = lattice_kernel(lat, params)
        ref = binned_field(at_edge, lat, kv)
        assert np.max(np.abs(binned_field(turned, lat, kv) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_binning_memory_flat_in_n(self, noise):
        rng = np.random.default_rng(83)
        n = 8 * est._BIN_CHUNK
        big = QuadratureBatch(rng.uniform(-3.0, 3.0, n), rng.uniform(0.0, math.pi, n),
                              CatState(1.5), noise, seed=0)
        small = QuadratureBatch(big.x[:n // 4], big.phi[:n // 4], big.state, noise, seed=0)
        params = small_params(n, grid_size=21)
        lat = lone_lattice(big, params)
        kv = lattice_kernel(lat, params)
        peaks = []
        for batch in (small, big):
            tracemalloc.start()
            binned_field(batch, lat, kv)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.05 * peaks[0], f"peak {peaks[0] / 2**20:.0f} -> {peaks[1] / 2**20:.0f} MB"

    def test_field_memory_is_the_lattice(self, noise):
        # lattice counts plus the field plus one chunk's shares and one block's
        # transforms, 1.3 MiB over the first two here; the whole-lattice FFT and a
        # lattice-sized `bincount` per chunk peaked at 159 MiB
        rng = np.random.default_rng(87)
        n = 3 * est._BIN_CHUNK
        batch = QuadratureBatch(rng.normal(0.0, 1.6, n), rng.uniform(0.0, math.pi, n), CatState(1.5), noise, seed=0)
        params = small_params(4_000_000, grid_size=201)
        lat = lone_lattice(batch, params)
        kv = lattice_kernel(lat, params)
        tracemalloc.start()
        try:
            g_field = binned_field(batch, lat, kv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lattice = 8 * lat.phi_bins * (lat.n_u + lat.n_s)
        assert peak < lattice + 8 * 2**20, f"peak {peak / 2**20:.1f} MiB, lattice and field {lattice / 2**20:.1f} MiB"
        assert g_field.flags.owndata

    @pytest.mark.parametrize("n", [500, 2048, 16384])
    def test_coarse_lattice_refuses_at_small_n(self, cat, noise, monkeypatch, n):
        # the self-check sums the min(n, 2048) samples the binning pass gathers
        # at every n, at sorted indices drawn from their own stream, the whole
        # batch up to 2048; a 32 x 256 lattice misses the budget by 3.8-15x
        # here, the sqrt(n / m) widening included
        batch = generate_batch(cat, noise, n, seed=77)
        params = ReconstructionParams.for_experiment(n, 0.1, noise, grid_size=21)
        monkeypatch.setattr(est, "_resolution", lambda r, h: (32, 256))
        probe_sums, used = est._probe_sums, []
        monkeypatch.setattr(est, "_probe_sums", lambda sub, *args: used.append(sub) or probe_sums(sub, *args))
        with pytest.raises(RuntimeError, match=r"32 x 256, .* exceeds the budget"):
            reconstruct_fast(batch, params)
        idx = np.sort(np.random.default_rng(619).choice(n, min(n, 2048), replace=False))
        (sub,) = used
        assert sub.n == min(n, 2048) and sub.x.tobytes() == batch.x[idx].tobytes()

    def test_capped_lattice_builds_high_efficiency_small_beta(self, cat):
        # eta = 0.95 and beta = 0.03 at n = 2e5 need r/h = 217, past both caps:
        # the 2048 x 8192 lattice of quadratic phase spreading passes the
        # self-check, and the grid lies within 1e-3 max|grid| of the direct sum
        nm = NoiseModel(0.95)
        batch = generate_batch(cat, nm, 200_000, seed=1)
        params = ReconstructionParams.for_experiment(200_000, 0.03, nm, grid_size=41)
        assert params.r / params.h > 24.0 * 8
        lat = est._geometry(batch, (params,))
        assert (lat.phi_bins, lat.n_s) == (2048, 8192)
        grid = reconstruct_fast(batch, params)
        mask, qs, ps = est._disk_nodes(params.axis(), params.r)
        pick = np.random.default_rng(92).choice(qs.size, 48, replace=False)
        direct = estimate_at_points(batch, params, qs[pick], ps[pick])
        assert np.max(np.abs(grid.values[mask][pick] - direct)) <= 1e-3 * np.max(np.abs(grid.values))

    def test_self_check_can_be_disabled(self, cat, noise, monkeypatch):
        batch = generate_batch(cat, noise, 4000, seed=77)
        params = ReconstructionParams.for_experiment(4000, 0.1, noise, grid_size=21)
        monkeypatch.setattr(est, "_resolution", lambda r, h: (8, 128))
        grid = reconstruct_fast(batch, params, self_check=False)
        assert grid.meta["route"] == "binned" and np.all(np.isfinite(grid.values))


class TestStreamedRead:
    """A scanned batch file bins and sums block by block, as its batch does, never held whole."""

    def test_batch_file_bins_as_its_batch(self, cat, noise, tmp_path):
        # five bin blocks; both members' grids, and the self-check sample
        # gathered during the pass, match those of the batch in memory
        n = 5 * est._BIN_CHUNK - 17
        batch = generate_batch(cat, noise, n, seed=92)
        path = str(tmp_path / "batch.qb")
        write_batch(batch, path)
        source = _BatchFile(path)
        source.scan()
        members = (small_params(n, beta=0.1), small_params(n, beta=0.05))
        from_file, in_memory = est.BinnedBatch(source, members), est.BinnedBatch(batch, members)
        for params in members:
            assert np.array_equal(reconstruct_fast(from_file, params).values,
                                  reconstruct_fast(in_memory, params).values)
        sub, sub_ref = (b.counts_and_sample[1] for b in (from_file, in_memory))
        assert sub.n == 2048
        assert sub.x.tobytes() == sub_ref.x.tobytes() and sub.phi.tobytes() == sub_ref.phi.tobytes()

    def test_memory_flat_in_chunks(self, cat, noise, tmp_path, monkeypatch):
        # the binning pass over a batch file holds the lattice counts and one
        # block, so 6 chunks peak as 3 do; the 6-chunk batch starts with the
        # 3-chunk one, so its lattice is at most a few offset columns wider
        monkeypatch.setattr(sampling, "CHUNK_SIZE", 1 << 16)
        params = small_params(4_000_000)
        peaks = []
        for chunks in (3, 6):
            path = str(tmp_path / f"c{chunks}.qb")
            stream_to_file(cat, noise, chunks << 16, 7, path)
            source = _BatchFile(path)
            source.scan()
            binned = est.BinnedBatch(source, (params,))
            tracemalloc.start()
            try:
                binned.counts_and_sample
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.01 * peaks[0], f"peaks {peaks[0] / 2**20:.2f} -> {peaks[1] / 2**20:.2f} MiB"

    def test_batch_file_sums_as_its_batch(self, cat, noise, tmp_path, monkeypatch):
        # five source blocks, the last ragged: the direct sum of the scanned
        # file is bit for bit that of the batch in memory, of the file read
        # whole, and of the whole batch taken as one block
        n = 5 * est._BIN_CHUNK - 17
        batch = generate_batch(cat, noise, n, seed=93)
        path = str(tmp_path / "batch.qb")
        write_batch(batch, path)
        source = _BatchFile(path)
        source.scan()
        params = small_params(n, grid_size=21)  # two node blocks, the second padded
        whole = read_batch(path)
        grids = [reconstruct_exact(b, params).values for b in (source, whole, batch)]
        assert grids[0].tobytes() == grids[1].tobytes() == grids[2].tobytes()
        _, qs, ps = est._disk_nodes(params.axis(), params.r)
        values = [estimate_at_points(b, params, qs, ps, sample_block=4096) for b in (source, whole, batch)]
        assert values[0].tobytes() == values[1].tobytes() == values[2].tobytes()
        monkeypatch.setattr(est, "_BIN_CHUNK", 1 << 30)
        assert reconstruct_exact(batch, params).values.tobytes() == grids[0].tobytes()
        assert estimate_at_points(batch, params, qs, ps, sample_block=4096).tobytes() == values[0].tobytes()

    @pytest.mark.slow
    def test_direct_sum_memory_flat_in_chunks(self, cat, noise, tmp_path, monkeypatch):
        # the direct sum over a batch file holds one block of it and its
        # columns, so 6 chunks peak as 3 do
        monkeypatch.setattr(sampling, "CHUNK_SIZE", 1 << 16)
        params = small_params(4_000_000, grid_size=3)
        peaks = []
        for chunks in (3, 6):
            path = str(tmp_path / f"c{chunks}.qb")
            stream_to_file(cat, noise, chunks << 16, 7, path)
            source = _BatchFile(path)
            source.scan()
            tracemalloc.start()
            try:
                reconstruct_exact(source, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.01 * peaks[0], f"peaks {peaks[0] / 2**20:.2f} -> {peaks[1] / 2**20:.2f} MiB"


class TestMeanOracle:
    def test_high_cutoff_recovers_wigner(self, cat):
        # at 1/h = 40 the truncation bias is far below 1e-4
        params = ReconstructionParams(r=6.0, h=1.0 / 40.0, grid_size=21)
        pts_q = np.array([0.0, 1.0, 3.0, -2.0, 0.5])
        pts_p = np.array([0.0, 0.5, 0.0, 1.0, -1.5])
        oracle = estimator_mean_oracle(cat, params, pts_q, pts_p)
        truth = wigner_true(cat, pts_q, pts_p)
        np.testing.assert_allclose(oracle, truth, atol=1e-4)

    def test_fourier_truncation_identity(self, cat):
        # independent route: inverse transform of the hard-truncated closed-form
        # Wigner spectrum over the frequency disk |w| <= 1/h
        params = ReconstructionParams(r=3.5, h=1.0 / 3.0, grid_size=21)
        q = np.array([0.0, 1.0, 2.5, 0.0, -1.0, 3.0])
        p = np.array([0.0, 0.5, 0.0, 1.5, -1.0, 1.0])
        ref = fourier_truncation_reference(cat, 1.0 / params.h, q, p)
        ours = estimator_mean_oracle(cat, params, q, p)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_large_amplitude_does_not_overflow(self):
        # |alpha| = 11.4 and the cutoff 48 ask for 1634 nodes per axis; every
        # term of the disk rule is bounded, so nothing overflows
        state = CatState(9.0, 7.0)
        params = ReconstructionParams(r=17.0, h=1.0 / 48.0, grid_size=21)
        q = np.array([0.0, 1.0, 0.3, -2.0, 0.05])
        p = np.array([0.0, -0.5, 2.0, -1.5, 0.1])
        ours = estimator_mean_oracle(state, params, q, p)
        ref = fourier_truncation_reference(state, 48.0, q, p, n_rho=32, n_theta=1024)
        assert np.all(np.isfinite(ours))
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("scale", ["desk", pytest.param("headline", marks=pytest.mark.slow),
                                       pytest.param("paper", marks=pytest.mark.slow)])
    def test_matches_bessel_reference_on_grid(self, cat, scale):
        # every node inside the disk; E[W] is even in q and in p for real
        # alpha, so the Bessel form on the quadrant q, p >= 0 covers them all
        params = scale_params(scale)
        ax = params.axis()
        mid = ax.size // 2
        ii, jj = np.nonzero(np.add.outer(ax * ax, ax * ax) <= params.r ** 2)
        folded, node = np.unique(np.abs(ii - mid) * (mid + 1) + np.abs(jj - mid), return_inverse=True)
        ref = bessel_mean_reference(cat, params, ax[mid + folded // (mid + 1)], ax[mid + folded % (mid + 1)])[node]
        ours = estimator_mean_oracle(cat, params, ax[ii], ax[jj])
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("state, params, q, p", [
        pytest.param(CatState(3.0 / math.sqrt(2.0)),
                     ReconstructionParams.for_experiment(10_000, 0.1, NoiseModel(0.45), grid_size=201),
                     [0.0, 3.0, -3.0, 0.0, 0.0, 1.5, 2.0, 0.0, -1.0, 2.5],
                     [0.0, 0.0, 0.0, 0.556, 1.111, 1.5, 0.0, 2.5, -1.0, 1.0], id="c06-nodes"),
        pytest.param(CatState(1.0, -0.7), ReconstructionParams(r=4.0, h=1.0 / 5.0, grid_size=21),
                     [0.0, 1.0, -2.5, 0.3, 1.7, -0.4], [0.0, 0.5, 1.0, -3.0, -1.9, 2.2], id="off-axis"),
    ])
    def test_matches_bessel_reference_at_nodes(self, state, params, q, p):
        ref = bessel_mean_reference(state, params, q, p)
        ours = estimator_mean_oracle(state, params, q, p)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("scale", ["desk", "headline", "paper", "high-cutoff"])
    def test_node_count_meets_bound_at_twice_the_nodes(self, cat, monkeypatch, scale):
        # the rule bounds its error by 1e-16; rounding adds about an ulp per
        # node per axis, from numpy's Gauss-Legendre nodes and the sums.  With
        # half the nodes the mean oracle misses by 7e-5 to 0.1
        params = (ReconstructionParams(r=6.0, h=1.0 / 30.0) if scale == "high-cutoff"
                  else scale_params(scale))
        ax = np.linspace(-params.r, params.r, 21)
        qq, pp = (a[np.add.outer(ax * ax, ax * ax) <= params.r ** 2] for a in np.meshgrid(ax, ax, indexing="ij"))
        big_r, n = est._disk_order(cat, params)
        values = {}
        half = n // 4 * 2  # even, as the folded rule needs
        for nodes in (n, 2 * n, half):
            monkeypatch.setattr(est, "_disk_order", lambda *args, nodes=nodes: (big_r, nodes))
            values[nodes] = (estimator_mean_oracle(cat, params, qq, pp), witness_mean_oracle(cat, params))
        tol = 1e-16 + 2 * (2 * n) * np.finfo(float).eps
        for short, long in ((n, 2 * n), (half, 2 * n)):
            mean_gap = np.max(np.abs(values[short][0] - values[long][0]))
            witness_gap = abs(values[short][1] - values[long][1])
            assert (max(mean_gap, witness_gap) <= tol) == (short == n), (short, mean_gap, witness_gap)

    def test_radially_symmetric_for_vacuum(self):
        state = CatState(0.0)
        params = ReconstructionParams(r=3.0, h=1.0 / 2.5, grid_size=21)
        radius = 1.3
        angles = np.linspace(0.0, 2 * math.pi, 17)
        vals = estimator_mean_oracle(state, params,
                                     radius * np.cos(angles), radius * np.sin(angles))
        assert np.max(np.abs(vals - vals[0])) < 1e-6

    def test_monotone_cutoff_effect(self, cat):
        # at gamma = 0, raising the cutoff shrinks the L2 distance to the truth
        ax = np.linspace(-2.5, 2.5, 21)
        qq, pp = np.meshgrid(ax, ax, indexing="ij")
        truth = wigner_true(cat, qq, pp)
        norms = []
        for inv_h in (1.5, 2.5, 3.5):
            params = ReconstructionParams(r=4.0, h=1.0 / inv_h, grid_size=21)
            field = estimator_mean_oracle(cat, params, qq.ravel(), pp.ravel())
            norms.append(np.linalg.norm(field - truth.ravel()))
        assert norms[0] > norms[1] > norms[2]

    def test_meshgrid_window_matches_flat_call(self, cat, noise):
        params = ReconstructionParams.for_experiment(10_000, 0.1, noise, grid_size=41)
        ax = np.linspace(-0.4, 0.4, 9)
        qq, pp = np.meshgrid(3.0 + ax, ax, indexing="ij")
        window = estimator_mean_oracle(cat, params, qq, pp)
        flat = estimator_mean_oracle(cat, params, qq.ravel(), pp.ravel())
        assert window.shape == (9, 9)
        np.testing.assert_array_equal(window, flat.reshape(9, 9))

    def test_rejects_point_outside_disk(self, cat):
        params = ReconstructionParams(r=2.0, h=0.5, grid_size=21)
        with pytest.raises(ValueError):
            estimator_mean_oracle(cat, params, 3.0, 0.0)

    def test_unbiasedness_at_probe_nodes(self, cat, noise):
        # Monte Carlo mean of the estimator against the deterministic oracle
        n, reps = 2000, 60
        params = ReconstructionParams.for_experiment(n, 0.1, noise, grid_size=21)
        pq = np.array([0.0, 3.0, 0.0, 1.5, -2.0])
        pp = np.array([0.0, 0.0, 0.5, 1.5, 1.0])
        oracle = estimator_mean_oracle(cat, params, pq, pp)
        estimates = np.empty((reps, pq.size))
        for rep in range(reps):
            batch = generate_batch(cat, noise, n, seed=5150, replicate=rep)
            estimates[rep] = estimate_at_points(batch, params, pq, pp)
        mc_mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mc_mean - oracle) <= 3.0 * se)


class TestGridOps:
    def test_mean_grid(self, cat, noise):
        params = small_params(200, grid_size=21)
        grids = [reconstruct_fast(generate_batch(cat, noise, 200, seed=9, replicate=k), params)
                 for k in range(3)]
        avg = mean_grid(grids)
        np.testing.assert_array_equal(avg.values,
                                      np.mean([g.values for g in grids], axis=0))
        assert avg.meta["kind"] == "average"
        assert avg.meta["routes"] == ["binned"] * 3 and "route" not in avg.meta

    def test_grid_io_round_trip(self, cat, noise, tmp_path):
        batch = generate_batch(cat, noise, 300, seed=13)
        batch.source_sha256 = "cd" * 32
        params = small_params(300, grid_size=21)
        grid = reconstruct_fast(batch, params)
        path = str(tmp_path / "grid.wg")
        write_grid(grid, path)
        back = read_grid(path)
        np.testing.assert_array_equal(back.values, grid.values)
        assert back.extent == grid.extent and back.r == grid.r
        assert back.meta["source_sha256"] == "cd" * 32
        assert back.meta["method"] == "fast"

    @pytest.mark.parametrize("key", ["grid_size", "extent", "r"])
    def test_rejects_header_without_required_key(self, cat, noise, tmp_path, key):
        path = str(tmp_path / "grid.wg")
        write_grid(reconstruct_exact(generate_batch(cat, noise, 50, seed=15), small_params(50, grid_size=11)),
                   path)
        rewrite_header(path, est.GRID_MAGIC, lambda header: header.pop(key))
        with pytest.raises(ValueError, match=re.escape(f"{path}: key '{key}' is missing")):
            read_grid(path)

    @pytest.mark.parametrize("key, value, kind", [
        ("grid_size", None, "finite"), ("grid_size", 11.5, "whole"), ("extent", None, "finite"),
        ("extent", "3.0", "finite"), ("r", float("nan"), "finite"),
    ])
    def test_rejects_header_value_of_wrong_type(self, cat, noise, tmp_path, key, value, kind):
        path = str(tmp_path / "grid.wg")
        write_grid(reconstruct_exact(generate_batch(cat, noise, 50, seed=15), small_params(50, grid_size=11)),
                   path)
        rewrite_header(path, est.GRID_MAGIC, lambda header: header.update({key: value}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: key '{key}' holds") + f".*not a {kind} number"):
            read_grid(path)

    def test_rejects_other_schema(self, cat, noise, tmp_path):
        path = str(tmp_path / "grid.wg")
        write_grid(reconstruct_exact(generate_batch(cat, noise, 50, seed=15), small_params(50, grid_size=11)),
                   path)
        rewrite_header(path, est.GRID_MAGIC, lambda header: header.update(schema=2))
        with pytest.raises(ValueError, match=re.escape(f"{path}: key 'schema' holds 2, not 1")):
            read_grid(path)

    def test_grid_csv(self, cat, noise, tmp_path):
        batch = generate_batch(cat, noise, 100, seed=14)
        grid = reconstruct_fast(batch, small_params(100, grid_size=21))
        path = str(tmp_path / "grid.csv")
        grid_to_csv(grid, path)
        lines = read_text(path).strip().split("\n")
        assert lines[0] == "q,p,w"
        assert len(lines) == 1 + 21 * 21
