"""Kernel, bandwidth rule, reconstruction paths, and the deterministic mean oracle."""

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
from scipy import fft
from scipy.integrate import quad
from scipy.special import i0

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
    read_grid,
    reconstruct_exact,
    reconstruct_fast,
    wigner_fourier,
    wigner_true,
    write_grid,
)
from catomo import estimator as est
from test_sampling import rewrite_header

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


def loaded_after(code, modules):
    """The `modules` loaded in a fresh interpreter after `import catomo` and `code`."""
    src = os.path.dirname(os.path.dirname(est.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"import sys, catomo; {code}; print(sorted({set(modules)!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_signal_and_integrate_unloaded():
    assert loaded_after("pass", ["scipy.signal", "scipy.integrate"]) == "[]"


def test_kernel_table_leaves_interpolate_unloaded():
    # scipy.interpolate loads scipy.optimize, about 23 MB of resident memory
    assert loaded_after("catomo.KernelTable(0.3, 0.2, t_max=5.0)", ["scipy.interpolate", "scipy.optimize"]) == "[]"


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
        # both sides of the series/closed-form switch at gamma* = a* h^2
        gamma_star = est._SERIES_LIMIT / inv_h**2
        t = np.linspace(-40.0, 40.0, 81)
        for gamma in [0.0, 1e-8, 1e-6, 0.999 * gamma_star, gamma_star, 1e-2, GAMMA_045, 0.35]:
            k0 = kernel(0.0, gamma, 1.0 / inv_h)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # quad reports roundoff at this tolerance
                ref = np.array([kernel_quad_oracle(tv, gamma, 1.0 / inv_h) for tv in t])
            err = np.max(np.abs(kernel(t, gamma, 1.0 / inv_h) - ref))
            assert err <= 1e-12 * k0, f"gamma={gamma:.3g}: error {err / k0:.2e} K(0)"

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            kernel(1.0, 0.35, 0.02)


class TestKernelTable:
    def test_within_tolerance(self):
        table = KernelTable(GAMMA_045, H_REF, t_max=12.0)
        t = np.random.default_rng(5).uniform(-12, 12, 1000)
        err = np.max(np.abs(table(t) - kernel(t, GAMMA_045, H_REF)))
        assert err < 1e-6 * table.k0

    def test_spline_matches_scipy_bit_for_bit(self):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(7)
        for n in (4, 5, 37, 1001):
            x = np.sort(rng.uniform(-5.0, 5.0, n))
            y = rng.normal(size=n)
            np.testing.assert_array_equal(est._cubic_spline(x, y), CubicSpline(x, y).c)
        grid = np.linspace(-12.0, 12.0, 1201)
        y = kernel(grid, GAMMA_045, H_REF)
        np.testing.assert_array_equal(est._cubic_spline(grid, y), CubicSpline(grid, y).c)

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
        for k in (1, est._NODE_BLOCK - 1, est._NODE_BLOCK + 5, 2 * est._NODE_BLOCK + 100):
            np.testing.assert_array_equal(estimate_at_points(batch, params, q[:k], p[:k]), full[:k])
        tail = slice(est._NODE_BLOCK + 3, None)
        np.testing.assert_array_equal(estimate_at_points(batch, params, q[tail], p[tail]), full[tail])

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
        # the end interval's spline instead of K(t)
        batch = generate_batch(cat, noise, 1000, seed=44)
        params = small_params(1000, grid_size=21)
        q, p = np.array([0.5, 3.0 * params.r]), np.array([0.2, 0.0])
        table = est._default_table(batch, params, noise.gamma)
        u = batch.x / math.sqrt(noise.eta)
        assert np.max(np.abs(q[1] * np.cos(batch.phi) - u)) > table.t_max
        ref = direct_sum_reference(batch, params, q, p)
        for k in (1, 2):  # the far node alone and beside a near one
            got = estimate_at_points(batch, params, q[-k:], p[-k:])
            np.testing.assert_allclose(got, ref[-k:], rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))


def small_params(n, beta=0.1, eta=0.45, grid_size=41):
    return ReconstructionParams.for_experiment(n, beta, NoiseModel(eta), grid_size=grid_size)


def interp_nodes_reference(g_field, qs, ps, lat):
    """Per-phase-bin responses summed at nodes (qs, ps): Catmull-Rom weights per node and per bin."""
    d_phi = math.pi / lat.phi_bins
    centers = (np.arange(lat.phi_bins) + 0.5) * d_phi
    acc = np.zeros(qs.size)
    for k, phi_k in enumerate(centers):
        i1, w = est._catmull_rom((qs * math.cos(phi_k) + ps * math.sin(phi_k) - lat.s0) / lat.delta)
        acc += sum(w[m] * g_field[k, i1 + m - 1] for m in range(4))
    return acc


def field_reference(batch, lat):
    """`_fast_field` in one shot: a single `bincount` over every sample's shares,
    then one FFT correlation over the whole lattice."""
    counts = np.bincount(*est._shares(batch, lat), minlength=lat.phi_bins * lat.n_u)
    size = fft.next_fast_len(lat.n_u + lat.n_s - 1, True)
    spectrum = fft.rfft(counts.reshape(lat.phi_bins, lat.n_u), size, axis=1) * fft.rfft(lat.kv, size)
    return fft.irfft(spectrum, size, axis=1)[:, lat.n_u - 1:lat.n_u - 1 + lat.n_s]


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
    def test_binned_route_matches_exact_random_batches(self, noise, monkeypatch):
        monkeypatch.setattr(est, "_DIRECT_LIMIT", 0)
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

    def test_binned_route_high_cutoff(self, monkeypatch):
        # eta = 0.95 with small beta pushes the cutoff past 9; the resolutions
        # scale up with r/h to hold the tolerance
        monkeypatch.setattr(est, "_DIRECT_LIMIT", 0)
        nm = NoiseModel(0.95)
        batch = generate_batch(CatState(2.0, 0.3), nm, 6000, seed=314)
        params = ReconstructionParams.for_experiment(6000, 0.05, nm, grid_size=41)
        assert est._lattice(batch, params, nm.gamma).phi_bins > 512
        fast = reconstruct_fast(batch, params)
        assert fast.meta["route"] == "binned"
        exact = reconstruct_exact(batch, params)
        scale = np.max(np.abs(exact.values))
        assert np.max(np.abs(fast.values - exact.values)) <= 1e-3 * scale

    def test_small_workload_routes_to_direct(self, cat, noise):
        batch = generate_batch(cat, noise, 500, seed=76)
        params = small_params(500, grid_size=21)
        fast = reconstruct_fast(batch, params)
        exact = reconstruct_exact(batch, params)
        np.testing.assert_array_equal(fast.values, exact.values)
        assert fast.meta["method"] == "fast"
        assert fast.meta["route"] == exact.meta["route"] == "direct"

    def test_degenerate_batch(self, cat, noise, monkeypatch):
        monkeypatch.setattr(est, "_DIRECT_LIMIT", 0)
        batch = QuadratureBatch(np.full(64, 0.7), np.full(64, 1.1), cat, noise, seed=0)
        params = small_params(64, grid_size=21)
        fast = reconstruct_fast(batch, params)
        exact = reconstruct_exact(batch, params)
        scale = np.max(np.abs(exact.values))
        assert np.max(np.abs(fast.values - exact.values)) <= 1e-3 * scale

    def test_insufficient_resolution_falls_back(self, cat, noise, monkeypatch):
        batch = generate_batch(cat, noise, 4000, seed=77)
        params = ReconstructionParams.for_experiment(4000, 0.1, noise, grid_size=21)
        monkeypatch.setattr(est, "_resolution", lambda r, h: (8, 128))
        monkeypatch.setattr(est, "_DIRECT_LIMIT", 0)
        with pytest.warns(RuntimeWarning, match="falling back"):
            grid = reconstruct_fast(batch, params)
        exact = reconstruct_exact(batch, params)
        np.testing.assert_array_equal(grid.values, exact.values)
        assert grid.meta["route"] == "fallback"

    def test_probe_sums_match_fft_field(self, cat, noise):
        batch = generate_batch(cat, noise, 2048, seed=79)
        params = small_params(2048, grid_size=21)
        lat = est._lattice(batch, params, noise.gamma)
        ax = params.axis()
        qq, pp = np.meshgrid(ax, ax, indexing="ij")
        inside = qq**2 + pp**2 <= params.r**2
        pick = np.random.default_rng(80).choice(np.count_nonzero(inside), 24, replace=False)
        qs, ps = qq[inside][pick], pp[inside][pick]
        ref = est._interp_grid(est._fast_field(batch, lat), ax, inside, lat)[inside][pick]
        ours = est._probe_sums(batch, lat, qs, ps)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid_size", [3, 21, 41])
    @pytest.mark.parametrize("phi_bins", [512, 1024])
    def test_mirrored_interpolation_matches_per_bin_loop(self, noise, grid_size, phi_bins):
        # alpha2 != 0 breaks both reflection symmetries of the field, so an image
        # written to the wrong quadrant, or a bin paired with the wrong partner, shows
        batch = generate_batch(CatState(1.5, 0.7), noise, 3000, seed=84)
        params = small_params(3000, grid_size=grid_size)
        lat = est._lattice(batch, params, noise.gamma)._replace(phi_bins=phi_bins)
        g_field = est._fast_field(batch, lat)
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

    def test_interpolation_allocates_no_lattice_sized_array(self, cat, noise):
        params = small_params(4_000_000, grid_size=201)
        x = np.linspace(-6.0, 6.0, 64)
        lat = est._lattice(QuadratureBatch(x, np.zeros(64), cat, noise, seed=0), params, noise.gamma)
        g_field = np.random.default_rng(85).normal(size=(lat.phi_bins, lat.n_s))
        ax = params.axis()
        mask = est._disk_nodes(ax, params.r)[0]
        tracemalloc.start()
        est._interp_grid(g_field, ax, mask, lat)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < g_field.nbytes / 4, f"peak {peak / 2**20:.1f} MiB, lattice {g_field.nbytes / 2**20:.1f} MiB"

    def test_chunked_binning_matches_one_pass(self, cat, noise, monkeypatch):
        batch = generate_batch(cat, noise, 5000, seed=81)
        lat = est._lattice(batch, small_params(5000), noise.gamma)
        whole = est._fast_field(batch, lat)
        monkeypatch.setattr(est, "_BIN_CHUNK", 1000)
        assert np.array_equal(est._fast_field(batch, lat), whole)

    # s = 1 is the 512 x 4096 lattice of beta = 0.1; beta = 0.05 at n = 1.6e7 needs s = 2
    @pytest.mark.parametrize("n_rule, beta, phi_bins", [(4_000_000, 0.1, 512), (16_000_000, 0.05, 1024)])
    @pytest.mark.parametrize("chunk, rows", [(None, None), (1000, 7)])
    def test_field_matches_one_shot_reference(self, monkeypatch, n_rule, beta, phi_bins, chunk, rows):
        # counts are summed in sample order and each phase row transforms alone,
        # so neither the chunk nor the block size changes a bit of the field
        if chunk:
            monkeypatch.setattr(est, "_BIN_CHUNK", chunk)
            monkeypatch.setattr(est, "_FFT_ROWS", rows)
        batch = seam_batch(3 * est._BIN_CHUNK + 321 if chunk is None else 3210, seed=86)
        lat = est._lattice(batch, small_params(n_rule, beta=beta), batch.noise.gamma)
        assert lat.phi_bins == phi_bins
        assert np.array_equal(est._fast_field(batch, lat), field_reference(batch, lat))

    def test_phase_seam_half_turn(self, cat, noise):
        # (x, 0) and (-x, pi) are the same quadrature, so they must bin to the same field
        x = np.random.default_rng(82).normal(0.0, 1.5, 400)
        edge = np.where(np.arange(400) % 2, 0.0, math.pi)
        at_edge = QuadratureBatch(x, edge, cat, noise, seed=0)
        turned = QuadratureBatch(-x, math.pi - edge, cat, noise, seed=0)
        lat = est._lattice(at_edge, small_params(400), noise.gamma)
        ref = est._fast_field(at_edge, lat)
        assert np.max(np.abs(est._fast_field(turned, lat) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_binning_memory_flat_in_n(self, noise):
        rng = np.random.default_rng(83)
        n = 8 * est._BIN_CHUNK
        big = QuadratureBatch(rng.uniform(-3.0, 3.0, n), rng.uniform(0.0, math.pi, n),
                              CatState(1.5), noise, seed=0)
        small = QuadratureBatch(big.x[:n // 4], big.phi[:n // 4], big.state, noise, seed=0)
        lat = est._lattice(big, small_params(n, grid_size=21), noise.gamma)
        peaks = []
        for batch in (small, big):
            tracemalloc.start()
            est._fast_field(batch, lat)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.05 * peaks[0], f"peak {peaks[0] / 2**20:.0f} -> {peaks[1] / 2**20:.0f} MB"

    def test_field_memory_is_the_lattice(self, noise):
        # lattice counts plus the field plus one chunk's shares and one block's
        # transforms, 2.6 MiB over the first two here; the whole-lattice FFT and a
        # lattice-sized `bincount` per chunk peaked at 159 MiB
        rng = np.random.default_rng(87)
        n = 3 * est._BIN_CHUNK
        batch = QuadratureBatch(rng.normal(0.0, 1.6, n), rng.uniform(0.0, math.pi, n), CatState(1.5), noise, seed=0)
        lat = est._lattice(batch, small_params(4_000_000, grid_size=201), noise.gamma)
        tracemalloc.start()
        try:
            g_field = est._fast_field(batch, lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lattice = 8 * lat.phi_bins * (lat.n_u + lat.n_s)
        assert peak < lattice + 8 * 2**20, f"peak {peak / 2**20:.1f} MiB, lattice and field {lattice / 2**20:.1f} MiB"
        assert g_field.flags.owndata

    def test_self_check_can_be_disabled(self, cat, noise, monkeypatch):
        monkeypatch.setattr(est, "_DIRECT_LIMIT", 0)
        batch = generate_batch(cat, noise, 1000, seed=78)
        params = small_params(1000, grid_size=21)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reconstruct_fast(batch, params, self_check=False)


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
        # At the origin the ridge term is I0(rho |w0| / 2); up to the cutoff
        # 48 that reaches 774, where an unscaled i0 is inf.
        state = CatState(9.0, 7.0)
        params = ReconstructionParams(r=17.0, h=1.0 / 48.0, grid_size=21)
        w0 = 2.0 * math.sqrt(2.0) * math.hypot(9.0, 7.0)
        assert np.isinf(i0(48.0 * w0 / 2.0))
        q = np.array([0.0, 1.0, 0.3, -2.0, 0.05])
        p = np.array([0.0, -0.5, 2.0, -1.5, 0.1])
        ours = estimator_mean_oracle(state, params, q, p)
        ref = fourier_truncation_reference(state, 48.0, q, p, n_rho=32, n_theta=1024)
        assert np.all(np.isfinite(ours))
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))

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
        assert avg.meta["routes"] == ["direct"] * 3 and "route" not in avg.meta

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
        with pytest.raises(ValueError, match=re.escape(f"{path}: header lacks the required key '{key}'")):
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
        with pytest.raises(ValueError, match=re.escape(f"{path}: header key '{key}' holds") + f".*not a {kind} number"):
            read_grid(path)

    def test_rejects_other_schema(self, cat, noise, tmp_path):
        path = str(tmp_path / "grid.wg")
        write_grid(reconstruct_exact(generate_batch(cat, noise, 50, seed=15), small_params(50, grid_size=11)),
                   path)
        rewrite_header(path, est.GRID_MAGIC, lambda header: header.update(schema=2))
        with pytest.raises(ValueError, match=re.escape(f"{path}: header schema is 2, expected 1")):
            read_grid(path)

    def test_grid_csv(self, cat, noise, tmp_path):
        batch = generate_batch(cat, noise, 100, seed=14)
        grid = reconstruct_fast(batch, small_params(100, grid_size=21))
        path = str(tmp_path / "grid.csv")
        grid_to_csv(grid, path)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "q,p,w"
        assert len(lines) == 1 + 21 * 21
