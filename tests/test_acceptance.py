"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Criteria 8 runs at the full protocol scale (n = 16e6, M = 10) and is gated
behind CATOMO_PAPER_SCALE=1; with the gate enabled, criteria 9 and 10 also
run at the full scale instead of the n = 4e6 fallback.
"""

import math
import os
import time
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import stats as sps
from scipy.integrate import quad

from catomo import (
    CatState,
    KernelTable,
    NoiseModel,
    ReconstructionParams,
    estimate_at_points,
    estimator_mean_oracle,
    generate_batch,
    kernel,
    l2_error,
    mean_grid,
    mean_square_error,
    noisy_quadrature_density,
    quadrature_density,
    read_batch,
    reconstruct_exact,
    reconstruct_fast,
    witness_mean_from_grid,
    witness_mean_oracle,
    witness_stats,
    write_batch,
)
from catomo import estimator as est
from catomo.cli import ExperimentConfig, main, save_config
from conftest import report
from test_states import radon_oracle

PAPER_SCALE = os.environ.get("CATOMO_PAPER_SCALE") == "1"
HEADLINE_N = 16_000_000 if PAPER_SCALE else 4_000_000
HEADLINE_M = 10
HEADLINE_SEED = 2006

CAT = CatState(3.0 / math.sqrt(2.0))
NOISE45 = NoiseModel(0.45)


def _verdict(num: int, name: str, ok: bool, detail: str, elapsed: float | None = None):
    stamp = f", {elapsed:.1f}s" if elapsed is not None else ""
    report(f"[ACCEPT] C{num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail}{stamp})")
    assert ok, f"C{num} {name}: {detail}"


# ---------------------------------------------------------------------------
# shared full-protocol artifacts (criteria 8, 9, 10)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def headline_batches(tmp_path_factory):
    root = tmp_path_factory.mktemp("headline_batches")
    paths = []
    for rep in range(HEADLINE_M):
        batch = generate_batch(CAT, NOISE45, HEADLINE_N, seed=HEADLINE_SEED, replicate=rep)
        path = str(root / f"batch_r{rep:02d}.qb")
        write_batch(batch, path)
        paths.append(path)
        del batch
    return paths


@pytest.fixture(scope="module")
def headline_grids(headline_batches):
    params = ReconstructionParams.for_experiment(HEADLINE_N, 0.1, NOISE45, grid_size=201)
    grids = []
    for path in headline_batches:
        grids.append(reconstruct_fast(read_batch(path), params))
    return grids, params


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_table1_bound_reproduction(tmp_path, capsys):
    cfg = ExperimentConfig(output_dir=str(tmp_path / "out"))
    path = str(tmp_path / "paper.ini")
    save_config(cfg, path)
    t0 = time.perf_counter()
    code = main(["table1", "--config", path])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    bounds = {}
    for line in out.strip().split("\n")[1:]:
        tokens = line.split()
        bounds[float(tokens[0])] = float(tokens[2])
    ok = (code == 0
          and abs(bounds[0.05] - 2.39) / 2.39 <= 0.01
          and abs(bounds[0.1] - 26.07) / 26.07 <= 0.01
          and elapsed < 1.0)
    _verdict(1, "Table 1 bound reproduction",
             ok, f"Delta(0.05)={bounds[0.05]:.4f} vs 2.39, Delta(0.1)={bounds[0.1]:.4f} vs 26.07",
             elapsed)


def test_c02_kernel_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(100):
        gamma = rng.uniform(0.0, 0.35)
        inv_h = rng.uniform(1.0, 6.0)
        t = rng.uniform(0.0, 12.0)
        ours = kernel(t, gamma, 1.0 / inv_h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # quad reports roundoff at this tolerance
            ref, _ = quad(lambda xi: xi * math.exp(gamma * xi * xi) * math.cos(xi * t),
                          0.0, inv_h, limit=500, epsabs=1e-13, epsrel=1e-13)
        ref /= 2.0 * math.pi
        scale = (math.exp(gamma * inv_h**2) - 1.0) / (4.0 * math.pi * gamma) if gamma > 0 \
            else inv_h**2 / (4.0 * math.pi)
        worst = max(worst, abs(ours - ref) / max(abs(ref), 1e-9 * scale))
    ident = 0.0
    for gamma, h in [(11.0 / 36.0, 1.0 / 4.8297), (0.2, 0.3), (0.35, 1.0 / 6.0)]:
        closed = (math.exp(gamma / h**2) - 1.0) / (4.0 * math.pi * gamma)
        ident = max(ident, abs(kernel(0.0, gamma, h) - closed) / closed)
    for t in [0.7, 3.0, 10.0]:
        c = 5.0
        closed = (c * math.sin(c * t) / t + (math.cos(c * t) - 1.0) / t**2) / (2.0 * math.pi)
        ident = max(ident, abs(kernel(t, 0.0, 1.0 / c) - closed) / abs(closed))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and ident <= 1e-12 and elapsed < 10.0
    _verdict(2, "kernel correctness", ok,
             f"worst rel err {worst:.2e} (tol 1e-8), identities {ident:.2e} (tol 1e-12)", elapsed)


def test_c03_density_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(27182)
    worst_radon = 0.0
    for _ in range(100):
        x = rng.uniform(-4.5, 4.5)
        phi = rng.uniform(0.0, math.pi)
        worst_radon = max(worst_radon,
                          abs(quadrature_density(CAT, x, phi) - radon_oracle(CAT, x, phi)))
    worst_conv = 0.0
    for _ in range(100):
        x = rng.uniform(-4.0, 4.0)
        phi = rng.uniform(0.0, math.pi)
        eta = rng.uniform(0.3, 0.99)
        nm = NoiseModel(eta)
        ref, _ = quad(lambda u: math.exp(-u * u / (1 - eta)) / math.sqrt(math.pi * (1 - eta))
                      * quadrature_density(CAT, (x - u) / math.sqrt(eta), phi) / math.sqrt(eta),
                      -10, 10, limit=200, epsabs=1e-12)
        worst_conv = max(worst_conv, abs(noisy_quadrature_density(CAT, nm, x, phi) - ref))
    worst_norm = 0.0
    for phi in np.linspace(0.0, math.pi, 7):
        ideal, _ = quad(lambda x: quadrature_density(CAT, x, phi), -12, 12, limit=200)
        noisy, _ = quad(lambda x: noisy_quadrature_density(CAT, NOISE45, x, phi), -12, 12, limit=200)
        worst_norm = max(worst_norm, abs(ideal - 1.0), abs(noisy - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_radon <= 1e-6 and worst_conv <= 1e-8 and worst_norm <= 1e-8 and elapsed < 30.0
    _verdict(3, "density consistency", ok,
             f"radon {worst_radon:.2e} (1e-6), conv {worst_conv:.2e} (1e-8), "
             f"norm {worst_norm:.2e} (1e-8)", elapsed)


def _stratum_chi2_pvalues(batch, state, nm, n_strata=10, bins=40, lo=-4.5, hi=4.5):
    """A chi^2 p-value per phase stratum against the stratum-averaged density."""
    edges_phi = np.linspace(0.0, math.pi, n_strata + 1)
    gl_x, gl_w = leggauss(16)
    xs = np.linspace(lo - 10.0, hi + 10.0, 8001)
    pvals = []
    for k in range(n_strata):
        a, b = edges_phi[k], edges_phi[k + 1]
        phis = 0.5 * (a + b) + 0.5 * (b - a) * gl_x
        dens = np.zeros_like(xs)
        for phi, w in zip(phis, gl_w):
            dens += 0.5 * w * noisy_quadrature_density(state, nm, xs, phi)
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(xs))])
        cdf /= cdf[-1]
        bin_edges = np.linspace(lo, hi, bins + 1)
        probs = np.diff(np.interp(bin_edges, xs, cdf))
        probs[0] += np.interp(lo, xs, cdf)
        probs[-1] += 1.0 - np.interp(hi, xs, cdf)
        sel = (batch.phi >= a) & (batch.phi < b)
        observed, _ = np.histogram(np.clip(batch.x[sel], lo, hi), bins=bin_edges)
        expected = probs * sel.sum()
        keep = expected >= 5.0
        chi2 = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
        pvals.append(sps.chi2.sf(chi2, keep.sum() - 1))
    return pvals


def test_c04_sampler_fidelity():
    t0 = time.perf_counter()
    details = []
    ok = True
    for eta, seed in [(0.45, 1618), (0.95, 1619)]:
        nm = NoiseModel(eta)
        batch = generate_batch(CAT, nm, 100_000, seed=seed)
        pvals = _stratum_chi2_pvalues(batch, CAT, nm)
        ks_p = sps.kstest(batch.phi, sps.uniform(0, math.pi).cdf).pvalue
        ok = ok and min(pvals) > 0.01 and ks_p > 0.01
        details.append(f"eta={eta}: min chi2 p={min(pvals):.3f}, phase KS p={ks_p:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(4, "sampler fidelity", ok, "; ".join(details), elapsed)


def test_c05_fast_path_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst_ratio = 0.0
    for trial in range(50):
        n = int(rng.integers(1000, 10_001))
        state = CatState(rng.uniform(0.3, 2.5), rng.uniform(-0.8, 0.8))
        eta = float(rng.choice([0.45, 0.6, 0.95]))
        nm = NoiseModel(eta)
        beta = rng.uniform(0.03, 0.2)
        batch = generate_batch(state, nm, n, seed=7000 + trial)
        params = ReconstructionParams.for_experiment(n, beta, nm, grid_size=41)
        fast = reconstruct_fast(batch, params)
        exact = reconstruct_exact(batch, params)
        scale = np.max(np.abs(exact.values))
        dev = np.max(np.abs(fast.values - exact.values))
        worst_ratio = max(worst_ratio, dev / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1e-3 and elapsed < 120.0
    _verdict(5, "fast-path equivalence", ok,
             f"worst dev/max|grid| = {worst_ratio:.2e} over 50 batches (tol 1e-3)", elapsed)


@pytest.mark.slow
def test_c05_fast_path_equivalence_at_headline_scale(headline_batches, headline_grids):
    # the binned route on the first headline batch at both betas, against the
    # direct sum at 24 random inside-disk nodes and 24 near the rim, |x| > 0.9 r
    t0 = time.perf_counter()
    grids_01, _ = headline_grids
    batch = read_batch(headline_batches[0])
    rng = np.random.default_rng(5005)
    details, worst_ratio = [], 0.0
    for beta in (0.05, 0.1):
        params = ReconstructionParams.for_experiment(HEADLINE_N, beta, NOISE45, grid_size=201)
        grid = grids_01[0] if beta == 0.1 else reconstruct_fast(batch, params)
        ax = grid.axis()
        ii, jj = np.nonzero(grid.inside_disk())
        rim = np.flatnonzero(np.hypot(ax[ii], ax[jj]) > 0.9 * params.r)
        pick = np.concatenate([rng.choice(ii.size, 24, replace=False), rng.choice(rim, 24, replace=False)])
        i, j = ii[pick], jj[pick]
        direct = estimate_at_points(batch, params, ax[i], ax[j], sample_block=4096)
        ratio = np.max(np.abs(grid.values[i, j] - direct)) / np.max(np.abs(grid.values))
        worst_ratio = max(worst_ratio, ratio)
        details.append(f"beta={beta:g}: {ratio:.2e}")
    elapsed = time.perf_counter() - t0
    _verdict(5, "fast-path equivalence at headline scale", worst_ratio <= 1e-3,
             f"n={HEADLINE_N:,}, 201^2, 48 nodes per beta, dev/max|grid|: "
             f"{'; '.join(details)} (tol 1e-3)", elapsed)


def test_c06_estimator_bias_oracle(monkeypatch):
    t0 = time.perf_counter()
    n, reps = 10_000, 200
    params = ReconstructionParams.for_experiment(n, 0.1, NOISE45, grid_size=201)
    pq = np.array([0.0, 3.0, -3.0, 0.0, 0.0, 1.5, 2.0, 0.0, -1.0, 2.5])
    pp = np.array([0.0, 0.0, 0.0, 0.556, 1.111, 1.5, 0.0, 2.5, -1.0, 1.0])
    oracle = estimator_mean_oracle(CAT, params, pq, pp)
    table = KernelTable(NOISE45.gamma, params.h, t_max=params.r + 14.0)
    monkeypatch.setattr(est, "_default_table", lambda *args: table)
    estimates = np.empty((reps, pq.size))
    for rep in range(reps):
        batch = generate_batch(CAT, NOISE45, n, seed=903, replicate=rep)
        estimates[rep] = estimate_at_points(batch, params, pq, pp)
    mc_mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / math.sqrt(reps)
    pulls = np.abs(mc_mean - oracle) / se
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(pulls <= 3.0)) and elapsed < 300.0
    _verdict(6, "estimator bias oracle", ok,
             f"max |MC mean - oracle| = {pulls.max():.2f} standard errors over 10 nodes "
             f"(tol 3), 200 replicates", elapsed)


def _desk_delta(n, seed, m=5, beta=0.1, grid_size=101):
    params = ReconstructionParams.for_experiment(n, beta, NOISE45, grid_size=grid_size)
    errors = []
    for rep in range(m):
        batch = generate_batch(CAT, NOISE45, n, seed=seed, replicate=rep)
        grid = reconstruct_fast(batch, params)
        errors.append(l2_error(grid, CAT))
    return mean_square_error(errors)


def test_c07_desk_scale_error_behavior():
    # mirrors --preset desk: n = 5e5, M = 5, eta = 0.45, beta = 0.1, 101^2 grid
    t0 = time.perf_counter()
    seeds = (501, 502, 503)
    from catomo import error_upper_bound

    desk = [_desk_delta(500_000, seed) for seed in seeds]
    small = [_desk_delta(100_000, seed) for seed in seeds]
    bound = error_upper_bound(500_000, 0.1, 0.45, CAT)
    desk_mean, small_mean = float(np.mean(desk)), float(np.mean(small))
    elapsed = time.perf_counter() - t0
    ok = (math.isfinite(desk_mean) and 0.0 < desk_mean <= bound
          and desk_mean < small_mean and elapsed < 600.0)
    _verdict(7, "desk-scale error behavior", ok,
             f"Delta(5e5)={desk_mean:.4f} < Delta(1e5)={small_mean:.4f}, "
             f"bound {bound:.2f}", elapsed)


@pytest.mark.slow
@pytest.mark.paper_scale
@pytest.mark.skipif(not PAPER_SCALE, reason="full 16e6-sample protocol; set CATOMO_PAPER_SCALE=1")
def test_c08_table1_numeric_column(headline_batches, headline_grids):
    t0 = time.perf_counter()
    grids_01, _ = headline_grids
    numeric = {0.1: mean_square_error([l2_error(g, CAT) for g in grids_01])}
    params05 = ReconstructionParams.for_experiment(HEADLINE_N, 0.05, NOISE45, grid_size=201)
    errors05 = []
    for path in headline_batches:
        errors05.append(l2_error(reconstruct_fast(read_batch(path), params05), CAT))
    numeric[0.05] = mean_square_error(errors05)
    elapsed = time.perf_counter() - t0
    ok = (abs(numeric[0.05] - 0.081) <= 0.5 * 0.081
          and abs(numeric[0.1] - 0.076) <= 0.5 * 0.076
          and elapsed < 3600.0)
    _verdict(8, "paper-scale Table 1 numeric column", ok,
             f"Delta_numeric(0.05)={numeric[0.05]:.4f} vs 0.081 +/-50%, "
             f"Delta_numeric(0.1)={numeric[0.1]:.4f} vs 0.076 +/-50%", elapsed)


# ---------------------------------------------------------------------------
# checks of criteria 9 and 10 at the precision the estimator promises
# ---------------------------------------------------------------------------

# Each lobe is e^{-(q -+ q0)^2 - p^2} with a 1/e radius of 1: a 3-SE band wider
# than half of that no longer locates the lobe, however centred it looks.
LOBE_BAND_CAP = 0.5


def _half_plane_peaks(values, ax, lobe_q):
    """Offsets (dq, dp) of the q >= 0 and q <= 0 maxima from (lobe_q, 0) and (-lobe_q, 0).

    Rows are the positive and the negative lobe; the q = 0 row belongs to both.
    """
    half = values.shape[0] // 2
    i_pos, j_pos = np.unravel_index(np.argmax(values[half:]), values[half:].shape)
    i_neg, j_neg = np.unravel_index(np.argmax(values[:half + 1]), values[:half + 1].shape)
    return np.array([[ax[half + i_pos] - lobe_q, ax[j_pos]],
                     [ax[i_neg] + lobe_q, ax[j_neg]]])


def _lobe_location_check(stack, ax, lobe_q):
    """Lobe maxima of the replicate average against the scatter of the replicates.

    `stack` holds the M replicate grids along its first axis.  SE is the sample
    sd of the M per-replicate maxima over sqrt(M), per lobe and coordinate.
    Passes when each maximum of the averaged grid lies within 3 SE of its lobe
    centre in each coordinate and no 3 SE exceeds LOBE_BAND_CAP.  Returns
    (ok, offsets, bands), both shaped (lobe, coordinate).
    """
    offsets = _half_plane_peaks(stack.mean(axis=0), ax, lobe_q)
    per_replicate = np.array([_half_plane_peaks(v, ax, lobe_q) for v in stack])
    bands = 3.0 * per_replicate.std(axis=0, ddof=1) / math.sqrt(stack.shape[0])
    ok = bool(np.all(np.abs(offsets) <= bands) and bands.max() <= LOBE_BAND_CAP)
    return ok, offsets, bands


def _oracle_peak_offset(params, ax, lobe_q):
    """Largest offset max(|dq|, |dp|) of the expected field's lobe maxima from (+-lobe_q, 0).

    Evaluates `estimator_mean_oracle` on a window of grid nodes reaching four
    cells each way from the node nearest each lobe centre, wide enough that a
    peak more than one cell off shows.
    """
    window = np.arange(-4, 5)
    j = window + np.argmin(np.abs(ax))
    worst = 0.0
    for centre in (lobe_q, -lobe_q):
        i = window + np.argmin(np.abs(ax - centre))
        qq, pp = (a.ravel() for a in np.meshgrid(ax[i], ax[j], indexing="ij"))
        k = np.argmax(estimator_mean_oracle(CAT, params, qq, pp))
        worst = max(worst, abs(qq[k] - centre), abs(pp[k]))
    return worst


def _witness_consistent(av, se, ceiling):
    """The replicate average agrees with the estimator's expected witness mean to 3 SE."""
    return abs(av - ceiling) <= 3.0 * se


@pytest.mark.slow
def test_c09_interference_below_half_efficiency(headline_grids):
    grids, params = headline_grids
    means = [witness_mean_from_grid(g, CAT) for g in grids]
    stats = witness_stats(means, CAT)
    ceiling = witness_mean_oracle(CAT, params)
    se = stats.sd / math.sqrt(len(means))
    consistent = _witness_consistent(stats.av, se, ceiling)
    ok = stats.separated and consistent
    failing = [name for name, held in (("separated", stats.separated),
                                       ("ceiling", consistent)) if not held]
    _verdict(9, "interference at sub-50% efficiency", ok,
             f"n={HEADLINE_N:,}, M={HEADLINE_M}: av={stats.av:.4f} vs oracle ceiling "
             f"{ceiling:.4f}, |av-ceiling|={abs(stats.av - ceiling) / se:.2f} SE (tol 3, "
             f"SE={se:.4f}); separated: |av-incoherent|={abs(stats.av - stats.incoherent_ref):.4f} "
             f"vs sd={stats.sd:.4f} (incoherent ref {stats.incoherent_ref:.3e}); "
             f"failing: {', '.join(failing) or 'none'}")


@pytest.mark.slow
def test_c10_figure2_qualitative(headline_grids):
    grids, params = headline_grids
    avg = mean_grid(grids)
    ax = avg.axis()
    cell = avg.cell
    lobe_q = math.sqrt(2.0) * CAT.alpha1

    # the expected field places the lobes to one grid cell
    oracle_err = _oracle_peak_offset(params, ax, lobe_q)
    # the M-replicate average places them to the precision its scatter allows
    located, offsets, bands = _lobe_location_check(np.stack([g.values for g in grids]), ax, lobe_q)

    # central interference region: |q| < 1, |p| <= 1.5
    central = (np.abs(ax[:, None]) < 1.0) & (np.abs(ax[None, :]) <= 1.5)
    central_min = float(avg.values[central].min())

    ok = oracle_err <= cell and located and central_min < 0.0
    lobes = "; ".join(
        f"{name} lobe offset ({abs(dq) / cell:.1f}, {abs(dp) / cell:.1f}) cells "
        f"vs 3 SE ({bq / cell:.1f}, {bp / cell:.1f})"
        for name, (dq, dp), (bq, bp) in zip(("+q", "-q"), offsets, bands))
    _verdict(10, "Figure 2 qualitative reproduction", ok,
             f"oracle peak offset {oracle_err / cell:.2f} cells (tol 1); {lobes}; "
             f"largest 3 SE {bands.max():.3f} (cap {LOBE_BAND_CAP}); "
             f"central min {central_min:.4f} < 0")


# ---------------------------------------------------------------------------
# the corrected checks fail on displaced inputs
# ---------------------------------------------------------------------------

def _lobe_stack(shifts, noise=0.0):
    """Ten synthetic grids with Gaussian lobes at (+-(3 + dq), dp), one (dq, dp) per replicate."""
    ax = np.linspace(-4.0, 4.0, 401)
    qq, pp = np.meshgrid(ax, ax, indexing="ij")
    rng = np.random.default_rng(0)
    stack = np.empty((10, ax.size, ax.size))
    for k, (dq, dp) in enumerate(np.broadcast_to(shifts, (10, 2))):
        stack[k] = (np.exp(-(qq - 3.0 - dq) ** 2 - (pp - dp) ** 2)
                    + np.exp(-(qq + 3.0 + dq) ** 2 - (pp - dp) ** 2))
    stack += noise * rng.standard_normal(stack.shape)
    return stack, ax


class TestCorrectedChecks:
    def test_centred_lobes_located(self):
        stack, ax = _lobe_stack((0.0, 0.0), noise=0.05)
        ok, offsets, bands = _lobe_location_check(stack, ax, 3.0)
        assert ok, (offsets, bands)

    def test_lobe_shifted_in_q_fails(self):
        stack, ax = _lobe_stack((0.5, 0.0), noise=0.05)
        ok, offsets, bands = _lobe_location_check(stack, ax, 3.0)
        assert not ok
        assert np.all(np.abs(offsets[:, 0]) > bands[:, 0])

    def test_band_above_cap_fails(self):
        # replicate maxima scattered by +-1.2 around a centred mean
        shifts = np.stack([np.linspace(-1.2, 1.2, 10), np.zeros(10)], axis=1)
        stack, ax = _lobe_stack(shifts)
        ok, offsets, bands = _lobe_location_check(stack, ax, 3.0)
        assert not ok
        assert np.all(np.abs(offsets) <= bands) and bands.max() > LOBE_BAND_CAP

    def test_witness_at_measured_values_consistent(self):
        assert _witness_consistent(0.0310, 0.0360 / math.sqrt(10), 0.0354)

    def test_witness_far_above_ceiling_fails(self):
        assert not _witness_consistent(0.25, 0.0360 / math.sqrt(10), 0.035)
