"""L2 error metrology, the closed-form bound, and witness statistics."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from catomo import (
    CatState,
    NoiseModel,
    ReconstructionParams,
    WITNESS_PAIRING,
    WignerGrid,
    delta_terms,
    error_upper_bound,
    estimator_mean_oracle,
    generate_batch,
    l2_error,
    mean_square_error,
    reconstruct_fast,
    sweep_beta,
    wigner_fourier,
    wigner_true,
    witness_mean_from_grid,
    witness_mean_oracle,
    witness_stats,
)
from test_estimator import scale_params

# mpmath-frozen bound constants for |alpha|^2 = 4.5
DELTA2_01 = 1.3415004916535819
DELTA3_01 = 265.06599862342611
BOUND_005 = 2.3923514370691162
BOUND_01 = 26.072371303559524


def polar_witness_reference(state, params):
    """`witness_mean_oracle` by a polar rule: 96 Gauss-Legendre radii up to
    min(c, |w0| + 16) times 512 periodic trapezoid angles."""
    w01, w02 = -2.0 * math.sqrt(2.0) * state.alpha2, 2.0 * math.sqrt(2.0) * state.alpha1
    rho_hi = min(1.0 / params.h, math.hypot(w01, w02) + 16.0)
    gx, gw = leggauss(96)
    rho = 0.5 * rho_hi * (gx + 1.0)
    rho_w = 0.5 * rho_hi * gw * rho
    theta = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    w1, w2 = rho[:, None] * np.cos(theta), rho[:, None] * np.sin(theta)
    shifted = np.exp(-((w1 - w01) ** 2 + (w2 - w02) ** 2) / 4.0) + np.exp(-((w1 + w01) ** 2 + (w2 + w02) ** 2) / 4.0)
    total = rho_w @ (shifted * wigner_fourier(state, w1, w2)).sum(axis=1) * (2.0 * math.pi / theta.size)
    f_o_norm = math.sqrt(math.pi) / (2.0 * (1.0 + state.overlap))  # F[O] = f_o_norm * shifted
    return float(WITNESS_PAIRING * f_o_norm * total / (4.0 * math.pi ** 2))


def analytic_grid(state, extent=8.0, size=201, r=None):
    ax = np.linspace(-extent, extent, size)
    qq, pp = np.meshgrid(ax, ax, indexing="ij")
    meta = {"alpha1": state.alpha1, "alpha2": state.alpha2}
    return WignerGrid(wigner_true(state, qq, pp), extent=extent,
                      r=extent if r is None else r, meta=meta)


class TestL2Error:
    def test_zero_grid_gives_state_norm(self, cat):
        zero = analytic_grid(cat)
        zero.values = np.zeros_like(zero.values)
        assert l2_error(zero, cat) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-4)

    def test_self_distance_vanishes(self, cat):
        assert l2_error(analytic_grid(cat), cat) < 1e-6

    def test_truncation_tail_counts(self, cat):
        # a perfect reconstruction limited to a small disk still pays the tail
        grid = analytic_grid(cat, extent=2.0, size=81, r=2.0)
        grid.values[~grid.inside_disk()] = 0.0
        err = l2_error(grid, cat)
        assert err > 1e-3  # the lobes at radius 3 lie outside the disk

    def test_state_mismatch_rejected(self, cat):
        grid = analytic_grid(cat)
        with pytest.raises(ValueError):
            l2_error(grid, CatState(1.0))

    @pytest.mark.parametrize("key", ["alpha1", "alpha2"])
    @pytest.mark.parametrize("measure", [l2_error, witness_mean_from_grid])
    def test_grid_without_state_rejected(self, cat, key, measure):
        grid = analytic_grid(cat)
        del grid.meta[key]
        with pytest.raises(ValueError, match=key):
            measure(grid, cat)

    def test_quadrature_nodes_built_once(self, cat, monkeypatch):
        from catomo import analysis, estimator

        orders = []

        def counted(n):
            orders.append(n)
            return np.polynomial.legendre.leggauss(n)

        analysis._tail_norm_sq.cache_clear()
        estimator._leggauss.cache_clear()
        monkeypatch.setattr(estimator, "leggauss", counted)
        grid = analytic_grid(cat)
        try:
            assert l2_error(grid, cat) == l2_error(grid, cat)
        finally:
            estimator._leggauss.cache_clear()
        assert orders and len(orders) == len(set(orders))
        # the tail outside the disk is integrated once per (state, r)
        assert analysis._tail_norm_sq.cache_info().hits == 1


class TestMeanSquareError:
    def test_single(self):
        assert mean_square_error([0.08]) == 0.08

    def test_pair(self):
        assert mean_square_error([0.1, 0.2]) == pytest.approx(0.15, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_square_error([])


class TestDeltaTerms:
    def test_frozen_constants(self, cat):
        from catomo.analysis import _delta2, _delta3
        assert _delta2(0.1, cat) == pytest.approx(DELTA2_01, rel=1e-9)
        assert _delta3(0.1, cat) == pytest.approx(DELTA3_01, rel=1e-9)

    def test_reference_bounds(self, cat):
        assert error_upper_bound(16_000_000, 0.05, 0.45, cat) == pytest.approx(BOUND_005, rel=1e-10)
        assert error_upper_bound(16_000_000, 0.1, 0.45, cat) == pytest.approx(BOUND_01, rel=1e-10)

    def test_terms_positive_and_sum(self, cat):
        terms = delta_terms(1_000_000, 0.08, 0.6, cat)
        assert all(t > 0 for t in terms)
        assert error_upper_bound(1_000_000, 0.08, 0.6, cat) == sum(terms)

    def test_unit_efficiency_rejected(self, cat):
        with pytest.raises(ValueError):
            delta_terms(1000, 0.1, 1.0, cat)

    def test_overflow_guard(self, cat):
        with pytest.raises(OverflowError):
            delta_terms(1000, 0.2499999, 0.45, cat)

    def test_sweep_shape(self, cat):
        rows = sweep_beta(16_000_000, 0.45, cat, np.linspace(0.02, 0.24, 23))
        deltas = np.array([row["delta"] for row in rows])
        betas = np.array([row["beta"] for row in rows])
        interior = int(np.argmin(deltas))
        assert 0 < interior < len(rows) - 1
        assert deltas[0] > deltas[interior] < deltas[-1]
        assert 0.03 <= betas[interior] <= 0.08
        # the reference operating points order as published
        assert error_upper_bound(16_000_000, 0.05, 0.45, cat) < \
            error_upper_bound(16_000_000, 0.1, 0.45, cat)

    def test_bound_decreases_with_n(self, cat):
        values = [error_upper_bound(n, 0.1, 0.45, cat) for n in (100_000, 1_000_000, 16_000_000)]
        assert values[0] > values[1] > values[2]


class TestWitnessFromGrid:
    def test_analytic_grid_gives_half(self, cat):
        grid = analytic_grid(cat)
        assert witness_mean_from_grid(grid, cat) == pytest.approx(0.5, abs=1e-4)

    def test_zero_grid(self, cat):
        grid = analytic_grid(cat)
        grid.values = np.zeros_like(grid.values)
        assert witness_mean_from_grid(grid, cat) == 0.0

    def test_incoherent_mixture_grid(self, cat):
        # Wigner function of the lambda = 1/2 mixture: the two displaced
        # Gaussian lobes, properly normalized, with no interference ridge
        ax = np.linspace(-8.0, 8.0, 201)
        qq, pp = np.meshgrid(ax, ax, indexing="ij")
        a1 = cat.alpha1
        lobes = (np.exp(-((qq - math.sqrt(2) * a1) ** 2) - pp ** 2)
                 + np.exp(-((qq + math.sqrt(2) * a1) ** 2) - pp ** 2)) / (2.0 * math.pi)
        grid = WignerGrid(lobes, extent=8.0, r=8.0,
                          meta={"alpha1": cat.alpha1, "alpha2": cat.alpha2})
        expected = cat.overlap / (1.0 + cat.overlap)
        assert witness_mean_from_grid(grid, cat) == pytest.approx(expected, abs=1e-6)


class TestWitnessMeanOracle:
    def test_equals_node_sum_of_mean_oracle(self, cat):
        # the witness paired with `estimator_mean_oracle` on a grid fine enough
        # for the midpoint rule to be spectrally accurate
        params = ReconstructionParams(r=5.0, h=1.0 / 3.0, grid_size=101)
        ax = params.axis()
        qq, pp = np.meshgrid(ax, ax, indexing="ij")
        inside = qq * qq + pp * pp <= params.r ** 2
        expected = np.zeros_like(qq)
        expected[inside] = estimator_mean_oracle(cat, params, qq[inside], pp[inside])
        grid = WignerGrid(expected, params.extent, params.r,
                          {"alpha1": cat.alpha1, "alpha2": cat.alpha2})
        assert witness_mean_oracle(cat, params) == pytest.approx(
            witness_mean_from_grid(grid, cat), abs=1e-9)

    def test_high_cutoff_gives_pure_mean(self, cat):
        # past |w0| + 16 the cutoff keeps all of the witness spectrum
        params = ReconstructionParams(r=6.0, h=1.0 / 30.0)
        assert witness_mean_oracle(cat, params) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("state, params", [
        *[pytest.param(CatState(3.0 / math.sqrt(2.0)), scale_params(scale), id=scale)
          for scale in ("desk", "headline", "paper")],
        pytest.param(CatState(3.0 / math.sqrt(2.0)), ReconstructionParams(r=6.0, h=1.0 / 30.0), id="high-cutoff"),
        pytest.param(CatState(0.8, -1.3), ReconstructionParams(r=4.0, h=1.0 / 5.0), id="off-axis"),
        pytest.param(CatState(0.8, -1.3), ReconstructionParams(r=6.0, h=1.0 / 30.0), id="off-axis-high-cutoff"),
    ])
    def test_matches_polar_rule(self, state, params):
        assert witness_mean_oracle(state, params) == pytest.approx(
            polar_witness_reference(state, params), abs=1e-12)


class TestWitnessStats:
    def test_small_example(self, cat):
        stats = witness_stats([0.3, 0.5], cat)
        assert stats.av == pytest.approx(0.4, rel=1e-15)
        assert stats.sd == pytest.approx(0.1, rel=1e-12)
        assert stats.pure_ref == 0.5
        assert stats.separated  # |0.4 - 1.2e-4| > 0.1

    def test_all_equal_means(self, cat):
        stats = witness_stats([0.25] * 5, cat)
        assert stats.sd == 0.0
        assert stats.separated

    def test_not_separated_when_scatter_dominates(self, cat):
        inc = cat.overlap / (1.0 + cat.overlap)
        stats = witness_stats([inc + 0.01, inc - 0.01], cat)
        assert not stats.separated

    def test_permutation_invariant(self, cat):
        means = [0.1, 0.4, 0.25, 0.33, 0.07]
        s1 = witness_stats(means, cat)
        s2 = witness_stats(list(reversed(means)), cat)
        assert s1.av == s2.av and s1.sd == s2.sd

    def test_requires_two(self, cat):
        with pytest.raises(ValueError):
            witness_stats([0.5], cat)


@pytest.mark.slow
class TestInterferenceDirection:
    def test_witness_separates_at_high_efficiency(self, cat):
        # at eta = 0.95 the cutoff exceeds the witness frequency, so the
        # reconstructed mean sits essentially at the pure value 1/2 with tiny
        # scatter and separation holds already at modest n
        noise95 = NoiseModel(0.95)
        n, m = 200_000, 4
        params = ReconstructionParams.for_experiment(n, 0.1, noise95, grid_size=101)
        means = []
        for rep in range(m):
            batch = generate_batch(cat, noise95, n, seed=905, replicate=rep)
            grid = reconstruct_fast(batch, params)
            means.append(witness_mean_from_grid(grid, cat))
        stats = witness_stats(means, cat)
        assert stats.separated
        assert stats.av == pytest.approx(0.5, abs=0.1)

    def test_witness_direction_at_low_efficiency(self, cat, noise):
        # at eta = 0.45 the replicate scatter decays only like n^(-0.07) and
        # stays comparable to the distance from the incoherent reference, so
        # the separation test is not met at n = 4e6 (0.031 against sd 0.036)
        # nor at 1.6e7 (0.035 against 0.047); at moderate n we assert the
        # direction: the mean sits far above the incoherent reference
        n, m = 1_500_000, 6
        params = ReconstructionParams.for_experiment(n, 0.1, noise, grid_size=101)
        means = []
        for rep in range(m):
            batch = generate_batch(cat, noise, n, seed=904, replicate=rep)
            grid = reconstruct_fast(batch, params)
            means.append(witness_mean_from_grid(grid, cat))
        stats = witness_stats(means, cat)
        assert stats.av > 10.0 * stats.incoherent_ref
