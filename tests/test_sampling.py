"""Sampler determinism, distributional fidelity, and batch persistence."""

import hashlib
import json
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from catomo import (
    CatState,
    NoiseModel,
    QuadratureBatch,
    WignerGrid,
    add_detection_noise,
    batch_to_csv,
    generate_batch,
    noisy_quadrature_density,
    quadrature_density,
    read_batch,
    sample_ideal_quadrature,
    sample_phase,
    write_batch,
    write_grid,
)
from catomo import sampling
from catomo.sampling import BATCH_MAGIC, CHUNK_SIZE, _batch_header, _envelope_const, _stream, _write_framed


def chi2_pvalue(samples, density, lo, hi, bins=100):
    """Goodness-of-fit p-value of samples against an analytic density."""
    edges = np.linspace(lo, hi, bins + 1)
    observed, _ = np.histogram(np.clip(samples, lo, hi), bins=edges)
    probs = np.empty(bins)
    for i in range(bins):
        probs[i], _ = quad(density, edges[i], edges[i + 1], limit=100)
    # fold the tails into the edge bins so probabilities sum to one
    tail_lo, _ = quad(density, lo - 14.0, lo, limit=100)
    tail_hi, _ = quad(density, hi, hi + 14.0, limit=100)
    probs[0] += tail_lo
    probs[-1] += tail_hi
    probs /= probs.sum()
    expected = probs * samples.size
    keep = expected >= 5.0
    chi2 = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
    return stats.chi2.sf(chi2, keep.sum() - 1)


class TestPhase:
    def test_uniform_mean(self):
        rng = _stream(42, 0, 0)
        phi = sample_phase(rng, 1_000_000)
        assert abs(phi.mean() - math.pi / 2.0) < 0.005

    def test_ks_distance(self):
        rng = _stream(43, 0, 0)
        phi = sample_phase(rng, 1_000_000)
        d = stats.kstest(phi, stats.uniform(0, math.pi).cdf).statistic
        assert d < 0.002

    def test_first_draw_reproducible(self):
        draws = [sample_phase(_stream(42, 0, 0)) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]


class TestIdealQuadrature:
    def test_vacuum_is_half_variance_normal(self):
        state = CatState(0.0)
        rng = _stream(5, 0, 0)
        x = sample_ideal_quadrature(state, np.full(100_000, 0.3), rng)
        p = stats.kstest(x, stats.norm(0.0, 1.0 / math.sqrt(2.0)).cdf).pvalue
        assert p > 0.01

    def test_cat_density_fit_phi0(self, cat):
        rng = _stream(6, 0, 0)
        x = sample_ideal_quadrature(cat, np.zeros(100_000), rng)
        p = chi2_pvalue(x, lambda t: quadrature_density(cat, t, 0.0), -6.0, 6.0, bins=100)
        assert p > 0.01

    def test_interference_phase_fit(self, cat):
        # phi = pi/2 exposes the oscillatory marginal
        rng = _stream(8, 0, 0)
        x = sample_ideal_quadrature(cat, np.full(100_000, math.pi / 2.0), rng)
        p = chi2_pvalue(x, lambda t: quadrature_density(cat, t, math.pi / 2.0), -4.0, 4.0, bins=80)
        assert p > 0.01

    def test_envelope_bound(self):
        rng = np.random.default_rng(17)
        xs = np.linspace(-8, 8, 3001)
        for _ in range(50):
            r = rng.uniform(0, 4.0)
            theta = rng.uniform(0, 2 * math.pi)
            state = CatState(r * math.cos(theta), r * math.sin(theta))
            phi = rng.uniform(0, math.pi)
            m = math.sqrt(2.0) * float(np.cos(phi) * state.alpha1 + np.sin(phi) * state.alpha2)
            g = (np.exp(-((xs - m) ** 2)) + np.exp(-((xs + m) ** 2)) + np.exp(-xs * xs)) \
                / (3.0 * math.sqrt(math.pi))
            ratio = quadrature_density(state, xs, phi) / g
            assert ratio.max() <= 3.0 + 1e-12
            # and the sharper per-phase constant actually used is also valid
            assert ratio.max() <= _envelope_const(state, _reference_along(state, -phi)) + 1e-12

    def test_rejects_bad_phase(self, cat):
        with pytest.raises(ValueError):
            sample_ideal_quadrature(cat, -0.5, _stream(0, 0, 0))


# Reference rejection loop: the density and its amplitudes are evaluated
# afresh from phi in every round, each amplitude from its own formula:
# a(phi) = alpha1 cos(phi) + alpha2 sin(phi), b(phi) = alpha2 cos(phi) - alpha1 sin(phi).
def _reference_along(state, phi):
    return state.alpha1 * np.cos(phi) + state.alpha2 * np.sin(phi)


def _reference_across(state, phi):
    return state.alpha2 * np.cos(phi) - state.alpha1 * np.sin(phi)


def _reference_quadrature_density(state, x, phi):
    m = math.sqrt(2.0) * _reference_along(state, phi)
    a_neg = _reference_along(state, -np.asarray(phi))
    b_neg = _reference_across(state, -np.asarray(phi))
    humps = np.exp(-((x - m) ** 2)) + np.exp(-((x + m) ** 2))
    ridge = 2.0 * np.exp(-x * x - 2.0 * a_neg * a_neg) * np.cos(2.0 * math.sqrt(2.0) * x * b_neg)
    return (humps + ridge) / (math.sqrt(math.pi) * state.norm_const)


def _reference_proposal_density(x, m):
    return (np.exp(-((x - m) ** 2)) + np.exp(-((x + m) ** 2)) + np.exp(-x * x)) / (3.0 * math.sqrt(math.pi))


def _reference_envelope_const(state, phi):
    a_neg = _reference_along(state, -np.asarray(phi))
    suppress = 2.0 * np.exp(-2.0 * a_neg * a_neg)
    return 3.0 * np.maximum(1.0, suppress) / (2.0 * (1.0 + state.overlap))


def _reference_sample_ideal_quadrature(state, phi, rng):
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    if phi_arr.min() < 0.0 or phi_arr.max() > np.pi:
        raise ValueError("quadrature phase phi must lie in [0, pi]")
    m = np.sqrt(2.0) * _reference_along(state, phi_arr)
    env = _reference_envelope_const(state, phi_arr)

    out = np.empty(phi_arr.shape, dtype=np.float64)
    active = np.arange(phi_arr.size)
    for _ in range(10_000):
        if active.size == 0:
            break
        k = active.size
        comp = rng.integers(0, 3, size=k)
        centers = np.where(comp == 0, m[active], np.where(comp == 1, -m[active], 0.0))
        prop = centers + rng.normal(0.0, 1.0 / math.sqrt(2.0), size=k)
        u = rng.random(size=k)
        target = _reference_quadrature_density(state, prop, phi_arr[active])
        bound = env[active] * _reference_proposal_density(prop, m[active])
        accept = u * bound <= target
        out[active[accept]] = prop[accept]
        active = active[~accept]
    return out if np.ndim(phi) else float(out[0])


def _reference_generate_batch(state, noise, n, seed, replicate):
    """Serial reference batch: chunk by chunk, phases, the reference loop, then noise."""
    x, phi = np.empty(n), np.empty(n)
    for chunk, start in enumerate(range(0, n, CHUNK_SIZE)):
        part = slice(start, min(start + CHUNK_SIZE, n))
        rng = _stream(seed, replicate, chunk)
        phi[part] = rng.uniform(0.0, np.pi, size=part.stop - start)
        ideal = _reference_sample_ideal_quadrature(state, phi[part], rng)
        y = rng.standard_normal(size=ideal.size)
        x[part] = np.sqrt(noise.eta) * ideal + np.sqrt((1.0 - noise.eta) / 2.0) * y
    return x, phi


EQUIVALENCE_CASES = [
    pytest.param(CatState(3.0 / math.sqrt(2.0)), NoiseModel(0.45), 20_000, id="cat-eta0.45"),
    pytest.param(CatState(1.0, 0.7), NoiseModel(0.9), 20_000, id="complex-eta0.9"),
    pytest.param(CatState(0.4, -0.6), NoiseModel(0.3), 20_000, id="small-eta0.3"),
    pytest.param(CatState(0.0), NoiseModel(1.0), 20_000, id="vacuum-eta1"),
    pytest.param(CatState(3.0 / math.sqrt(2.0)), NoiseModel(0.45), CHUNK_SIZE + 4097, id="two-chunks"),
    pytest.param(CatState(3.0 / math.sqrt(2.0)), NoiseModel(0.45), 2 * CHUNK_SIZE + 17, id="three-chunks"),
]


class TestMatchesReferenceLoop:
    """The sampler consumes the same draws and makes the same accept decisions
    as the reference loop, so its values are bitwise equal to the loop's; unlike
    a pinned digest, this does not depend on the platform's libm."""

    @pytest.mark.parametrize("state, noise, n", EQUIVALENCE_CASES[:4])
    def test_ideal_quadrature(self, state, noise, n):
        phi = sample_phase(_stream(21, 0, 0), n)
        got = sample_ideal_quadrature(state, phi, _stream(21, 0, 1))
        want = _reference_sample_ideal_quadrature(state, phi, _stream(21, 0, 1))
        assert got.tobytes() == want.tobytes()
        assert sample_ideal_quadrature(state, 0.7, _stream(22, 0, 0)) \
            == _reference_sample_ideal_quadrature(state, 0.7, _stream(22, 0, 0))

    @pytest.mark.parametrize("state, noise, n", EQUIVALENCE_CASES)
    def test_generate_batch(self, state, noise, n):
        got = generate_batch(state, noise, n, seed=7, replicate=1)
        x, phi = _reference_generate_batch(state, noise, n, seed=7, replicate=1)
        assert got.x.tobytes() == x.tobytes()
        assert got.phi.tobytes() == phi.tobytes()

    def test_chunk_memory(self, cat, noise):
        # one chunk on the calling thread peaks at 54 MiB: 16 MiB of batch, a
        # 24 MiB round workspace, 8 MiB of round components and the block
        # temporaries; a loop that allocated its round arrays per chunk
        # peaked at 128 MiB
        tracemalloc.start()
        try:
            generate_batch(cat, noise, CHUNK_SIZE, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 132 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestChunkPool:
    """Chunks of one batch are sampled on two threads, one chunk on the caller."""

    @staticmethod
    def _watch_density(monkeypatch):
        """Wrap `sampling.quadrature_density`; returns the set of calling threads
        and a one-item list holding the most threads ever inside it at once."""
        density, guard = sampling.quadrature_density, threading.Lock()
        inside, most, callers = [0], [0], set()

        def watched(*args, **kwargs):
            with guard:
                inside[0] += 1
                most[0] = max(most[0], inside[0])
                callers.add(threading.get_ident())
            try:
                return density(*args, **kwargs)
            finally:
                with guard:
                    inside[0] -= 1

        monkeypatch.setattr(sampling, "quadrature_density", watched)
        return callers, most

    def test_density_entered_by_one_thread_at_a_time(self, cat, noise, monkeypatch):
        # a tracer wrapping `quadrature_density` keeps one span stack, which two
        # threads inside the wrapper at once would close out of order
        callers, most = self._watch_density(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            generate_batch(cat, noise, 2 * CHUNK_SIZE + 17, seed=7)
        finally:
            sys.setswitchinterval(interval)
        assert most[0] == 1
        assert len(callers) == 2 and threading.get_ident() not in callers

    def test_one_chunk_runs_on_calling_thread(self, cat, noise, monkeypatch):
        callers, _ = self._watch_density(monkeypatch)
        generate_batch(cat, noise, CHUNK_SIZE, seed=7)
        assert callers == {threading.get_ident()}

    def test_threads_joined(self, cat, noise):
        # `_map_replicates` forks worker processes after sampling; no pool
        # thread may outlive the batch
        before = threading.active_count()
        generate_batch(cat, noise, CHUNK_SIZE + 1, seed=7)
        assert threading.active_count() == before

    def test_two_chunk_memory(self, cat, noise):
        # 103.8-106.8 MiB over 12 seeds: 32 MiB of batch, two 24 MiB round
        # workspaces allocated by the caller, each thread's 8 MiB of round
        # components and its block temporaries; sampling the chunks one after
        # the other with per-chunk round arrays peaked at 144 MiB
        tracemalloc.start()
        try:
            generate_batch(cat, noise, 2 * CHUNK_SIZE, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 112 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestDetectionNoise:
    def test_identity_at_unit_efficiency(self):
        rng = _stream(9, 0, 0)
        x = rng.normal(size=1000)
        out = add_detection_noise(x, NoiseModel(1.0), _stream(9, 0, 1))
        np.testing.assert_array_equal(out, x)

    def test_noise_variance(self):
        rng = _stream(10, 0, 0)
        out = add_detection_noise(np.zeros(1_000_000), NoiseModel(0.45), rng)
        assert out.var() == pytest.approx(0.275, rel=0.02)

    def test_composed_pipeline_matches_noisy_density(self, cat, noise):
        rng = _stream(11, 0, 0)
        x0 = sample_ideal_quadrature(cat, np.zeros(100_000), rng)
        x = add_detection_noise(x0, noise, rng)
        p = chi2_pvalue(x, lambda t: noisy_quadrature_density(cat, noise, t, 0.0), -5.0, 5.0)
        assert p > 0.01


class TestGenerateBatch:
    def test_deterministic(self, cat, noise):
        b1 = generate_batch(cat, noise, 10, seed=1, replicate=0)
        b2 = generate_batch(cat, noise, 10, seed=1, replicate=0)
        np.testing.assert_array_equal(b1.x, b2.x)
        np.testing.assert_array_equal(b1.phi, b2.phi)

    def test_replicates_differ(self, cat, noise):
        b0 = generate_batch(cat, noise, 100, seed=1, replicate=0)
        b1 = generate_batch(cat, noise, 100, seed=1, replicate=1)
        assert not np.array_equal(b0.x, b1.x)

    def test_seeds_differ(self, cat, noise):
        b0 = generate_batch(cat, noise, 100, seed=1)
        b1 = generate_batch(cat, noise, 100, seed=2)
        assert not np.array_equal(b0.x, b1.x)

    def test_rejects_empty(self, cat, noise):
        with pytest.raises(ValueError):
            generate_batch(cat, noise, 0, seed=1)

    def test_phase_range_and_size(self, cat, noise):
        b = generate_batch(cat, noise, 5000, seed=3)
        assert b.n == 5000
        assert b.phi.min() >= 0.0 and b.phi.max() <= math.pi

    def test_stratified_fit(self, cat, noise):
        # x-histogram within each phase stratum follows the noisy density
        b = generate_batch(cat, noise, 100_000, seed=12)
        edges = np.linspace(0.0, math.pi, 11)
        for k in range(10):
            sel = (b.phi >= edges[k]) & (b.phi < edges[k + 1])
            lo, hi = edges[k], edges[k + 1]

            def stratum_density(x, lo=lo, hi=hi):
                val, _ = quad(lambda f: noisy_quadrature_density(cat, noise, x, f), lo, hi, limit=60)
                return val / (hi - lo)

            p = chi2_pvalue(b.x[sel], stratum_density, -4.5, 4.5, bins=36)
            assert p > 0.01, f"stratum {k}: p={p}"


def rewrite_header(path, magic, edit):
    """Rewrite the JSON header of a batch or grid file after `edit(header)`."""
    blob = open(path, "rb").read()
    hlen = int.from_bytes(blob[len(magic):len(magic) + 4], "little")
    header = json.loads(blob[len(magic) + 4:len(magic) + 4 + hlen])
    edit(header)
    hbytes = json.dumps(header).encode("utf-8")
    payload = blob[len(magic) + 4 + hlen:]
    open(path, "wb").write(magic + len(hbytes).to_bytes(4, "little") + hbytes + payload)


class TestBatchIO:
    def test_round_trip(self, cat, noise, tmp_path):
        b = generate_batch(cat, noise, 1000, seed=5, replicate=2)
        b.source_sha256 = "ab" * 32
        path = str(tmp_path / "batch.qb")
        write_batch(b, path)
        back = read_batch(path)
        np.testing.assert_array_equal(back.x, b.x)
        np.testing.assert_array_equal(back.phi, b.phi)
        assert back.state == b.state
        assert back.noise == b.noise
        assert back.seed == 5 and back.replicate == 2
        assert back.source_sha256 == "ab" * 32

    def test_write_is_byte_deterministic(self, cat, noise, tmp_path):
        b = generate_batch(cat, noise, 500, seed=5)
        p1, p2 = str(tmp_path / "a.qb"), str(tmp_path / "b.qb")
        write_batch(b, p1)
        write_batch(b, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_chunked_write_matches_one_copy(self, cat, noise, tmp_path):
        # pairs are interleaved one chunk at a time into a reused buffer; the bytes
        # are those of interleaving the whole batch at once, and the copy is one chunk
        n = 2 * CHUNK_SIZE + 5
        rng = np.random.default_rng(88)
        b = QuadratureBatch(rng.normal(0.0, 2.0, n), rng.uniform(0.0, math.pi, n), cat, noise, seed=4)
        tracemalloc.start()
        try:
            write_batch(b, str(tmp_path / "chunked.qb"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _write_framed(str(tmp_path / "whole.qb"), BATCH_MAGIC, _batch_header(b), [np.column_stack([b.x, b.phi])])
        assert (tmp_path / "chunked.qb").read_bytes() == (tmp_path / "whole.qb").read_bytes()
        assert peak < 16 * CHUNK_SIZE + 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_golden_bytes(self, tmp_path):
        # hand-built values (no RNG, no libm) pin the framed layout of batches and grids
        batch = QuadratureBatch(np.array([0.0, -1.25, 2.5, 3e-3, 7.0]),
                                np.array([0.0, 0.5, 1.0, 3.0, math.pi]),
                                CatState(1.5, -0.25), NoiseModel(0.45), seed=3, replicate=1,
                                source_sha256="ab" * 32)
        grid = WignerGrid(np.arange(9.0).reshape(3, 3) / 8.0 - 0.5, extent=2.0, r=2.0,
                          meta={"kind": "replicate", "method": "fast", "route": "binned", "n": 5})
        write_batch(batch, str(tmp_path / "b.qb"))
        write_grid(grid, str(tmp_path / "g.wg"))
        sha = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("b.qb", "g.wg")}
        assert sha == {"b.qb": "73bbb1f51a05e896f37215320639774266b7eea95b42cf17109ce0b16ddc9787",
                       "g.wg": "9ba9e042e5fb9c047318223fd0ba1299ed6a8c8dd0759d4fe9ff39f86d332234"}

    def test_csv_export(self, cat, noise, tmp_path):
        b = generate_batch(cat, noise, 10, seed=5)
        path = str(tmp_path / "batch.csv")
        batch_to_csv(b, path)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "x,phi"
        assert len(lines) == 11
        x0, phi0 = (float(tok) for tok in lines[1].split(","))
        assert x0 == b.x[0] and phi0 == b.phi[0]

    def test_rejects_truncated_file(self, cat, noise, tmp_path):
        b = generate_batch(cat, noise, 100, seed=5)
        path = str(tmp_path / "batch.qb")
        write_batch(b, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-16])
        with pytest.raises(ValueError):
            read_batch(path)

    @pytest.mark.parametrize("key", ["alpha1", "eta", "n", "seed"])
    def test_rejects_header_without_required_key(self, cat, noise, tmp_path, key):
        path = str(tmp_path / "batch.qb")
        write_batch(generate_batch(cat, noise, 50, seed=5), path)
        rewrite_header(path, BATCH_MAGIC, lambda header: header.pop(key))
        with pytest.raises(ValueError, match=re.escape(f"{path}: header lacks the required key '{key}'")):
            read_batch(path)

    @pytest.mark.parametrize("key, value, kind", [
        ("n", None, "finite"), ("n", [10], "finite"), ("n", True, "finite"), ("n", 10.5, "whole"),
        ("seed", 5.5, "whole"), ("replicate", "0", "finite"), ("eta", "0.45", "finite"),
        ("alpha1", "x", "finite"), ("alpha1", 10**400, "finite"), ("alpha2", float("nan"), "finite"),
        ("eta", float("inf"), "finite"),
    ])
    def test_rejects_header_value_of_wrong_type(self, cat, noise, tmp_path, key, value, kind):
        path = str(tmp_path / "batch.qb")
        write_batch(generate_batch(cat, noise, 50, seed=5), path)
        rewrite_header(path, BATCH_MAGIC, lambda header: header.update({key: value}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: header key '{key}' holds") + f".*not a {kind} number"):
            read_batch(path)

    @pytest.mark.parametrize("schema", [2, None])
    def test_rejects_other_schema(self, cat, noise, tmp_path, schema):
        path = str(tmp_path / "batch.qb")
        write_batch(generate_batch(cat, noise, 50, seed=5), path)
        rewrite_header(path, BATCH_MAGIC, lambda header: header.update(schema=schema))
        with pytest.raises(ValueError, match=re.escape(f"{path}: header schema is {schema}, expected 1")):
            read_batch(path)

    def test_rejects_partial_value(self, cat, noise, tmp_path):
        path = str(tmp_path / "batch.qb")
        write_batch(generate_batch(cat, noise, 50, seed=5), path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-3])
        with pytest.raises(ValueError, match=re.escape(path) + ": payload of .* not a whole number"):
            read_batch(path)

    @pytest.mark.parametrize("column", ["x", "phi"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, cat, noise, column, bad):
        values = {"x": np.zeros(4), "phi": np.full(4, 0.5)}
        values[column][2] = bad
        with pytest.raises(ValueError, match=f"{column} holds non-finite values"):
            QuadratureBatch(values["x"], values["phi"], cat, noise, seed=0)
