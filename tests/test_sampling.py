"""Sampler determinism, distributional fidelity, and batch persistence."""

import hashlib
import json
import math
import os
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
    generate_batch,
    noisy_quadrature_density,
    quadrature_density,
    read_batch,
    write_batch,
    write_grid,
)
from catomo import sampling
from catomo.sampling import (
    BATCH_MAGIC,
    CHUNK_SIZE,
    _BLOCK,
    _batch_header,
    _batch_writer,
    _BatchFile,
    _envelope_const,
    _reject_into,
    _stream,
    _workspace,
)


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
    """The phases of `generate_batch` are uniform on [0, pi], each chunk's
    drawn first from its stream."""

    @pytest.fixture(scope="class")
    def phases(self):
        return generate_batch(CatState(0.0), NoiseModel(0.45), 1_000_000, seed=42).phi

    def test_uniform_mean(self, phases):
        assert abs(phases.mean() - math.pi / 2.0) < 0.005

    def test_ks_distance(self, phases):
        d = stats.kstest(phases, stats.uniform(0, math.pi).cdf).statistic
        assert d < 0.002

    def test_first_draw_reproducible(self, cat, noise):
        draws = [generate_batch(cat, noise, 1, seed=42).phi[0] for _ in range(3)]
        assert draws[0] == draws[1] == draws[2] == _stream(42, 0, 0).uniform(0.0, math.pi)


def test_pieces_give_bits_of_one_call():
    # `_reject_into` and `_sample_chunk` draw each round's components,
    # normals and uniforms and the noise `_BLOCK` at a time; a Philox stream
    # fills each element from its bit generator alone, so sequential pieces,
    # of sizes that do not divide the total, give the bits of one whole call
    sizes = [1, 7, _BLOCK, 4097]
    cuts, total = np.cumsum(sizes)[:-1], sum(sizes)
    pieces, whole = _stream(5, 1, 2), _stream(5, 1, 2)
    comp = np.concatenate([pieces.integers(0, 3, size=size) for size in sizes])
    normals, uniforms = np.empty(total), np.empty(total)
    for part in np.split(normals, cuts):
        pieces.standard_normal(out=part)
    for part in np.split(uniforms, cuts):
        pieces.random(out=part)
    assert comp.tobytes() == whole.integers(0, 3, size=total).tobytes()
    assert normals.tobytes() == whole.standard_normal(total).tobytes()
    assert uniforms.tobytes() == whole.random(total).tobytes()


def ideal_draws(state, phi, rng):
    """`_reject_into`'s draws for the phases `phi`, in a workspace of their size."""
    out = np.empty(phi.size)
    _reject_into(state, phi, out, rng, _workspace(phi.size))
    return out


class TestIdealQuadrature:
    def test_vacuum_is_half_variance_normal(self):
        state = CatState(0.0)
        rng = _stream(5, 0, 0)
        x = ideal_draws(state, np.full(100_000, 0.3), rng)
        p = stats.kstest(x, stats.norm(0.0, 1.0 / math.sqrt(2.0)).cdf).pvalue
        assert p > 0.01

    def test_cat_density_fit_phi0(self, cat):
        rng = _stream(6, 0, 0)
        x = ideal_draws(cat, np.zeros(100_000), rng)
        p = chi2_pvalue(x, lambda t: quadrature_density(cat, t, 0.0), -6.0, 6.0, bins=100)
        assert p > 0.01

    def test_interference_phase_fit(self, cat):
        # phi = pi/2 exposes the oscillatory marginal
        rng = _stream(8, 0, 0)
        x = ideal_draws(cat, np.full(100_000, math.pi / 2.0), rng)
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
            assert ratio.max() <= _envelope_const(state, _reference_along(state, phi)) + 1e-12


# Reference rejection loop: the density and its amplitudes are evaluated
# afresh from phi in every round, each amplitude from its own formula:
# a(phi) = alpha1 cos(phi) + alpha2 sin(phi), b(phi) = alpha1 sin(phi) - alpha2 cos(phi).
def _reference_along(state, phi):
    return state.alpha1 * np.cos(phi) + state.alpha2 * np.sin(phi)


def _reference_across(state, phi):
    return state.alpha1 * np.sin(phi) - state.alpha2 * np.cos(phi)


def _reference_quadrature_density(state, x, phi):
    a = _reference_along(state, phi)
    b = _reference_across(state, phi)
    m = math.sqrt(2.0) * a
    humps = np.exp(-((x - m) ** 2)) + np.exp(-((x + m) ** 2))
    ridge = 2.0 * np.exp(-x * x - 2.0 * a * a) * np.cos(2.0 * math.sqrt(2.0) * x * b)
    return (humps + ridge) / (math.sqrt(math.pi) * state.norm_const)


def _reference_proposal_density(x, m):
    return (np.exp(-((x - m) ** 2)) + np.exp(-((x + m) ** 2)) + np.exp(-x * x)) / (3.0 * math.sqrt(math.pi))


def _reference_envelope_const(state, phi):
    a = _reference_along(state, phi)
    suppress = 2.0 * np.exp(-2.0 * a * a)
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
        phi = _stream(21, 0, 0).uniform(0.0, np.pi, n)
        got = ideal_draws(state, phi, _stream(21, 0, 1))
        want = _reference_sample_ideal_quadrature(state, phi, _stream(21, 0, 1))
        assert got.tobytes() == want.tobytes()
        assert ideal_draws(state, np.array([0.7]), _stream(22, 0, 0))[0] \
            == _reference_sample_ideal_quadrature(state, 0.7, _stream(22, 0, 0))

    @pytest.mark.parametrize("state, noise, n", EQUIVALENCE_CASES)
    def test_generate_batch(self, state, noise, n):
        got = generate_batch(state, noise, n, seed=7, replicate=1)
        x, phi = _reference_generate_batch(state, noise, n, seed=7, replicate=1)
        assert got.x.tobytes() == x.tobytes()
        assert got.phi.tobytes() == phi.tobytes()

    def test_chunk_memory(self, cat, noise):
        # one chunk on the calling thread peaks at 24.4-25.0 MiB over 12 seeds:
        # 16 MiB of batch, a 5 MiB round workspace (int32 indices, int8
        # components) with its 0.25 MiB block buffer, and 3.1-3.8 MiB of one
        # block's temporaries.  A workspace of uniforms and indices beside each
        # round's components drawn whole as int64 took 37.7 MiB, holding those
        # draws through the blocks 42.6 MiB, a proposal buffer in the
        # workspace as well 50.5 MiB, and a loop that allocated its round
        # arrays per chunk 128 MiB
        tracemalloc.start()
        try:
            generate_batch(cat, noise, CHUNK_SIZE, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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
        # 47.9-48.4 MiB over 12 seeds: 32 MiB of batch, two 5.25 MiB round
        # workspaces allocated by the caller, and 5.4-5.9 MiB of the two
        # threads' block temporaries.  Round workspaces of uniforms and
        # indices with each round's components drawn whole as int64 took
        # 66.0-74.0 MiB, holding those draws 79.3-82.1 MiB, a proposal buffer
        # in each workspace as well 95.4 MiB at seed 7, and sampling the
        # chunks one after the other with per-chunk round arrays 144 MiB
        tracemalloc.start()
        try:
            generate_batch(cat, noise, 2 * CHUNK_SIZE, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 52 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def stream_to_file(state, noise, n, seed, path, replicate=0):
    """`generate_batch` streamed into the batch file `path` through `_batch_writer`."""
    with _batch_writer(path, _batch_header(state, noise, n, seed, replicate, None)) as out:
        assert generate_batch(state, noise, n, seed, replicate=replicate, out=out) is out


class TestStreamedBatch:
    """`generate_batch(..., out=writer)` writes each chunk as it is sampled, holding two."""

    def test_file_bytes_match_whole_batch(self, cat, noise, tmp_path, monkeypatch):
        # chunk c + 2 reuses chunk c's buffer once c is written; with threads
        # switching every 10 us, a chunk overwritten before its write would show
        monkeypatch.setattr(sampling, "CHUNK_SIZE", 5000)
        n = 7 * 5000 + 77
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            stream_to_file(cat, noise, n, 9, str(tmp_path / "streamed.qb"), replicate=2)
        finally:
            sys.setswitchinterval(interval)
        write_batch(generate_batch(cat, noise, n, seed=9, replicate=2), str(tmp_path / "whole.qb"))
        assert read_bytes(str(tmp_path / "streamed.qb")) == read_bytes(str(tmp_path / "whole.qb"))

    def test_memory_flat_in_chunks(self, cat, noise, tmp_path, monkeypatch):
        # two slots of a chunk buffer and a round workspace (block buffer,
        # int32 indices, int8 components), 1.56 MiB each at 2^16-sample
        # chunks, one write block and one thread's block temporaries: 6.3 MiB
        # at 3 or 6 chunks when the two pool threads take turns (6.8 MiB with
        # chunk-sized uniforms and components drawn whole).  Sampling at once,
        # they add up to 2.1-2.9 MiB more of block temporaries, as their
        # rounds happen to overlap: 8.4-9.2 MiB over runs of 6 chunks, too
        # wide for a 1 % bound
        monkeypatch.setattr(sampling, "CHUNK_SIZE", 1 << 16)

        def peak(chunks):
            tracemalloc.start()
            try:
                stream_to_file(cat, noise, chunks << 16, 7, str(tmp_path / f"c{chunks}.qb"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(6) < 12 * 2**20
        turns, sample_chunk = threading.Lock(), sampling._sample_chunk

        def in_turn(*args):
            with turns:
                sample_chunk(*args)

        monkeypatch.setattr(sampling, "_sample_chunk", in_turn)
        peaks = [peak(3), peak(6)]
        assert peaks[1] <= 1.01 * peaks[0], f"peaks {peaks[0] / 2**20:.2f} -> {peaks[1] / 2**20:.2f} MiB"

    def test_failed_chunk_leaves_no_file(self, cat, noise, tmp_path, monkeypatch):
        # a sampler failure in the middle of the file removes the temp file,
        # and the pool thread still running is joined before the error surfaces
        monkeypatch.setattr(sampling, "CHUNK_SIZE", 1000)
        sample_chunk, calls = sampling._sample_chunk, []

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("rejection sampler exceeded 10000 rounds; proposal envelope is broken")
            sample_chunk(*args)

        monkeypatch.setattr(sampling, "_sample_chunk", failing)
        before = threading.active_count()
        path = str(tmp_path / "batch.qb")
        with pytest.raises(RuntimeError, match="rejection sampler"):
            stream_to_file(cat, noise, 5500, 7, path)
        assert threading.active_count() == before
        assert os.listdir(tmp_path) == []

    def test_short_file_refused(self, cat, noise, tmp_path):
        path = str(tmp_path / "batch.qb")
        with pytest.raises(ValueError, match="99 pairs written, the header declares 100"):
            with _batch_writer(path, _batch_header(cat, noise, 100, 7, 0, None)) as out:
                out.write(np.zeros(99), np.zeros(99))
        assert os.listdir(tmp_path) == []


class TestDetectionNoise:
    """`generate_batch` degrades each ideal draw x to sqrt(eta) x + sqrt((1 - eta)/2) y."""

    @staticmethod
    def ideal_of(batch):
        """The ideal draws behind a one-chunk batch: its stream's phases, then `_reject_into`."""
        rng = _stream(batch.seed, batch.replicate, 0)
        phi = rng.uniform(0.0, np.pi, batch.n)
        assert phi.tobytes() == batch.phi.tobytes()
        return ideal_draws(batch.state, phi, rng)

    def test_identity_at_unit_efficiency(self, cat):
        batch = generate_batch(cat, NoiseModel(1.0), 1000, seed=9)
        np.testing.assert_array_equal(batch.x, self.ideal_of(batch))

    def test_noise_variance(self, cat, noise):
        batch = generate_batch(cat, noise, 1_000_000, seed=10)
        added = batch.x - math.sqrt(noise.eta) * self.ideal_of(batch)
        assert added.var() == pytest.approx(0.275, rel=0.02)

    def test_composed_pipeline_matches_noisy_density(self, cat, noise):
        # the x of a batch follow the noisy density averaged over the uniform phase
        x = generate_batch(cat, noise, 100_000, seed=11).x

        def phase_averaged(t):
            val, _ = quad(lambda f: noisy_quadrature_density(cat, noise, t, f), 0.0, math.pi, limit=60)
            return val / math.pi

        p = chi2_pvalue(x, phase_averaged, -5.0, 5.0)
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


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_text(path):
    with open(path) as fh:
        return fh.read()


def write_file(path, data):
    """Write `data`, text or bytes, to `path`, replacing it."""
    with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


def rewrite_header(path, magic, edit):
    """Rewrite the JSON header of a batch or grid file after `edit(header)`."""
    blob = read_bytes(path)
    hlen = int.from_bytes(blob[len(magic):len(magic) + 4], "little")
    header = json.loads(blob[len(magic) + 4:len(magic) + 4 + hlen])
    edit(header)
    hbytes = json.dumps(header).encode("utf-8")
    payload = blob[len(magic) + 4 + hlen:]
    write_file(path, magic + len(hbytes).to_bytes(4, "little") + hbytes + payload)


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
        assert read_bytes(p1) == read_bytes(p2)

    def test_chunked_write_matches_one_copy(self, cat, noise, tmp_path):
        # pairs are interleaved one I/O block at a time into a reused buffer; the
        # bytes are those of interleaving the whole batch at once, and the copy
        # is one block
        n = 2 * CHUNK_SIZE + 5
        rng = np.random.default_rng(88)
        b = QuadratureBatch(rng.normal(0.0, 2.0, n), rng.uniform(0.0, math.pi, n), cat, noise, seed=4)
        tracemalloc.start()
        try:
            write_batch(b, str(tmp_path / "chunked.qb"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        header = _batch_header(b.state, b.noise, b.n, b.seed, b.replicate, b.source_sha256)
        sampling._atomic_bytes(str(tmp_path / "whole.qb"), [sampling._frame_head(BATCH_MAGIC, header),
                                                            np.column_stack([b.x, b.phi]).astype("<f8")])
        assert (tmp_path / "chunked.qb").read_bytes() == (tmp_path / "whole.qb").read_bytes()
        assert peak < 16 * sampling._IO_PAIRS + 2**16, f"peak {peak / 2**10:.0f} KiB"

    def test_failed_write_leaves_no_temp_file(self, cat, noise, tmp_path):
        def parts():
            yield b"partial"
            raise OSError("disk full")

        path = str(tmp_path / "out.bin")
        with pytest.raises(OSError, match="disk full"):
            sampling._atomic_bytes(path, parts())
        assert os.listdir(tmp_path) == []

    def test_batch_file_scan(self, cat, noise, tmp_path, monkeypatch):
        # one read validates, hashes and finds max|x|; the blocks give the pairs back
        monkeypatch.setattr(sampling, "_IO_PAIRS", 64)
        b = generate_batch(cat, noise, 1000, seed=5, replicate=3)
        path = str(tmp_path / "batch.qb")
        write_batch(b, path)
        source = _BatchFile(path)
        assert (source.n, source.seed, source.replicate, source.state, source.noise) == (1000, 5, 3, cat, noise)
        assert source.scan() == hashlib.sha256(read_bytes(path)).hexdigest()
        assert source.x_abs_max == np.max(np.abs(b.x))
        blocks = [(x.copy(), phi.copy()) for x, phi in source.blocks(300)]  # each block reuses one buffer
        assert [x.size for x, _ in blocks] == [300, 300, 300, 100]
        x, phi = (np.concatenate(column) for column in zip(*blocks))
        assert x.tobytes() == b.x.tobytes() and phi.tobytes() == b.phi.tobytes()

    @pytest.mark.parametrize("column", [0, 1])
    def test_batch_file_scan_refuses_non_finite(self, cat, noise, tmp_path, monkeypatch, column):
        monkeypatch.setattr(sampling, "_IO_PAIRS", 64)
        b = generate_batch(cat, noise, 1000, seed=5)
        (b.x, b.phi)[column][700] = np.nan
        path = str(tmp_path / "batch.qb")
        write_batch(b, path)
        name = ("x", "phi")[column]
        with pytest.raises(ValueError, match=re.escape(f"{path}: {name} holds non-finite values")):
            _BatchFile(path).scan()

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

    def test_rejects_truncated_file(self, cat, noise, tmp_path):
        b = generate_batch(cat, noise, 100, seed=5)
        path = str(tmp_path / "batch.qb")
        write_batch(b, path)
        write_file(path, read_bytes(path)[:-16])
        with pytest.raises(ValueError):
            read_batch(path)

    @pytest.mark.parametrize("key", ["alpha1", "eta", "n", "seed"])
    def test_rejects_header_without_required_key(self, cat, noise, tmp_path, key):
        path = str(tmp_path / "batch.qb")
        write_batch(generate_batch(cat, noise, 50, seed=5), path)
        rewrite_header(path, BATCH_MAGIC, lambda header: header.pop(key))
        with pytest.raises(ValueError, match=re.escape(f"{path}: key '{key}' is missing")):
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
        with pytest.raises(ValueError, match=re.escape(f"{path}: key '{key}' holds") + f".*not a {kind} number"):
            read_batch(path)

    @pytest.mark.parametrize("schema", [2, None, True])
    def test_rejects_other_schema(self, cat, noise, tmp_path, schema):
        # True == 1 in Python, so a bool schema is refused by its type
        path = str(tmp_path / "batch.qb")
        write_batch(generate_batch(cat, noise, 50, seed=5), path)
        rewrite_header(path, BATCH_MAGIC, lambda header: header.update(schema=schema))
        rule = "1" if schema == 2 else "a finite number"
        with pytest.raises(ValueError, match=re.escape(f"{path}: key 'schema' holds {schema}, not {rule}")):
            read_batch(path)

    def test_rejects_partial_value(self, cat, noise, tmp_path):
        path = str(tmp_path / "batch.qb")
        write_batch(generate_batch(cat, noise, 50, seed=5), path)
        write_file(path, read_bytes(path)[:-3])
        with pytest.raises(ValueError, match=re.escape(f"{path}: payload of 797 bytes, not the 800 of 50 pairs")):
            read_batch(path)

    @pytest.mark.parametrize("column", ["x", "phi"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, cat, noise, column, bad):
        values = {"x": np.zeros(4), "phi": np.full(4, 0.5)}
        values[column][2] = bad
        with pytest.raises(ValueError, match=f"{column} holds non-finite values"):
            QuadratureBatch(values["x"], values["phi"], cat, noise, seed=0)
