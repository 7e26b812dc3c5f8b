"""Seedable Monte Carlo generation of noisy homodyne quadrature pairs.

Each record is a pair (x, phi): a local-oscillator phase drawn uniformly on
[0, pi] and a quadrature value distributed according to the noise-degraded
density of the cat state.  Generation is two-stage and physically exact:

1. draw an ideal quadrature from the noiseless density via rejection sampling
   against a three-Gaussian proposal (the two displaced humps plus a central
   component dominating the interference term); the phase trigonometry is
   done once per chunk, not once per rejection round, with the same draws
   and accept decisions, hence the same batches,
2. degrade it to sqrt(eta) * x + sqrt((1 - eta)/2) * y with y unit normal.

Streams are derived from a counter-based Philox generator keyed by
SeedSequence(seed, spawn_key=(replicate, chunk)), so identical
(seed, replicate, n) reproduce batches bit-exactly and replicates are
statistically independent.  Chunk boundaries are fixed (independent of how
generation is scheduled), which keeps output deterministic under sharding.

Batch files are a small JSON header followed by raw little-endian float64
(x, phi) pairs; a CSV export with 17 significant digits is also provided.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .states import CatState, NoiseModel, phase_amplitudes, quadrature_density

__all__ = [
    "QuadratureBatch",
    "sample_phase",
    "sample_ideal_quadrature",
    "add_detection_noise",
    "generate_batch",
    "write_batch",
    "read_batch",
    "batch_to_csv",
    "BATCH_MAGIC",
]

SQRT_PI = math.sqrt(math.pi)
INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Samples per derived RNG sub-stream; fixed so that batch content does not
# depend on how chunks are scheduled across workers.
CHUNK_SIZE = 1 << 20

BATCH_MAGIC = b"CATQB1\n"
_MAX_ROUNDS = 10_000  # rejection rounds before `sample_ideal_quadrature` gives up


@dataclass
class QuadratureBatch:
    """n i.i.d. homodyne pairs plus the metadata that reproduces them."""

    x: np.ndarray
    phi: np.ndarray
    state: CatState
    noise: NoiseModel
    seed: int
    replicate: int = 0
    source_sha256: str | None = field(default=None, compare=False)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.phi = np.asarray(self.phi, dtype=np.float64)
        if self.x.shape != self.phi.shape or self.x.ndim != 1:
            raise ValueError("x and phi must be 1-D arrays of equal length")
        for name, values in (("x", self.x), ("phi", self.phi)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} holds non-finite values (NaN or inf)")
        if self.x.size and (self.phi.min() < 0.0 or self.phi.max() > np.pi):
            raise ValueError("phases must lie in [0, pi]")

    @property
    def n(self) -> int:
        return self.x.size


def _stream(seed: int, replicate: int, chunk: int) -> np.random.Generator:
    """Derive the deterministic generator for one (replicate, chunk) sub-stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replicate), int(chunk)))
    return np.random.Generator(np.random.Philox(ss))


def sample_phase(rng: np.random.Generator, size=None):
    """Local-oscillator phase(s), uniform on [0, pi]."""
    return rng.uniform(0.0, np.pi, size=size)


def _proposal_density(x, m):
    """Equal-weight mixture of N(+m, 1/2), N(-m, 1/2), N(0, 1/2)."""
    return (np.exp(-((x - m) ** 2)) + np.exp(-((x + m) ** 2)) + np.exp(-x * x)) / (3.0 * SQRT_PI)


def _envelope_const(state: CatState, a_neg):
    """Tight constant A(phi) with p(x, phi) <= A(phi) * proposal(x) for all x.

    The interference term is bounded by 2 e^{-2 a(-phi)^2} times the central
    Gaussian, giving A = 3 max(1, 2 e^{-2 a(-phi)^2}) / (2 (1 + e^{-2|alpha|^2})),
    where `a_neg` = a(-phi) is the amplitude of `phase_amplitudes`.
    Always <= 3; the mean acceptance 1/A averaged over phi exceeds 1/2 for
    well-separated states.
    """
    suppress = 2.0 * np.exp(-2.0 * a_neg * a_neg)
    return 3.0 * np.maximum(1.0, suppress) / (2.0 * (1.0 + state.overlap))


def sample_ideal_quadrature(state: CatState, phi, rng: np.random.Generator):
    """Noise-free quadrature value(s) distributed as quadrature_density(., phi).

    Rejection sampling; the proposal envelope is valid by construction, so the
    round cap only guards against implementation regressions.  The phase
    amplitudes are computed once per call, not once per rejection round.
    """
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    if phi_arr.min() < 0.0 or phi_arr.max() > np.pi:
        raise ValueError("quadrature phase phi must lie in [0, pi]")
    m, a_neg, b_neg = phase_amplitudes(state, phi_arr)
    env = _envelope_const(state, a_neg)

    out = np.empty(phi_arr.shape, dtype=np.float64)
    active = np.arange(phi_arr.size)
    # round temporaries are chunk-sized at first: `comp` is freed once used,
    # and `u`, still the round's third draw, is drawn after the densities
    for _ in range(_MAX_ROUNDS):
        if active.size == 0:
            break
        k = active.size
        mk = m[active]
        comp = rng.integers(0, 3, size=k)
        prop = np.where(comp == 0, mk, np.where(comp == 1, -mk, 0.0))
        del comp
        prop += rng.normal(0.0, INV_SQRT2, size=k)
        target = quadrature_density(state, prop, amplitudes=(mk, a_neg[active], b_neg[active]))
        bound = env[active] * _proposal_density(prop, mk)
        u = rng.random(size=k)
        accept = u * bound <= target
        out[active[accept]] = prop[accept]
        active = active[~accept]
    if active.size:
        raise RuntimeError(
            f"rejection sampler exceeded {_MAX_ROUNDS} rounds; proposal envelope is broken"
        )
    return out if np.ndim(phi) else float(out[0])


def add_detection_noise(x, noise: NoiseModel, rng: np.random.Generator):
    """Measured value sqrt(eta) x + sqrt((1-eta)/2) y with y a unit normal draw."""
    x = np.asarray(x, dtype=float)
    y = rng.standard_normal(size=x.shape)
    return np.sqrt(noise.eta) * x + np.sqrt((1.0 - noise.eta) / 2.0) * y


def generate_batch(
    state: CatState,
    noise: NoiseModel,
    n: int,
    seed: int,
    replicate: int = 0,
) -> QuadratureBatch:
    """Generate n i.i.d. (x, phi) pairs; bit-identical for identical arguments."""
    if n < 1:
        raise ValueError("batch size n must be >= 1")
    x, phi = np.empty(n), np.empty(n)
    for chunk, start in enumerate(range(0, n, CHUNK_SIZE)):
        part = slice(start, min(start + CHUNK_SIZE, n))
        rng = _stream(seed, replicate, chunk)
        phi[part] = sample_phase(rng, part.stop - start)
        x[part] = add_detection_noise(sample_ideal_quadrature(state, phi[part], rng), noise, rng)
    return QuadratureBatch(x=x, phi=phi, state=state, noise=noise, seed=seed, replicate=replicate)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _batch_header(batch: QuadratureBatch) -> dict:
    return {
        "alpha1": batch.state.alpha1,
        "alpha2": batch.state.alpha2,
        "eta": batch.noise.eta,
        "n": batch.n,
        "seed": batch.seed,
        "replicate": batch.replicate,
        "source_sha256": batch.source_sha256,
    }


def _atomic_bytes(path: str, parts) -> None:
    """Write the bytes-like items of the iterable `parts` in order to a synced temp
    file, then rename it to `path`; a lazy `parts` is written as it yields."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(parts)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _write_framed(path: str, magic: bytes, header: dict, payload) -> None:
    """Write `magic + length + JSON header` and then each float64 array of the
    iterable `payload`, little-endian, atomically; the header gains
    `schema: 1`, the version `_read_framed` accepts."""
    hbytes = json.dumps({**header, "schema": 1}, sort_keys=True).encode("utf-8")
    _atomic_bytes(path, itertools.chain((magic, len(hbytes).to_bytes(4, "little"), hbytes),
                                        (np.ascontiguousarray(values, "<f8") for values in payload)))


def write_batch(batch: QuadratureBatch, path: str) -> None:
    """Write header + interleaved little-endian float64 (x, phi) pairs atomically.

    The pairs are interleaved one `CHUNK_SIZE` slice at a time into one reused
    buffer, each written before the next is made, so writing copies one chunk
    of the batch, not all of it.
    """
    pairs = np.empty((min(batch.n, CHUNK_SIZE), 2))

    def chunks():
        for lo in range(0, batch.n, CHUNK_SIZE):
            part = slice(lo, min(lo + CHUNK_SIZE, batch.n))
            yield np.stack([batch.x[part], batch.phi[part]], axis=1, out=pairs[:part.stop - lo])

    _write_framed(path, BATCH_MAGIC, _batch_header(batch), chunks())


def _read_framed(path: str, magic: bytes, kind: str, required: tuple[str, ...]):
    """Header dict and writable float64 payload of a `magic + length + JSON header + payload` file.

    Checks the magic, a header length within the file, `schema == 1` and the
    `required` header keys, each of which must hold a finite number, a whole
    one for the counts n, seed, replicate and grid_size; every failure is a
    ValueError whose message starts with the path.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(magic)) != magic:
            raise ValueError(f"{path}: not a {kind} file")
        hlen = int.from_bytes(fh.read(4), "little")
        if hlen > size - fh.tell():
            raise ValueError(f"{path}: header length {hlen} exceeds the {size - fh.tell()} bytes left in the file")
        raw = fh.read(hlen)
        try:
            header = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: unreadable header ({exc})") from exc
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is not a JSON object")
        if header.get("schema") != 1:
            raise ValueError(f"{path}: header schema is {header.get('schema')!r}, expected 1")
        missing = [key for key in required if key not in header]
        if missing:
            raise ValueError(f"{path}: header lacks the required key {missing[0]!r}")
        for key in required:
            value = header[key]  # compared, not converted, so a huge JSON int is refused here
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise ValueError(f"{path}: header key {key!r} holds {value!r}, not a finite number")
            if key in ("n", "seed", "replicate", "grid_size") and value != int(value):
                raise ValueError(f"{path}: header key {key!r} holds {value!r}, not a whole number")
        nbytes = size - fh.tell()
        if nbytes % 8:
            raise ValueError(f"{path}: payload of {nbytes} bytes is not a whole number of float64 values")
        return header, np.fromfile(fh, dtype="<f8")


def read_batch(path: str) -> QuadratureBatch:
    """Read a batch file written by `write_batch`."""
    header, payload = _read_framed(path, BATCH_MAGIC, "quadrature batch",
                                   ("alpha1", "alpha2", "eta", "n", "seed", "replicate"))
    n = int(header["n"])
    if payload.size != 2 * n:
        raise ValueError(f"{path}: payload holds {payload.size // 2} pairs, header says {n}")
    pairs = payload.reshape(n, 2)
    try:
        return QuadratureBatch(
            x=pairs[:, 0],
            phi=pairs[:, 1],
            state=CatState(header["alpha1"], header["alpha2"]),
            noise=NoiseModel(header["eta"]),
            seed=int(header["seed"]),
            replicate=int(header["replicate"]),
            source_sha256=header.get("source_sha256"),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def batch_to_csv(batch: QuadratureBatch, path: str) -> None:
    """Interchange export: `x,phi` rows with 17 significant digits."""
    lines = ["x,phi"]
    lines.extend(f"{x:.17g},{phi:.17g}" for x, phi in zip(batch.x, batch.phi))
    _atomic_bytes(path, [("\n".join(lines) + "\n").encode("utf-8")])
