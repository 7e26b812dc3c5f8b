"""Seedable Monte Carlo generation of noisy homodyne quadrature pairs.

Each record is a pair (x, phi): a local-oscillator phase drawn uniformly on
[0, pi] and a quadrature value distributed according to the noise-degraded
density of the cat state.  Generation is two-stage and physically exact:

1. draw an ideal quadrature from the noiseless density via rejection sampling
   against a three-Gaussian proposal (the two displaced humps plus a central
   component dominating the interference term),
2. degrade it to sqrt(eta) * x + sqrt((1 - eta)/2) * y with y unit normal.

Streams are derived from a counter-based Philox generator keyed by
SeedSequence(seed, spawn_key=(replicate, chunk)), so identical
(seed, replicate, n) reproduce batches bit-exactly and replicates are
statistically independent.  Chunk boundaries are fixed (independent of how
generation is scheduled), which keeps output deterministic under sharding
and lets two threads sample two chunks at once.  `_sample_chunks` is the
one producer: it yields the chunks of a batch in order, sampled on a pool
of two threads (a batch of one chunk on the calling thread), each chunk in
one of two slots, a round workspace and a chunk buffer that the calling
thread allocates and reuses.  The first rejection round proposes into the
chunk itself, later ones into the workspace, and each is evaluated in
2^15-sample blocks, the phase trigonometry redone per block from phi.
`generate_batch` samples the chunks into a whole batch, or hands each to a
batch writer as soon as it is done, so the `sample` stage writes a batch
file while holding two chunks of it.

Batch files are a small JSON header followed by raw little-endian float64
(x, phi) pairs, written and read `_IO_PAIRS` pairs at a time: `_BatchFile`
is the one reader, and `read_batch` gathers its blocks into a batch.
`_FIELDS` holds the rules of every key catomo reads; refused input raises `ConfigError`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .states import CatState, NoiseModel, phase_amplitudes, quadrature_density

__all__ = [
    "QuadratureBatch",
    "generate_batch",
    "write_batch",
    "read_batch",
    "BATCH_MAGIC",
]

SQRT_PI = math.sqrt(math.pi)
INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Samples per derived RNG sub-stream; fixed so that batch content does not
# depend on how chunks are scheduled across workers.
CHUNK_SIZE = 1 << 20
# Threads that sample the chunks of one batch, one per core of a 2-core box.
_POOL_THREADS = 2
# Samples per block of a rejection round; a block's temporaries take 256 KiB each.
_BLOCK = 1 << 15
# Pairs per block when a batch file is written or read, 512 KiB: a stage that
# streams a batch holds one block of its file, far less than the 8 MB of a
# desk batch (2^20-pair blocks raised perfbench's desk peak RSS from 69 to 76 MB).
_IO_PAIRS = 1 << 15

# Held around each call of `quadrature_density`, so one sampler thread at a
# time is inside it.  The function is looked up as a module attribute on
# every call so that a tracer can wrap it (perfbench/tracer.py does), and
# such a tracer keeps one stack of open spans, which two threads inside the
# wrapper at once would close out of order.  Serialising this one call cost
# no measurable time: the other thread draws and bounds meanwhile.
_DENSITY_LOCK = threading.Lock()

BATCH_MAGIC = b"CATQB1\n"
_BATCH_KEYS = ("alpha1", "alpha2", "eta", "n", "seed", "replicate", "source_sha256")  # all required
_MAX_ROUNDS = 10_000  # rejection rounds before `_reject_into` gives up


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
        _check_pairs(self.x, self.phi)

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def x_abs_max(self) -> float:
        """max|x|, 0 for an empty batch."""
        return float(max(self.x.max(), -self.x.min())) if self.n else 0.0

    def blocks(self, size: int):
        """(x, phi) of successive blocks of up to `size` samples, in sample
        order, as `_BatchFile.blocks` yields those of a batch file."""
        for lo in range(0, self.n, size):
            yield self.x[lo:lo + size], self.phi[lo:lo + size]


def _check_pairs(x, phi, path: str | None = None) -> None:
    """Refuse non-finite values and phases outside [0, pi], naming the column and any file `path`."""
    where = f"{path}: " if path else ""
    for name, values in (("x", x), ("phi", phi)):
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"{where}{name} holds non-finite values (NaN or inf)")
    if phi.size and (phi.min() < 0.0 or phi.max() > np.pi):
        raise ConfigError(f"{where}phases must lie in [0, pi]")


def _stream(seed: int, replicate: int, chunk: int) -> np.random.Generator:
    """Derive the deterministic generator for one (replicate, chunk) sub-stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replicate), int(chunk)))
    return np.random.Generator(np.random.Philox(ss))


def _proposal_density(x, m):
    """Equal-weight mixture of N(+m, 1/2), N(-m, 1/2), N(0, 1/2)."""
    return (np.exp(-((x - m) ** 2)) + np.exp(-((x + m) ** 2)) + np.exp(-x * x)) / (3.0 * SQRT_PI)


def _envelope_const(state: CatState, a):
    """Tight constant A(phi) with p(x, phi) <= A(phi) * proposal(x) for all x.

    The interference term is bounded by 2 e^{-2 a(phi)^2} times the central
    Gaussian, giving A = 3 max(1, 2 e^{-2 a(phi)^2}) / (2 (1 + e^{-2|alpha|^2})),
    where `a` = a(phi) is the amplitude of `phase_amplitudes`.
    Always <= 3; the mean acceptance 1/A averaged over phi exceeds 1/2 for
    well-separated states.
    """
    suppress = 2.0 * np.exp(-2.0 * a * a)
    return 3.0 * np.maximum(1.0, suppress) / (2.0 * (1.0 + state.overlap))


def _workspace(size: int):
    """Round arrays for `size` samples: uniforms and active indices, int32 as
    a chunk holds far fewer than 2^31 samples."""
    return np.empty(size), np.empty(size, dtype=np.int32)


def _reject_into(state: CatState, phi, out, rng: np.random.Generator, work) -> None:
    """Fill `out` with draws from quadrature_density(., phi), one per phase of the 1-D `phi`.

    Rejection sampling; the proposal envelope is valid by construction, so the
    round cap only guards against implementation regressions.  A round draws,
    for its k active samples in order, k proposal components, k normals
    and k uniforms (into `u` of `work = _workspace(>= phi.size)`).  Round 1
    covers every sample and draws its normals straight into `out`, which must
    be contiguous; a later round stages them in `u` and scatters them to its
    active positions.  Evaluated block by block, the proposals stay in or go
    back to `out`, so the accepted ones are final, and the rejected positions
    are compacted forward in `active`, keeping their order for the next round.
    """
    u, active = work
    k = phi.size
    for rnd in range(_MAX_ROUNDS):
        if k == 0:
            return
        comp = rng.integers(0, 3, size=k).astype(np.int8)  # held as 1 byte, not 8, during the blocks
        prop = rng.standard_normal(out=u[:k] if rnd else out)
        prop *= INV_SQRT2  # the bits of rng.normal(0.0, INV_SQRT2, size=k)
        if rnd:
            out[active[:k]] = prop
        rng.random(out=u[:k])
        kept = 0
        for lo in range(0, k, _BLOCK):
            hi = min(lo + _BLOCK, k)
            idx = active[lo:hi] if rnd else slice(lo, hi)
            m, a, b = phase_amplitudes(state, phi[idx])
            x, c = out[idx], comp[lo:hi]  # a view of `out` in round 1, a copy later
            x += np.where(c == 0, m, np.where(c == 1, -m, 0.0))
            with _DENSITY_LOCK:
                target = quadrature_density(state, x, amplitudes=(m, a, b))
            accept = u[lo:hi] * (_envelope_const(state, a) * _proposal_density(x, m)) <= target
            if rnd:
                out[idx] = x
            rest = idx[~accept] if rnd else np.flatnonzero(~accept) + lo
            active[kept:kept + rest.size] = rest
            kept += rest.size
        k = kept
    raise RuntimeError(f"rejection sampler exceeded {_MAX_ROUNDS} rounds; proposal envelope is broken")


def _sample_chunk(state: CatState, noise: NoiseModel, rng: np.random.Generator, phi, x, work) -> None:
    """Fill the chunk views `phi` and `x` from `rng`: phases, ideal values, then noise.

    Draws phi uniform on [0, pi], ideal values by `_reject_into`, then the
    measured values sqrt(eta) x + sqrt((1 - eta) / 2) y, y unit normal, into
    the given arrays and `work` (y into its uniforms), so that of chunk size
    it allocates only each round's components: drawn as int64, held as int8.
    """
    rng.random(out=phi)
    phi *= np.pi  # the bits of rng.uniform(0.0, np.pi, phi.size)
    _reject_into(state, phi, x, rng, work)
    y = rng.standard_normal(out=work[0][:x.size])
    x *= np.sqrt(noise.eta)
    y *= np.sqrt((1.0 - noise.eta) / 2.0)
    x += y


def _sample_chunks(state: CatState, noise: NoiseModel, n: int, seed: int, replicate: int, dest=None):
    """The (x, phi) views of each chunk of a batch of n, yielded in chunk order.

    Chunk c draws from `_stream(seed, replicate, c)` alone.  A batch of one
    chunk is sampled on the calling thread.  Otherwise a pool of
    `_POOL_THREADS` threads samples that many chunks at once, and chunk
    c + _POOL_THREADS starts once chunk c has been taken, into c's slot: a
    round workspace plus, unless `dest` = (x, phi) arrays of length n take
    the chunks in place, a chunk buffer, valid until the next chunk is asked
    for.  The calling thread allocates every slot: chunk-sized buffers freed
    by a pool thread would stay resident in its malloc arena.
    """
    chunks = -(-n // CHUNK_SIZE)
    slots, size = min(_POOL_THREADS, chunks), min(n, CHUNK_SIZE)
    works = [_workspace(size) for _ in range(slots)]
    bufs = None if dest else [(np.empty(size), np.empty(size)) for _ in range(slots)]

    def sample(chunk: int):
        lo, hi = chunk * CHUNK_SIZE, min((chunk + 1) * CHUNK_SIZE, n)
        x, phi = [a[lo:hi] for a in dest] if dest else [b[:hi - lo] for b in bufs[chunk % slots]]
        _sample_chunk(state, noise, _stream(seed, replicate, chunk), phi, x, works[chunk % slots])
        return x, phi

    if slots == 1:
        yield sample(0)
        return
    with ThreadPoolExecutor(slots) as pool:
        running = deque(pool.submit(sample, chunk) for chunk in range(slots))
        for chunk in range(chunks):
            yield running.popleft().result()
            if chunk + slots < chunks:
                running.append(pool.submit(sample, chunk + slots))


def generate_batch(
    state: CatState,
    noise: NoiseModel,
    n: int,
    seed: int,
    replicate: int = 0,
    out=None,
):
    """Generate n i.i.d. (x, phi) pairs; bit-identical for identical arguments.

    The chunks come from `_sample_chunks`.  Without `out` they are sampled in
    place into a `QuadratureBatch`, which is returned.  `out`, a writer from
    `_batch_writer` opened for the same n, instead takes each chunk as soon
    as it is sampled and is returned, so the batch is never held whole.
    """
    if n < 1:
        raise ValueError("batch size n must be >= 1")
    dest = (np.empty(n), np.empty(n)) if out is None else None
    with contextlib.closing(_sample_chunks(state, noise, n, seed, replicate, dest)) as chunks:
        for x, phi in chunks:
            if out is not None:
                out.write(x, phi)
    if out is not None:
        return out
    return QuadratureBatch(x=dest[0], phi=dest[1], state=state, noise=noise, seed=seed, replicate=replicate)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _batch_header(state: CatState, noise: NoiseModel, n: int, seed: int, replicate: int,
                  source_sha256: str | None) -> dict:
    return {
        "alpha1": state.alpha1,
        "alpha2": state.alpha2,
        "eta": noise.eta,
        "n": n,
        "seed": seed,
        "replicate": replicate,
        "source_sha256": source_sha256,
    }


@contextlib.contextmanager
def _atomic_file(path: str):
    """A temp file beside `path`, open for writing; synced and renamed to
    `path` when the block ends, and removed if the block raises."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _atomic_bytes(path: str, parts) -> None:
    """Write the bytes-like items of the iterable `parts` in order to `path`
    through `_atomic_file`; a lazy `parts` is written as it yields."""
    with _atomic_file(path) as fh:
        fh.writelines(parts)


def _frame_head(magic: bytes, header: dict) -> bytes:
    """`magic + length + JSON header` of a framed file; the header gains
    `schema: 1`, the version `_read_header` accepts."""
    hbytes = json.dumps({**header, "schema": 1}, sort_keys=True).encode("utf-8")
    return magic + len(hbytes).to_bytes(4, "little") + hbytes


class _PairWriter:
    """Appends (x, phi) pairs to an open batch file, interleaved `_IO_PAIRS`
    at a time in one reused buffer; `n` is the count its header declares."""

    def __init__(self, fh, n: int):
        self.n, self.written, self._fh = n, 0, fh
        self._block = np.empty((min(n, _IO_PAIRS), 2), "<f8")

    def write(self, x, phi) -> None:
        for lo in range(0, len(x), _IO_PAIRS):
            block = self._block[:min(_IO_PAIRS, len(x) - lo)]
            block[:, 0], block[:, 1] = x[lo:lo + len(block)], phi[lo:lo + len(block)]
            self._fh.write(block)
        self.written += len(x)


@contextlib.contextmanager
def _batch_writer(path: str, header: dict):
    """A `_PairWriter` for the batch file `path` behind its framed `header`,
    written through `_atomic_file`: the file appears only if the block ends
    after exactly the header's n pairs."""
    with _atomic_file(path) as fh:
        fh.write(_frame_head(BATCH_MAGIC, header))
        out = _PairWriter(fh, header["n"])
        yield out
        if out.written != out.n:
            raise ValueError(f"{path}: {out.written} pairs written, the header declares {out.n}")


def write_batch(batch: QuadratureBatch, path: str) -> None:
    """Write header + interleaved little-endian float64 (x, phi) pairs
    atomically, through the writer `generate_batch` streams chunks to."""
    header = _batch_header(batch.state, batch.noise, batch.n, batch.seed, batch.replicate, batch.source_sha256)
    with _batch_writer(path, header) as out:
        out.write(batch.x, batch.phi)


class ConfigError(ValueError):
    """Refused input; the message names the file, config key or flag, and the key."""


# The type of each kind of field, as a test of a value read from JSON or from
# the config.  A number is compared, not converted, so a huge JSON int is refused.
_KINDS = {
    "a finite number": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "a bool": lambda v: type(v) is bool,
    "a str": lambda v: type(v) is str,
    "a str or null": lambda v: v is None or type(v) is str,
    "a non-empty tuple of finite numbers": lambda v: type(v) is tuple and v and all(map(_KINDS["a finite number"], v)),
}

# Every key of a batch or grid header, an analysis file and the config: (kind,
# range, test of the range), the range None if any value of the kind will do; a
# whole number is a finite number held as an int.  An entry states what any file
# may hold, so every file the writers write reads back; `cli._validate` adds two rules.
_FIELDS = {
    "schema": ("a finite number", "1", lambda v: type(v) is int and v == 1),
    "alpha1": ("a finite number", None, None),
    "alpha2": ("a finite number", None, None),
    "eta": ("a finite number", "in (0, 1]", lambda v: 0 < v <= 1),
    "n": ("a finite number", "a whole number >= 0", lambda v: type(v) is int and v >= 0),
    "seed": ("a finite number", "a whole number >= 0", lambda v: type(v) is int and v >= 0),
    "replicate": ("a finite number", "a whole number >= 0", lambda v: type(v) is int and v >= 0),
    "replicates": ("a finite number", "a whole number >= 1", lambda v: type(v) is int and v >= 1),
    "source_sha256": ("a str or null", None, None),
    "grid_size": ("a finite number", "a whole number >= 1", lambda v: type(v) is int and v >= 1),
    "extent": ("a finite number", "> 0", lambda v: v > 0),
    "r": ("a finite number", "> 0", lambda v: v > 0),
    "h": ("a finite number", "> 0", lambda v: v > 0),
    "beta": ("a finite number", "in (0, 1/4)", lambda v: 0 < v < 0.25),
    "method": ("a str", "'fast' or 'exact'", lambda v: v in ("fast", "exact")),
    "route": ("a str", "'direct' or 'binned'", lambda v: v in ("direct", "binned")),
    "kind": ("a str", "'replicate' or 'average'", lambda v: v in ("replicate", "average")),
    "betas": ("a non-empty tuple of finite numbers", "each in (0, 1/4)", lambda v: all(0 < b < 0.25 for b in v)),
    "path": ("a str", "'fast' or 'exact'", lambda v: v in ("fast", "exact")),
    "output_dir": ("a str", None, None),
    "workers": ("a finite number", "a whole number >= 1", lambda v: type(v) is int and v >= 1),
    "config_sha256": ("a str", None, None),
    "delta_numeric": ("a finite number", ">= 0", lambda v: v >= 0),
    "av": ("a finite number", None, None),
    "sd": ("a finite number", ">= 0", lambda v: v >= 0),
    "separated": ("a bool", None, None),
}


def _check_fields(values: dict, where, required, optional=()) -> None:
    """Refuse `values` if it lacks a `required` key, or if a `required` or
    `optional` key it holds breaks its `_FIELDS` entry; other keys pass.  `where`
    is the file `values` was read from, or a function naming a config key's place."""
    locate = where if callable(where) else lambda key: f"{where}: key {key!r}"
    for key in required:
        if key not in values:
            raise ConfigError(f"{locate(key)} is missing")
    for key in (*required, *optional):
        if key in values:
            kind, rule, within = _FIELDS[key]
            value = values[key]
            if not _KINDS[kind](value):
                raise ConfigError(f"{locate(key)} holds {value!r}, not {kind}")
            if within is not None and not within(value):
                raise ConfigError(f"{locate(key)} holds {value!r}, not {rule}")


def _json_fields(raw: bytes, path: str, required, optional=()) -> dict:
    """The JSON object `raw`, read from `path`, checked by `_check_fields`;
    bytes that are not UTF-8 JSON, or JSON of another value, are refused too."""
    try:
        fields = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{path}: unreadable JSON ({exc})") from exc
    if not isinstance(fields, dict):
        raise ConfigError(f"{path}: holds a JSON {type(fields).__name__}, not an object")
    _check_fields(fields, path, required, optional)
    return fields


def _read_header(fh, path: str, magic: bytes, kind: str, required: tuple[str, ...], optional=()) -> dict:
    """Header dict of the open `magic + length + JSON header + payload` file
    `fh`, which is left at the payload.

    Checks the magic, a header length within the file and the header
    (`_json_fields`, `schema` required); a failure names the path.
    """
    size = os.fstat(fh.fileno()).st_size
    if fh.read(len(magic)) != magic:
        raise ConfigError(f"{path}: not a {kind} file")
    hlen = int.from_bytes(fh.read(4), "little")
    if hlen > size - fh.tell():
        raise ConfigError(f"{path}: header length {hlen} exceeds the {size - fh.tell()} bytes left in the file")
    return _json_fields(fh.read(hlen), path, ("schema", *required), optional)


class _BatchFile:
    """A batch file read block by block, its pairs never held whole.

    Opening it checks the header (`_read_header`) and the payload size.
    `scan()` validates every pair as `QuadratureBatch` does, sets `x_abs_max`
    and returns the file's SHA-256, in one read; `blocks(size)` then yields
    the pairs again, in file order.
    The batch's metadata sits under `QuadratureBatch`'s names, so both
    estimator routes take a scanned file in place of a batch.
    """

    def __init__(self, path: str):
        with open(path, "rb") as fh:
            header = _read_header(fh, path, BATCH_MAGIC, "quadrature batch", _BATCH_KEYS)
            self._start = fh.tell()
            nbytes = os.fstat(fh.fileno()).st_size - self._start
        n = header["n"]
        if nbytes != 16 * n:
            raise ConfigError(f"{path}: payload of {nbytes} bytes, not the {16 * n} of {n} pairs")
        self.state = CatState(header["alpha1"], header["alpha2"])
        self.noise = NoiseModel(header["eta"])
        self.path, self.header, self.n = path, header, n
        self.seed, self.replicate = header["seed"], header["replicate"]
        self.source_sha256 = header["source_sha256"]
        self.x_abs_max = None  # set by `scan`

    def blocks(self, size: int, digest=None):
        """(x, phi) column views of successive blocks of up to `size` pairs,
        read in file order into one reused buffer, so each holds until the
        next is asked for; `digest`, if given, is fed every byte of the file."""
        with open(self.path, "rb") as fh:
            head = fh.read(self._start)
            if digest is not None:
                digest.update(head)
            buf = np.empty((min(self.n, size), 2), "<f8")
            for lo in range(0, self.n, size):
                block = buf[:min(size, self.n - lo)]
                if fh.readinto(block) != block.nbytes:
                    raise ConfigError(f"{self.path}: file ends before its {self.n} pairs")
                if digest is not None:
                    digest.update(block)
                yield block[:, 0], block[:, 1]

    def scan(self) -> str:
        """Validate every pair, set `x_abs_max` and return the file's SHA-256, in one read."""
        digest, top = hashlib.sha256(), 0.0
        for x, phi in self.blocks(_IO_PAIRS, digest):
            _check_pairs(x, phi, self.path)
            top = max(top, x.max(), -x.min())
        self.x_abs_max = float(top)
        return digest.hexdigest()


def read_batch(path: str) -> QuadratureBatch:
    """Read a batch file written by `write_batch`: `_BatchFile`'s blocks
    gathered into one (n, 2) array, whose columns are the batch's x and phi."""
    source = _BatchFile(path)
    pairs = np.empty((source.n, 2))
    for lo, (x, phi) in zip(range(0, source.n, _IO_PAIRS), source.blocks(_IO_PAIRS)):
        pairs[lo:lo + x.size, 0], pairs[lo:lo + x.size, 1] = x, phi
    try:  # the pairs' one check, `QuadratureBatch`'s, with the file named
        return QuadratureBatch(x=pairs[:, 0], phi=pairs[:, 1], state=source.state, noise=source.noise,
                               seed=source.seed, replicate=source.replicate, source_sha256=source.source_sha256)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
