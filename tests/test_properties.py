"""Property tests: the kernel and its table on random (gamma, h, t), the mean
oracle on random states and cutoffs, the batch, grid and config file round
trips, and truncated or corrupt batch and grid files."""

import contextlib
import io
import math
import os
import warnings

import numpy as np
import pytest

from catomo import (
    CatState,
    KernelTable,
    NoiseModel,
    QuadratureBatch,
    ReconstructionParams,
    WignerGrid,
    estimator_mean_oracle,
    kernel,
    read_batch,
    read_grid,
    write_batch,
    write_grid,
)
from catomo.cli import EXIT_CONFIG, EXIT_OK, ExperimentConfig, load_config, main, save_config
from catomo.estimator import GRID_MAGIC
from catomo.sampling import BATCH_MAGIC

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from test_cli import tiny_config  # noqa: E402
from test_estimator import fourier_truncation_reference, kernel_quad_oracle  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
gammas = st.floats(0.0, 0.35)
inv_hs = st.floats(1.0, 6.0)
offsets = st.floats(-40.0, 40.0)


@PROPERTY
@given(gamma=gammas, inv_h=inv_hs, t=offsets)
def test_kernel_even(gamma, inv_h, t):
    assert kernel(t, gamma, 1.0 / inv_h) == kernel(-t, gamma, 1.0 / inv_h)


@PROPERTY
@given(gamma=gammas, inv_h=inv_hs, t=offsets)
def test_kernel_matches_quadrature(gamma, inv_h, t):
    k0 = kernel(0.0, gamma, 1.0 / inv_h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad reports roundoff at this tolerance
        ref = kernel_quad_oracle(t, gamma, 1.0 / inv_h)
    assert math.isfinite(k0) and k0 > 0.0
    assert abs(kernel(t, gamma, 1.0 / inv_h) - ref) <= 1e-12 * k0


@PROPERTY
@given(gamma=gammas, inv_h=inv_hs, t=st.lists(offsets, min_size=1, max_size=8))
def test_array_matches_scalar_calls(gamma, inv_h, t):
    arr = kernel(np.array(t), gamma, 1.0 / inv_h)
    assert arr.shape == (len(t),)
    assert all(arr[i] == kernel(tv, gamma, 1.0 / inv_h) for i, tv in enumerate(t))


@PROPERTY
@given(gamma=gammas, inv_h=inv_hs, t_max=st.floats(1.0, 20.0),
       t=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=16))
def test_table_matches_kernel(gamma, inv_h, t_max, t):
    table = KernelTable(gamma, 1.0 / inv_h, t_max=t_max)
    t = np.array(t)
    got, ref = table(t), kernel(t, gamma, 1.0 / inv_h)
    inside = np.abs(t) <= t_max
    assert np.all(np.abs(got[inside] - ref[inside]) <= 1e-6 * table.k0)
    np.testing.assert_array_equal(got[~inside], ref[~inside])


@PROPERTY
@given(alpha1=st.floats(-2.0, 2.0), alpha2=st.floats(-2.0, 2.0), inv_h=st.floats(1.0, 15.0),
       r=st.floats(0.5, 5.0),
       nodes=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi)), max_size=6))
def test_mean_oracle_matches_fourier_reference(alpha1, alpha2, inv_h, r, nodes):
    state = CatState(alpha1, alpha2)
    radius = r * np.sqrt([0.0] + [u for u, _ in nodes])
    angle = np.array([0.0] + [t for _, t in nodes])
    q, p = radius * np.cos(angle), radius * np.sin(angle)
    ref = fourier_truncation_reference(state, inv_h, q, p)
    finer = fourier_truncation_reference(state, inv_h, q, p, n_rho=32, n_theta=512)
    scale = np.max(np.abs(finer))
    assert np.max(np.abs(ref - finer)) < 1e-13 * scale
    ours = estimator_mean_oracle(state, ReconstructionParams(r=r, h=1.0 / inv_h), q, p)
    assert np.max(np.abs(ours - finer)) <= 1e-12 * scale


finite = st.floats(allow_nan=False, allow_infinity=False)
batches = st.integers(0, 40).flatmap(lambda n: st.builds(
    QuadratureBatch,
    x=hnp.arrays(np.float64, n, elements=finite),
    phi=hnp.arrays(np.float64, n, elements=st.floats(0.0, math.pi)),
    state=st.builds(CatState, finite, finite),
    noise=st.builds(NoiseModel, st.floats(0.0, 1.0, exclude_min=True)),
    seed=st.integers(0, 2 ** 63), replicate=st.integers(0, 99),
    source_sha256=st.none() | st.text("0123456789abcdef", min_size=64, max_size=64)))
grids = st.integers(1, 12).flatmap(lambda size: st.builds(
    WignerGrid,
    values=hnp.arrays(np.float64, (size, size), elements=finite),
    extent=st.floats(0.0, 1e3, exclude_min=True), r=st.floats(0.0, 1e3, exclude_min=True),
    meta=st.fixed_dictionaries({"alpha1": finite, "alpha2": finite,
                                "route": st.sampled_from(["direct", "binned"])})))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


@PROPERTY
@given(batch=batches)
def test_batch_round_trip(workdir, batch):
    path = str(workdir / "batch.qb")
    write_batch(batch, path)
    back = read_batch(path)
    assert back.x.tobytes() == batch.x.tobytes() and back.phi.tobytes() == batch.phi.tobytes()
    assert (back.state, back.noise, back.seed, back.replicate, back.source_sha256) == \
        (batch.state, batch.noise, batch.seed, batch.replicate, batch.source_sha256)


@PROPERTY
@given(grid=grids)
def test_grid_round_trip(workdir, grid):
    path = str(workdir / "grid.wg")
    write_grid(grid, path)
    back = read_grid(path)
    assert back.values.tobytes() == grid.values.tobytes()
    assert (back.extent, back.r, back.meta) == (grid.extent, grid.r, grid.meta)


@PROPERTY
@given(data=st.data(), kind=st.sampled_from(["batch", "grid"]))
def test_truncated_file_names_itself(workdir, data, kind):
    whole, cut = str(workdir / f"whole.{kind}"), str(workdir / f"cut.{kind}")
    if kind == "batch":
        write, read, item = write_batch, read_batch, data.draw(batches)
    else:
        write, read, item = write_grid, read_grid, data.draw(grids)
    write(item, whole)
    with open(whole, "rb") as fh:
        raw = fh.read()
    with open(cut, "wb") as fh:
        fh.write(raw[:-data.draw(st.integers(1, len(raw)))])
    with pytest.raises(ValueError) as err:
        read(cut)
    assert str(err.value).startswith(cut)


def flip_framing_byte(raw, magic, data):
    """`raw` with one byte of its header length or JSON header flipped.

    A length byte is XORed with any mask; a header byte gets its high bit set,
    which no ASCII JSON header can hold, so every flip corrupts the file.
    """
    start = len(magic)
    hlen = int.from_bytes(raw[start:start + 4], "little")
    pos = data.draw(st.integers(start, start + 3 + hlen))
    mask = data.draw(st.integers(1, 255)) if pos < start + 4 else 0x80
    return raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1:]


@PROPERTY
@given(data=st.data(), kind=st.sampled_from(["batch", "grid"]))
def test_corrupt_framing_names_itself(workdir, data, kind):
    whole, bad = str(workdir / f"whole.{kind}"), str(workdir / f"bad.{kind}")
    if kind == "batch":
        write, read, magic, item = write_batch, read_batch, BATCH_MAGIC, data.draw(batches)
    else:
        write, read, magic, item = write_grid, read_grid, GRID_MAGIC, data.draw(grids)
    write(item, whole)
    with open(whole, "rb") as fh:
        raw = fh.read()
    corrupt = flip_framing_byte(raw, magic, data)
    with open(bad, "wb") as fh:
        fh.write(corrupt)
    with pytest.raises(ValueError) as err:
        read(bad)
    assert str(err.value).startswith(bad)
    hlen = int.from_bytes(corrupt[len(magic):len(magic) + 4], "little")
    if hlen > len(corrupt) - len(magic) - 4:  # refused before reading past the file's end
        assert "exceeds" in str(err.value)


@pytest.fixture(scope="module")
def sampled(tmp_path_factory):
    """A tiny config whose batches are written, and the bytes of its first batch."""
    cfg, path = tiny_config(tmp_path_factory.mktemp("cli"))
    assert main(["sample", "--config", path]) == EXIT_OK
    batch = os.path.join(cfg.output_dir, "batches", "batch_r00.qb")
    with open(batch, "rb") as fh:
        return path, batch, fh.read()


@settings(PROPERTY, max_examples=15)
@given(data=st.data())
def test_reconstruct_refuses_corrupt_batch(sampled, data):
    path, batch, raw = sampled
    with open(batch, "wb") as fh:
        fh.write(flip_framing_byte(raw, BATCH_MAGIC, data))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            assert main(["reconstruct", "--config", path]) == EXIT_CONFIG
    finally:
        with open(batch, "wb") as fh:
            fh.write(raw)
    assert f"invalid batch file: {batch}" in err.getvalue()


configs = st.builds(
    ExperimentConfig,
    alpha1=finite, alpha2=finite, eta=st.floats(0.0, 1.0, exclude_min=True),
    n=st.integers(1, 10 ** 9), replicates=st.integers(1, 100), seed=st.integers(0, 2 ** 63),
    betas=st.lists(st.floats(0.0, 0.25, exclude_min=True, exclude_max=True), min_size=1, max_size=4).map(tuple),
    grid_size=st.integers(1, 500).map(lambda k: 2 * k + 1), path=st.sampled_from(["fast", "exact"]),
    output_dir=st.text("abcXYZ019_-./%", min_size=1, max_size=16), workers=st.integers(1, 64))


@PROPERTY
@given(cfg=configs)
def test_config_round_trip(workdir, cfg):
    path = str(workdir / "exp.ini")
    save_config(cfg, path)
    assert repr(load_config(path)) == repr(cfg)  # every field, the sign of a zero included
