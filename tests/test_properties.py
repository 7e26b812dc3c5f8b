"""Property tests: the kernel and its table on random (gamma, h, t), the mean
oracle on random states and cutoffs, the estimator's linearity across merged
batches, the batch, grid and config file round trips, and truncated or
corrupt batch, grid and analysis files, read alone and by each CLI stage."""

import contextlib
import io
import json
import math
import os
import warnings
from unittest.mock import patch

import numpy as np
import pytest

from catomo import (
    CatState,
    KernelTable,
    NoiseModel,
    QuadratureBatch,
    ReconstructionParams,
    WignerGrid,
    estimate_at_points,
    estimator_mean_oracle,
    kernel,
    read_batch,
    read_grid,
    write_batch,
    write_grid,
)
from catomo.cli import EXIT_CONFIG, EXIT_OK, ExperimentConfig, load_config, main, save_config
from catomo import estimator as est
from catomo.estimator import GRID_MAGIC
from catomo.sampling import BATCH_MAGIC

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from test_cli import tiny_config  # noqa: E402
from test_sampling import read_bytes, write_file  # noqa: E402
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


# a 21^2 grid's parameters and one table serving every batch below (|x| <= 6)
LINEAR_NOISE = NoiseModel(0.45)
LINEAR_PARAMS = ReconstructionParams.for_experiment(300, 0.1, LINEAR_NOISE, grid_size=21)
_, LINEAR_QS, LINEAR_PS = est._disk_nodes(LINEAR_PARAMS.axis(), LINEAR_PARAMS.r)
# phases on and next to the 0 / pi seams, besides uniform ones
seam_phases = st.sampled_from([0.0, 5e-324, 1e-12, math.pi - 1e-12, np.nextafter(math.pi, 0.0), math.pi])


def linear_batches(n):
    return st.builds(
        QuadratureBatch,
        x=hnp.arrays(np.float64, n, elements=st.floats(-6.0, 6.0)),
        phi=hnp.arrays(np.float64, n, elements=seam_phases | st.floats(0.0, math.pi)),
        state=st.just(CatState(1.5)), noise=st.just(LINEAR_NOISE), seed=st.just(0))


@pytest.fixture(scope="module")
def linear_table():
    u_max = 6.0 / math.sqrt(LINEAR_NOISE.eta)
    return KernelTable(LINEAR_NOISE.gamma, LINEAR_PARAMS.h,
                       t_max=LINEAR_PARAMS.extent * math.sqrt(2.0) + u_max + 1.0)


# the fixtures of a hypothesis test must outlive its examples, so the table is
# shared by `patch.object`, not by the function-scoped `monkeypatch`
@settings(PROPERTY, max_examples=30)
@given(a=st.integers(1, 300).flatmap(linear_batches), b=st.integers(1, 300).flatmap(linear_batches))
def test_estimate_is_linear_across_merged_batches(linear_table, a, b):
    merged = QuadratureBatch(np.concatenate([a.x, b.x]), np.concatenate([a.phi, b.phi]),
                             a.state, a.noise, seed=0)
    with patch.object(est, "_default_table", lambda *args: linear_table):
        va, vb, vm = (estimate_at_points(part, LINEAR_PARAMS, LINEAR_QS, LINEAR_PS)
                      for part in (a, b, merged))
    combined = (a.n * va + b.n * vb) / merged.n
    assert np.max(np.abs(vm - combined)) <= 1e-12 * np.max(np.abs(vm))


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


# Each file a stage reads, and the keys of it that the stage reads.  Some
# mutations no stage can see, so none is drawn: a payload value of a batch or
# grid changed to another finite one (a batch phase within [0, pi]), as a
# flipped payload byte mostly does, a batch header's `source_sha256` changed to
# another str or to null, as `reconstruct` replaces it with the file's hash,
# and any change to a key of an analysis file that no stage reads.
STAGE_FILES = {
    "batch": ("batches/batch_r00.qb", BATCH_MAGIC,
              ("schema", "alpha1", "alpha2", "eta", "n", "seed", "replicate", "source_sha256")),
    "grid": ("grids/beta_0.1/grid_r00.wg", GRID_MAGIC,
             ("schema", "grid_size", "extent", "r", "kind", "method", "route", "n", "seed", "replicate",
              "alpha1", "alpha2", "eta", "beta", "h", "source_sha256")),
    "error_report": ("analysis/beta_0.1/error_report.json", None, ("config_sha256", "delta_numeric")),
    "witness_stats": ("analysis/beta_0.1/witness_stats.json", None, ("av", "sd", "separated")),
}
NON_FINITE = [math.nan, math.inf, -math.inf]
# values of the right type out of each key's range, or not finite
BAD_VALUES = {
    "schema": [0, 2, -1, 1.0], "alpha1": NON_FINITE, "alpha2": NON_FINITE,
    "eta": [0.0, -0.45, 1.5, *NON_FINITE], "n": [-2000, 2000.5, *NON_FINITE],
    "seed": [-11, 11.5, *NON_FINITE], "replicate": [-1, 0.5, *NON_FINITE],
    "grid_size": [0, -41, 41.5, *NON_FINITE], "extent": [0.0, -2.0, *NON_FINITE],
    "r": [0.0, -2.0, *NON_FINITE], "h": [0.0, -0.5, *NON_FINITE], "beta": [0.0, 0.25, -0.1, *NON_FINITE],
    "kind": ["", "averages"], "method": ["", "exactly"], "route": ["", "binned "], "source_sha256": [],
    "config_sha256": [], "delta_numeric": [-0.5, *NON_FINITE], "av": NON_FINITE,
    "sd": [-0.5, *NON_FINITE], "separated": [],
}


def json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """A tiny config run through `analyze`, and the path and bytes of each file of `STAGE_FILES`."""
    cfg, path = tiny_config(tmp_path_factory.mktemp("cli"))
    for stage in ("sample", "reconstruct", "analyze"):
        assert main([stage, "--config", path]) == EXIT_OK
    files = {name: os.path.join(cfg.output_dir, rel) for name, (rel, _, _) in STAGE_FILES.items()}
    return path, {name: (fpath, read_bytes(fpath)) for name, fpath in files.items()}


def mutated_file(name: str, raw: bytes, data) -> bytes:
    """The file `name` of `STAGE_FILES`, whose bytes are `raw`, truncated at
    any byte, with a byte of its framing (any byte, for JSON) flipped, with
    one of its keys dropped, given a value of another JSON type, or given a
    value out of its range or not finite (`BAD_VALUES`), or with a payload
    value not finite (or, for a batch phase, outside [0, pi])."""
    _, magic, keys = STAGE_FILES[name]
    mutations = ["truncate", "flip", "drop", "retype", "value"] + (["payload"] if magic else [])
    mutation = data.draw(st.sampled_from(mutations))
    if mutation == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    if mutation == "flip" and magic is not None:
        return flip_framing_byte(raw, magic, data)
    if mutation == "flip":  # a set high bit makes the ASCII JSON text invalid UTF-8
        pos = data.draw(st.integers(0, len(raw) - 1))
        return raw[:pos] + bytes([raw[pos] ^ 0x80]) + raw[pos + 1:]
    start = 0 if magic is None else len(magic) + 4
    end = len(raw) if magic is None else start + int.from_bytes(raw[len(magic):start], "little")
    if mutation == "payload":  # batch pairs are (x, phi), so an odd value is a phase
        index = data.draw(st.integers(0, (len(raw) - end) // 8 - 1))
        phase = name == "batch" and index % 2
        value = data.draw(st.sampled_from(NON_FINITE + ([-0.5, 4.0] if phase else [])))
        pos = end + 8 * index
        return raw[:pos] + np.array(value, "<f8").tobytes() + raw[pos + 8:]
    fields = json.loads(raw[start:end])
    if mutation == "value":
        keys = [key for key in keys if BAD_VALUES[key]]
    key = data.draw(st.sampled_from(keys))
    if mutation == "drop":
        del fields[key]
    elif mutation == "retype":
        others = [v for v in (None, True, "x", 0.5, [1], {"k": 1}) if json_type(v) != json_type(fields[key])]
        if name == "batch" and key == "source_sha256":
            others.remove(None)
        fields[key] = data.draw(st.sampled_from(others))
    else:
        fields[key] = data.draw(st.sampled_from(BAD_VALUES[key]))
    text = json.dumps(fields).encode("utf-8")
    return text if magic is None else magic + len(text).to_bytes(4, "little") + text + raw[end:]


@settings(PROPERTY, max_examples=100)
@given(data=st.data())
@pytest.mark.parametrize("name, stage", [("batch", "reconstruct"), ("grid", "analyze"),
                                         ("error_report", "table1"), ("error_report", "sweep-beta"),
                                         ("witness_stats", "sweep-beta")])
def test_stage_refuses_corrupt_file(analyzed, name, stage, data):
    # every mutation is refused with exit 2 and a message naming the file;
    # an exception other than a refusal escapes `main` and fails the test
    path, files = analyzed
    fpath, raw = files[name]
    write_file(fpath, mutated_file(name, raw, data))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            assert main([stage, "--config", path]) == EXIT_CONFIG
    finally:
        write_file(fpath, raw)
    assert err.getvalue().startswith("error: ") and fpath in err.getvalue()


configs = st.builds(
    ExperimentConfig,
    alpha1=finite, alpha2=finite, eta=st.floats(0.0, 1.0, exclude_min=True),
    n=st.integers(2, 10 ** 9), replicates=st.integers(1, 100), seed=st.integers(0, 2 ** 63),
    betas=st.lists(st.floats(0.0, 0.25, exclude_min=True, exclude_max=True), min_size=1, max_size=4).map(tuple),
    grid_size=st.integers(1, 500).map(lambda k: 2 * k + 1), path=st.sampled_from(["fast", "exact"]),
    output_dir=st.text("abcXYZ019_-./%", min_size=1, max_size=16), workers=st.integers(1, 64))


@PROPERTY
@given(cfg=configs)
def test_config_round_trip(workdir, cfg):
    path = str(workdir / "exp.ini")
    save_config(cfg, path)
    assert repr(load_config(path)) == repr(cfg)  # every field, the sign of a zero included
