"""Pipeline orchestration: config handling, determinism, provenance, exit codes."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from catomo import estimator as est
from catomo import sampling
from catomo import ReconstructionParams, read_batch, read_grid, reconstruct_fast
from catomo.estimator import GRID_MAGIC
from catomo.sampling import BATCH_MAGIC
from catomo.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    ExperimentConfig,
    config_sha,
    load_config,
    main,
    save_config,
)
from test_estimator import AddAtCounter, loaded_after
from test_sampling import read_bytes, read_text, rewrite_header, write_file

TINY = dict(n=2000, replicates=2, seed=11, betas=(0.1,), grid_size=41, workers=1)


def tiny_config(tmp_path, **overrides):
    opts = dict(TINY)
    opts.update(overrides)
    cfg = ExperimentConfig(output_dir=str(tmp_path / "out"), **opts)
    path = str(tmp_path / "exp.ini")
    save_config(cfg, path)
    return cfg, path


def edit_config(tmp_path, old, new):
    """A tiny config with `old` replaced by `new`, and the line number of `old`."""
    _, path = tiny_config(tmp_path)
    text = read_text(path)
    lineno = text[:text.index(old)].count("\n") + 1
    write_file(path, text.replace(old, new))
    return path, lineno


def test_pipeline_loads_no_scipy(tmp_path):
    # each CLI process starts on numpy alone, and so do both oracles; scipy serves the tests
    _, path = tiny_config(tmp_path)
    code = (f"import catomo.states, catomo.sampling, catomo.estimator, catomo.analysis, catomo.cli\n"
            f"from catomo.cli import main\n"
            f"for argv in (['sample'], ['reconstruct', '--exact'], ['analyze', '--exact'],\n"
            f"             ['reconstruct', '--fast'], ['analyze', '--fast'], ['sweep-beta'], ['table1']):\n"
            f"    assert main(argv + ['--config', {path!r}]) == 0, argv\n"
            f"state, params = catomo.CatState(1.5, 0.5), catomo.ReconstructionParams(r=3.0, h=0.25)\n"
            f"catomo.estimator_mean_oracle(state, params, [0.0, 1.0], [0.5, -2.0])\n"
            f"catomo.witness_mean_oracle(state, params)")
    assert loaded_after(code, ["scipy"]) == "[]"


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg, path = tiny_config(tmp_path, betas=(0.05, 0.1), eta=0.63)
        assert load_config(path) == cfg

    def test_missing_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "bare.ini"
        path.write_text("[state]\n")
        assert load_config(str(path)) == ExperimentConfig()

    def test_invalid_eta_names_field(self, tmp_path):
        _, path = tiny_config(tmp_path)
        write_file(path, read_text(path).replace("eta = 0.45", "eta = 1.2"))
        with pytest.raises(Exception) as err:
            load_config(path)
        assert "noise.eta" in str(err.value)
        assert path in str(err.value)  # line-precise location

    def test_invalid_eta_exit_code(self, tmp_path):
        _, path = tiny_config(tmp_path)
        write_file(path, read_text(path).replace("eta = 0.45", "eta = 1.2"))
        assert main(["sample", "--config", path]) == EXIT_CONFIG

    @pytest.mark.parametrize("edit, named", [
        (("replicates = 2", "replicats = 3"), "sampling.replicats"),
        (("replicates = 2", "replicats: 3"), "sampling.replicats"),
        (("[run]", "[runn]"), "[runn]"),
        (("[state]", "[DEFAULT]\nn = 5\n\n[state]"), "[DEFAULT]"),
    ])
    def test_unknown_key_or_section_refused(self, tmp_path, capsys, edit, named):
        path, lineno = edit_config(tmp_path, *edit)
        assert main(["sample", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert named in err and f"{path}:{lineno}" in err

    @pytest.mark.parametrize("command, edit, named", [
        ("sample", ("alpha2 = 0.0", "alpha2 = nan"), "state.alpha2"),
        ("sample", ("seed = 11", "seed = -3"), "sampling.seed"),
        ("reconstruct", ("betas = 0.1", "betas ="), "reconstruction.betas"),
        ("analyze", ("betas = 0.1", "betas ="), "reconstruction.betas"),
        ("sample", ("n = 2000", "n = 1"), "sampling.n"),
        ("sample", ("n = 2000", "n = 2e3"), "sampling.n"),  # not an int: refused by its rule, as read
    ])
    def test_invalid_value_names_its_line(self, tmp_path, capsys, command, edit, named):
        path, lineno = edit_config(tmp_path, *edit)
        assert main([command, "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert named in err and f"{path}:{lineno}" in err

    @pytest.mark.parametrize("flag, value, named", [
        ("--seed", "-4", "sampling.seed (--seed)"),
        ("--workers", "0", "run.workers (--workers)"),
    ])
    def test_invalid_flag_names_the_flag(self, tmp_path, capsys, flag, value, named):
        # the file holds valid values for both keys, so the flag is to blame
        _, path = tiny_config(tmp_path)
        assert main(["sample", "--config", path, flag, value]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert named in err and path not in err

    def test_config_sha_golden(self):
        # provenance hashes in batch and report headers must not move; [run] is not hashed
        golden = "c50de798817b1c3eaeb9e29a2723447e61784aeecc1d8420e03f8e7ced9d2908"
        assert config_sha(ExperimentConfig()) == golden
        assert config_sha(ExperimentConfig(output_dir="elsewhere", workers=3)) == golden

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["sample", "--config", str(tmp_path / "nope.ini")]) == EXIT_IO

    def test_preset_and_overrides(self, tmp_path):
        _, path = tiny_config(tmp_path)
        from catomo.cli import _build_parser, _resolve_config
        args = _build_parser().parse_args(
            ["sample", "--config", path, "--preset", "desk", "--seed", "99", "--exact"])
        cfg = _resolve_config(args)
        assert cfg.n == 500_000 and cfg.replicates == 5 and cfg.grid_size == 101
        assert cfg.seed == 99 and cfg.path == "exact"


class TestSample:
    def test_writes_replicates_and_is_idempotent(self, tmp_path):
        cfg, path = tiny_config(tmp_path)
        assert main(["sample", "--config", path]) == 0
        batch_dir = os.path.join(cfg.output_dir, "batches")
        files = sorted(os.listdir(batch_dir))
        assert files == ["batch_r00.qb", "batch_r01.qb"]
        first = [read_bytes(os.path.join(batch_dir, f)) for f in files]
        assert main(["sample", "--config", path]) == 0
        second = [read_bytes(os.path.join(batch_dir, f)) for f in files]
        assert first == second

    def test_output_dir_created(self, tmp_path):
        cfg, path = tiny_config(tmp_path)
        assert not os.path.exists(cfg.output_dir)
        assert main(["sample", "--config", path]) == 0
        assert os.path.isdir(cfg.output_dir)

    def test_batches_carry_config_hash(self, tmp_path):
        cfg, path = tiny_config(tmp_path)
        main(["sample", "--config", path])
        batch = read_batch(os.path.join(cfg.output_dir, "batches", "batch_r00.qb"))
        assert batch.source_sha256 == config_sha(cfg)
        assert batch.n == cfg.n and batch.replicate == 0

    def test_replicates_distinct(self, tmp_path):
        cfg, path = tiny_config(tmp_path)
        main(["sample", "--config", path])
        b0 = read_batch(os.path.join(cfg.output_dir, "batches", "batch_r00.qb"))
        b1 = read_batch(os.path.join(cfg.output_dir, "batches", "batch_r01.qb"))
        assert not np.array_equal(b0.x, b1.x)

    def test_failed_sampling_leaves_no_batch(self, tmp_path, capsys, monkeypatch):
        # chunks are written as they are sampled, so a sampler failure in the
        # middle of a file must take the partial temp file with it
        cfg, path = tiny_config(tmp_path)
        monkeypatch.setattr(sampling, "CHUNK_SIZE", 500)
        sample_chunk, calls = sampling._sample_chunk, []

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("rejection sampler exceeded 10000 rounds; proposal envelope is broken")
            sample_chunk(*args)

        monkeypatch.setattr(sampling, "_sample_chunk", failing)
        capsys.readouterr()
        assert main(["sample", "--config", path]) == EXIT_NUMERIC
        assert "rejection sampler" in capsys.readouterr().err
        assert os.listdir(os.path.join(cfg.output_dir, "batches")) == []


class TestReconstruct:
    def test_grid_counting_contract(self, tmp_path):
        cfg, path = tiny_config(tmp_path)
        main(["sample", "--config", path])
        assert main(["reconstruct", "--config", path]) == 0
        gdir = os.path.join(cfg.output_dir, "grids", "beta_0.1")
        files = sorted(os.listdir(gdir))
        assert files == ["grid_avg.wg", "grid_r00.wg", "grid_r01.wg"]

    def test_average_is_nodewise_mean(self, tmp_path):
        cfg, path = tiny_config(tmp_path)
        main(["sample", "--config", path])
        main(["reconstruct", "--config", path])
        gdir = os.path.join(cfg.output_dir, "grids", "beta_0.1")
        g0 = read_grid(os.path.join(gdir, "grid_r00.wg"))
        g1 = read_grid(os.path.join(gdir, "grid_r01.wg"))
        avg = read_grid(os.path.join(gdir, "grid_avg.wg"))
        np.testing.assert_array_equal(avg.values, (g0.values + g1.values) / 2.0)

    def test_provenance_mismatch_refused(self, tmp_path):
        cfg, path = tiny_config(tmp_path)
        main(["sample", "--config", path])
        write_file(path, read_text(path).replace("eta = 0.45", "eta = 0.9"))
        assert main(["reconstruct", "--config", path]) == EXIT_CONFIG

    def test_batches_of_another_seed_refused(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path)
        assert main(["sample", "--config", path, "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "--config", path, "--seed", "4"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "provenance mismatch" in err and "'seed': 3" in err and "'seed': 4" in err
        assert not os.path.exists(os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_r00.wg"))

    def test_batch_of_another_replicate_refused(self, tmp_path, capsys):
        # replicate 0's batch copied over replicate 1's would give its grid twice
        # and an average of replicate 0 with itself
        cfg, path = tiny_config(tmp_path)
        assert main(["sample", "--config", path]) == 0
        batches = os.path.join(cfg.output_dir, "batches")
        shutil.copy(os.path.join(batches, "batch_r00.qb"), os.path.join(batches, "batch_r01.qb"))
        capsys.readouterr()
        assert main(["reconstruct", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "provenance mismatch" in err and "batch_r01.qb" in err
        assert "'replicate': 0" in err and "'replicate': 1" in err
        assert not os.path.exists(os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_avg.wg"))

    def test_missing_batches_refused(self, tmp_path):
        _, path = tiny_config(tmp_path)
        assert main(["reconstruct", "--config", path]) == EXIT_CONFIG

    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_batch_refused(self, tmp_path, capsys, column):
        cfg, path = tiny_config(tmp_path)
        main(["sample", "--config", path])
        bpath = os.path.join(cfg.output_dir, "batches", "batch_r01.qb")
        blob = bytearray(read_bytes(bpath))
        start = len(BATCH_MAGIC) + 4 + int.from_bytes(blob[len(BATCH_MAGIC):len(BATCH_MAGIC) + 4], "little")
        offset = start + 8 * (2 * 5 + column)  # pair 5, x or phi
        blob[offset:offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
        write_file(bpath, bytes(blob))
        capsys.readouterr()
        assert main(["reconstruct", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert bpath in err and "non-finite" in err

    def test_batch_header_without_key_refused(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path)
        main(["sample", "--config", path])
        bpath = os.path.join(cfg.output_dir, "batches", "batch_r00.qb")
        rewrite_header(bpath, BATCH_MAGIC, lambda header: header.pop("alpha1"))
        capsys.readouterr()
        assert main(["reconstruct", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert bpath in err and "'alpha1'" in err

    def test_exact_path_selector(self, tmp_path):
        cfg, path = tiny_config(tmp_path, n=500, grid_size=21)
        main(["sample", "--config", path])
        assert main(["reconstruct", "--config", path, "--exact"]) == 0
        grid = read_grid(os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_r00.wg"))
        assert grid.meta["method"] == "exact"
        assert grid.meta["route"] == "direct"

    def test_fast_path_bins_each_batch_once(self, tmp_path, monkeypatch):
        # one binning pass per replicate serves both betas; beta = 0.05 sets the
        # lattice, so its grid keeps the bits of a lone reconstruct_fast call
        cfg, path = tiny_config(tmp_path, betas=(0.05, 0.1))
        assert main(["sample", "--config", path]) == 0
        counter = AddAtCounter(monkeypatch)
        assert main(["reconstruct", "--config", path]) == 0
        assert counter.calls == cfg.replicates
        monkeypatch.undo()
        params = ReconstructionParams.for_experiment(cfg.n, 0.05, cfg.noise, grid_size=cfg.grid_size)
        lone = reconstruct_fast(read_batch(os.path.join(cfg.output_dir, "batches", "batch_r00.qb")), params)
        grid = read_grid(os.path.join(cfg.output_dir, "grids", "beta_0.05", "grid_r00.wg"))
        assert np.array_equal(grid.values, lone.values)

    def test_failed_self_check_refuses_the_grid(self, tmp_path, capsys, monkeypatch):
        cfg, path = tiny_config(tmp_path)
        main(["sample", "--config", path])
        monkeypatch.setattr(est, "_resolution", lambda r, h: (8, 128))
        capsys.readouterr()
        assert main(["reconstruct", "--config", path]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "phi_bins x n_s = 8 x 128" in err and "exceeds the budget" in err and "--exact" in err
        grid_path = os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_r00.wg")
        assert not os.path.exists(grid_path)
        assert main(["reconstruct", "--config", path, "--exact"]) == 0
        assert read_grid(grid_path).meta["route"] == "direct"


class TestAnalyze:
    @pytest.fixture
    def pipeline(self, tmp_path):
        cfg, path = tiny_config(tmp_path)
        main(["sample", "--config", path])
        main(["reconstruct", "--config", path])
        return cfg, path

    def test_reports_written(self, pipeline):
        cfg, path = pipeline
        assert main(["analyze", "--config", path]) == 0
        adir = os.path.join(cfg.output_dir, "analysis", "beta_0.1")
        report = json.loads(read_text(os.path.join(adir, "error_report.json")))
        witness = json.loads(read_text(os.path.join(adir, "witness_stats.json")))
        assert report["m"] == 2
        assert report["delta_bound"] == pytest.approx(
            report["term_variance"] + report["term_tail"] + report["term_bias"], rel=1e-15)
        assert report["delta_numeric"] > 0
        assert len(report["per_replicate_errors"]) == 2
        assert report["config_sha256"] == config_sha(cfg)
        assert len(witness["means"]) == 2
        assert witness["pure_ref"] == 0.5

    def test_byte_deterministic(self, pipeline):
        cfg, path = pipeline
        main(["analyze", "--config", path])
        adir = os.path.join(cfg.output_dir, "analysis", "beta_0.1")
        first = {f: read_bytes(os.path.join(adir, f)) for f in os.listdir(adir)}
        main(["analyze", "--config", path])
        second = {f: read_bytes(os.path.join(adir, f)) for f in os.listdir(adir)}
        assert first == second

    def test_fewer_grids_than_declared_refused(self, pipeline):
        cfg, path = pipeline
        os.remove(os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_r01.wg"))
        assert main(["analyze", "--config", path]) == EXIT_CONFIG

    def test_foreign_grid_refused(self, pipeline):
        cfg, path = pipeline
        gdir = os.path.join(cfg.output_dir, "grids", "beta_0.1")
        grid = read_grid(os.path.join(gdir, "grid_r00.wg"))
        grid.meta["source_sha256"] = "0" * 64
        from catomo import write_grid
        write_grid(grid, os.path.join(gdir, "grid_r01.wg"))
        assert main(["analyze", "--config", path]) == EXIT_CONFIG

    def test_grid_of_another_replicate_refused(self, pipeline, capsys):
        # replicate 0's grid copied over replicate 1's would score replicate 0
        # twice: equal errors, witness sd 0 and `separated` true
        cfg, path = pipeline
        gdir = os.path.join(cfg.output_dir, "grids", "beta_0.1")
        shutil.copy(os.path.join(gdir, "grid_r00.wg"), os.path.join(gdir, "grid_r01.wg"))
        capsys.readouterr()
        assert main(["analyze", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "provenance mismatch" in err and "grid_r01.wg" in err
        assert "'replicate': 0" in err and "'replicate': 1" in err
        assert not os.path.exists(os.path.join(cfg.output_dir, "analysis", "beta_0.1", "error_report.json"))

    def test_truncated_grid_refused(self, pipeline, capsys):
        cfg, path = pipeline
        gpath = os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_r01.wg")
        blob = read_bytes(gpath)
        write_file(gpath, blob[:-8])
        capsys.readouterr()
        assert main(["analyze", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{gpath}: payload of 13440 bytes, not the 13448 of 41^2 values" in err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_grid_refused(self, pipeline, capsys, value):
        cfg, path = pipeline
        gpath = os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_r00.wg")
        blob = read_bytes(gpath)
        write_file(gpath, blob[:-8] + np.float64(value).tobytes())
        capsys.readouterr()
        assert main(["analyze", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{gpath}: grid holds non-finite values" in err
        assert not os.path.exists(os.path.join(cfg.output_dir, "analysis", "beta_0.1", "error_report.json"))

    def test_grids_of_another_seed_refused(self, pipeline, capsys):
        cfg, path = pipeline
        capsys.readouterr()
        assert main(["analyze", "--config", path, "--seed", "4"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "provenance mismatch" in err and f"'seed': {cfg.seed}" in err and "'seed': 4" in err

    def test_single_replicate_refused_before_reading_grids(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, replicates=1)
        assert main(["sample", "--config", path]) == 0
        assert main(["reconstruct", "--config", path]) == 0
        gpath = os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_r00.wg")
        write_file(gpath, b"not a grid")  # a read would fail with another message
        capsys.readouterr()
        assert main(["analyze", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sampling.replicates" in err and "got 1" in err
        assert not os.path.exists(os.path.join(cfg.output_dir, "analysis"))

    def test_grid_with_other_alpha2_refused(self, pipeline):
        cfg, path = pipeline
        gpath = os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_r00.wg")
        grid = read_grid(gpath)
        grid.meta["alpha2"] = 0.25
        from catomo import write_grid
        write_grid(grid, gpath)
        assert main(["analyze", "--config", path]) == EXIT_CONFIG

    @pytest.mark.parametrize("key, name, value", [("grid_size", "grid_size", 21), ("path", "method", "exact")])
    def test_grids_of_another_size_or_path_refused(self, pipeline, tmp_path, capsys, key, name, value):
        cfg, _ = pipeline
        _, path = tiny_config(tmp_path, **{key: value})  # same output directory
        capsys.readouterr()
        assert main(["analyze", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        held = getattr(cfg, key)
        assert "provenance mismatch" in err and "grid_r00.wg" in err
        assert f"'{name}': {held!r}" in err and f"'{name}': {value!r}" in err

    @pytest.mark.parametrize("key", ["r", "extent", "h"])
    def test_grid_of_other_geometry_refused(self, pipeline, capsys, key):
        # the grid's geometry must be the one the config's bandwidth rule gives:
        # r = 3.0 or a doubled extent would change delta_numeric, and h went unread
        cfg, path = pipeline
        gpath = os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_r01.wg")
        rewrite_header(gpath, GRID_MAGIC, lambda header: header.update({key: 3.0 if key == "r" else 2 * header[key]}))
        capsys.readouterr()
        assert main(["analyze", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "provenance mismatch" in err and gpath in err and f"'{key}': " in err
        assert not os.path.exists(os.path.join(cfg.output_dir, "analysis", "beta_0.1", "error_report.json"))


DROP = object()  # a header value that stands for the key's removal


@pytest.mark.parametrize("command, key, value", [
    ("reconstruct", "n", None), ("reconstruct", "n", [10]), ("reconstruct", "n", 10.5),
    ("reconstruct", "eta", "0.45"), ("reconstruct", "alpha1", "x"),
    ("reconstruct", "schema", True), ("reconstruct", "source_sha256", [1]),
    ("analyze", "grid_size", None), ("analyze", "extent", None),
    # each of these went through `analyze` (exit 0, or a traceback for the
    # list hash, or a message that named no file for the negative size)
    ("analyze", "schema", True), ("analyze", "source_sha256", [1]), ("analyze", "grid_size", -21),
    ("analyze", "extent", 0.0), ("analyze", "extent", -1.0), ("analyze", "extent", 1e308),
    ("analyze", "r", 0.0), ("analyze", "r", -3.0),
    *[("analyze", key, value) for key in ("h", "kind", "route") for value in (DROP, "x", [1], True, -1)],
])
def test_header_value_of_wrong_type_refused(tmp_path, capsys, command, key, value):
    cfg, path = tiny_config(tmp_path)
    main(["sample", "--config", path])
    if command == "analyze":
        main(["reconstruct", "--config", path])
        fpath, magic = os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_r00.wg"), GRID_MAGIC
    else:
        fpath, magic = os.path.join(cfg.output_dir, "batches", "batch_r00.qb"), BATCH_MAGIC
    rewrite_header(fpath, magic, lambda header: header.pop(key) if value is DROP else header.update({key: value}))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # extent 1e308 made numpy warn of an overflow
        assert main([command, "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert fpath in err and repr(key) in err


class TestSweepAndTable:
    def test_sweep_csv_contract(self, tmp_path):
        # bound-only sweep at the full-protocol n (no batches needed)
        cfg = ExperimentConfig(output_dir=str(tmp_path / "out"))
        path = str(tmp_path / "paper.ini")
        save_config(cfg, path)
        assert main(["sweep-beta", "--config", path, "--points", "20"]) == 0
        csv_path = os.path.join(cfg.output_dir, "sweep_eta0.45.csv")
        lines = read_text(csv_path).strip().split("\n")
        assert lines[0] == "beta,delta,av,sd,separated"
        assert len(lines) == 21
        deltas = np.array([float(row.split(",")[1]) for row in lines[1:]])
        interior = int(np.argmin(deltas))
        assert 0 < interior < deltas.size - 1

    def test_sweep_terms_csv(self, tmp_path):
        cfg = ExperimentConfig(output_dir=str(tmp_path / "out"))
        path = str(tmp_path / "paper.ini")
        save_config(cfg, path)
        main(["sweep-beta", "--config", path, "--points", "5"])
        lines = read_text(os.path.join(cfg.output_dir, "sweep_terms_eta0.45.csv")).strip().split("\n")
        assert lines[0] == "beta,delta,term_var,term_tail,term_bias"
        row = [float(tok) for tok in lines[1].split(",")]
        assert row[1] == pytest.approx(row[2] + row[3] + row[4], rel=1e-12)

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_sweep_without_points_refused(self, tmp_path, capsys, points):
        cfg, path = tiny_config(tmp_path)
        assert main(["sweep-beta", "--config", path, "--points", points]) == EXIT_CONFIG
        assert "--points" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cfg.output_dir, "sweep_eta0.45.csv"))

    def test_numerical_failure_exit_code(self, tmp_path):
        # beta extremely close to 1/4 passes validation but overflows the bound
        cfg, path = tiny_config(tmp_path, betas=(0.2499999,))
        assert main(["table1", "--config", path]) == EXIT_NUMERIC

    def test_sweep_includes_witness_after_analysis(self, tmp_path):
        cfg, path = tiny_config(tmp_path)
        main(["sample", "--config", path])
        main(["reconstruct", "--config", path])
        main(["analyze", "--config", path])
        main(["sweep-beta", "--config", path])
        csv_path = os.path.join(cfg.output_dir, "sweep_eta0.45.csv")
        rows = [line.split(",") for line in read_text(csv_path).strip().split("\n")[1:]]
        with_witness = [row for row in rows if row[2] != ""]
        assert len(with_witness) == 1  # exactly the analyzed beta = 0.1
        assert with_witness[0][4] in ("true", "false")

    def test_sweep_refuses_witness_of_another_config(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, n=3000)
        for command in ("sample", "reconstruct", "analyze", "sweep-beta"):
            assert main([command, "--config", path]) == 0
        csv_path = os.path.join(cfg.output_dir, "sweep_eta0.45.csv")
        analyzed = read_bytes(csv_path)
        tiny_config(tmp_path, n=6000)  # rewrites the config; same output directory
        capsys.readouterr()
        assert main(["sweep-beta", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "provenance mismatch" in err
        assert os.path.join(cfg.output_dir, "analysis", "beta_0.1", "error_report.json") in err
        assert read_bytes(csv_path) == analyzed
        tiny_config(tmp_path, n=3000)
        assert main(["sweep-beta", "--config", path]) == 0
        assert read_bytes(csv_path) == analyzed

    def test_table1_bounds(self, tmp_path, capsys):
        cfg = ExperimentConfig(output_dir=str(tmp_path / "out"))
        path = str(tmp_path / "paper.ini")
        save_config(cfg, path)
        assert main(["table1", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "2.392" in out and "26.07" in out
        assert "-" in out  # numeric column empty without analysis artifacts

    def test_table1_fills_numeric_after_analysis(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path)
        main(["sample", "--config", path])
        main(["reconstruct", "--config", path])
        main(["analyze", "--config", path])
        capsys.readouterr()
        assert main(["table1", "--config", path]) == 0
        out = capsys.readouterr().out
        report = json.loads(read_text(os.path.join(cfg.output_dir, "analysis", "beta_0.1",
                                                   "error_report.json")))
        assert f"{report['delta_numeric']:.4g}" in out

    def test_table1_refuses_report_of_another_config(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path)
        main(["sample", "--config", path])
        main(["reconstruct", "--config", path])
        main(["analyze", "--config", path])
        _, path = tiny_config(tmp_path, n=2 * cfg.n)  # same output directory
        capsys.readouterr()
        assert main(["table1", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "provenance mismatch" in err
        assert os.path.join(cfg.output_dir, "analysis", "beta_0.1", "error_report.json") in err


    @pytest.mark.parametrize("name, key, commands", [
        ("error_report.json", "delta_numeric", ("table1", "sweep-beta")),
        ("witness_stats.json", "sd", ("sweep-beta",)),
    ])
    def test_corrupt_analysis_file_refused(self, tmp_path, capsys, name, key, commands):
        # a truncated file, a JSON value other than an object, or an object
        # without a key the command reads is invalid input: exit 2, naming the file
        cfg, path = tiny_config(tmp_path)
        for command in ("sample", "reconstruct", "analyze"):
            assert main([command, "--config", path]) == 0
        fpath = os.path.join(cfg.output_dir, "analysis", "beta_0.1", name)
        good = read_text(fpath)
        pruned = json.loads(good)
        del pruned[key]
        for bad, reason in ((good[:len(good) // 2], "line "), ("[]", "not an object"),
                            (json.dumps(pruned), repr(key))):
            write_file(fpath, bad)
            for command in commands:
                capsys.readouterr()
                assert main([command, "--config", path]) == EXIT_CONFIG
                err = capsys.readouterr().err
                assert err.startswith(f"error: {fpath}: ") and reason in err
        write_file(fpath, good)
        for command in commands:
            assert main([command, "--config", path]) == 0

    @pytest.mark.parametrize("name, key, value, command", [
        ("witness_stats.json", "sd", "x", "sweep-beta"),
        ("error_report.json", "delta_numeric", "x", "table1"),
        ("witness_stats.json", "separated", "yes", "sweep-beta"),
    ])
    def test_mistyped_analysis_value_refused(self, tmp_path, capsys, name, key, value, command):
        # a value of the wrong type is invalid input: exit 2, naming the file and the key
        cfg, path = tiny_config(tmp_path)
        for stage in ("sample", "reconstruct", "analyze"):
            assert main([stage, "--config", path]) == 0
        fpath = os.path.join(cfg.output_dir, "analysis", "beta_0.1", name)
        data = json.loads(read_text(fpath))
        data[key] = value
        write_file(fpath, json.dumps(data))
        capsys.readouterr()
        assert main([command, "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fpath}: key {key!r} holds {value!r}")


class TestWorkers:
    def test_parallel_sampling_matches_serial(self, tmp_path):
        cfg, path = tiny_config(tmp_path, n=400)
        main(["sample", "--config", path])
        serial = read_bytes(os.path.join(cfg.output_dir, "batches", "batch_r00.qb"))
        cfg2 = ExperimentConfig(output_dir=str(tmp_path / "out2"), **{**TINY, "n": 400, "workers": 2})
        path2 = str(tmp_path / "exp2.ini")
        save_config(cfg2, path2)
        main(["sample", "--config", path2])
        parallel = read_bytes(os.path.join(cfg2.output_dir, "batches", "batch_r00.qb"))
        assert serial == parallel

    def test_parallel_reconstruct_matches_serial(self, tmp_path):
        grids = {}
        for workers in (1, 2):
            run_dir = tmp_path / f"w{workers}"
            run_dir.mkdir()
            cfg, path = tiny_config(run_dir, betas=(0.05, 0.1), workers=workers)
            assert main(["sample", "--config", path]) == 0
            assert main(["reconstruct", "--config", path]) == 0
            gdir = os.path.join(cfg.output_dir, "grids")
            grids[workers] = {os.path.join(beta, name): read_bytes(os.path.join(gdir, beta, name))
                              for beta in os.listdir(gdir) for name in os.listdir(os.path.join(gdir, beta))}
        assert len(grids[1]) == 6
        assert grids[1] == grids[2]


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from Linux's /proc")
def test_stage_peaks_at_paper_n(tmp_path):
    # at the paper's n = 1.6e7 (a 256 MB batch file) no stage holds the
    # batch: in fresh interpreters `sample` peaked at 112 MB, `reconstruct`
    # (both betas, 201^2) at 88 MB and `reconstruct --exact` (one beta, 3^2)
    # at 40 MB on a 2-core Xeon, against 375, 385 and 666 MB when each held
    # it whole; `sample` peaked at 140-143 MB with a proposal buffer in each
    # sampler slot, and `reconstruct` at 132 MB with linear phase spreading
    # on twice the phase bins.  Each stage reports VmHWM, the peak RSS of its own
    # image: its ru_maxrss would also count the pytest process it was
    # started from, several hundred MB after the acceptance tests
    cfg, path = tiny_config(tmp_path, n=16_000_000, replicates=1, betas=(0.05, 0.1), grid_size=201)
    exact_path = str(tmp_path / "exact.ini")  # same batches, direct sum at the 5 nodes of a 3^2 grid
    save_config(replace(cfg, betas=(0.1,), grid_size=3, path="exact"), exact_path)
    src = os.path.dirname(os.path.dirname(est.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, limit_mb in ((["sample", "--config", path], 145), (["reconstruct", "--config", path], 112),
                           (["reconstruct", "--config", exact_path], 256)):
        code = (f"from catomo.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                f"with open('/proc/self/status') as fh:\n"
                f"    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        peak_mb = int(out.stdout.split()[-1]) / 1024
        assert peak_mb <= limit_mb, f"{' '.join(argv)} peaked at {peak_mb:.0f} MB"
