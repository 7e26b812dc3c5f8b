"""Pipeline orchestration: config handling, determinism, provenance, exit codes."""

import json
import os

import numpy as np
import pytest

from catomo import read_batch, read_grid
from catomo.estimator import GRID_MAGIC
from catomo.sampling import BATCH_MAGIC
from catomo.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    ExperimentConfig,
    config_sha,
    load_config,
    main,
    save_config,
)
from test_sampling import rewrite_header

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
    text = open(path).read()
    lineno = text[:text.index(old)].count("\n") + 1
    open(path, "w").write(text.replace(old, new))
    return path, lineno


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


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
        text = open(path).read().replace("eta = 0.45", "eta = 1.2")
        open(path, "w").write(text)
        with pytest.raises(Exception) as err:
            load_config(path)
        assert "noise.eta" in str(err.value)
        assert path in str(err.value)  # line-precise location

    def test_invalid_eta_exit_code(self, tmp_path):
        _, path = tiny_config(tmp_path)
        text = open(path).read().replace("eta = 0.45", "eta = 1.2")
        open(path, "w").write(text)
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
        text = open(path).read().replace("eta = 0.45", "eta = 0.9")
        open(path, "w").write(text)
        assert main(["reconstruct", "--config", path]) == EXIT_CONFIG

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
        open(bpath, "wb").write(bytes(blob))
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
        report = json.load(open(os.path.join(adir, "error_report.json")))
        witness = json.load(open(os.path.join(adir, "witness_stats.json")))
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

    def test_truncated_grid_refused(self, pipeline, capsys):
        cfg, path = pipeline
        gpath = os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_r01.wg")
        blob = read_bytes(gpath)
        open(gpath, "wb").write(blob[:-8])
        capsys.readouterr()
        assert main(["analyze", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert gpath in err and "size mismatch" in err

    def test_grid_with_other_alpha2_refused(self, pipeline):
        cfg, path = pipeline
        gpath = os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_r00.wg")
        grid = read_grid(gpath)
        grid.meta["alpha2"] = 0.25
        from catomo import write_grid
        write_grid(grid, gpath)
        assert main(["analyze", "--config", path]) == EXIT_CONFIG


@pytest.mark.parametrize("command, key, value", [
    ("reconstruct", "n", None), ("reconstruct", "n", [10]), ("reconstruct", "n", 10.5),
    ("reconstruct", "eta", "0.45"), ("reconstruct", "alpha1", "x"),
    ("analyze", "grid_size", None), ("analyze", "extent", None),
])
def test_header_value_of_wrong_type_refused(tmp_path, capsys, command, key, value):
    cfg, path = tiny_config(tmp_path)
    main(["sample", "--config", path])
    if command == "analyze":
        main(["reconstruct", "--config", path])
        fpath, magic = os.path.join(cfg.output_dir, "grids", "beta_0.1", "grid_r00.wg"), GRID_MAGIC
    else:
        fpath, magic = os.path.join(cfg.output_dir, "batches", "batch_r00.qb"), BATCH_MAGIC
    rewrite_header(fpath, magic, lambda header: header.update({key: value}))
    capsys.readouterr()
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
        lines = open(csv_path).read().strip().split("\n")
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
        lines = open(os.path.join(cfg.output_dir, "sweep_terms_eta0.45.csv")).read().strip().split("\n")
        assert lines[0] == "beta,delta,term_var,term_tail,term_bias"
        row = [float(tok) for tok in lines[1].split(",")]
        assert row[1] == pytest.approx(row[2] + row[3] + row[4], rel=1e-12)

    def test_numerical_failure_exit_code(self, tmp_path):
        # beta extremely close to 1/4 passes validation but overflows the bound
        cfg, path = tiny_config(tmp_path, betas=(0.2499999,))
        from catomo.cli import EXIT_NUMERIC
        assert main(["table1", "--config", path]) == EXIT_NUMERIC

    def test_sweep_includes_witness_after_analysis(self, tmp_path):
        cfg, path = tiny_config(tmp_path)
        main(["sample", "--config", path])
        main(["reconstruct", "--config", path])
        main(["analyze", "--config", path])
        main(["sweep-beta", "--config", path])
        csv_path = os.path.join(cfg.output_dir, "sweep_eta0.45.csv")
        rows = [line.split(",") for line in open(csv_path).read().strip().split("\n")[1:]]
        with_witness = [row for row in rows if row[2] != ""]
        assert len(with_witness) == 1  # exactly the analyzed beta = 0.1
        assert with_witness[0][4] in ("true", "false")

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
        report = json.load(open(os.path.join(cfg.output_dir, "analysis", "beta_0.1",
                                             "error_report.json")))
        assert f"{report['delta_numeric']:.4g}" in out


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
