"""Experiment pipeline: sample -> reconstruct -> analyze, plus bound tables and sweeps.

Subcommands
    sample      generate M reproducible quadrature batches
    reconstruct build per-replicate Wigner grids and their average, per beta
    analyze     L2 errors vs. the closed-form bound + witness statistics
    sweep-beta  bound curve Delta(beta) as CSV (witness columns when available)
    table1      two-row bound/numeric comparison table

Configuration is a diff-able `key = value` INI file with one section per
stage; an unknown section or key is refused with its `file:line`.  Every
output embeds the SHA-256 of its inputs, identical configs reproduce outputs
byte for byte, and mixed-provenance inputs are refused.
Exit codes: 0 success, 2 configuration/validation (including mismatched
provenance and batch or grid files that fail validation, such as truncated
files, headers without a required key or non-finite values), 3 I/O,
4 numerical.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .analysis import (
    ErrorReport,
    delta_terms,
    l2_error,
    mean_square_error,
    sweep_beta,
    sweep_terms_csv,
    witness_mean_from_grid,
    witness_stats,
)
from .estimator import (
    ReconstructionParams,
    mean_grid,
    optimal_bandwidth,
    read_grid,
    reconstruct_exact,
    reconstruct_fast,
    write_grid,
)
from .sampling import _atomic_bytes, generate_batch, read_batch, write_batch
from .states import CatState, NoiseModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

PRESETS = {
    "desk": {"n": 500_000, "replicates": 5, "grid_size": 101},
    "paper": {"n": 16_000_000, "replicates": 10, "grid_size": 201},
}


class ConfigError(Exception):
    """Invalid configuration or provenance; message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    alpha1: float = 3.0 / math.sqrt(2.0)  # |alpha|^2 = 4.5
    alpha2: float = 0.0
    eta: float = 0.45
    n: int = 16_000_000
    replicates: int = 10
    seed: int = 7
    betas: tuple[float, ...] = (0.05, 0.1)
    grid_size: int = 201
    path: str = "fast"
    output_dir: str = "catomo-out"
    workers: int = 1

    @property
    def state(self) -> CatState:
        return CatState(self.alpha1, self.alpha2)

    @property
    def noise(self) -> NoiseModel:
        return NoiseModel(self.eta)


def _validate(cfg: ExperimentConfig, source: str | None = None) -> ExperimentConfig:
    def bad(section, key, msg):
        loc = f" ({_line_of(source, section, key)})" if source else ""
        raise ConfigError(f"{section}.{key}{loc}: {msg}")

    if not (math.isfinite(cfg.alpha1) and math.isfinite(cfg.alpha2)):
        bad("state", "alpha1", "amplitude must be finite")
    if not (0.0 < cfg.eta <= 1.0):
        bad("noise", "eta", f"efficiency must lie in (0, 1], got {cfg.eta}")
    if cfg.n < 1:
        bad("sampling", "n", "need at least one sample")
    if cfg.replicates < 1:
        bad("sampling", "replicates", "need at least one replicate")
    for beta in cfg.betas:
        if not (0.0 < beta < 0.25):
            bad("reconstruction", "betas", f"beta must lie in (0, 1/4), got {beta}")
    if cfg.grid_size < 3 or cfg.grid_size % 2 == 0:
        bad("reconstruction", "grid_size", "grid size must be an odd integer >= 3")
    if cfg.path not in ("fast", "exact"):
        bad("reconstruction", "path", f"path must be 'fast' or 'exact', got {cfg.path!r}")
    if cfg.workers < 1:
        bad("run", "workers", "workers must be >= 1")
    return cfg


def _line_of(path: str, section: str, key: str | None = None) -> str:
    """Best-effort `file:line` of a config key, or of the section header when key is None."""
    current = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if line.startswith("[") and line.endswith("]"):
                    current = line[1:-1].strip().lower()
                    if key is None and current == section.lower():
                        return f"{path}:{lineno}"
                elif key and current == section.lower():
                    if line.split("=", 1)[0].split(":", 1)[0].strip().lower() == key.lower():
                        return f"{path}:{lineno}"
    except OSError:
        pass
    return path


def _physics_text(cfg: ExperimentConfig) -> str:
    """The sections that determine results (the [run] section does not)."""
    return (
        "[state]\n"
        f"alpha1 = {cfg.alpha1!r}\n"
        f"alpha2 = {cfg.alpha2!r}\n"
        "\n[noise]\n"
        f"eta = {cfg.eta!r}\n"
        "\n[sampling]\n"
        f"n = {cfg.n}\n"
        f"replicates = {cfg.replicates}\n"
        f"seed = {cfg.seed}\n"
        "\n[reconstruction]\n"
        f"betas = {', '.join(repr(b) for b in cfg.betas)}\n"
        f"grid_size = {cfg.grid_size}\n"
        f"path = {cfg.path}\n"
    )


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical serialized form (round-trips through load_config losslessly)."""
    return (
        _physics_text(cfg)
        + "\n[run]\n"
        f"output_dir = {cfg.output_dir}\n"
        f"workers = {cfg.workers}\n"
    )


def save_config(cfg: ExperimentConfig, path: str) -> None:
    _atomic_bytes(path, config_text(cfg).encode("utf-8"))


def load_config(path: str) -> ExperimentConfig:
    """Parse an INI config; a key the file leaves out keeps its ExperimentConfig default."""
    # no default section, so a [DEFAULT] header is an unknown section like any other
    parser = configparser.ConfigParser(default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    casts = {
        "state": {"alpha1": float, "alpha2": float},
        "noise": {"eta": float},
        "sampling": {"n": int, "replicates": int, "seed": int},
        "reconstruction": {"betas": lambda raw: tuple(float(tok) for tok in raw.replace(",", " ").split()),
                           "grid_size": int, "path": str},
        "run": {"output_dir": str, "workers": int},
    }
    values = {}
    for section in parser.sections():
        if section not in casts:
            raise ConfigError(f"[{section}] ({_line_of(path, section)}): unknown section, "
                              f"expected one of {', '.join(casts)}")
        for key, raw in parser.items(section):
            if key not in casts[section]:
                raise ConfigError(f"{section}.{key} ({_line_of(path, section, key)}): unknown key, "
                                  f"expected one of {', '.join(casts[section])}")
            try:
                values[key] = casts[section][key](raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key} ({_line_of(path, section, key)}): "
                                  f"cannot parse {raw!r}") from exc
    return _validate(ExperimentConfig(**values), source=path)


def config_sha(cfg: ExperimentConfig) -> str:
    """Provenance hash over the result-determining configuration."""
    return hashlib.sha256(_physics_text(cfg).encode("utf-8")).hexdigest()


def file_sha(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def _batch_path(cfg: ExperimentConfig, rep: int) -> str:
    return os.path.join(cfg.output_dir, "batches", f"batch_r{rep:02d}.qb")


def _grid_dir(cfg: ExperimentConfig, beta: float) -> str:
    return os.path.join(cfg.output_dir, "grids", f"beta_{beta:g}")


def _analysis_dir(cfg: ExperimentConfig, beta: float) -> str:
    return os.path.join(cfg.output_dir, "analysis", f"beta_{beta:g}")


def _map_replicates(fn, cfg: ExperimentConfig) -> list:
    """[fn(rep) for each replicate], across `cfg.workers` processes when there are several."""
    reps = range(cfg.replicates)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            return list(pool.map(fn, reps))
    return [fn(rep) for rep in reps]


def _sample_one(cfg: ExperimentConfig, source: str, rep: int) -> str:
    batch = generate_batch(cfg.state, cfg.noise, cfg.n, cfg.seed, replicate=rep)
    batch.source_sha256 = source
    path = _batch_path(cfg, rep)
    write_batch(batch, path)
    return path


def cmd_sample(cfg: ExperimentConfig) -> int:
    os.makedirs(os.path.join(cfg.output_dir, "batches"), exist_ok=True)
    for path in _map_replicates(partial(_sample_one, cfg, config_sha(cfg)), cfg):
        print(f"wrote {path}")
    return EXIT_OK


def _reconstruct_one(cfg: ExperimentConfig, rep: int) -> list[str]:
    """Every beta's grid of one replicate, built from one read of its batch."""
    path = _batch_path(cfg, rep)
    if not os.path.exists(path):
        raise ConfigError(f"missing batch file {path}; run `sample` first")
    try:
        batch = read_batch(path)
    except ValueError as exc:
        raise ConfigError(f"invalid batch file: {exc}") from exc
    if not (math.isclose(batch.noise.eta, cfg.eta, rel_tol=0, abs_tol=0)
            and batch.state.alpha1 == cfg.alpha1 and batch.state.alpha2 == cfg.alpha2
            and batch.n == cfg.n):
        raise ConfigError(
            f"provenance mismatch: {path} holds (alpha=({batch.state.alpha1}, {batch.state.alpha2}), "
            f"eta={batch.noise.eta}, n={batch.n}) but the config declares "
            f"(alpha=({cfg.alpha1}, {cfg.alpha2}), eta={cfg.eta}, n={cfg.n})"
        )
    batch.source_sha256 = file_sha(path)
    outs = []
    for beta in cfg.betas:
        params = ReconstructionParams.for_experiment(cfg.n, beta, cfg.noise, grid_size=cfg.grid_size)
        grid = reconstruct_fast(batch, params) if cfg.path == "fast" else reconstruct_exact(batch, params)
        outs.append(os.path.join(_grid_dir(cfg, beta), f"grid_r{batch.replicate:02d}.wg"))
        write_grid(grid, outs[-1])
    return outs


def cmd_reconstruct(cfg: ExperimentConfig) -> int:
    for beta in cfg.betas:
        os.makedirs(_grid_dir(cfg, beta), exist_ok=True)
    per_replicate = _map_replicates(partial(_reconstruct_one, cfg), cfg)
    for beta, paths in zip(cfg.betas, zip(*per_replicate)):
        avg = mean_grid([_read_grid_file(p) for p in paths])
        avg_path = os.path.join(_grid_dir(cfg, beta), "grid_avg.wg")
        write_grid(avg, avg_path)
        for path in paths + (avg_path,):
            print(f"wrote {path}")
    return EXIT_OK


def _read_grid_file(path: str):
    try:
        return read_grid(path)
    except ValueError as exc:
        raise ConfigError(f"invalid grid file: {exc}") from exc


def _load_replicate_grids(cfg: ExperimentConfig, beta: float, batch_shas: set[str]):
    gdir = _grid_dir(cfg, beta)
    paths = [os.path.join(gdir, f"grid_r{rep:02d}.wg") for rep in range(cfg.replicates)]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise ConfigError(
            f"found {cfg.replicates - len(missing)} grids for beta={beta:g} but the config "
            f"declares {cfg.replicates} replicates (first missing: {missing[0]})"
        )
    grids = []
    for path in paths:
        grid = _read_grid_file(path)
        meta = grid.meta
        if not (meta.get("eta") == cfg.eta and meta.get("alpha1") == cfg.alpha1
                and meta.get("alpha2") == cfg.alpha2
                and meta.get("n") == cfg.n and meta.get("beta") == beta):
            raise ConfigError(f"provenance mismatch: {path} was built under different parameters")
        if batch_shas and meta.get("source_sha256") not in batch_shas:
            raise ConfigError(f"provenance mismatch: {path} does not descend from the current batches")
        grids.append((path, grid))
    return grids


def _analyze_beta(cfg: ExperimentConfig, beta: float, batch_shas: set[str]) -> dict:
    grids = _load_replicate_grids(cfg, beta, batch_shas)
    state = cfg.state
    errors = [l2_error(grid, state) for _, grid in grids]
    tv, tt, tb = delta_terms(cfg.n, beta, cfg.eta, state)
    means = [witness_mean_from_grid(grid, state) for _, grid in grids]
    stats = witness_stats(means, state)
    r, _ = optimal_bandwidth(cfg.n, beta, cfg.noise.gamma)
    core = ErrorReport(
        delta_numeric=mean_square_error(errors),
        delta_bound=tv + tt + tb,
        term_variance=tv,
        term_tail=tt,
        term_bias=tb,
        m=cfg.replicates,
        params={
            "alpha1": cfg.alpha1, "alpha2": cfg.alpha2, "eta": cfg.eta,
            "beta": beta, "n": cfg.n, "r": r, "h": 1.0 / r,
            "grid_size": cfg.grid_size, "path": cfg.path, "seed": cfg.seed,
        },
    )
    report = asdict(core)
    report.update({
        "per_replicate_errors": errors,
        "config_sha256": config_sha(cfg),
        "grid_sha256": [file_sha(p) for p, _ in grids],
    })
    adir = _analysis_dir(cfg, beta)
    os.makedirs(adir, exist_ok=True)
    _atomic_bytes(os.path.join(adir, "error_report.json"),
                  json.dumps(report, sort_keys=True, indent=2).encode("utf-8"))
    _atomic_bytes(os.path.join(adir, "witness_stats.json"),
                  json.dumps(asdict(stats), sort_keys=True, indent=2).encode("utf-8"))
    return {"beta": beta, "report": report, "witness": stats}


def _format_table(rows) -> str:
    lines = [f"{'beta':>6}  {'Delta_numeric':>14}  {'Delta_bound':>12}"]
    for row in rows:
        numeric = row.get("delta_numeric")
        numeric_s = f"{numeric:.4g}" if numeric is not None else "-"
        lines.append(f"{row['beta']:>6g}  {numeric_s:>14}  {row['delta_bound']:>12.4g}")
    return "\n".join(lines)


def cmd_analyze(cfg: ExperimentConfig) -> int:
    rows = []
    # each batch is hashed once; every beta's replicate grids must descend from one
    batch_paths = (_batch_path(cfg, rep) for rep in range(cfg.replicates))
    batch_shas = {file_sha(p) for p in batch_paths if os.path.exists(p)}
    for beta in cfg.betas:
        result = _analyze_beta(cfg, beta, batch_shas)
        report, stats = result["report"], result["witness"]
        rows.append({"beta": beta, "delta_numeric": report["delta_numeric"],
                     "delta_bound": report["delta_bound"]})
        print(f"beta={beta:g}: Delta_numeric={report['delta_numeric']:.6g} "
              f"Delta_bound={report['delta_bound']:.6g}")
        print(f"  witness: av={stats.av:.6g} sd={stats.sd:.6g} "
              f"separated={str(stats.separated).lower()} "
              f"(pure {stats.pure_ref:.6g}, incoherent {stats.incoherent_ref:.6g})")
    print(_format_table(rows))
    return EXIT_OK


def cmd_sweep_beta(cfg: ExperimentConfig, points: int = 23) -> int:
    betas = np.linspace(0.02, 0.24, points)
    rows = sweep_beta(cfg.n, cfg.eta, cfg.state, betas)
    lines = ["beta,delta,av,sd,separated"]
    for row in rows:
        av = sd = separated = ""
        wpath = os.path.join(_analysis_dir(cfg, row["beta"]), "witness_stats.json")
        if os.path.exists(wpath):
            with open(wpath, "r", encoding="utf-8") as fh:
                stats = json.load(fh)
            av = f"{stats['av']:.17g}"
            sd = f"{stats['sd']:.17g}"
            separated = str(stats["separated"]).lower()
        lines.append(f"{row['beta']:.17g},{row['delta']:.17g},{av},{sd},{separated}")
    os.makedirs(cfg.output_dir, exist_ok=True)
    out = os.path.join(cfg.output_dir, f"sweep_eta{cfg.eta:g}.csv")
    _atomic_bytes(out, ("\n".join(lines) + "\n").encode("utf-8"))
    terms_out = os.path.join(cfg.output_dir, f"sweep_terms_eta{cfg.eta:g}.csv")
    _atomic_bytes(terms_out, sweep_terms_csv(rows).encode("utf-8"))
    print(f"wrote {out}")
    print(f"wrote {terms_out}")
    return EXIT_OK


def cmd_table1(cfg: ExperimentConfig) -> int:
    rows = []
    for beta in cfg.betas:
        tv, tt, tb = delta_terms(cfg.n, beta, cfg.eta, cfg.state)
        numeric = None
        rpath = os.path.join(_analysis_dir(cfg, beta), "error_report.json")
        if os.path.exists(rpath):
            with open(rpath, "r", encoding="utf-8") as fh:
                numeric = json.load(fh)["delta_numeric"]
        rows.append({"beta": beta, "delta_numeric": numeric, "delta_bound": tv + tt + tb})
    print(_format_table(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="experiment config file (INI)")
    common.add_argument("--preset", choices=sorted(PRESETS), help="named scale preset")
    common.add_argument("--workers", type=int, metavar="N", help="parallel worker count")
    common.add_argument("--seed", type=int, metavar="S", help="override the master seed")
    common.add_argument("--output-dir", metavar="DIR", help="override the output directory")
    route = common.add_mutually_exclusive_group()
    route.add_argument("--fast", dest="path", action="store_const", const="fast",
                       help="binned reconstruction path (default)")
    route.add_argument("--exact", dest="path", action="store_const", const="exact",
                       help="direct per-sample reconstruction path")

    parser = argparse.ArgumentParser(prog="catomo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("sample", parents=[common], help="generate quadrature batches")
    sub.add_parser("reconstruct", parents=[common], help="reconstruct Wigner grids")
    sub.add_parser("analyze", parents=[common], help="errors, bounds and witness statistics")
    sweep = sub.add_parser("sweep-beta", parents=[common], help="bound curve over beta as CSV")
    sweep.add_argument("--points", type=int, default=23, help="number of sweep points")
    sub.add_parser("table1", parents=[common], help="bound/numeric comparison table")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.preset:
        cfg = replace(cfg, **PRESETS[args.preset])
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    if args.output_dir is not None:
        cfg = replace(cfg, output_dir=args.output_dir)
    if args.path is not None:
        cfg = replace(cfg, path=args.path)
    return _validate(cfg, source=args.config)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "sample":
            return cmd_sample(cfg)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "sweep-beta":
            return cmd_sweep_beta(cfg, points=args.points)
        if args.command == "table1":
            return cmd_table1(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OverflowError, FloatingPointError, RuntimeError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
