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
Exit codes: 0 success, 2 refused input (a config value or flag, a batch,
grid or analysis file that breaks the rules of `sampling._FIELDS` or its own
framing, such as a truncated file, a header without a required key or a
non-finite value, and mismatched provenance), 3 I/O, 4 numerical.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .analysis import (
    delta_terms,
    l2_error,
    mean_square_error,
    sweep_beta,
    sweep_terms_csv,
    witness_mean_from_grid,
    witness_stats,
)
from .estimator import (
    _ROUTE,
    BinnedBatch,
    ReconstructionParams,
    mean_grid,
    read_grid,
    reconstruct_exact,
    reconstruct_fast,
    write_grid,
)
from .sampling import (ConfigError, _atomic_bytes, _batch_header, _batch_writer, _BatchFile, _check_fields,
                       _json_fields, generate_batch)
from .states import CatState, NoiseModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

PRESETS = {
    "desk": {"n": 500_000, "replicates": 5, "grid_size": 101},
    "paper": {"n": 16_000_000, "replicates": 10, "grid_size": 201},
}


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


# The config file's layout: section -> keys, in file order.  Each key is an
# ExperimentConfig field and takes that field's type.  The last section says
# only where and how to run, so config_sha leaves it out.
_SCHEMA = {
    "state": ("alpha1", "alpha2"),
    "noise": ("eta",),
    "sampling": ("n", "replicates", "seed"),
    "reconstruction": ("betas", "grid_size", "path"),
    "run": ("output_dir", "workers"),
}
_SECTION = {key: section for section, keys in _SCHEMA.items() for key in keys}
_DEFAULTS = asdict(ExperimentConfig())


def _validate(cfg: ExperimentConfig, where) -> ExperimentConfig:
    """`cfg` if it keeps `_FIELDS` and the rules below, else a ConfigError naming the key and `where(key)`."""
    def locate(key):
        return f"{_SECTION[key]}.{key} ({where(key)})"

    _check_fields(asdict(cfg), locate, _SECTION)
    # beyond what a file may hold: the bandwidth rule's r = sqrt(ln n / (beta + 2 gamma))
    # is positive only from n = 2, and only an odd size >= 3 has a node at the origin
    if cfg.n < 2:
        raise ConfigError(f"{locate('n')}: need at least 2 samples for the bandwidth rule, got {cfg.n}")
    if cfg.grid_size < 3 or cfg.grid_size % 2 == 0:
        raise ConfigError(f"{locate('grid_size')}: grid size must be an odd integer >= 3, got {cfg.grid_size}")
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


def _format(key: str, value) -> str:
    """A config value as the file writes it: floats by repr, so they read back exactly."""
    if isinstance(_DEFAULTS[key], tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value) if isinstance(_DEFAULTS[key], float) else str(value)


def _parse(key: str, raw: str):
    """The inverse of `_format`: the value of `key` in the type of its ExperimentConfig
    default, which must be float, int, str or a tuple of floats; `raw` itself
    if it does not parse, for `_validate` to refuse."""
    try:
        if isinstance(_DEFAULTS[key], tuple):
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        return type(_DEFAULTS[key])(raw)
    except ValueError:
        return raw


def _sections_text(cfg: ExperimentConfig, sections) -> str:
    """The `[section]` blocks of `sections`, one `key = value` line per key, blank-line separated."""
    return "\n".join(f"[{section}]\n" + "".join(f"{key} = {_format(key, getattr(cfg, key))}\n"
                                                for key in _SCHEMA[section])
                     for section in sections)


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical serialized form (round-trips through load_config losslessly)."""
    return _sections_text(cfg, _SCHEMA)


def save_config(cfg: ExperimentConfig, path: str) -> None:
    _atomic_bytes(path, [config_text(cfg).encode("utf-8")])


def load_config(path: str) -> ExperimentConfig:
    """Parse an INI config; a key the file leaves out keeps its ExperimentConfig default."""
    # no default section, so a [DEFAULT] header is an unknown section like any
    # other; no interpolation, so a value holding '%' reads back as written
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"[{section}] ({_line_of(path, section)}): unknown section, "
                              f"expected one of {', '.join(_SCHEMA)}")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key} ({_line_of(path, section, key)}): unknown key, "
                                  f"expected one of {', '.join(_SCHEMA[section])}")
            values[key] = _parse(key, raw)
    return _validate(ExperimentConfig(**values), lambda key: _line_of(path, _SECTION[key], key))


def config_sha(cfg: ExperimentConfig) -> str:
    """Provenance hash over the result-determining configuration."""
    return hashlib.sha256(_sections_text(cfg, list(_SCHEMA)[:-1]).encode("utf-8")).hexdigest()


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
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            return list(pool.map(fn, reps))
    return [fn(rep) for rep in reps]


def _sample_one(cfg: ExperimentConfig, source: str, rep: int) -> str:
    """Sample one replicate's batch file, each chunk written as soon as it is sampled."""
    path = _batch_path(cfg, rep)
    with _batch_writer(path, _batch_header(cfg.state, cfg.noise, cfg.n, cfg.seed, rep, source)) as out:
        generate_batch(cfg.state, cfg.noise, cfg.n, cfg.seed, replicate=rep, out=out)
    return path


def cmd_sample(cfg: ExperimentConfig) -> int:
    os.makedirs(os.path.join(cfg.output_dir, "batches"), exist_ok=True)
    for path in _map_replicates(partial(_sample_one, cfg, config_sha(cfg)), cfg):
        print(f"wrote {path}")
    return EXIT_OK


def _check_provenance(path: str, header: dict, cfg: ExperimentConfig, rep: int, **extra) -> None:
    """Refuse a header that breaks `_FIELDS` or the config's batch header for `rep` and `extra`."""
    declared = {**_batch_header(cfg.state, cfg.noise, cfg.n, cfg.seed, rep, None), **extra}
    _check_fields(header, path, declared)
    del declared["source_sha256"]
    held = {key: header[key] for key in declared}
    if held != declared:
        raise ConfigError(f"provenance mismatch: {path} holds {held} but the config declares {declared}")


def _reconstruct_one(cfg: ExperimentConfig, rep: int) -> list[str]:
    """Every beta's grid of replicate `rep`, its batch file read in blocks.

    The header and its provenance are checked first; one read then validates
    the pairs, hashes the file and finds max|x| (`_BatchFile.scan`).  Both
    paths then read the scanned file in blocks, so no whole batch is held:
    the fast path bins it once for every beta, on the lattice of the
    smallest beta (`BinnedBatch`), and the exact path's direct sum reads it
    once per beta.
    """
    path = _batch_path(cfg, rep)
    if not os.path.exists(path):
        raise ConfigError(f"missing batch file {path}; run `sample` first")
    batch = _BatchFile(path)
    _check_provenance(path, batch.header, cfg, rep)
    batch.source_sha256 = batch.scan()
    members = [ReconstructionParams.for_experiment(cfg.n, beta, cfg.noise, grid_size=cfg.grid_size)
               for beta in cfg.betas]
    fast = cfg.path == "fast"
    source = BinnedBatch(batch, members) if fast else batch
    outs = []
    for params in members:
        grid = reconstruct_fast(source, params) if fast else reconstruct_exact(source, params)
        outs.append(os.path.join(_grid_dir(cfg, params.beta), f"grid_r{rep:02d}.wg"))
        write_grid(grid, outs[-1])
    return outs


def cmd_reconstruct(cfg: ExperimentConfig) -> int:
    for beta in cfg.betas:
        os.makedirs(_grid_dir(cfg, beta), exist_ok=True)
    per_replicate = _map_replicates(partial(_reconstruct_one, cfg), cfg)
    for beta, paths in zip(cfg.betas, zip(*per_replicate)):
        avg = mean_grid([read_grid(p) for p in paths])
        avg_path = os.path.join(_grid_dir(cfg, beta), "grid_avg.wg")
        write_grid(avg, avg_path)
        for path in paths + (avg_path,):
            print(f"wrote {path}")
    return EXIT_OK


def _load_replicate_grids(cfg: ExperimentConfig, params: ReconstructionParams, batch_shas: set[str]):
    gdir = _grid_dir(cfg, params.beta)
    paths = [os.path.join(gdir, f"grid_r{rep:02d}.wg") for rep in range(cfg.replicates)]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise ConfigError(
            f"found {cfg.replicates - len(missing)} grids for beta={params.beta:g} but the config "
            f"declares {cfg.replicates} replicates (first missing: {missing[0]})"
        )
    grids = []
    for rep, path in enumerate(paths):
        grid = read_grid(path)
        _check_provenance(path, {**grid.meta, "grid_size": grid.grid_size, "extent": grid.extent, "r": grid.r},
                          cfg, rep, beta=params.beta, grid_size=cfg.grid_size, method=cfg.path,
                          kind="replicate", route=_ROUTE[cfg.path],
                          extent=params.extent, r=params.r, h=params.h)  # the same function, the same bits
        if batch_shas and grid.meta["source_sha256"] not in batch_shas:
            raise ConfigError(f"provenance mismatch: {path} does not descend from the current batches")
        grids.append((path, grid))
    return grids


def _analyze_beta(cfg: ExperimentConfig, beta: float, batch_shas: set[str]) -> dict:
    params = ReconstructionParams.for_experiment(cfg.n, beta, cfg.noise, grid_size=cfg.grid_size)
    grids = _load_replicate_grids(cfg, params, batch_shas)
    state = cfg.state
    errors = [l2_error(grid, state) for _, grid in grids]
    tv, tt, tb = delta_terms(cfg.n, beta, cfg.eta, state)
    means = [witness_mean_from_grid(grid, state) for _, grid in grids]
    stats = witness_stats(means, state)
    # the measured mean square L2 error next to its closed-form bound and that bound's terms
    report = {
        "delta_numeric": mean_square_error(errors),
        "delta_bound": tv + tt + tb,
        "term_variance": tv,
        "term_tail": tt,
        "term_bias": tb,
        "m": cfg.replicates,
        "params": {
            "alpha1": cfg.alpha1, "alpha2": cfg.alpha2, "eta": cfg.eta,
            "beta": beta, "n": cfg.n, "r": params.r, "h": 1.0 / params.r,
            "grid_size": cfg.grid_size, "path": cfg.path, "seed": cfg.seed,
        },
        "per_replicate_errors": errors,
        "config_sha256": config_sha(cfg),
        "grid_sha256": [file_sha(p) for p, _ in grids],
    }
    adir = _analysis_dir(cfg, beta)
    os.makedirs(adir, exist_ok=True)
    # the hashed report goes last: `_analyzed_report` vouches for the witness stats by it
    _atomic_bytes(os.path.join(adir, "witness_stats.json"),
                  [json.dumps(asdict(stats), sort_keys=True, indent=2).encode("utf-8")])
    _atomic_bytes(os.path.join(adir, "error_report.json"),
                  [json.dumps(report, sort_keys=True, indent=2).encode("utf-8")])
    return {"beta": beta, "report": report, "witness": stats}


def _analyzed_report(cfg: ExperimentConfig, beta: float) -> dict | None:
    """The error report `analyze` wrote for `beta`, or None if there is none; a report
    written under another config is refused, and with it the witness stats beside it."""
    rpath = os.path.join(_analysis_dir(cfg, beta), "error_report.json")
    if not os.path.exists(rpath):
        return None
    with open(rpath, "rb") as fh:
        report = _json_fields(fh.read(), rpath, ("config_sha256", "delta_numeric"))
    if report["config_sha256"] != config_sha(cfg):
        raise ConfigError(f"provenance mismatch: {rpath} was analyzed under another config; "
                          f"run `analyze` with this one first")
    return report


def _format_table(rows) -> str:
    lines = [f"{'beta':>6}  {'Delta_numeric':>14}  {'Delta_bound':>12}"]
    for row in rows:
        numeric = row.get("delta_numeric")
        numeric_s = f"{numeric:.4g}" if numeric is not None else "-"
        lines.append(f"{row['beta']:>6g}  {numeric_s:>14}  {row['delta_bound']:>12.4g}")
    return "\n".join(lines)


def cmd_analyze(cfg: ExperimentConfig) -> int:
    if cfg.replicates < 2:
        raise ConfigError(f"sampling.replicates: analyze needs at least 2 replicates for the "
                          f"witness standard deviation, got {cfg.replicates}")
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
    if points < 1:
        raise ConfigError(f"--points: need at least one sweep point, got {points}")
    betas = np.linspace(0.02, 0.24, points)
    rows = sweep_beta(cfg.n, cfg.eta, cfg.state, betas)
    lines = ["beta,delta,av,sd,separated"]
    for row in rows:
        av = sd = separated = ""
        if _analyzed_report(cfg, row["beta"]) is not None:
            wpath = os.path.join(_analysis_dir(cfg, row["beta"]), "witness_stats.json")
            with open(wpath, "rb") as fh:
                stats = _json_fields(fh.read(), wpath, ("av", "sd", "separated"))
            av = f"{stats['av']:.17g}"
            sd = f"{stats['sd']:.17g}"
            separated = str(stats["separated"]).lower()
        lines.append(f"{row['beta']:.17g},{row['delta']:.17g},{av},{sd},{separated}")
    os.makedirs(cfg.output_dir, exist_ok=True)
    out = os.path.join(cfg.output_dir, f"sweep_eta{cfg.eta:g}.csv")
    _atomic_bytes(out, [("\n".join(lines) + "\n").encode("utf-8")])
    terms_out = os.path.join(cfg.output_dir, f"sweep_terms_eta{cfg.eta:g}.csv")
    _atomic_bytes(terms_out, [sweep_terms_csv(rows).encode("utf-8")])
    print(f"wrote {out}")
    print(f"wrote {terms_out}")
    return EXIT_OK


def cmd_table1(cfg: ExperimentConfig) -> int:
    rows = []
    for beta in cfg.betas:
        tv, tt, tb = delta_terms(cfg.n, beta, cfg.eta, cfg.state)
        report = _analyzed_report(cfg, beta)
        numeric = report["delta_numeric"] if report is not None else None
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
    # command-line flags share their names with the config keys they override
    flags = {key: value for key, value in vars(args).items() if key in _SECTION and value is not None}
    cfg = replace(cfg, **PRESETS.get(args.preset, {}), **flags)
    # the file and the presets are valid, so only a flag can be out of range
    return _validate(cfg, lambda key: f"--{key.replace('_', '-')}")


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
