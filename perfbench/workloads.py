"""Workload table of the benchmark.

Every workload runs the same user pipeline, `catomo sample` -> `reconstruct`
-> `analyze`, at |alpha|^2 = 4.5, eta = 0.45 and beta in {0.05, 0.1}; they
differ in scale and route, so that each one stresses a different layer.
Values are written into the workload's config file instead of taken from
CLI presets, so a later change to a preset cannot change the workload.
"""

from __future__ import annotations

import math

DEFAULT_SEED = 7

# Why each workload exists; BENCHMARK.json carries the same reasons.
WORKLOADS = {
    # The desk preset's values. Ten binned reconstructions of n = 5e5: fixed
    # per-call costs dominate, mostly the subsample self-check's kernel() sums.
    "desk": {"n": 500_000, "replicates": 5, "grid_size": 101, "path": "fast"},
    # Per-sample costs dominate: sampling 8e6 pairs, binning/FFT/interpolation
    # over 4e6 pairs, 64 MB batch files and their hashing, peak RSS ~700 MB.
    # M = 2 is the smallest replicate count witness_stats accepts.
    "headline": {"n": 4_000_000, "replicates": 2, "grid_size": 201, "path": "fast"},
    # The exact route: ~1.6e8 table-backed direct kernel evaluations per grid
    # through estimate_at_points, and only a few kernel() quadrature calls.
    "exact": {"n": 20_000, "replicates": 2, "grid_size": 101, "path": "exact"},
}

# Smoke mode: every workload at tiny scale through the same harness and checks.
SMOKE = {"n": 600, "replicates": 2, "grid_size": 9}

BETAS = (0.05, 0.1)
ALPHA1 = 3.0 / math.sqrt(2.0)
ETA = 0.45


def workload_config(name: str, smoke: bool = False) -> dict:
    """The scale and route of one workload (smoke mode shrinks the scale)."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    cfg = dict(WORKLOADS[name])
    if smoke:
        cfg.update(SMOKE)
    cfg.update(betas=list(BETAS), alpha1=ALPHA1, alpha2=0.0, eta=ETA)
    return cfg


def config_ini(cfg: dict, seed: int, output_dir: str) -> str:
    """The catomo INI config that declares this workload."""
    return (
        "[state]\n"
        f"alpha1 = {cfg['alpha1']!r}\n"
        f"alpha2 = {cfg['alpha2']!r}\n"
        "\n[noise]\n"
        f"eta = {cfg['eta']!r}\n"
        "\n[sampling]\n"
        f"n = {cfg['n']}\n"
        f"replicates = {cfg['replicates']}\n"
        f"seed = {seed}\n"
        "\n[reconstruction]\n"
        f"betas = {', '.join(repr(b) for b in cfg['betas'])}\n"
        f"grid_size = {cfg['grid_size']}\n"
        f"path = {cfg['path']}\n"
        "\n[run]\n"
        f"output_dir = {output_dir}\n"
        "workers = 1\n"
    )
