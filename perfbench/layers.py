"""Which catomo bindings the traced run wraps, and the per-layer metrics.

Each wrapped binding is the name a caller looks up at call time, so nested
calls land under their parent span: `catomo.cli.reconstruct_fast` is what
the CLI calls, `catomo.estimator.kernel` is what the estimator's own
functions call, `catomo.sampling.quadrature_density` is what the rejection
sampler calls, and `catomo.analysis.wigner_true` is what `l2_error` calls.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import SpanIndex

STAGES = ("sample", "reconstruct", "analyze")
STAGE_SPANS = tuple(f"cli.{stage}" for stage in STAGES)
GRID_IO = ("estimator.write_grid", "estimator.read_grid", "estimator.mean_grid")

MB = float(1 << 20)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("states.quadrature_density.evals", "count", "lower"),
    ("states.quadrature_density.s", "s", "lower"),
    ("states.wigner_true.evals", "count", "lower"),
    ("states.wigner_true.s", "s", "lower"),
    ("sampling.generate_batch.s", "s", "lower"),
    ("sampling.generate_batch.pairs_per_s", "1/s", "higher"),
    ("sampling.generate_batch.peak_alloc_mb", "MB", "lower"),
    ("sampling.acceptance_rate", "ratio", "higher"),
    ("sampling.write_batch.s", "s", "lower"),
    ("sampling.read_batch.s", "s", "lower"),
    ("sampling.io_bytes", "B", "lower"),
    ("estimator.kernel.calls", "count", "lower"),
    ("estimator.kernel.evals", "count", "lower"),
    ("estimator.kernel.s", "s", "lower"),
    ("estimator.kernel.evals_per_s", "1/s", "higher"),
    ("estimator.estimate_at_points.evals", "count", "lower"),
    ("estimator.estimate_at_points.s", "s", "lower"),
    ("estimator.estimate_at_points.evals_per_s", "1/s", "higher"),
    ("estimator.reconstruct_fast.calls", "count", "lower"),
    ("estimator.reconstruct_fast.s", "s", "lower"),
    ("estimator.reconstruct_fast.peak_alloc_mb", "MB", "lower"),
    ("estimator.reconstruct_fast.self_check_s", "s", "lower"),
    ("estimator.reconstruct_exact.s", "s", "lower"),
    ("estimator.reconstruct_exact.peak_alloc_mb", "MB", "lower"),
    ("estimator.route.direct", "count", "higher"),
    ("estimator.route.binned", "count", "higher"),
    ("estimator.route.fallback", "count", "lower"),
    ("estimator.grid_io.s", "s", "lower"),
    ("analysis.l2_error.s", "s", "lower"),
    ("analysis.witness_mean_from_grid.s", "s", "lower"),
    ("cli.file_sha.calls", "count", "lower"),
    ("cli.file_sha.bytes", "B", "lower"),
    ("cli.file_sha.s", "s", "lower"),
    ("cli.sample.self_s", "s", "lower"),
    ("cli.reconstruct.self_s", "s", "lower"),
    ("cli.analyze.self_s", "s", "lower"),
    ("cli.sample.generate_batch_share", "ratio", "higher"),
    ("cli.reconstruct.estimator_share", "ratio", "higher"),
    ("trace.overhead.sample_s", "s", "lower"),
    ("trace.overhead.reconstruct_s", "s", "lower"),
    ("trace.overhead.analyze_s", "s", "lower"),
]


def _evals(arguments, result) -> dict:
    return {"evals": int(np.size(result))}


def _batch_evals(arguments, result) -> dict:
    return {"evals": int(arguments["batch"].n) * int(np.size(result))}


def _file_bytes(arguments, result) -> dict:
    return {"bytes": os.path.getsize(arguments["path"])}


def _pairs(arguments, result) -> dict:
    return {"pairs": int(result.n)}


def bind(tracer, cli, estimator, sampling, analysis) -> None:
    """Wrap every traced binding of the catomo modules."""
    tracer.wrap(cli, "generate_batch", "sampling.generate_batch", _pairs)
    tracer.wrap(cli, "write_batch", "sampling.write_batch", _file_bytes)
    tracer.wrap(cli, "read_batch", "sampling.read_batch", _file_bytes)
    tracer.wrap(sampling, "quadrature_density", "states.quadrature_density", _evals)
    tracer.wrap(cli, "reconstruct_fast", "estimator.reconstruct_fast", capture_warnings=True)
    tracer.wrap(cli, "reconstruct_exact", "estimator.reconstruct_exact")
    tracer.wrap(estimator, "reconstruct_exact", "estimator.reconstruct_exact")
    tracer.wrap(estimator, "estimate_at_points", "estimator.estimate_at_points", _batch_evals)
    tracer.wrap(estimator, "kernel", "estimator.kernel", _evals)
    for fn in ("write_grid", "read_grid", "mean_grid"):
        tracer.wrap(cli, fn, f"estimator.{fn}")
    tracer.wrap(cli, "l2_error", "analysis.l2_error")
    tracer.wrap(cli, "witness_mean_from_grid", "analysis.witness_mean_from_grid")
    tracer.wrap(analysis, "wigner_true", "states.wigner_true", _evals)
    tracer.wrap(cli, "file_sha", "cli.file_sha", _file_bytes)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


def _route(index: SpanIndex, span) -> str:
    """Which route built one grid: a captured RuntimeWarning means the
    self-check fell back; a nested reconstruct_exact means the direct sum."""
    if span.name == "estimator.reconstruct_exact":
        return "direct"
    if "RuntimeWarning" in span.warnings:
        return "fallback"
    nested = [c for c in index.children.get(span.id, []) if c.name == "estimator.reconstruct_exact"]
    return "direct" if nested else "binned"


def layer_metrics(spans, self_check_s: float) -> dict:
    """Per-layer values from the spans of one traced pipeline pass.

    Only spans under the `cli.<stage>` roots count, so harness calls made
    outside the pipeline (such as the self-check pair) do not.
    """
    ix = SpanIndex(spans, STAGE_SPANS)
    stage = {s.name: s for s in ix.roots}
    m = {}

    qd_evals = ix.count_sum("states.quadrature_density", "evals")
    m["states.quadrature_density.evals"] = qd_evals
    m["states.quadrature_density.s"] = ix.total("states.quadrature_density")
    m["states.wigner_true.evals"] = ix.count_sum("states.wigner_true", "evals")
    m["states.wigner_true.s"] = ix.total("states.wigner_true")

    gen_s = ix.total("sampling.generate_batch")
    pairs = ix.count_sum("sampling.generate_batch", "pairs")
    m["sampling.generate_batch.s"] = gen_s
    m["sampling.generate_batch.pairs_per_s"] = _rate(pairs, gen_s)
    m["sampling.generate_batch.peak_alloc_mb"] = ix.peak_alloc("sampling.generate_batch") / MB
    m["sampling.acceptance_rate"] = pairs / qd_evals if qd_evals else 0.0
    m["sampling.write_batch.s"] = ix.total("sampling.write_batch")
    m["sampling.read_batch.s"] = ix.total("sampling.read_batch")
    m["sampling.io_bytes"] = (ix.count_sum("sampling.write_batch", "bytes")
                              + ix.count_sum("sampling.read_batch", "bytes"))

    for name in ("kernel", "estimate_at_points"):
        key = f"estimator.{name}"
        evals, secs = ix.count_sum(key, "evals"), ix.total(key)
        if name == "kernel":
            m[f"{key}.calls"] = len(ix.named(key))
        m[f"{key}.evals"] = evals
        m[f"{key}.s"] = secs
        m[f"{key}.evals_per_s"] = _rate(evals, secs)

    m["estimator.reconstruct_fast.calls"] = len(ix.named("estimator.reconstruct_fast"))
    m["estimator.reconstruct_fast.s"] = ix.total("estimator.reconstruct_fast")
    m["estimator.reconstruct_fast.peak_alloc_mb"] = ix.peak_alloc("estimator.reconstruct_fast") / MB
    m["estimator.reconstruct_fast.self_check_s"] = self_check_s
    m["estimator.reconstruct_exact.s"] = ix.total("estimator.reconstruct_exact")
    m["estimator.reconstruct_exact.peak_alloc_mb"] = ix.peak_alloc("estimator.reconstruct_exact") / MB

    routes = {"direct": 0, "binned": 0, "fallback": 0}
    grid_builds = []
    if "cli.reconstruct" in stage:
        grid_builds = [c for c in ix.children.get(stage["cli.reconstruct"].id, [])
                       if c.name in ("estimator.reconstruct_fast", "estimator.reconstruct_exact")]
    for span in grid_builds:
        routes[_route(ix, span)] += 1
    for route, n in routes.items():
        m[f"estimator.route.{route}"] = n

    m["estimator.grid_io.s"] = sum(ix.total(name) for name in GRID_IO)
    m["analysis.l2_error.s"] = ix.total("analysis.l2_error")
    m["analysis.witness_mean_from_grid.s"] = ix.total("analysis.witness_mean_from_grid")
    m["cli.file_sha.calls"] = len(ix.named("cli.file_sha"))
    m["cli.file_sha.bytes"] = ix.count_sum("cli.file_sha", "bytes")
    m["cli.file_sha.s"] = ix.total("cli.file_sha")

    for name in STAGES:
        span = stage.get(f"cli.{name}")
        m[f"cli.{name}.self_s"] = ix.self_time(span) if span else 0.0
    sample = stage.get("cli.sample")
    reconstruct = stage.get("cli.reconstruct")
    m["cli.sample.generate_batch_share"] = gen_s / sample.duration if sample else 0.0
    m["cli.reconstruct.estimator_share"] = (
        sum(s.duration for s in grid_builds) / reconstruct.duration if reconstruct else 0.0)
    return m
