"""Tests of the benchmark itself, at smoke scale.

    python3 -m pytest perfbench -q        (from the root of a catomo checkout)
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from layers import PER_LAYER, STAGES  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import SpanIndex, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_ini, workload_config  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == PER_LAYER


def test_smoke_run_of_every_workload_is_correct():
    proc = _run("--workload", "all", "--smoke", "--seconds", "1")
    combined = _result(proc)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(lines) == len(WORKLOADS) + 1
    for result in lines[:-1]:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(END_TO_END)
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert combined["correct"]
    assert combined["attempted"] == sum(r["attempted"] for r in lines[:-1])
    assert set(combined["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m, _ in END_TO_END}


def test_smoke_traced_run_reports_layers():
    result = _result(_run("--workload", "headline", "--smoke", "--seconds", "1", "--trace", "1"))
    assert result["correct"]
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == [(n, u) for n, u, _ in PER_LAYER]
    assert metrics["estimator.route.fallback"]["value"] == 0
    routes = sum(metrics[f"estimator.route.{r}"]["value"] for r in ("direct", "binned"))
    assert routes == 2 * 2  # replicates x betas
    assert 0.0 < metrics["sampling.acceptance_rate"]["value"] <= 1.0


def test_refuses_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "3",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checks_catch_a_perturbed_grid(tmp_path):
    import catomo.cli

    cfg = workload_config("desk", smoke=True)
    out = str(tmp_path / "out")
    ini = tmp_path / "config.ini"
    ini.write_text(config_ini(cfg, DEFAULT_SEED, out))
    for stage in STAGES:
        with contextlib.redirect_stdout(io.StringIO()):
            assert catomo.cli.main([stage, "--config", str(ini), "--workers", "1", "--fast"]) == 0
    with open(os.path.join(HERE, "reference", "desk-smoke.json"), "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    assert all(c["ok"] for c in checks.run_checks(cfg, out, reference))

    path = checks.grid_path(out, cfg["betas"][0], "r00")
    grid = catomo.read_grid(path)
    grid.values *= 1.01
    catomo.write_grid(grid, path)
    failed = {c["op"] for c in checks.run_checks(cfg, out, reference) if not c["ok"]}
    assert "probe beta=0.05 r00" in failed
    assert "ref grid beta=0.05 r00" in failed


def test_tracer_attributes_nested_calls_and_allocations():
    mod = types.SimpleNamespace(__name__="fake")

    def inner(n):
        return np.ones(n)

    def outer(n):
        return mod.inner(n).sum() + mod.inner(2 * n).sum()

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.start()
    tracer.wrap(mod, "inner", "inner", lambda args, result: {"evals": result.size})
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "absent", "absent")
    with tracer.span("root"):
        assert mod.outer(1 << 20) == 3 << 20
    tracer.stop()
    assert mod.inner is inner and mod.outer is outer
    assert tracer.missing == ["fake.absent"]

    ix = SpanIndex(tracer.spans, ("root",))
    (outer_span,) = ix.named("outer")
    inner_spans = ix.named("inner")
    assert [s.parent for s in inner_spans] == [outer_span.id] * 2
    assert ix.count_sum("inner", "evals") == 3 << 20
    # the second inner call allocates 16 MiB, and the parent's peak includes it
    assert ix.peak_alloc("inner") >= 16 << 20
    assert outer_span.peak_alloc >= 16 << 20
    assert ix.total("inner") <= ix.total("outer") <= ix.total("root")
