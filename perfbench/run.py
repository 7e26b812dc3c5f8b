"""End-to-end and per-layer benchmark of the catomo CLI pipeline.

    python3 perfbench/run.py --workload {desk,headline,exact,all} [--seed 7]
                             [--seconds 30] [--trace 0|1] [--smoke]

Run from the root of a catomo checkout; catomo is imported from its `src`.
Each run starts fresh interpreters (`pipeline.py`) that run `catomo sample`
-> `reconstruct` -> `analyze` with `--workers 1` in-process, and checks the
outputs outside the timed region.

--trace 0  set-up is timed in SETUP_PROBES extra interpreters plus the
           pipeline's own; pipeline passes repeat while another fits in
           --seconds (at least one); prints the end-to-end metrics.
--trace 1  one untraced pass, then one traced pass whose wrapped layer calls
           give the per-layer metrics; the difference of the two passes'
           stage times is the tracing overhead.  Spans go to
           .perfbench/traces/.
--smoke    every workload at tiny n through the same code and checks.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; an operation is a stage
invocation or an output check.  Work files live in .perfbench/work and are
removed at the end; a full record of each run goes to .perfbench/results.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

from layers import PER_LAYER, STAGES
from workloads import DEFAULT_SEED, WORKLOADS, config_ini, workload_config

HERE = os.path.dirname(os.path.abspath(__file__))

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("sample_s", "s"),
    ("reconstruct_s", "s"),
    ("analyze_s", "s"),
    ("pairs_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

SETUP_PROBES = 2
MIN_STAGE_S = {"full": 5.0, "smoke": 0.5}
RUN_DEADLINE_S = 170.0
WORK_ROOT = ".perfbench"


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, a child crashed or timed out)."""


def _spawn(spec: dict, spec_path: str, deadline: float) -> float:
    """Run pipeline.py on a spec; return the seconds until it printed `ready`."""
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "pipeline.py"), spec_path],
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("benchmark process exceeded the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"benchmark process failed (exit {proc.returncode}) {rest.strip()}")
    return setup_s


def _stage_summary(passes: list[dict], pairs: int) -> dict:
    """Median over passes of each stage's median invocation, and derived values."""
    per_pass = []
    for p in passes:
        walls = {s: statistics.median(c["wall"] for c in p[s]) for s in STAGES}
        cpu = sum(statistics.median(c["cpu"] for c in p[s]) for s in STAGES)
        per_pass.append({**walls, "cpu": cpu, "pairs_per_s": pairs / sum(walls.values())})
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def _operations(child: dict) -> tuple[int, int]:
    calls = [c for p in child["passes"] for s in STAGES for c in p[s]]
    checks = child.get("checks", [])
    failed = sum(c["rc"] != 0 for c in calls) + sum(not c["ok"] for c in checks)
    return len(calls) + len(checks), failed


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args) -> dict:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "catomo", "cli.py")):
        raise BenchError(f"no catomo sources under {src}; run from the root of a catomo checkout")
    cfg = workload_config(args.workload, smoke=args.smoke)
    scale = "smoke" if args.smoke else "full"
    work = os.path.join(root, WORK_ROOT, "work", args.workload)
    out_dir = os.path.join(work, "out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(root, WORK_ROOT, sub), exist_ok=True)
    tag = f"{args.workload}-{scale}-seed{args.seed}-trace{args.trace}"
    ini = os.path.join(work, "config.ini")
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(config_ini(cfg, args.seed, out_dir))
    reference = os.path.join(HERE, "reference", f"{args.workload}-{scale}.json")
    spec = {
        "src": src, "ini": ini, "config": cfg, "output_dir": out_dir, "mode": "run",
        "trace": False, "min_stage_s": MIN_STAGE_S[scale], "check": True, "seconds": args.seconds,
        "reference": reference if args.seed == DEFAULT_SEED else None,
        "result": os.path.join(work, "child.json"),
        "spans": os.path.join(root, WORK_ROOT, "traces", f"{tag}.json"),
    }
    spec_path = os.path.join(work, "spec.json")
    deadline = time.monotonic() + RUN_DEADLINE_S
    pairs = cfg["n"] * cfg["replicates"]

    def child(**changes) -> tuple[float, dict]:
        setup_s = _spawn({**spec, **changes}, spec_path, deadline)
        with open(spec["result"], "r", encoding="utf-8") as fh:
            return setup_s, json.load(fh)

    try:
        if args.trace:
            _, plain = child(min_stage_s=0.0, check=False, seconds=0)
            _, traced = child(trace=True, min_stage_s=0.0)
            before, after = _stage_summary(plain["passes"], pairs), _stage_summary(traced["passes"], pairs)
            values = dict(traced["layers"])
            for stage in STAGES:
                values[f"trace.overhead.{stage}_s"] = after[stage] - before[stage]
            units = {name: unit for name, unit, _ in PER_LAYER}
            children = [plain, traced]
            record = {"untraced": plain, "traced": traced}
        else:
            setups = [_spawn({**spec, "mode": "setup"}, spec_path, deadline)
                      for _ in range(SETUP_PROBES)]
            setup_s, main = child()
            setups.append(setup_s)
            summary = _stage_summary(main["passes"], pairs)
            values = {"setup_s": statistics.median(setups), "cpu_s": summary["cpu"],
                      "pairs_per_s": summary["pairs_per_s"], "peak_rss_mb": main["peak_rss_mb"],
                      **{f"{stage}_s": summary[stage] for stage in STAGES}}
            units = dict(END_TO_END)
            children = [main]
            record = {"run": main, "setup_samples": setups}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    for c in children:
        a, f = _operations(c)
        attempted, failed = attempted + a, failed + f
    checks = [c for ch in children for c in ch.get("checks", [])]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record.update(workload=args.workload, scale=scale, seed=args.seed, trace=args.trace,
                  config=cfg, metrics=metrics, attempted=attempted, failed=failed)
    with open(os.path.join(root, WORK_ROOT, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env = children[-1]["env"]
    print(f"perfbench workload={args.workload} scale={scale} seed={args.seed} trace={args.trace} "
          f"passes={len(children[-1]['passes'])}")
    print(f"env: nproc={env['nproc']} MemTotal={env['mem_total']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas_env={env['blas_env']}")
    for blas in env["openblas"]:
        print(f"env: {blas.get('config', blas['library'])} threads={blas.get('threads')}")
    print(f"env: load: {env['load']}")
    for c in checks:
        if not c["ok"]:
            print(f"check FAILED {c['op']}: {c['detail']}")
    for name, m in metrics.items():
        print(f"  {name:<44} {_fmt(m['value']):>14} {m['unit']}")
    print(f"  {'error_rate':<44} {_fmt(failed / attempted):>14} ({failed}/{attempted} operations failed)")
    return {"correct": failed == 0 and bool(checks), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or `all` to run each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny n, same code and checks")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run(argparse.Namespace(**{**vars(args), "workload": name}))
            if len(names) > 1:
                print(json.dumps(results[name]))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) > 1:
        # all workloads: the last line sums the operations and prefixes metrics
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
