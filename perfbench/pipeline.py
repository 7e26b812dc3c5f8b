"""One benchmark process: set up catomo, run the CLI pipeline, check outputs.

Run by `run.py` as `python3 pipeline.py SPEC.json` in a fresh interpreter.
It imports catomo from the checkout's `src`, resolves the workload config and
prints `ready` (the parent times set-up up to that line).  In `setup` mode
it stops there.  Otherwise it runs `sample` -> `reconstruct` -> `analyze`
in-process through `catomo.cli.main`, optionally traced, then runs the output
checks and writes its measurements to the result path named in the spec.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time

import layers
from tracer import Tracer

# A stage shorter than the spec's `min_stage_s` is invoked again until its
# invocations add up to it (at most MAX_INVOCATIONS), and the median
# invocation is reported.  The repeats come in two rounds, half before and
# half after the later stages, so the median spans more of the box's speed
# changes.
MAX_INVOCATIONS = 200


def _import_catomo(src: str):
    sys.path.insert(0, src)
    import catomo.cli

    where = os.path.realpath(catomo.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"catomo was imported from {where}, not from {src}")
    return catomo.cli


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _openblas() -> list[dict]:
    """Version and thread count of every OpenBLAS this process has loaded."""
    found = []
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy

    meminfo = {}
    with open("/proc/meminfo", "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            meminfo[key] = value.strip()
    with open("/proc/self/status", "r", encoding="utf-8") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    blas = _openblas()
    nproc = len(os.sched_getaffinity(0))
    max_blas = max((b.get("threads", 1) for b in blas), default=1)
    return {
        "nproc": nproc,
        "mem_total": meminfo.get("MemTotal"),
        "loadavg": open("/proc/loadavg", encoding="utf-8").read().split()[:3],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": threads,
        "load": (f"one benchmark process at a time runs the pipeline (--workers 1); it holds "
                 f"{threads} threads, OpenBLAS pools of at most {max_blas} on {nproc} cores"),
    }


def run_stage(main, argv: list[str], tracer=None) -> dict:
    """One CLI invocation: exit code, wall time and CPU time (all threads)."""
    out = io.StringIO()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                rc = main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    if rc != 0:
        print(f"stage {argv[0]} exited with {rc}", file=sys.stderr)
    return {"rc": rc, "wall": wall, "cpu": cpu}


def run_pass(main, argv_tail: list[str], min_stage_s: float, tracer=None) -> dict:
    calls = {stage: [] for stage in layers.STAGES}
    for budget in (min_stage_s / 2, min_stage_s):
        for stage, done in calls.items():
            while not done or (sum(c["wall"] for c in done) < budget and len(done) < MAX_INVOCATIONS):
                done.append(run_stage(main, [stage] + argv_tail, tracer))
    return calls


def self_check_pair(spec: dict, tracer) -> float:
    """reconstruct_fast on replicate 0 with self_check on minus with it off."""
    import catomo
    import checks

    cfg = spec["config"]
    batch = catomo.read_batch(checks.batch_path(spec["output_dir"], 0))
    params = catomo.ReconstructionParams.for_experiment(
        cfg["n"], cfg["betas"][0], catomo.NoiseModel(cfg["eta"]), grid_size=cfg["grid_size"])
    times = {}
    for flag in (False, True):
        with tracer.span(f"bench.self_check.{'on' if flag else 'off'}") as span:
            catomo.estimator.reconstruct_fast(batch, params, self_check=flag)
        times[flag] = span.duration
    return times[True] - times[False]


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        cli = _import_catomo(spec["src"])
    except ImportError as exc:
        print(f"error: cannot import catomo from the checkout: {exc}", file=sys.stderr)
        return 2
    cli.load_config(spec["ini"])
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return 0

    result = {"env": environment()}
    argv_tail = ["--config", spec["ini"], "--workers", "1", f"--{spec['config']['path']}"]
    tracer = None
    if spec["trace"]:
        import catomo

        tracer = Tracer()
        tracer.start()
        layers.bind(tracer, cli, catomo.estimator, catomo.sampling, catomo.analysis)

    passes = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        passes.append(run_pass(cli.main, argv_tail, spec["min_stage_s"], tracer))
        now = time.perf_counter()
        if tracer is not None or now - t_start + (now - t_pass) > spec["seconds"]:
            break
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.restore()
        self_check_s = self_check_pair(spec, tracer)
        tracer.stop()
        result["layers"] = layers.layer_metrics(tracer.spans, self_check_s)
        result["missing_bindings"] = tracer.missing
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump([s.record() for s in tracer.spans], fh)

    if spec["check"]:
        import checks

        reference = None
        if spec["reference"]:
            with open(spec["reference"], "r", encoding="utf-8") as fh:
                reference = json.load(fh)
        result["checks"] = checks.run_checks(spec["config"], spec["output_dir"], reference)

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
