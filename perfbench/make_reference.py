"""Write the committed reference outputs of every workload at the default seed.

    python3 perfbench/make_reference.py [--smoke] [WORKLOAD ...]

Run from the root of a catomo checkout whose outputs are to become the
reference.  For each workload it runs the CLI pipeline and stores in
perfbench/reference/<workload>-<scale>.json: the SHA-256 of every batch
file, every grid on a REF_NODES^2 lattice of nodes with its max|value|, and
both analysis reports for each beta.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

from checks import analysis_path, batch_path, file_sha256, grid_path, grid_tags, reference_nodes  # noqa: E402
from layers import STAGES  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_ini, workload_config  # noqa: E402


def make(name: str, smoke: bool) -> str:
    import catomo
    import catomo.cli

    cfg = workload_config(name, smoke=smoke)
    scale = "smoke" if smoke else "full"
    work = os.path.join(os.getcwd(), ".perfbench", "work", f"reference-{name}")
    out = os.path.join(work, "out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ini = os.path.join(work, "config.ini")
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(config_ini(cfg, DEFAULT_SEED, out))
    for stage in STAGES:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = catomo.cli.main([stage, "--config", ini, "--workers", "1", f"--{cfg['path']}"])
        if rc != 0:
            raise SystemExit(f"{name}: stage {stage} exited with {rc}")

    nodes = reference_nodes(cfg["grid_size"])
    ref = {"workload": name, "scale": scale, "seed": DEFAULT_SEED, "config": cfg,
           "catomo_version": catomo.__version__,
           "batches": [file_sha256(batch_path(out, rep)) for rep in range(cfg["replicates"])],
           "node_index": nodes, "grids": {}, "analysis": {}}
    for beta in cfg["betas"]:
        key = f"{beta:g}"
        ref["grids"][key] = {}
        for tag in grid_tags(cfg):
            values = catomo.read_grid(grid_path(out, beta, tag)).values
            ref["grids"][key][tag] = {"max_abs": float(np.max(np.abs(values))),
                                      "values": values[np.ix_(nodes, nodes)].tolist()}
        ref["analysis"][key] = {}
        for report in ("error_report", "witness_stats"):
            with open(analysis_path(out, beta, report), "r", encoding="utf-8") as fh:
                ref["analysis"][key][report] = json.load(fh)
    shutil.rmtree(work, ignore_errors=True)
    path = os.path.join(HERE, "reference", f"{name}-{scale}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    for name in args.workloads:
        print(f"wrote {make(name, args.smoke)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
