"""Output checks, run after the timed stages.

Every check is one operation: it passes or fails, and a failure counts
toward the run's failed operations.  For any seed, every grid is compared
at fixed probe nodes with the public `estimate_at_points` evaluated on the
same batch, within `reconstruct_fast`'s documented 1e-3 * max|grid|.  For the
reference seed, the batch files, the grids and the analysis reports are also
compared with references committed from the seed code (see
`make_reference.py`), within tolerances that follow from each route's
documented accuracy.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os

import numpy as np

import catomo

FAST_TOL = 1e-3          # reconstruct_fast: nodewise |fast - exact| <= 1e-3 * max|grid|
TABLE_TOL = 1e-6         # KernelTable: interpolation error <= 1e-6 * K(0)
REL_CONST = 1e-9         # closed-form quantities that do not depend on the data
PROBES = 12
# Samples per block in estimate_at_points' compensated sum; the default 64
# makes the check loop in Python over n/64 blocks.
PROBE_SAMPLE_BLOCK = 4096
PROBE_SEED = 150807799
REF_NODES = 21           # reference grids keep a REF_NODES^2 lattice of nodes


def batch_path(out: str, rep: int) -> str:
    return os.path.join(out, "batches", f"batch_r{rep:02d}.qb")


def grid_path(out: str, beta: float, tag: str) -> str:
    return os.path.join(out, "grids", f"beta_{beta:g}", f"grid_{tag}.wg")


def analysis_path(out: str, beta: float, name: str) -> str:
    return os.path.join(out, "analysis", f"beta_{beta:g}", f"{name}.json")


def grid_tags(cfg: dict) -> list[str]:
    return [f"r{rep:02d}" for rep in range(cfg["replicates"])] + ["avg"]


def reference_nodes(grid_size: int) -> list[int]:
    return sorted({int(round(x)) for x in np.linspace(0, grid_size - 1, min(grid_size, REF_NODES))})


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _params(cfg: dict, beta: float):
    return catomo.ReconstructionParams.for_experiment(
        cfg["n"], beta, catomo.NoiseModel(cfg["eta"]), grid_size=cfg["grid_size"])


def _kernel_at_zero(gamma: float, h: float) -> float:
    """K(0) = (e^{gamma/h^2} - 1) / (4 pi gamma), the kernel's closed-form peak."""
    return math.expm1(gamma / (h * h)) / (4.0 * math.pi * gamma)


def _node_tolerance(cfg: dict, params, max_abs: float) -> float:
    """Documented nodewise accuracy of the route that built a grid."""
    if cfg["path"] == "fast":
        return FAST_TOL * max_abs
    return TABLE_TOL * _kernel_at_zero(params.gamma, params.h)


class Checker:
    def __init__(self, cfg: dict, out: str):
        self.cfg = cfg
        self.out = out
        self.results: list[dict] = []

    def record(self, op: str, ok: bool, detail: str) -> None:
        self.results.append({"op": op, "ok": bool(ok), "detail": detail})

    def attempt(self, op: str, fn) -> None:
        """Run one check; an exception fails it instead of aborting the rest."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a broken output must fail its check, not the run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.record(op, ok, detail)

    # -- every seed -------------------------------------------------------

    def probe_grids(self) -> None:
        cfg = self.cfg
        block = ({"sample_block": PROBE_SAMPLE_BLOCK}
                 if "sample_block" in inspect.signature(catomo.estimate_at_points).parameters else {})
        batches = {}
        for rep in range(cfg["replicates"]):
            try:
                batches[rep] = catomo.read_batch(batch_path(self.out, rep))
            except (OSError, ValueError) as exc:
                self.record(f"batch r{rep:02d} readable", False, str(exc))
        for beta in cfg["betas"]:
            params = _params(cfg, beta)
            ax = params.axis()
            inside = ax[:, None] ** 2 + ax[None, :] ** 2 <= params.r * params.r
            flat = np.flatnonzero(inside)
            pick = np.sort(np.random.default_rng(PROBE_SEED).choice(flat, min(PROBES, flat.size),
                                                                   replace=False))
            iq, ip = np.unravel_index(pick, inside.shape)
            estimates = {}
            for rep, batch in batches.items():
                def one(rep=rep, batch=batch):
                    est = catomo.estimate_at_points(batch, params, ax[iq], ax[ip], **block)
                    estimates[rep] = est
                    return self._compare_probe(grid_path(self.out, beta, f"r{rep:02d}"),
                                               params, inside, iq, ip, est)
                self.attempt(f"probe beta={beta:g} r{rep:02d}", one)
            if len(estimates) == cfg["replicates"]:
                mean_est = np.mean([estimates[r] for r in sorted(estimates)], axis=0)
                self.attempt(f"probe beta={beta:g} avg", lambda: self._compare_probe(
                    grid_path(self.out, beta, "avg"), params, inside, iq, ip, mean_est))

    def _compare_probe(self, path, params, inside, iq, ip, est):
        grid = catomo.read_grid(path)
        if grid.grid_size != params.grid_size or not (
                math.isclose(grid.extent, params.extent, rel_tol=1e-12)
                and math.isclose(grid.r, params.r, rel_tol=1e-12)):
            return False, f"geometry {grid.grid_size}/{grid.extent}/{grid.r} differs from the config"
        vals = grid.values
        if not np.all(np.isfinite(vals)):
            return False, "non-finite grid values"
        if np.any(vals[~inside] != 0.0):
            return False, "non-zero values outside the truncation disk"
        tol = FAST_TOL * float(np.max(np.abs(vals)))
        dev = float(np.max(np.abs(vals[iq, ip] - est)))
        return dev <= tol, f"max |grid - estimate_at_points| {dev:.3e} <= {tol:.3e}"

    # -- reference seed ---------------------------------------------------

    def against_reference(self, ref: dict) -> None:
        cfg = self.cfg
        for rep, sha in enumerate(ref["batches"]):
            path = batch_path(self.out, rep)
            self.attempt(f"ref batch r{rep:02d} sha256", lambda path=path, sha=sha: _same_sha(path, sha))
        nodes = np.asarray(ref["node_index"])
        for beta in cfg["betas"]:
            key = f"{beta:g}"
            params = _params(cfg, beta)
            tols = {}
            for tag in grid_tags(cfg):
                entry = ref["grids"][key][tag]
                if tag == "avg":
                    tols[tag] = float(np.mean([tols[t] for t in tols]))
                else:
                    tols[tag] = _node_tolerance(cfg, params, entry["max_abs"])
                self.attempt(f"ref grid beta={key} {tag}", lambda tag=tag, entry=entry: self._compare_grid(
                    grid_path(self.out, beta, tag), nodes, np.asarray(entry["values"]), tols[tag]))
            rep_tols = [tols[t] for t in grid_tags(cfg) if t != "avg"]
            for name in ("error_report", "witness_stats"):
                self.attempt(f"ref {name} beta={key}", lambda name=name: self._compare_analysis(
                    name, analysis_path(self.out, beta, name), ref["analysis"][key][name],
                    params, rep_tols))

    def _compare_grid(self, path, nodes, ref_values, tol):
        vals = catomo.read_grid(path).values[np.ix_(nodes, nodes)]
        dev = float(np.max(np.abs(vals - ref_values)))
        return dev <= tol, f"max |grid - reference| {dev:.3e} <= {tol:.3e}"

    def _compare_analysis(self, name, path, ref, params, rep_tols):
        with open(path, "r", encoding="utf-8") as fh:
            got = json.load(fh)
        bad = [k for k, v in _numbers(got) if not math.isfinite(v)]
        if bad:
            return False, f"non-finite values at {bad}"
        if name == "error_report":
            return _compare_error_report(got, ref, params, rep_tols)
        return _compare_witness(got, ref, params, rep_tols, self.cfg)


def _same_sha(path: str, sha: str):
    got = file_sha256(path)
    return got == sha, f"sha256 {got[:16]}.. (reference {sha[:16]}..)"


def _numbers(obj, prefix=""):
    """(path, value) of every number in a JSON document."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numbers(v, f"{prefix}.{k}" if prefix else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _numbers(v, f"{prefix}[{i}]")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield prefix, float(obj)


def _close(a: float, b: float, abs_tol: float) -> bool:
    return abs(a - b) <= abs_tol + REL_CONST * max(abs(a), abs(b))


def _inside_area(params) -> tuple[int, float]:
    ax = params.axis()
    n_inside = int(np.sum(ax[:, None] ** 2 + ax[None, :] ** 2 <= params.r * params.r))
    cell = ax[1] - ax[0]
    return n_inside, cell * cell


def _compare_constants(got: dict, ref: dict, keys) -> list[str]:
    return [k for k in keys if not _close(float(got[k]), float(ref[k]), 0.0)]


def _compare_error_report(got, ref, params, rep_tols):
    """Squared-L2 errors move by at most 2 tau sqrt(A E) + tau^2 A when every
    inside-disk node moves by at most tau (Cauchy-Schwarz over the disk area A)."""
    bad = _compare_constants(got, ref, ("delta_bound", "term_variance", "term_tail", "term_bias", "m"))
    bad += [f"params.{k}" for k, v in ref["params"].items()
            if (got["params"].get(k) != v if isinstance(v, str)
                else not _close(float(got["params"][k]), float(v), 0.0))]
    n_inside, cell_area = _inside_area(params)
    area = n_inside * cell_area
    errs, ref_errs = got["per_replicate_errors"], ref["per_replicate_errors"]
    if len(errs) != len(ref_errs):
        return False, f"{len(errs)} replicate errors, reference has {len(ref_errs)}"
    bounds = [2.0 * tau * math.sqrt(area * e) + tau * tau * area for tau, e in zip(rep_tols, ref_errs)]
    bad += [f"per_replicate_errors[{i}]" for i, (a, b, d) in enumerate(zip(errs, ref_errs, bounds))
            if not _close(a, b, d)]
    if not _close(got["delta_numeric"], ref["delta_numeric"], float(np.mean(bounds))):
        bad.append("delta_numeric")
    return not bad, (f"disagrees at {bad}" if bad else
                     f"delta_numeric {got['delta_numeric']:.6g} (ref {ref['delta_numeric']:.6g})")


def _compare_witness(got, ref, params, rep_tols, cfg):
    """A witness mean moves by at most pairing * tau * sum|O| dA; av by the
    mean of those, and the population sd by at most their maximum."""
    bad = _compare_constants(got, ref, ("incoherent_ref", "pure_ref"))
    state = catomo.CatState(cfg["alpha1"], cfg["alpha2"])
    ax = params.axis()
    qq, pp = np.meshgrid(ax, ax, indexing="ij")
    inside = qq * qq + pp * pp <= params.r * params.r
    o_mass = float(np.sum(np.abs(catomo.witness_phase_fn(state, qq, pp))[inside])) * (ax[1] - ax[0]) ** 2
    bounds = [catomo.WITNESS_PAIRING * tau * o_mass for tau in rep_tols]
    if len(got["means"]) != len(ref["means"]):
        return False, f"{len(got['means'])} witness means, reference has {len(ref['means'])}"
    bad += [f"means[{i}]" for i, (a, b, d) in enumerate(zip(got["means"], ref["means"], bounds))
            if not _close(a, b, d)]
    d_av, d_sd = float(np.mean(bounds)), max(bounds)
    if not _close(got["av"], ref["av"], d_av):
        bad.append("av")
    if not _close(got["sd"], ref["sd"], d_sd):
        bad.append("sd")
    margin = abs(abs(ref["av"] - ref["incoherent_ref"]) - ref["sd"])
    if margin > d_av + d_sd and got["separated"] != ref["separated"]:
        bad.append("separated")
    return not bad, (f"disagrees at {bad}" if bad else f"av {got['av']:.6g} (ref {ref['av']:.6g})")


def run_checks(cfg: dict, out: str, reference: dict | None) -> list[dict]:
    checker = Checker(cfg, out)
    checker.probe_grids()
    if reference is not None:
        checker.against_reference(reference)
    return checker.results
