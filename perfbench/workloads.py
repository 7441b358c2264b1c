"""One run of one ibcfock benchmark workload, in its own process.

run.py starts this file as a child with PYTHONPATH naming src/ and this
directory, one BLAS thread, and the arguments

    --workload NAME --seed N --seconds S --trace 0|1 --result PATH

The run has three phases:

* setup: build_grid, FockSpace, the operator handles and one cold apply
  of each operator the workload uses (the apply fills the lazy index
  tables).  It is timed around these program calls only; inputs made
  from the seed are generated outside the timer.  Between the passes
  and after the work, the run sets up again with fresh objects until it
  has set up `setups` times (a per-workload constant) and reports the
  median.
* work: passes of the workload while the summed pass time plus half a
  median pass stays below --seconds, so the measured time lands within
  half a pass of --seconds (at least one pass).  Every pass is checked
  against its correctness gate after its timer stops.
* the result: end-to-end metrics and, with --trace 1, the tracer's
  spans, are written to --result as JSON.

wall_s is what a user running the workload once waits for: the startup
(from interpreter start, the first line below, to the end of the first
setup: imports and the cold setup) plus one pass, taken as the median
pass of the run so that the figure rests on the whole work phase.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from ibcfock import analysis, cli, grid, model, ops  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# Memory budget for one workload: half the machine, at most 4 GiB.
BUDGET_BYTES = min(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2,
                   4 * 2**30)
_BYTES_PER_ROW = 256      # one boson multiset: tuple, dict entry, array rows


class OverBudget(RuntimeError):
    """The memory estimate of a workload exceeds BUDGET_BYTES."""


def estimate_bytes(spec, M, n_max, vectors, dense=0):
    """Memory estimate of a FockSpace workload, before anything is built.

    The space keeps one tuple, dict entry and array row per boson
    multiset; the run keeps `vectors` complex vectors of the full
    dimension and `dense` complex matrices of dimension squared.
    Counts come from grid.sector_dimension; a dimension beyond its index
    range is over any budget.
    """
    q = spec.points_per_axis ** spec.d
    try:
        dims = [grid.sector_dimension(q, M, n) for n in range(n_max + 1)]
    except OverflowError:
        return math.inf
    rows = sum(math.comb(q + n - 1, n) for n in range(n_max + 1))
    dim = sum(dims)
    return rows * _BYTES_PER_ROW + 16 * dim * vectors + 16 * dim * dim * dense


class Stopwatch:
    """Context manager that adds the time spent inside it to .total."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._start
        return False


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Flow:
    """analysis.renorm_flow on delta2d, M=1, 8x8 grid, k_max 4, n_max 2.

    Inputs of configs/delta2d_flow.ini and acceptance criterion 3, with
    the three Gaussian probes' random phases drawn from the seed.  One
    pass is 15 resolvent solves (3 reference + 4 cutoffs x 3 probes).
    """

    setups = 15
    unit = "resolvent solve"

    def __init__(self, seed):
        self.seed = seed
        self.model = model.delta2d(g=0.5, M=1)
        self.spec = grid.GridSpec(2, 8, 4.0)
        self.n_max = 2
        self.lambdas = [1.0, 2.0, 3.0, 4.0]
        self.probes = 3
        self.tol = 1e-8

    def estimate(self):
        # GMRES keeps restart + 1 = 81 Krylov vectors, plus working vectors
        return estimate_bytes(self.spec, 1, self.n_max, vectors=100)

    def setup(self, watch):
        with watch:
            space = grid.FockSpace(grid.build_grid(self.spec), 1, self.n_max)
        v = grid.FockVector.random(space, self.seed)
        with watch:
            ops.hamiltonian(self.model, space).apply(v)
            ops.cutoff_hamiltonian(self.model, space, self.lambdas[0]).apply(v)
        k_max = self.spec.k_max
        probes = [analysis.gaussian_probe(space, 0.5 * k_max * (0.6 + 0.4 * j),
                                          sectors=range(2),
                                          seed=self.probes * self.seed + j)
                  for j in range(self.probes)]
        return {"space": space, "probes": probes}

    def items(self, state):
        return len(state["probes"]) * (1 + len(self.lambdas))

    def run_pass(self, state):
        return analysis.renorm_flow(self.model, state["space"], self.lambdas,
                                    probes=state["probes"], tol=self.tol, threads=1)

    def check(self, state, report):
        """Criterion 3: ladder decreasing (1 % slack), final error at
        solver tolerance, every solver residual within tolerance."""
        errs = report.resolvent_errors
        decreasing = bool(np.all(errs[1:] < errs[:-1] * 1.01))
        final = float(errs[-1].max())
        worst_res = float(report.solver_residuals.max())
        ok = decreasing and final <= 10 * self.tol and worst_res <= self.tol
        return ok, {"decreasing": decreasing, "final_error": final,
                    "worst_residual": worst_res}


class Dense:
    """`ibc identity-check` on delta2d_small.ini, in-process via cli.main.

    The config is a pinned copy of configs/delta2d_small.ini (dim 2,448).
    identity-check assembles H, H_cutoff and the off-diagonal contact term
    column by column: 3 x 2,448 one-column applies per pass.
    """

    setups = 25
    unit = "assembled column"
    config = os.path.join(HERE, "delta2d_small.ini")
    assembled = 3      # H, H_cutoff and the off-diagonal term

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.cfg = cli.load_config(self.config, overrides={"seed": seed, "threads": 1})

    def estimate(self):
        # identity-check holds about six dense matrices at once
        return estimate_bytes(self.cfg.grid, self.cfg.model.M, self.cfg.n_max,
                              vectors=12, dense=6)

    def setup(self, watch):
        mdl = self.cfg.model
        with watch:
            space = grid.FockSpace(grid.build_grid(self.cfg.grid), mdl.M,
                                   self.cfg.n_max)
        v = grid.FockVector.random(space, self.seed)
        with watch:
            ops.apply_annihilation(mdl, space, None, v)
            ops.apply_boundary_map(mdl, space, None, v)   # applies a* too
            ops.hamiltonian(mdl, space, self.cfg.mode).apply(v)
            ops.cutoff_hamiltonian(mdl, space).apply(v)
            ops.contact_offdiagonal(mdl, space).apply(v)
        return {"dim": space.total_dim}

    def items(self, state):
        return self.assembled * state["dim"]

    def run_pass(self, state):
        return cli.main(["identity-check", "--config", self.config,
                         "--seed", str(self.seed), "--threads", "1",
                         "--out", self.out_dir])

    def check(self, state, code):
        """Exit code 0 means every defect is within the config's 1e-10."""
        artifacts = [os.path.join(self.out_dir, f"identity_check.{ext}")
                     for ext in ("json", "csv")]
        size = sum(os.path.getsize(p) for p in artifacts if os.path.exists(p))
        return code == 0, {"exit_code": code, "artifact_bytes": size}


class Scan:
    """analysis.regularity_scan on Nelson, ladder 4, 8, 16, 24.

    The seed picks one eta below the Nelson threshold (verdict Cauchy)
    and one above it (Diverging) from pools whose norm tables were
    recorded on the commit that added the benchmark; every eta costs the
    same work.  A pass scans one eta, the two taking turns, so that a
    pass takes about 12 s and the work phase ends close to --seconds.
    The ladder stops at 24 instead of configs/nelson.ini's 32 to keep the
    pass short; the verdicts are the same.
    """

    setups = 41
    unit = "scan cell"
    ladder = [4.0, 8.0, 16.0, 24.0]
    cauchy_etas = [0.2, 0.25, 0.3, 0.35]
    diverging_etas = [0.65, 0.7, 0.75, 0.8]

    def __init__(self, seed):
        self.model = model.nelson(g=1.0, M=1)
        rng = np.random.default_rng(seed)
        self.etas = [float(rng.choice(self.cauchy_etas)),
                     float(rng.choice(self.diverging_etas))]

    def estimate(self):
        # no Fock space: a few (Q, 3) and (Q,) float arrays per scan cell
        q = (2 * int(self.ladder[-1])) ** 3
        return 16 * 8 * q

    def setup(self, watch):
        """The rung grids, built as regularity_scan builds them (h = 1)."""
        with watch:
            for k_max in self.ladder:
                grid.build_grid(grid.GridSpec(3, int(round(2 * k_max)), k_max))
        return {"passes": 0}

    def items(self, state):
        return len(self.ladder)

    def run_pass(self, state):
        eta = self.etas[state["passes"] % len(self.etas)]
        state["passes"] += 1
        return analysis.regularity_scan(self.model, self.ladder, [eta])

    def check(self, state, report):
        """Verdict Cauchy below the threshold and Diverging above it, and
        norms within 1e-12 relative of the reference table."""
        with open(REFERENCE) as fh:
            table = json.load(fh)["scan"]["norms"]
        eta = report.etas[0]
        want = np.array(table[f"{eta:g}"])
        rel = float(np.max(np.abs(report.norm_table[0] - want) / np.abs(want)))
        verdict = "Cauchy" if eta in self.cauchy_etas else "Diverging"
        ok = report.verdicts == [verdict] and rel <= 1e-12
        return ok, {"eta": eta, "verdicts": report.verdicts,
                    "max_rel_dev": rel}


WORKLOADS = ("flow", "dense", "scan")


def make_workload(name, seed, out_dir):
    if name == "flow":
        return Flow(seed)
    if name == "dense":
        return Dense(seed, os.path.join(out_dir, f"dense-seed{seed}"))
    if name == "scan":
        return Scan(seed)
    raise ValueError(f"unknown workload {name!r}")


# --------------------------------------------------------------------------
# the run
# --------------------------------------------------------------------------

def run(wl, seconds, tracer=None):
    """Set up, run passes for `seconds`, check each; returns the record."""
    def phase(name):
        if tracer is not None:
            tracer.phase = name

    est = wl.estimate()
    if est > BUDGET_BYTES:
        raise OverBudget(f"memory estimate {est:.3g} B exceeds the budget "
                         f"{BUDGET_BYTES:.3g} B")

    setup_times = []

    def set_up():
        phase("setup")
        watch = Stopwatch()
        state = wl.setup(watch)
        setup_times.append(watch.total)
        return state

    state = set_up()
    startup_s = time.perf_counter() - T0

    # The further setups (fresh objects, discarded) are spread over the
    # gaps after the passes and the end of the run, so that their median
    # does not rest on one stretch of the machine's speed.
    pass_times, checks = [], []
    per_gap = 0
    while not pass_times or (sum(pass_times) + 0.5 * statistics.median(pass_times)
                             < seconds):
        phase("work")
        start = time.perf_counter()
        out = wl.run_pass(state)
        pass_times.append(time.perf_counter() - start)
        phase("gate")
        ok, detail = wl.check(state, out)
        checks.append({"ok": bool(ok), **detail})
        del out
        gc.collect()
        if not per_gap:
            expected = max(1, round(seconds / pass_times[0]))
            per_gap = math.ceil((wl.setups - 1) / (expected + 1))
        for _ in range(min(per_gap, wl.setups - len(setup_times))):
            set_up()
            gc.collect()
    items = wl.items(state)

    del state
    gc.collect()
    while len(setup_times) < wl.setups:
        set_up()
        gc.collect()
    phase("done")

    failed = sum(items for c in checks if not c["ok"])
    attempted = items * len(checks)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "metrics": {
            "wall_s": startup_s + statistics.median(pass_times),
            "setup_s": statistics.median(setup_times),
            "items_per_s": attempted / sum(pass_times),
            "peak_rss_mb": peak_kb / 1024.0,
            "failed_frac": failed / attempted,
        },
        "attempted": attempted,
        "failed": failed,
        "item": wl.unit,
        "items_per_pass": items,
        "passes": len(pass_times),
        "pass_s": pass_times,
        "setup_times_s": setup_times,
        "startup_s": startup_s,
        "memory_estimate_bytes": est,
        "memory_budget_bytes": BUDGET_BYTES,
        "checks": checks,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    out_dir = os.path.dirname(os.path.abspath(args.result))
    wl = make_workload(args.workload, args.seed, out_dir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        record = run(wl, args.seconds, tracer)
    except OverBudget as exc:
        record = {"refused": str(exc)}
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None and "refused" not in record:
        spans_path = os.path.splitext(args.result)[0] + "-spans.json"
        tracer.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path)
        record["layer_metrics"] = layer_metrics(tracer, record)
    record["software"] = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    with open(args.result, "w") as fh:
        json.dump(record, fh, indent=1)


if __name__ == "__main__":
    main()
