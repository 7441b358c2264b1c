"""Per-layer metrics of one traced run, computed from the tracer's spans.

Conventions (see README.md for the full table):

* "per pass" figures sum the work phase and divide by the number of
  passes, so runs with different pass counts compare;
* apply_ms is the mean inclusive duration of one apply in the work
  phase (cold applies happen in setup and are left out);
* build figures (space_build_s, diag.build_s) are means per call or per
  setup over the whole run;
* a layer a workload never calls reports 0.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import COUNTED, OPS_APPLY, OPS_HANDLES, SOLVE_OPERATORS

APPLY_LAYERS = (*OPS_HANDLES, *OPS_APPLY)


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(tracer, record):
    spans = tracer.spans
    selfs = tracer.self_times()
    passes = record["passes"]
    setups = len(record["setup_times_s"])

    by_name = defaultdict(list)          # (name, phase) -> [span index]
    for i, s in enumerate(spans):
        by_name[(s[2], s[5])].append(i)
        by_name[(s[2], "*")].append(i)

    def dur(i):
        return spans[i][4] - spans[i][3]

    def total(name, phase="work", self_time=False):
        return sum(selfs[i] if self_time else dur(i) for i in by_name[(name, phase)])

    m = {}
    # grid
    m["grid.space_build_s"] = (total("grid.build_grid", "setup")
                               + total("grid.FockSpace", "setup")) / setups
    for name in COUNTED:
        work = tracer.counts.get((name, "work"), [0, 0])
        calls = sum(c for (n, _p), (c, _h) in tracer.counts.items() if n == name)
        hits = sum(h for (n, _p), (_c, h) in tracer.counts.items() if n == name)
        m[f"{name}.calls"] = work[0] / passes
        m[f"{name}.hit_ratio"] = hits / calls if calls else 0.0
    m["grid.flatten_s"] = total("grid.flatten") / passes
    m["grid.unflatten_s"] = total("grid.unflatten") / passes

    # ops
    for layer in APPLY_LAYERS:
        idx = by_name[(layer + ".apply", "work")]
        m[f"{layer}.calls"] = len(idx) / passes
        m[f"{layer}.apply_ms"] = 1e3 * _mean([dur(i) for i in idx])
    m["ops.assemble_dense_s"] = total("ops.assemble_dense") / passes
    m["ops.diag.build_s"] = _mean([dur(i) for i in by_name[("ops.diag.build", "*")]])
    m["ops.hamiltonian.computed_bytes"] = _computed_bytes(
        spans, by_name[("ops.hamiltonian.apply", "work")])

    # analysis
    gm = by_name[("analysis.gmres", "work")]
    m["analysis.gmres_iters"] = _mean([spans[i][6]["iters"] for i in gm])
    m["analysis.matvecs_per_solve"] = _matvecs_per_solve(spans)
    m["analysis.gmres_self_s"] = total("analysis.gmres", self_time=True) / passes
    m["analysis.scan_s"] = total("analysis.regularity_scan") / passes
    cells = by_name[("analysis.scan_cell", "work")]
    cell_time = sum(dur(i) for i in cells)
    m["analysis.scan_terms_per_s"] = (
        sum(spans[i][6]["terms"] for i in cells) / cell_time if cells else 0.0)

    # quad / model
    m["model.self_energy.calls"] = len(by_name[("model.self_energy", "work")]) / passes
    m["model.self_energy_s"] = total("model.self_energy") / passes

    # cli
    m["cli.main_self_s"] = total("cli.main", self_time=True) / passes
    m["cli.artifact_bytes"] = float(record["checks"][-1].get("artifact_bytes", 0))
    return m


def _computed_bytes(spans, h_idx):
    """Mean over H applies of the operand bytes (FockVector read plus
    FockVector written) of the apply and every traced apply inside it.
    Computed from array sizes, not measured traffic."""
    if not h_idx:
        return 0.0
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s[0])
    totals = []
    for root in h_idx:
        acc, todo = 0, [root]
        while todo:
            sid = todo.pop()
            attrs = spans[sid][6]
            acc += attrs.get("bytes", 0) if attrs else 0
            todo.extend(children[sid])
        totals.append(acc)
    return _mean(totals)


def _matvecs_per_solve(spans):
    """Operator applies whose nearest resolvent_solve ancestor is in the
    work phase, per such solve."""
    solves = {s[0] for s in spans
              if s[2] == "analysis.resolvent_solve" and s[5] == "work"}
    if not solves:
        return 0.0
    count = 0
    for s in spans:
        if s[2] not in SOLVE_OPERATORS:
            continue
        parent = s[1]
        while parent is not None and spans[parent][2] != "analysis.resolvent_solve":
            parent = spans[parent][1]
        if parent in solves:
            count += 1
    return count / len(solves)
