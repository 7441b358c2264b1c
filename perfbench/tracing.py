"""Outside-in layer tracing for the ibcfock benchmark.

The tracer replaces public functions of the ibcfock modules with thin
wrappers from this file; nothing under src/ is edited.  Each wrapped call
becomes a span (name, start, end, parent span, benchmark phase).  Spans
stay in memory and are written out, with their self times, when the
traced run ends.

The FockSpace index methods (insert_map, source_shift) run about a
million times in one flow pass, and a timing wrapper on each call
lengthened that pass by about 30 % in a prototype.  They are therefore
counted only: calls, and hits (arguments seen before on the same space,
which is exactly when the memoized method returns a stored table).  The
cost of those counting wrappers lands in the self time of the enclosing
span and in trace.overhead_s.
"""

from __future__ import annotations

import functools
import json
import time
import weakref

from ibcfock import analysis, cli, grid, model, ops

_clock = time.perf_counter

# Operator applies: benchmark name -> ops module function.
OPS_APPLY = {
    "ops.a": "apply_annihilation",
    "ops.astar": "apply_creation",
    "ops.B": "apply_boundary_map",
    "ops.Bstar": "apply_boundary_map_adjoint",
    "ops.offdiag": "apply_contact_offdiagonal",
}
# Handle factories whose returned handle's apply is traced:
# benchmark name -> (ops function, span name of the factory call).
OPS_HANDLES = {
    "ops.hamiltonian": ("hamiltonian", "ops.hamiltonian.build"),
    "ops.cutoff_hamiltonian": ("cutoff_hamiltonian", "ops.cutoff_hamiltonian.build"),
    "ops.diag": ("contact_diagonal", "ops.diag.build"),
}
# The operators a resolvent solve applies once per matvec.
SOLVE_OPERATORS = ("ops.hamiltonian.apply", "ops.cutoff_hamiltonian.apply")
COUNTED = ("grid.insert_map", "grid.source_shift")


def _vector_bytes(v):
    sectors = getattr(v, "sectors", None)
    return sum(s.nbytes for s in sectors) if sectors is not None else 0


class Tracer:
    """Span recorder that patches ibcfock module attributes.

    A span is the list [id, parent id or None, name, start, end, phase,
    attrs]; phase is the benchmark phase (setup, work, gate) current
    when the span started.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}                 # (name, phase) -> [calls, hits]
        self.phase = "init"
        self._stack = []
        self._undo = []
        self._seen = {name: weakref.WeakKeyDictionary() for name in COUNTED}

    # --- recording ---------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        rec = [len(self.spans), parent, name, _clock(), None, self.phase, None]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec):
        rec[4] = _clock()
        self._stack.pop()

    def timed(self, name, fn, operand_bytes=False):
        """Wrap fn so each call records a span; with operand_bytes, the
        span also records the bytes of the FockVector it reads and the
        one it returns."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if operand_bytes:
                rec[6] = {"bytes": _vector_bytes(args[-1]) + _vector_bytes(out)}
            return out
        return wrapper

    def _counted(self, name, fn):
        seen = self._seen[name]
        last = [None, None]              # the last space and its key set

        @functools.wraps(fn)
        def wrapper(space, *args):
            out = fn(space, *args)
            tally = self.counts.setdefault((name, self.phase), [0, 0])
            tally[0] += 1
            if space is not last[0]:
                last[0], last[1] = space, seen.setdefault(space, set())
            if args in last[1]:
                tally[1] += 1
            else:
                last[1].add(args)
            return out
        return wrapper

    # --- patching ----------------------------------------------------
    def _patch(self, owner, attr, make):
        raw = owner.__dict__[attr]
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def _handle_factory(self, build_name, apply_name, fn):
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            rec = self._open(build_name)
            try:
                handle = fn(*args, **kwargs)
            finally:
                self._close(rec)
            handle.apply = self.timed(apply_name, handle.apply, operand_bytes=True)
            return handle
        return factory

    def install(self):
        """Wrap every traced entry point; undo with uninstall()."""
        build_grid = self.timed("grid.build_grid", grid.build_grid)
        for mod in (grid, analysis, cli):
            self._patch(mod, "build_grid", lambda _fn: build_grid)
        self._patch(grid.FockSpace, "__init__",
                    lambda fn: self.timed("grid.FockSpace", fn))
        self._patch(grid.FockSpace, "insert_map",
                    lambda fn: self._counted("grid.insert_map", fn))
        self._patch(grid.FockSpace, "source_shift",
                    lambda fn: self._counted("grid.source_shift", fn))
        self._patch(grid.FockVector, "flatten",
                    lambda fn: self.timed("grid.flatten", fn))
        self._patch(grid.FockVector, "unflatten",
                    lambda fn: self.timed("grid.unflatten", fn))

        for name, attr in OPS_APPLY.items():
            self._patch(ops, attr, lambda fn, n=name: self.timed(
                n + ".apply", fn, operand_bytes=True))
        for name, (attr, build_name) in OPS_HANDLES.items():
            self._patch(ops, attr, lambda fn, n=name, b=build_name:
                        self._handle_factory(b, n + ".apply", fn))
        self._patch(ops, "assemble_dense",
                    lambda fn: self.timed("ops.assemble_dense", fn))

        self._patch(analysis, "resolvent_solve",
                    lambda fn: self.timed("analysis.resolvent_solve", fn))
        self._patch(analysis, "gmres", self._gmres)
        self._patch(analysis, "regularity_scan",
                    lambda fn: self.timed("analysis.regularity_scan", fn))
        self._patch(analysis, "_scan_norm_squared", self._scan_norm)
        self._patch(model, "self_energy",
                    lambda fn: self.timed("model.self_energy", fn))
        self._patch(cli, "main", lambda fn: self.timed("cli.main", fn))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _gmres(self, fn):
        """GMRES span that also counts the solver's iterations."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iters = 0
            inner = kwargs.get("callback")

            def callback(x):
                nonlocal iters
                iters += 1
                if inner is not None:
                    inner(x)

            kwargs["callback"] = callback
            rec = self._open("analysis.gmres")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                rec[6] = {"iters": iters}
        return wrapper

    def _scan_norm(self, fn):
        """Scan-cell span that records the size of its double sum."""
        @functools.wraps(fn)
        def wrapper(mdl, grd, eta, probe_q, probe_vals):
            rec = self._open("analysis.scan_cell")
            try:
                return fn(mdl, grd, eta, probe_q, probe_vals)
            finally:
                self._close(rec)
                rec[6] = {"terms": len(probe_q) * grd.n_nodes}
        return wrapper

    # --- output ------------------------------------------------------
    def self_times(self):
        """Self time of each span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for sid, parent, _n, start, end, _p, _a in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[4] - s[3] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        selfs = self.self_times()
        payload = {
            "fields": ["id", "parent", "name", "start_s", "end_s", "self_s",
                       "phase", "attrs"],
            "spans": [[sid, parent, name, start, end, st, phase, attrs]
                      for (sid, parent, name, start, end, phase, attrs), st
                      in zip(self.spans, selfs)],
            "counts": [{"name": n, "phase": p, "calls": c, "hits": h}
                       for (n, p), (c, h) in sorted(self.counts.items())],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
