"""Batch front end: config-driven experiment runs with CSV/JSON artifacts.

Configs are INI files with four sections (model/grid/run/output); every
output embeds the resolved configuration, and identical config plus seed
reproduces byte-identical outputs apart from the timestamp field.

Exit codes: 0 success, 1 config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import __version__, analysis, model as model_mod, ops, quad
from .grid import FockSpace, GridSpec, SpaceTooLarge, build_grid

COMMANDS = ("validate", "self-energy", "flow", "scan", "bounds", "spectrum",
            "identity-check")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    model: model_mod.ModelSpec
    grid: GridSpec | None
    n_max: int
    run: dict
    out_dir: str
    formats: tuple
    seed: int = 0
    mode: ops.DiagonalMode = ops.DiagonalMode.GRID_CONSISTENT
    raw: dict = field(default_factory=dict)

    def describe(self):
        return {
            "model": self.model.describe(),
            "grid": None if self.grid is None else {
                "points_per_axis": self.grid.points_per_axis,
                "k_max": self.grid.k_max, "n_max": self.n_max,
            },
            "run": {k: v for k, v in self.run.items()},
            "seed": self.seed,
            "mode": self.mode.value,
            "version": __version__,
        }

    def to_ini(self):
        """Round-trippable INI text of the resolved configuration."""
        cp = configparser.ConfigParser()
        for section, items in self.raw.items():
            cp[section] = {k: str(v) for k, v in items.items()}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


def _number(section, key, conv, default):
    """section[key] converted by conv (int or float), or default when the
    key is absent; a malformed value is a ConfigError naming the key."""
    text = section.get(key)
    if text is None:
        return default
    try:
        return conv(text)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key} = '{text}' is not "
                          f"{'an integer' if conv is int else 'a number'}") from None


def _floats(text, where="list"):
    try:
        return [float(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"{where} = '{text}' is not a list of numbers") from None


def _parse_model(section):
    kind = section.get("kind", "").strip().lower()
    g = _number(section, "g", float, 1.0)
    m = _number(section, "m", int, 1)
    if kind == "froehlich":
        return model_mod.froehlich(g=g, M=m)
    if kind == "nelson":
        return model_mod.nelson(g=g, M=m)
    if kind == "delta2d":
        return model_mod.delta2d(g=g, M=m)
    if kind == "power_law":
        for key in ("d", "alpha", "beta"):
            if key not in section:
                raise ConfigError(f"[model] power_law needs '{key}'")
        try:
            return model_mod.power_law_model(_number(section, "d", int, None),
                                             _number(section, "alpha", float, None),
                                             _number(section, "beta", float, None),
                                             g=g, M=m)
        except ValueError as exc:
            raise ConfigError(f"[model] {exc}") from exc
    raise ConfigError(f"[model] unknown kind '{kind}' "
                      "(froehlich | nelson | delta2d | power_law)")


def load_config(path, overrides=None):
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "model" not in cp:
        raise ConfigError("missing [model] section")
    mdl = _parse_model(cp["model"])

    grid_spec, n_max = None, 0
    if "grid" in cp:
        gsec = cp["grid"]
        d = _number(gsec, "d", int, mdl.d)
        if d != mdl.d:
            raise ConfigError(f"[grid] d = {d} contradicts model.d = {mdl.d}")
        points = _number(gsec, "points_per_axis", int, 4)
        k_max = _number(gsec, "k_max", float, 2.0)
        try:
            grid_spec = GridSpec(mdl.d, points, k_max)
        except ValueError as exc:
            raise ConfigError(f"[grid] {exc}") from exc
        n_max = _number(gsec, "n_max", int, 2)
        if n_max < 0:
            raise ConfigError("[grid] n_max must be >= 0")

    run = dict(cp["run"]) if "run" in cp else {}
    for key in ("tol", "probe_width"):
        if key in run and not 0 < _number(cp["run"], key, float, None) < float("inf"):
            raise ConfigError(f"[run] {key} = {run[key]} must be finite and positive")
    if "run" in cp:      # the keys only the commands read, checked here too
        for key, conv in (("probes", int), ("eigenvalues", int), ("probe_seed", int),
                          ("cauchy_tol", float), ("growth_threshold", float)):
            _number(cp["run"], key, conv, None)
        for key in ("eigenvalues", "probes"):
            if _number(cp["run"], key, int, 1) < 1:
                raise ConfigError(f"[run] {key} = {run[key]} must be >= 1")
        if run.get("points_per_unit"):
            _number(cp["run"], "points_per_unit", float, None)
    lists = {key: _floats(run[key], f"[run] {key}")
             for key in ("lambdas", "etas", "ladder", "thetas", "p_values") if key in run}
    if not all(0 <= lam < float("inf") for lam in lists.get("lambdas", [])):
        raise ConfigError(f"[run] lambdas = {run['lambdas']} must be finite and >= 0")
    if not all(math.isfinite(eta) for eta in lists.get("etas", [])):
        raise ConfigError(f"[run] etas = {run['etas']} must be finite")
    if grid_spec is not None and "lambdas" in lists:
        lams = lists["lambdas"]
        if not lams:
            raise ConfigError("[run] lambdas must not be empty")
        if any(l > grid_spec.k_max for l in lams):
            raise ConfigError("[run] lambda values must be <= k_max")

    out = cp["output"] if "output" in cp else {}
    out_dir = out.get("dir", "out")
    formats = tuple(f.strip() for f in out.get("formats", "csv,json").split(","))

    mode_txt = run.get("mode", "grid")
    overrides = overrides or {}
    if overrides.get("mode"):
        mode_txt = overrides["mode"]
    if mode_txt not in ("grid", "continuum"):
        raise ConfigError(f"[run] mode must be grid or continuum, got '{mode_txt}'")
    mode = (ops.DiagonalMode.GRID_CONSISTENT if mode_txt == "grid"
            else ops.DiagonalMode.CONTINUUM)

    ov_seed = overrides.get("seed")
    seed = int(ov_seed if ov_seed is not None else run.get("probe_seed", 0))
    if overrides.get("out"):
        out_dir = overrides["out"]

    raw = {s: dict(cp[s]) for s in cp.sections()}
    return RunConfig(model=mdl, grid=grid_spec, n_max=n_max, run=run,
                     out_dir=out_dir, formats=formats, seed=seed, mode=mode, raw=raw)


def _write(cfg, name, json_text=None, csv_text=None):
    os.makedirs(cfg.out_dir, exist_ok=True)
    paths = []
    if json_text is not None and "json" in cfg.formats:
        p = os.path.join(cfg.out_dir, f"{name}.json")
        with open(p, "w") as fh:
            fh.write(json_text)
        paths.append(p)
    if csv_text is not None and "csv" in cfg.formats:
        p = os.path.join(cfg.out_dir, f"{name}.csv")
        with open(p, "w") as fh:
            fh.write("# config: " + json.dumps(cfg.describe(), sort_keys=True) + "\n")
            fh.write(csv_text)
        paths.append(p)
    return paths


def _wrap_json(cfg, payload):
    payload = dict(payload)
    payload["resolved_config"] = cfg.describe()
    payload["config_ini"] = cfg.to_ini()
    payload["timestamp"] = time.time()
    return json.dumps(payload, sort_keys=True)


def _fmt(x):
    return f"{x:.11e}"


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_validate(cfg):
    mdl = cfg.model
    info = mdl.describe()
    line = (f"{'Renormalisable' if mdl.is_renormalisable else 'FormPerturbation'}, "
            f"D={mdl.D:g}, eta_threshold={info['eta_threshold']:g}")
    if mdl.is_renormalisable:
        params = model_mod.select_regularity_params(mdl)
        info["regularity_params"] = {
            "s": params.s, "sigma": params.sigma, "eps": params.eps,
            "S1": params.S1, "S2": "inf" if params.S2 == float("inf") else params.S2,
            "delta1": params.delta1, "delta2": params.delta2,
        }
        line += (f", S1={params.S1:g}, "
                 f"S2={'inf' if params.S2 == float('inf') else f'{params.S2:g}'}")
    print(line)
    _write(cfg, "validate", json_text=_wrap_json(cfg, {"report": "validate", **info}))
    return 0


def cmd_self_energy(cfg):
    lams = _floats(cfg.run.get("lambdas", "1 2 4 8 16"))
    tol = float(cfg.run.get("tol", 1e-8))
    rows = [(lam, model_mod.self_energy(cfg.model, lam, tol)) for lam in lams]
    csv_text = "lambda,e_lambda\n" + "\n".join(
        f"{_fmt(l)},{_fmt(e)}" for l, e in rows) + "\n"
    payload = {"report": "self_energy", "lambdas": [r[0] for r in rows],
               "e_values": [r[1] for r in rows], "tol": tol}
    for l, e in rows:
        print(f"E({l:g}) = {e:.10g}")
    _write(cfg, "self_energy", json_text=_wrap_json(cfg, payload), csv_text=csv_text)
    return 0


def _require_grid(cfg):
    if cfg.grid is None:
        raise ConfigError("this command needs a [grid] section")
    return FockSpace(build_grid(cfg.grid), cfg.model.M, cfg.n_max)


def cmd_flow(cfg):
    if not cfg.model.is_renormalisable:
        raise ConfigError(f"[model] flow needs a renormalisable model, "
                          f"got the {cfg.model.case.value} case")
    space = _require_grid(cfg)
    if "lambdas" not in cfg.run:
        raise ConfigError("[run] flow needs a lambdas list")
    lams = _floats(cfg.run["lambdas"])
    tol = float(cfg.run.get("tol", 1e-8))
    probes = int(cfg.run.get("probes", 3))
    report = analysis.renorm_flow(cfg.model, space, lams, probes=probes, tol=tol)
    for j, lam in enumerate(report.lambdas):
        lam_txt = "full_grid" if lam is None else f"{lam:g}"
        print(f"lambda={lam_txt}: errors " +
              " ".join(f"{e:.3e}" for e in report.resolvent_errors[j]))
    _write(cfg, "flow", json_text=_wrap_json(cfg, json.loads(report.to_json())),
           csv_text=report.to_csv())
    return 0


def _check_ladder(ladder, points_per_unit):
    """ConfigError unless the cutoff ladder is a nonempty, strictly
    increasing list of positive rungs whose first rung has at least 2
    grid points per axis at points_per_unit."""
    if not ladder:
        raise ConfigError("[run] ladder must not be empty")
    if not all(0 < k < float("inf") for k in ladder):
        raise ConfigError(f"[run] ladder rungs must be positive, got {ladder}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"[run] ladder must be strictly increasing, got {ladder}")
    if 2 * ladder[0] * points_per_unit < 1:
        raise ConfigError(f"[run] ladder rung {ladder[0]:g} gives fewer than 2 points "
                          f"per axis at {points_per_unit:g} points per unit")


def cmd_scan(cfg):
    if cfg.model.M != 1:
        raise ConfigError(f"[model] scan supports m = 1 only, got m = {cfg.model.M}")
    ladder = _floats(cfg.run.get("ladder", "4 8 16 32"))
    ppu = cfg.run.get("points_per_unit")
    ppu = float(ppu) if ppu else None
    if ppu is not None and not 0 < ppu < float("inf"):
        raise ConfigError(f"[run] points_per_unit must be positive, got {ppu:g}")
    _check_ladder(ladder, ppu or 1.0)
    etas = _floats(cfg.run.get("etas", ""))
    if not etas:
        raise ConfigError("[run] scan needs an etas list")
    width = float(cfg.run.get("probe_width", 1.0))
    # verdict thresholds have their own keys; `tol` stays a solver knob
    cauchy_tol = float(cfg.run.get("cauchy_tol", 0.03))
    growth = float(cfg.run.get("growth_threshold", 0.05))
    report = analysis.regularity_scan(cfg.model, ladder, etas, probe_width=width,
                                      tol=cauchy_tol, growth_threshold=growth,
                                      points_per_unit=ppu)
    for eta, verdict in zip(report.etas, report.verdicts):
        print(f"eta={eta:g}: {verdict}")
    _write(cfg, "scan", json_text=_wrap_json(cfg, json.loads(report.to_json())),
           csv_text=report.to_csv())
    return 0


def cmd_bounds(cfg):
    d = cfg.model.d
    if d == 3:
        thetas = _floats(cfg.run.get("thetas", "1.5 2 2.5"))
        p_values = _floats(cfg.run.get("p_values", "")) or list(
            np.logspace(-1, 3, 9))
    elif d == 2:
        thetas = [int(t) for t in _floats(cfg.run.get("thetas", "1 2"))]
        p_values = _floats(cfg.run.get("p_values", "")) or [1., 4., 16., 64., 256.]
    else:
        raise ConfigError("bound sweeps need a d = 2 or d = 3 model")
    tol = float(cfg.run.get("tol", 1e-6))
    rows = quad.bound_sweep(d, p_values, thetas, tol)
    csv_text = "p,theta,integral,ratio\n" + "\n".join(
        f"{_fmt(p)},{t:g},{_fmt(i)},{_fmt(r)}" for p, t, i, r in rows) + "\n"
    sup = max(r[3] for r in rows)
    print(f"bound sweep: {len(rows)} cells, empirical sup ratio = {sup:.6g}")
    payload = {"report": "bound_sweep", "d": d,
               "rows": [[p, t, i, r] for p, t, i, r in rows],
               "empirical_sup": sup}
    _write(cfg, "bounds", json_text=_wrap_json(cfg, payload), csv_text=csv_text)
    return 0


def cmd_spectrum(cfg):
    k = int(cfg.run.get("eigenvalues", 1))
    ladder = _floats(cfg.run.get("ladder", ""))
    rows = []
    if ladder:
        base = cfg.grid or GridSpec(cfg.model.d, 4, 2.0)
        ppu = base.points_per_axis / (2.0 * base.k_max)
        _check_ladder(ladder, ppu)
        for k_max in ladder:
            points = int(round(2 * k_max * ppu))
            points += points % 2
            space = FockSpace(build_grid(GridSpec(cfg.model.d, points, k_max)),
                              cfg.model.M, cfg.n_max)
            vals = analysis.ground_energy(cfg.model, space, cfg.mode, k)
            rows.append((k_max, vals))
    else:
        space = _require_grid(cfg)
        vals = analysis.ground_energy(cfg.model, space, cfg.mode, k)
        rows.append((cfg.grid.k_max, vals))
    csv_text = "k_max," + ",".join(f"e{j}" for j in range(k)) + "\n" + "\n".join(
        f"{_fmt(km)}," + ",".join(_fmt(v) for v in vals) for km, vals in rows) + "\n"
    for km, vals in rows:
        print(f"k_max={km:g}: " + " ".join(f"{v:.10g}" for v in vals))
    payload = {"report": "spectrum",
               "rows": [{"k_max": km, "eigenvalues": vals} for km, vals in rows]}
    _write(cfg, "spectrum", json_text=_wrap_json(cfg, payload), csv_text=csv_text)
    return 0


def cmd_identity_check(cfg):
    space = _require_grid(cfg)
    mdl = cfg.model
    rng_seed = cfg.seed
    from .grid import FockVector
    phi = FockVector.random(space, rng_seed)
    psi = FockVector.random(space, rng_seed + 1)

    lhs = phi.inner(ops.apply_annihilation(mdl, space, None, psi))
    rhs = ops.apply_creation(mdl, space, None, phi).inner(psi)
    scale = max(phi.norm() * psi.norm(), 1.0)
    defects = {"adjointness": abs(lhs - rhs) / scale}

    bmap = ops.apply_boundary_map(mdl, space, None, psi)
    alt = -mdl.g * ops.free_multiplier(mdl, space, -1.0).apply(
        ops.apply_creation(mdl, space, None, psi))
    defects["boundary_map_factorization"] = (bmap - alt).norm() / max(psi.norm(), 1.0)

    h = ops.hamiltonian(mdl, space, cfg.mode).matrix
    defects["hermiticity"] = float(abs(h - h.T).max())
    if mdl.is_renormalisable and cfg.mode is ops.DiagonalMode.GRID_CONSISTENT:
        hl = ops.cutoff_hamiltonian(mdl, space).matrix
        e = ops.counterterm_grid(mdl, space, None)
        defects["headline_identity"] = float(
            abs(h - hl - e * sp.eye_array(space.total_dim)).max())
        t = ops.contact_offdiagonal(mdl, space).matrix
        defects["offdiagonal_hermiticity"] = float(abs(t - t.T).max())

    tol = float(cfg.run.get("tol", 1e-10))
    worst = max(defects.values())
    for name, val in sorted(defects.items()):
        print(f"{name}: {val:.3e}")
    payload = {"report": "identity_check", "defects": defects, "tol": tol}
    csv_text = "check,defect\n" + "\n".join(
        f"{k},{_fmt(v)}" for k, v in sorted(defects.items())) + "\n"
    _write(cfg, "identity_check", json_text=_wrap_json(cfg, payload), csv_text=csv_text)
    if worst > tol:
        print(f"identity check FAILED: worst defect {worst:.3e} > {tol:g}",
              file=sys.stderr)
        return 2
    print(f"identity check passed: worst defect {worst:.3e} <= {tol:g}")
    return 0


_DISPATCH = {
    "validate": cmd_validate,
    "self-energy": cmd_self_energy,
    "flow": cmd_flow,
    "scan": cmd_scan,
    "bounds": cmd_bounds,
    "spectrum": cmd_spectrum,
    "identity-check": cmd_identity_check,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ibc",
        description="Boundary-condition Hamiltonians on truncated Fock spaces",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", help="output directory (overrides [output] dir)")
    parser.add_argument("--seed", type=int, help="probe seed (overrides [run])")
    parser.add_argument("--threads", type=int,
                        help="accepted and ignored")
    parser.add_argument("--mode", choices=("grid", "continuum"),
                        help="diagonal contact-term mode")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, overrides={
            "out": args.out, "seed": args.seed, "mode": args.mode,
        })
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        return _DISPATCH[args.command](cfg)
    except (ConfigError, SpaceTooLarge) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (analysis.NoConvergence, quad.QuadratureFailure) as exc:
        print(f"numerical failure in '{args.command}': {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
