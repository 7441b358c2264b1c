"""Experiment drivers: renormalization flow, regularity scans, spectra, bounds.

Each driver turns one of the structural statements about the
interior-boundary-condition Hamiltonian into a desk-scale numerical
check and returns a structured report that serializes to JSON and CSV
with the full configuration embedded.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
# scipy.sparse.linalg is imported inside the functions that solve, so a
# command that solves nothing never loads SuperLU or ARPACK

from . import __version__, ops
from . import model as model_mod
from .grid import FockVector, GridSpec, SpaceTooLarge, build_grid

__all__ = [
    "NoConvergence",
    "resolvent_solve",
    "gaussian_probe",
    "RenormFlowReport",
    "renorm_flow",
    "RegularityReport",
    "regularity_scan",
    "sector_norm_estimate",
    "fit_growth_exponent",
    "ground_energy",
    "number_bound_check",
]


def gmres(*args, **kwargs):
    """scipy's GMRES; no solver here calls it, perfbench/tracing.py wraps it by name."""
    from scipy.sparse.linalg import gmres
    return gmres(*args, **kwargs)


class NoConvergence(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


# --------------------------------------------------------------------------
# resolvent solver
# --------------------------------------------------------------------------

def resolvent_solve(op, z, psis, tol=1e-8):
    """Solve (op + z) x = psi for every psi in psis with one sparse LU.

    op must be hermitian and Im z nonzero.  The block of op.matrix on the
    top sector n_max is diagonal, d_t (its kernels would pass through
    sector n_max + 1), so the top sector is eliminated exactly: SuperLU
    factors S = A_ll + z - A_lt diag(1 / (d_t + z)) A_lt^T on the sectors
    below n_max, and the top sector follows by one diagonal division.  A
    top block that is not diagonal raises ValueError; an LU over
    ops.ASSEMBLY_BUDGET_BYTES is refused with SpaceTooLarge before it is
    computed.  Returns the solutions as FockVectors and their true
    residuals ||(op + z) x - psi||, each <= tol ||psi|| (else NoConvergence).
    """
    if not op.selfadjoint_claim:
        raise ValueError("resolvent_solve expects a hermitian operator handle")
    if z.imag == 0:
        raise ValueError("shift must have nonzero imaginary part")
    space, mat, n = op.space, op.matrix, op.space.total_dim
    top = n - space.dims[-1]                    # first flat index of sector n_max
    cols, ptr = mat.indices[mat.indptr[top]:], mat.indptr[top:]
    if np.any((cols >= top) & (cols != np.repeat(np.arange(top, n), np.diff(ptr)))):
        raise ValueError("the top-sector block of the operator is not diagonal")
    d_t = (mat.diagonal()[top:] + z)[:, None]

    b = np.empty((n, len(psis)), dtype=complex)
    for j, psi in enumerate(psis):
        b[:, j] = psi.flatten()
    x = np.empty_like(b)
    x[top:] = b[top:] / d_t
    if top:
        a_lt = mat[:top, top:]                  # A_tl = A_lt^T: the matrix is symmetric
        schur = sp.csc_array(mat[:top, :top] + z * sp.eye_array(top)
                             - a_lt @ sp.diags_array(1.0 / d_t[:, 0]) @ a_lt.T)
        # allow 12 LU entries per entry of S, above the largest fill measured
        # (9.7), of 24 bytes each: a complex128 value and its index
        need = schur.nnz * 12 * 24
        if need > ops.ASSEMBLY_BUDGET_BYTES:
            raise SpaceTooLarge(f"the sparse LU of a Schur complement with {schur.nnz} "
                                f"entries needs about {need / 2**30:.3g} GiB, over the "
                                f"limit of {ops.ASSEMBLY_BUDGET_BYTES / 2**30:.3g} GiB")
        from scipy.sparse.linalg import splu
        x[:top] = splu(schur, permc_spec="MMD_AT_PLUS_A").solve(
            b[:top] - ops.matvec(a_lt, x[top:]))
        x[top:] -= ops.matvec(a_lt.T, x[:top]) / d_t

    res = np.linalg.norm(ops.matvec(mat, x) + z * x - b, axis=0)
    target = tol * np.linalg.norm(b, axis=0)
    if np.any(res > target):
        j = int(np.argmax(res > target))
        raise NoConvergence(f"resolvent solve of right-hand side {j} reached residual "
                            f"{res[j]:.3e} (target {target[j]:.3e})", residual=res[j])
    return [FockVector.unflatten(space, x[:, j]) for j in range(len(psis))], res


# --------------------------------------------------------------------------
# probes
# --------------------------------------------------------------------------

def gaussian_probe(space, width=1.0, sectors=(0,), seed=None):
    """Smooth normalized probe with Gaussian momentum profile.

    Coefficients are exp(-(P^2 + sum k_j^2)/(2 width^2)) on the requested
    sectors; with a seed, deterministic random phases are applied so a
    family of probes spans more of the space.
    """
    v = FockVector.zero(space)
    norms2 = space.grid.norms**2
    rng = np.random.default_rng(seed) if seed is not None else None
    for n in sectors:
        if n > space.n_max:
            continue
        ksq = norms2[space.msets[n]].sum(axis=1) if n else np.zeros(1)
        prof = np.exp(-(space.psq[:, None] + ksq[None, :]) / (2.0 * width**2))
        if rng is not None:
            prof = prof * np.exp(2j * np.pi * rng.random(prof.shape))
        v.sectors[n] = prof.astype(complex)
    nrm = v.norm()
    if nrm == 0.0:
        raise ValueError("probe vanished; widen the profile")
    return (1.0 / nrm) * v


# --------------------------------------------------------------------------
# renormalization flow
# --------------------------------------------------------------------------

@dataclass
class RenormFlowReport:
    lambdas: list
    e_grid: list
    e_continuum: list
    probe_ids: list
    resolvent_errors: np.ndarray      # (n_lambda, n_probe)
    solver_residuals: np.ndarray
    tol: float
    model: dict
    grid: dict
    timestamp: float = field(default_factory=time.time)
    version: str = __version__

    def to_json(self):
        payload = {
            "report": "renorm_flow",
            "version": self.version,
            "timestamp": self.timestamp,
            "model": self.model,
            "grid": self.grid,
            "tol": self.tol,
            "lambdas": ["full_grid" if l is None else l for l in self.lambdas],
            "e_grid": self.e_grid,
            "e_continuum": self.e_continuum,
            "probe_ids": self.probe_ids,
            "resolvent_errors": self.resolvent_errors.tolist(),
            "solver_residuals": self.solver_residuals.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    def to_csv(self):
        lines = ["lambda,e_grid,e_continuum," + ",".join(
            f"err_{p}" for p in self.probe_ids)]
        for j, lam in enumerate(self.lambdas):
            lam_txt = "full_grid" if lam is None else f"{lam:.11e}"
            errs = ",".join(f"{e:.11e}" for e in self.resolvent_errors[j])
            lines.append(f"{lam_txt},{self.e_grid[j]:.11e},{self.e_continuum[j]:.11e},{errs}")
        return "\n".join(lines) + "\n"


def renorm_flow(model, space, lambdas, probes=3, tol=1e-8, probe_width=None,
                threads=1):
    """Strong-resolvent convergence check along a cutoff ladder.

    For each cutoff the shifted regularized Hamiltonian (cutoff
    Hamiltonian plus grid counterterm) and the cutoff-free reference (the
    boundary-condition Hamiltonian in grid-consistent mode on the full
    grid) are both applied to fixed probe vectors through their
    resolvents at z = i, and the differences are recorded.

    A ladder value >= k_max (or None) saturates to the full grid: on the
    finite box the full node set is the ultraviolet completion, and there
    the reference is reproduced exactly up to solver tolerance.

    One factorization per operator solves every probe, so the flow has no
    independent cells and `threads` is ignored.
    """
    if not model.is_renormalisable:
        raise ValueError("the renormalization flow needs a renormalisable model")
    k_max = space.grid.spec.k_max
    lams = [None if (lam is None or lam >= k_max) else float(lam) for lam in lambdas]

    if isinstance(probes, int):
        width = probe_width or 0.5 * k_max
        probes = [gaussian_probe(space, width * (0.6 + 0.4 * j),
                                 sectors=range(min(2, space.n_max + 1)), seed=j)
                  for j in range(probes)]
    probe_ids = [f"probe{j}" for j in range(len(probes))]

    # Each operator is dropped before the next is built, and its solutions
    # live only inside one helper call, so that the run never holds two
    # operators or two sets of solutions at once.
    refs, _ = resolvent_solve(
        ops.hamiltonian(model, space, ops.DiagonalMode.GRID_CONSISTENT, None),
        1j, probes, tol)

    e_grid, e_cont, rows, residuals = [], [], [], []
    for lam in lams:
        e = ops.counterterm_grid(model, space, lam)
        e_grid.append(e)
        e_cont.append(model_mod.self_energy(
            model, lam if lam is not None else _grid_radius(space.grid)))
        errs, ress = _cutoff_errors(
            ops.shifted(ops.cutoff_hamiltonian(model, space, lam), e), probes, refs, tol)
        rows.append(errs)
        residuals.append(ress)

    return RenormFlowReport(
        lambdas=lams, e_grid=e_grid, e_continuum=e_cont, probe_ids=probe_ids,
        resolvent_errors=np.asarray(rows), solver_residuals=np.asarray(residuals),
        tol=tol, model=model.describe(),
        grid={"d": space.grid.d, "points_per_axis": space.grid.points_per_axis,
              "k_max": k_max, "M": space.M, "n_max": space.n_max},
    )


def _cutoff_errors(op, probes, refs, tol):
    """Resolvent distances of op to the references, and true residuals, per probe."""
    sols, ress = resolvent_solve(op, 1j, probes, tol)
    return [(sol - ref).norm() for sol, ref in zip(sols, refs)], ress


def _grid_radius(grid):
    """Euclidean radius covering every node of the box."""
    return float(grid.norms.max()) + 1e-12


# --------------------------------------------------------------------------
# regularity scan
# --------------------------------------------------------------------------

@dataclass
class RegularityReport:
    etas: list
    k_max_ladder: list
    norm_table: np.ndarray            # (n_eta, n_rung)
    verdicts: list
    probe_width: float
    tol: float
    growth_threshold: float
    model: dict
    h: float
    timestamp: float = field(default_factory=time.time)
    version: str = __version__

    def to_json(self):
        payload = {
            "report": "regularity_scan",
            "version": self.version,
            "timestamp": self.timestamp,
            "model": self.model,
            "h": self.h,
            "probe_width": self.probe_width,
            "tol": self.tol,
            "growth_threshold": self.growth_threshold,
            "etas": self.etas,
            "k_max_ladder": self.k_max_ladder,
            "norm_table": self.norm_table.tolist(),
            "verdicts": self.verdicts,
        }
        return json.dumps(payload, sort_keys=True)

    def to_csv(self):
        lines = ["eta," + ",".join(f"kmax_{k:g}" for k in self.k_max_ladder) + ",verdict"]
        for i, eta in enumerate(self.etas):
            row = ",".join(f"{x:.11e}" for x in self.norm_table[i])
            lines.append(f"{eta},{row},{self.verdicts[i]}")
        return "\n".join(lines) + "\n"


def _scan_norm_squared(model, grid, etas, probe_q, probe_vals):
    """|| L^eta B psi ||^2 for a zero-boson probe with one source, per eta.

    The boundary map of a zero-boson state lives in the one-boson sector
    with coefficients -g vhat(k) psi(P + t(k)) / L(P, k); substituting
    q = P + t(k) turns the squared norm into the double sum

        g^2 sum_q h^d |psi(q)|^2 sum_k h^d vhat(k)^2
            * L(q - t(k), k)^(2 eta - 2) * [q - t(k) in box] ,

    evaluated here without materializing the sector.  The box test and
    L(q - t(k), k) of each node q are formed once for all etas.
    """
    vhat, om = grid.tables(model)
    vhat2 = vhat**2
    hd = grid.h**grid.d
    disp = grid.transfer * grid.h                 # (Q, d) displacement coords
    bound = grid.spec.k_max - grid.h / 2.0 + 1e-9
    powers = 2.0 * np.asarray(etas, dtype=float) - 2.0
    total = np.zeros(len(powers))
    for q, amp2 in zip(probe_q, probe_vals):
        shifted = q[None, :] - disp               # (Q, d)
        inside = np.all(np.abs(shifted) <= bound, axis=1)
        lvals = (shifted**2).sum(axis=1) + om
        # the box is applied per eta, not kept as a weight array: one more
        # grid-sized array alive across the loop doubled a single-eta
        # scan's page faults
        for i, power in enumerate(powers):
            total[i] += amp2 * (np.where(inside, lvals ** power, 0.0) @ vhat2)
    return model.g**2 * hd * hd * total


def regularity_scan(model, cutoff_ladder, etas, probe_width=1.0, tol=0.03,
                    growth_threshold=0.05, points_per_unit=None):
    """Ultraviolet ladder scan of || L^eta B psi || for a fixed smooth probe.

    cutoff_ladder is an increasing list of k_max values; every rung uses
    the same spacing h (points proportional to k_max), so the rung sums
    are nested and the norms are nondecreasing.  The probe is a Gaussian
    of the given width on the zero-boson sector of a single source,
    normalized by its continuum square integral, so ladder steps compare
    the operator rather than the probe.

    Verdict per eta: Diverging when the last three relative norm
    increments each exceed growth_threshold, Cauchy when the final
    increment falls below tol, Inconclusive otherwise.

    Only the single-source case is supported; larger rungs would need
    sector sizes that cannot be materialized, and for one source the
    double-sum form above is exactly the operator norm (cross-checked
    against the Fock-space route in the test suite).

    The inner sum over k of each probe node q is invariant when q is
    replaced by any signed axis permutation of itself: the half-offset
    grid maps onto itself under that group, the transfer rounding
    (toward zero) is odd and permutation-equivariant, vhat and omega
    depend on |k| only, L(q - t(k), k) on |q - t(k)|, and the box test
    on the absolute coordinates.  So the inner sum is evaluated once per
    orbit of the selected probe nodes, at one representative weighted by
    the summed probe amplitudes of its orbit.  The orbit key is exact
    integer arithmetic: the sorted absolute coordinates in units of h/2.
    """
    if model.M != 1:
        raise ValueError("the ladder scan supports single-source models only")
    ladder = [float(k) for k in cutoff_ladder]
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("cutoff ladder must be increasing")
    if points_per_unit is None:
        points_per_unit = 1.0  # h = 1
    h = 1.0 / points_per_unit

    sigma = probe_width
    cont_norm2 = (sigma * math.sqrt(math.pi)) ** model.d  # integral of exp(-q^2/s^2)

    norm_table = np.zeros((len(etas), len(ladder)))
    for j, k_max in enumerate(ladder):
        points = int(round(2.0 * k_max * points_per_unit))
        if points % 2:
            points += 1
        grid = build_grid(GridSpec(model.d, points, k_max))
        # probe support: nodes where the Gaussian amplitude is above noise
        radius = min(6.0 * sigma, k_max)
        sel = np.nonzero(grid.norms <= radius)[0]
        amp2 = np.exp(-(grid.norms[sel] ** 2) / sigma**2) / cont_norm2
        # one representative per signed-permutation orbit, carrying its orbit's weight
        key = np.sort(np.abs(2 * grid.axis_index[sel] - (points - 1)), axis=1)
        _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
        probe_q = grid.coords[sel[first]]
        amp2 = np.bincount(inverse.ravel(), weights=amp2)

        norm_table[:, j] = np.sqrt(_scan_norm_squared(model, grid, etas, probe_q, amp2))

    verdicts = []
    for i in range(len(etas)):
        nu = norm_table[i]
        inc = (nu[1:] - nu[:-1]) / np.maximum(nu[1:], 1e-300)
        if len(inc) >= 3 and np.all(inc[-3:] > growth_threshold):
            verdicts.append("Diverging")
        elif len(inc) >= 1 and inc[-1] < tol:
            verdicts.append("Cauchy")
        else:
            verdicts.append("Inconclusive")

    return RegularityReport(
        etas=list(etas), k_max_ladder=ladder, norm_table=norm_table,
        verdicts=verdicts, probe_width=probe_width, tol=tol,
        growth_threshold=growth_threshold, model=model.describe(), h=h,
    )


# --------------------------------------------------------------------------
# sector norms and growth exponents
# --------------------------------------------------------------------------

def sector_norm_estimate(op, n):
    """Largest singular value of an operator block leaving sector n.

    The exact 2-norm of the column block of sector n of the handle's
    matrix, in the orthonormal flat basis.  ARPACK runs from a fixed
    random start vector, so the value is reproducible and no symmetry of
    the start hides the top singular vector.  Raises NoConvergence when
    ARPACK fails.
    """
    space = op.space
    if space.dims[n] == 0:
        raise ValueError(f"sector {n} is empty")
    off = np.cumsum([0] + space.dims)
    block = op.matrix[:, off[n]:off[n + 1]]
    start = np.random.default_rng(0).standard_normal(min(block.shape))
    from scipy.sparse.linalg import ArpackError, svds
    try:
        sigma = svds(block, k=1, v0=start, return_singular_vectors=False)[0]
    except ArpackError as exc:                  # ArpackNoConvergence included
        raise NoConvergence(f"sector norm of sector {n} failed: {exc}") from exc
    return float(sigma)


def fit_growth_exponent(ns, values):
    """Least-squares slope of log(value) against log(n)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


# --------------------------------------------------------------------------
# spectrum and number bound
# --------------------------------------------------------------------------

def ground_energy(model, space, mode=ops.DiagonalMode.GRID_CONSISTENT, k=1,
                  cutoff=None, method="auto", tol=1e-8):
    """The k lowest eigenvalues of the boundary-condition Hamiltonian.

    Dense diagonalization up to ops.DENSE_CAP; otherwise an iterative
    extremal eigensolver on the sparse matrix with tolerance `tol`, whose
    eigenpairs are checked on their true residuals
    ||H v - lambda v|| <= tol * max(1, |lambda|).  A Lanczos basis that
    would not fit in ops.ASSEMBLY_BUDGET_BYTES is refused with
    SpaceTooLarge before the Hamiltonian is built.
    """
    dim = space.total_dim
    dense = method == "dense" or (method == "auto" and dim <= ops.DENSE_CAP)
    basis_bytes = min(dim, max(2 * k + 1, 20)) * dim * 8    # eigsh's default ncv
    if not dense and basis_bytes > ops.ASSEMBLY_BUDGET_BYTES:
        raise SpaceTooLarge(
            f"the Lanczos basis of a Fock space of dimension {dim} needs about "
            f"{basis_bytes / 2**30:.3g} GiB, over the limit of "
            f"{ops.ASSEMBLY_BUDGET_BYTES / 2**30:.3g} GiB")
    h = ops.hamiltonian(model, space, mode, cutoff)
    if dense:
        vals = np.linalg.eigvalsh(ops.assemble_dense(h))
        return [float(v) for v in vals[:k]]

    from scipy.sparse.linalg import ArpackError, eigsh
    try:
        vals, vecs = eigsh(h.matrix, k=k, which="SA", tol=tol)
    except ArpackError as exc:                  # ArpackNoConvergence included
        raise NoConvergence(f"extremal eigensolve failed: {exc}") from exc
    order = np.argsort(vals)
    for lam, v in zip(vals[order], vecs.T[order]):
        res = np.linalg.norm(ops.matvec(h.matrix, v) - lam * v)
        if res > tol * max(1.0, abs(lam)):
            raise NoConvergence(
                f"eigenpair {lam:.10g} has residual {res:.3e} "
                f"(target {tol * max(1.0, abs(lam)):.3e})", residual=res)
    return [float(v) for v in vals[order]]


def number_bound_check(model, space, samples=20, seed=0, cutoff=None):
    """Worst ratio ||N psi|| / (||N (1 - B) psi|| + ||psi||) over random states."""
    num = ops.number_multiplier(space, 1.0)
    bmap = ops.boundary_map(model, space, cutoff)
    worst = 0.0
    for j in range(samples):
        psi = FockVector.random(space, seed + j)
        psi = (1.0 / psi.norm()) * psi
        n_psi = num.apply(psi).norm()
        dressed = psi - bmap.apply(psi)
        denom = num.apply(dressed).norm() + psi.norm()
        worst = max(worst, n_psi / denom)
    return worst
