"""Operators on the truncated Fock space as real sparse matrices.

Every operator acts on the flat orthonormal basis of FockVector.flatten
(each coefficient scaled by the square root of its inner-product
weight), where the weighted adjoint is the plain transpose.  Every kernel
is real, so each operator is one real float64 CSR matrix with int32
indices.

Two primitives are built from the index pairing of FockSpace.insert_map
and FockSpace.source_shift, as (row, column, value) triplets emitted in
blocks vectorized over nodes, and cached on the space per (model shape,
cutoff): the annihilation kernel a and the off-diagonal contact kernel T.
The rest is sparse algebra on them: creation is a.T, so a* = a^T holds
exactly by construction; the boundary map B = -g L^(-1) a* is a row
scaling of a.T; H = (1 - B)^T L (1 - B) + T and H_cutoff = L + g (a + a.T)
are one CSR matrix per handle; dense assembly is .toarray().

Three rules make the finite-volume algebra exact:

* a source index shifted off the box is dropped, on both sides of every
  pairing;
* every operator is the composition or kernel form of the same index
  pairing, so identities like  boundary_map = -g * L^(-1) o creation
  hold to machine precision;
* kernels that correspond to a composition through the (n+1)-boson
  sector vanish on the top truncated sector, so the contact term agrees
  exactly with  g * annihilation o boundary_map  on the whole truncated
  space.

With E_grid the grid counterterm, this yields the finite-cutoff identity

    hamiltonian(grid-consistent, L) = cutoff_hamiltonian(L) + E_grid * Id

to rounding, for any common cutoff L including the full grid.

An operator whose kernel triplets would not fit in ASSEMBLY_BUDGET_BYTES,
a fixed share of physical memory, is refused with grid.SpaceTooLarge; the
bound comes from counts, before any index table, triplet or array of the
space's dimension is allocated.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from . import quad
from .grid import FockSpace, FockVector, MomentumGrid, SpaceTooLarge

__all__ = [
    "DiagonalMode",
    "SingularInverse",
    "DimensionCap",
    "OperatorHandle",
    "matvec",
    "flat_free_values",
    "free_multiplier",
    "number_multiplier",
    "apply_annihilation",
    "apply_creation",
    "annihilation",
    "creation",
    "apply_boundary_map",
    "apply_boundary_map_adjoint",
    "boundary_map",
    "counterterm_grid",
    "ContactDiagonalCache",
    "contact_diagonal",
    "apply_contact_offdiagonal",
    "contact_offdiagonal",
    "contact_term",
    "cutoff_hamiltonian",
    "hamiltonian",
    "shifted",
    "assemble_dense",
]

DENSE_CAP = 20_000

# An operator is built only if the triplets of its kernels fit in this
# share of physical memory.
ASSEMBLY_BUDGET_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 8
# Peak bytes per triplet while assembling: int32 row and column and
# float64 value of the COO triplets, plus the float64 value and int32
# index of the CSR entry.
_BYTES_PER_TRIPLET = 28
# Triplets per emitted block, which bounds the temporaries of one block.
_BLOCK_TRIPLETS = 1 << 20


class DiagonalMode(Enum):
    GRID_CONSISTENT = "grid"
    CONTINUUM = "continuum"


class SingularInverse(ValueError):
    """Negative power of the free multiplier on a sector with a zero value."""


class DimensionCap(RuntimeError):
    """Dense assembly request beyond the configured dimension cap."""


def matvec(mat, x):
    """mat @ x for a real operator and a real or complex vector, or (n, k)
    block of vectors, x.

    A complex x is applied as its (n, 2k) real view, so the real matrix is
    never copied to complex.
    """
    if not np.iscomplexobj(x):
        return mat @ x
    pairs = np.ascontiguousarray(x, dtype=complex).view(float).reshape(x.shape[0], -1)
    out = np.ascontiguousarray(mat @ pairs).view(complex)
    return out.reshape(mat.shape[0], *x.shape[1:])


@dataclass
class OperatorHandle:
    """A linear map on FockVectors.

    `matrix` acts on FockVector.flatten coordinates as a real CSR matrix.
    Diagonal operators also carry their per-sector `factors`; apply
    multiplies those into the coefficients directly, without the weight
    round trip of the flat basis, so that a unit factor is exactly the
    identity.
    """

    matrix: object
    selfadjoint_claim: bool
    model: object
    space: FockSpace
    factors: list | None = None

    def apply(self, psi):
        if self.factors is not None:
            return FockVector(self.space,
                              [f * s for f, s in zip(self.factors, psi.sectors)])
        return FockVector.unflatten(self.space, matvec(self.matrix, psi.flatten()))


# --------------------------------------------------------------------------
# sparse building blocks
# --------------------------------------------------------------------------

def _diag(values):
    return sp.diags_array(values, format="csr")


def _flat(space, per_sector):
    """Concatenated flat vector of per-sector values broadcast to (S, B_n)."""
    return np.concatenate([
        np.broadcast_to(v, (space.n_source_tuples, m.shape[0])).ravel()
        for v, m in zip(per_sector, space.msets)])


def flat_free_values(model, space):
    """Flat vector of the free values P^2 + Omega."""
    return _flat(space, [space.free_values(model, n) for n in range(space.n_max + 1)])


def _offsets(space):
    return np.cumsum([0] + space.dims)


def _cutoff_nodes(space, cutoff):
    return np.nonzero(space.grid.cutoff_mask(cutoff))[0]


def _node_blocks(count, per_node):
    """Slices of consecutive node positions, at most _BLOCK_TRIPLETS
    triplets each."""
    step = max(1, _BLOCK_TRIPLETS // max(per_node, 1))
    for start in range(0, count, step):
        yield slice(start, start + step)


def _shifts(space, i, nodes, sign):
    """(K, S) source-shift maps of source i, one row per node."""
    rows = [space.source_shift(i, k, sign) for k in nodes]
    return np.array(rows, dtype=np.int64).reshape(len(nodes), space.n_source_tuples)


def _inserts(space, n, nodes):
    """(K, B_n) insertion targets and counts into sector n+1, one row per node."""
    maps = [space.insert_map(n, k) for k in nodes]
    shape = (len(nodes), space.msets[n].shape[0])
    return (np.array([t for t, _ in maps], dtype=np.int64).reshape(shape),
            np.array([c for _, c in maps], dtype=float).reshape(shape))


def _refuse_over_budget(space, nnz_bound, what):
    """Raise SpaceTooLarge if nnz_bound triplets do not fit the assembly
    budget; counts only, nothing is allocated."""
    need = nnz_bound * _BYTES_PER_TRIPLET
    if need > ASSEMBLY_BUDGET_BYTES:
        raise SpaceTooLarge(
            f"the {what} of a Fock space with {space.grid.n_nodes} nodes, M = {space.M} "
            f"and n_max = {space.n_max} needs about {need / 2**30:.3g} GiB of triplets, "
            f"over the limit of {ASSEMBLY_BUDGET_BYTES / 2**30:.3g} GiB")


def _kernel(space, key, what, nnz_bound, blocks):
    """A primitive kernel assembled from its triplet blocks, cached on the space.

    nnz_bound() counts the triplets of every block before the off-grid
    ones are dropped; it is checked against the assembly budget before
    blocks() gathers any index table.
    """
    cache = space._kernel_cache
    if key not in cache:
        bound = nnz_bound()
        _refuse_over_budget(space, bound, what)
        n = space.total_dim
        index = np.int32 if max(n, bound) < 2**31 else np.int64
        rows = np.empty(bound, dtype=index)
        cols = np.empty(bound, dtype=index)
        vals = np.empty(bound)
        end = 0
        for r, c, v in blocks():
            rows[end:end + r.size], cols[end:end + r.size] = r, c
            vals[end:end + r.size] = v
            end += r.size
        coo = sp.coo_array((vals[:end], (rows[:end], cols[:end])), shape=(n, n))
        del rows, cols, vals
        cache[key] = coo.tocsr()     # sums duplicate pairs
    return cache[key]


def _annihilation_kernel(model, space, cutoff):
    return _kernel(space, ("a", MomentumGrid._model_key(model), cutoff),
                   "annihilation kernel", lambda: _annihilation_bound(space, cutoff),
                   lambda: _annihilation_blocks(model, space, cutoff))


def _offdiagonal_kernel(model, space, cutoff):
    return _kernel(space, ("T", MomentumGrid._model_key(model), cutoff),
                   "contact term", lambda: _exchange_bound(space, cutoff),
                   lambda: _offdiagonal_blocks(model, space, cutoff))


def _annihilation_bound(space, cutoff):
    """Triplet count of the annihilation kernel's blocks."""
    return (space.M * len(_cutoff_nodes(space, cutoff)) * space.n_source_tuples
            * sum(m.shape[0] for m in space.msets[:-1]))


def _exchange_bound(space, cutoff):
    """Triplet count of the off-diagonal kernel's blocks.

    A product a X a.T through sector n+1 has the same pattern, so the
    same count bounds it.
    """
    k_count = len(_cutoff_nodes(space, cutoff))
    M, n_src, b = space.M, space.n_source_tuples, [m.shape[0] for m in space.msets]
    return sum(M * (M - 1) * k_count * n_src * b[n]
               + (M * M * k_count**2 * n_src * b[n - 1] if n >= 1 else 0)
               for n in range(space.n_max))


def _annihilation_blocks(model, space, cutoff):
    """Triplet blocks of the annihilation kernel a in the flat orthonormal
    basis.

    Sector n of a psi receives

        sqrt(n+1) * sum_i sum_{|k|<cutoff} h^d vhat(k)
                      * psi^(n+1)(P - e_i t(k), K union {k}),

    where t(k) is the transfer displacement of node k; shifted source
    tuples that leave the box are dropped.  In the flat basis each entry
    is rescaled by sqrt(weight of row / weight of column).
    """
    grd = space.grid
    vhat = grd.tables(model)[0]
    nodes = _cutoff_nodes(space, cutoff)
    off = _offsets(space)
    n_src = space.n_source_tuples
    half_hd = grd.h ** (grd.d / 2.0)     # h^d * sqrt(h^-d): weight ratio of n to n+1
    smaps = [_shifts(space, i, nodes, -1) for i in range(space.M)]
    tgts = [_inserts(space, n, nodes)[0] for n in range(space.n_max)]
    for n in range(space.n_max):
        b_out, b_in = space.msets[n].shape[0], space.msets[n + 1].shape[0]
        for blk in _node_blocks(len(nodes), n_src * b_out):
            tgt = tgts[n][blk]                                      # (K, b_out)
            val = (np.sqrt(n + 1.0) * half_hd * vhat[nodes[blk]][:, None]
                   * np.sqrt(space.mult[n][None, :] / space.mult[n + 1][tgt]))
            for smap_all in smaps:
                smap = smap_all[blk]                                # (K, S)
                kk, s = np.nonzero(smap >= 0)
                rows = off[n] + s[:, None] * b_out + np.arange(b_out)
                cols = off[n + 1] + smap[kk, s][:, None] * b_in + tgt[kk]
                yield rows.ravel(), cols.ravel(), val[kk].ravel()


def _offdiagonal_blocks(model, space, cutoff):
    """Triplet blocks of the off-diagonal contact kernel per unit coupling
    (times -g^2 in T).

    Sums the source-exchange kernels (i != l, distinct sources trade the
    integrated boson) and the boson-exchange kernels (the integrated
    boson replaces an existing one), as grid sums with weight h^d and the
    cutoff applied to every form-factor argument.  Kernels vanish on the
    top truncated sector, matching the composition through sector n+1.
    """
    grd = space.grid
    vhat, om = grd.tables(model)
    nodes = _cutoff_nodes(space, cutoff)
    hd = grd.h**grd.d
    omega_sums = space.omega_sums(model)
    off = _offsets(space)
    n_src, M = space.n_source_tuples, space.M
    s_minus = [_shifts(space, i, nodes, -1) for i in range(M)]
    s_plus = [_shifts(space, i, nodes, +1) for i in range(M)]
    inserts = [_inserts(space, n, nodes) for n in range(space.n_max - 1)]

    def source_exchange(n):
        # i != l, argument P + (e_i - e_l) t(k); the weights of row and
        # column coincide, so flat and coefficient entries agree
        b = space.msets[n].shape[0]
        for blk in _node_blocks(len(nodes), n_src * b):
            for ell in range(M):
                s1 = s_minus[ell][blk]
                for i in range(M):
                    if i == ell:
                        continue
                    s2 = s_plus[i][blk]
                    comp = np.where(s1 >= 0,
                                    np.take_along_axis(s2, np.maximum(s1, 0), axis=1), -1)
                    kk, s = np.nonzero(comp >= 0)
                    k = nodes[blk][kk]
                    val = (hd * vhat[k] ** 2)[:, None] / (
                        space.psq[s1[kk, s]][:, None] + omega_sums[n][None, :]
                        + om[k][:, None])
                    rows = off[n] + s[:, None] * b + np.arange(b)
                    cols = off[n] + comp[kk, s][:, None] * b + np.arange(b)
                    yield rows.ravel(), cols.ravel(), val.ravel()

    def boson_exchange(n):
        # existing boson w out, integrated boson k in
        b, b_less = space.msets[n].shape[0], space.msets[n - 1].shape[0]
        tk, cnt = inserts[n - 1]                                    # (K, B_{n-1})
        scale = np.sqrt(space.mult[n])
        for s1 in s_minus:                                          # (K, S)
            for blk in _node_blocks(len(nodes), len(nodes) * n_src * b_less):
                ws, tw, cw = nodes[blk], tk[blk], cnt[blk]          # (W, B_{n-1})
                for s2_all in s_plus:
                    s2 = s2_all[blk]                                # (W, S)
                    comp = np.where(s1[None] >= 0, s2[:, np.maximum(s1, 0)], -1)
                    ww, kk, s = np.nonzero(comp >= 0)
                    w, k = ws[ww], nodes[kk]
                    denom = (space.psq[s1[kk, s]][:, None] + omega_sums[n - 1][None, :]
                             + (om[w] + om[k])[:, None])
                    val = ((hd * vhat[k] * vhat[w])[:, None] * cw[ww] / denom
                           * scale[tw[ww]] / scale[tk[kk]])
                    rows = off[n] + s[:, None] * b + tw[ww]
                    cols = off[n] + comp[ww, kk, s][:, None] * b + tk[kk]
                    yield rows.ravel(), cols.ravel(), val.ravel()

    for n in range(space.n_max):            # kernels vanish on n = n_max
        if M >= 2:
            yield from source_exchange(n)
        if n >= 1:
            yield from boson_exchange(n)


# --------------------------------------------------------------------------
# diagonal multipliers
# --------------------------------------------------------------------------

def _diagonal_handle(space, factors, model):
    return OperatorHandle(_diag(_flat(space, factors)), True, model, space, factors=factors)


def free_multiplier(model, space, power):
    """Multiplication by (P^2 + sum_j omega(k_j))^power on every sector.

    For power < 0 the value P^2 + Omega is inverted; it is bounded below
    by one on every sector with a boson, and by the smallest P^2 on the
    zero-boson sector.  A sector containing an exactly zero value makes
    the inverse meaningless and raises SingularInverse.
    """
    factors = []
    for n in range(space.n_max + 1):
        vals = space.free_values(model, n)
        if power < 0 and np.any(vals == 0.0):
            raise SingularInverse(
                f"free value 0 in sector n={n}; negative power {power} undefined"
            )
        factors.append(vals**power)
    return _diagonal_handle(space, factors, model)


def number_multiplier(space, power):
    """Multiplication by n^power on sector n, with 0^0 = 1."""
    if power < 0:
        raise SingularInverse("negative powers of the number operator hit n = 0")
    scale = [float(n) ** power if (n or power) else 1.0 for n in range(space.n_max + 1)]
    return _diagonal_handle(space, scale, None)


# --------------------------------------------------------------------------
# annihilation / creation
# --------------------------------------------------------------------------

def annihilation(model, space, cutoff=None):
    """One boson absorbed by a source; see _annihilation_kernel."""
    return OperatorHandle(_annihilation_kernel(model, space, cutoff), False, model, space)


def creation(model, space, cutoff=None):
    """Exact discrete adjoint of annihilation: the transpose of its matrix."""
    return OperatorHandle(_annihilation_kernel(model, space, cutoff).T, False, model, space)


def apply_annihilation(model, space, cutoff, psi):
    return annihilation(model, space, cutoff).apply(psi)


def apply_creation(model, space, cutoff, psi):
    return creation(model, space, cutoff).apply(psi)


def _boundary_matrix(model, space, cutoff):
    """B = -g (P^2 + Omega)^(-1) a*: a row scaling of a.T, which has no
    row in the zero-boson sector."""
    a = _annihilation_kernel(model, space, cutoff)
    return sp.csr_array(_diag(-model.g / flat_free_values(model, space)) @ a.T)


def boundary_map(model, space, cutoff=None):
    """The singular-part map: -g * (free inverse) o creation.

    Raises boson number by one; the output has no zero-boson component.
    """
    return OperatorHandle(_boundary_matrix(model, space, cutoff), False, model, space)


def apply_boundary_map(model, space, cutoff, psi):
    return boundary_map(model, space, cutoff).apply(psi)


def apply_boundary_map_adjoint(model, space, cutoff, psi):
    """Adjoint of the singular-part map: -g * annihilation o (free inverse)."""
    return OperatorHandle(_boundary_matrix(model, space, cutoff).T, False, model,
                          space).apply(psi)


# --------------------------------------------------------------------------
# counterterm and contact term
# --------------------------------------------------------------------------

def counterterm_grid(model, space, cutoff=None):
    """Grid counterterm: g^2 M sum_{|k|<cutoff} h^d vhat(k)^2/(k^2+omega(k)).

    Uses the same node set as the operator kernels, so the finite-cutoff
    identity with the cutoff Hamiltonian is exact.
    """
    grd = space.grid
    vhat, om = grd.tables(model)
    mask = grd.cutoff_mask(cutoff)
    hd = grd.h**grd.d
    val = (vhat[mask] ** 2 / (grd.norms[mask] ** 2 + om[mask])).sum() * hd
    return model.g**2 * model.M * val


class ContactDiagonalCache:
    """Memoized regularized diagonal kernel I(|p|, env) on a bucket grid.

    Buckets are squares of side `bucket` (default: grid spacing / 4);
    values at bucket corners are computed once by quadrature and stored;
    queries are answered by bilinear interpolation between the four
    surrounding corners.
    """

    def __init__(self, model, bucket, tol=1e-8):
        if not model.is_renormalisable:
            raise ValueError("continuum diagonal kernel needs a renormalisable model")
        self.model = model
        self.bucket = float(bucket)
        self.tol = tol
        self._store = {}

    def corner_value(self, ip, ie):
        """Kernel value at a bucket corner (exact, memoized)."""
        key = (int(ip), int(ie))
        if key not in self._store:
            self._store[key] = quad.regularized_subtracted_integral(
                self.model, key[0] * self.bucket, key[1] * self.bucket, self.tol)
        return self._store[key]

    def get_many(self, p_norms, envs):
        """Vectorized bilinear lookup; arrays of equal shape."""
        p = np.asarray(p_norms, dtype=float) / self.bucket
        e = np.asarray(envs, dtype=float) / self.bucket
        ip0 = np.floor(p).astype(int)
        ie0 = np.floor(e).astype(int)
        fp = p - ip0
        fe = e - ie0
        out = np.zeros_like(p)
        for dp, de, w in (
            (0, 0, (1 - fp) * (1 - fe)),
            (1, 0, fp * (1 - fe)),
            (0, 1, (1 - fp) * fe),
            (1, 1, fp * fe),
        ):
            keys = np.stack([ip0 + dp, ie0 + de], axis=-1).reshape(-1, 2)
            vals = np.array([self.corner_value(a, b) for a, b in keys]).reshape(p.shape)
            out += w * vals
        return out

    def __len__(self):
        return len(self._store)


def contact_diagonal(model, space, mode=DiagonalMode.GRID_CONSISTENT,
                     cutoff=None, cache=None):
    """Diagonal part of the contact term.

    Grid-consistent mode multiplies sector n (below the truncation top) by

        -g^2 sum_l sum_{|k|<cutoff} h^d vhat(k)^2 / L(P - e_l t(k), K u {k})

    and adds the grid counterterm on every sector, so that the sum equals
    the regularized difference of grid sums at finite cutoff.  Continuum
    mode multiplies by -g^2 sum_l I(|p_l|, rest energy), the cutoff-free
    regularized kernel, evaluated through a ContactDiagonalCache.
    """
    grd = space.grid
    factors = []
    if mode is DiagonalMode.GRID_CONSISTENT:
        vhat, om = grd.tables(model)
        nodes = _cutoff_nodes(space, cutoff)
        hd = grd.h**grd.d
        e_grid = counterterm_grid(model, space, cutoff)
        omega_sums = space.omega_sums(model)
        smaps = [_shifts(space, ell, nodes, -1) for ell in range(space.M)]
        for n in range(space.n_max + 1):
            base = np.zeros((space.n_source_tuples, space.msets[n].shape[0]))
            if n < space.n_max:
                for smap_all in smaps:
                    for blk in _node_blocks(len(nodes), base.size):
                        smap, ks = smap_all[blk], nodes[blk]        # (K, S)
                        denom = (space.psq[smap][:, :, None]
                                 + omega_sums[n][None, None, :] + om[ks][:, None, None])
                        wk = (hd * vhat[ks] ** 2)[:, None, None]
                        base += np.where((smap >= 0)[:, :, None], wk / denom, 0.0).sum(axis=0)
            factors.append(-model.g**2 * base + e_grid)
    else:
        if not model.is_renormalisable:
            raise ValueError("continuum mode needs a renormalisable model")
        if cache is None:
            cache = ContactDiagonalCache(model, bucket=grd.h / 4.0)
        omega_sums = space.omega_sums(model)
        p_norm = grd.norms[space.src_tuples]            # (S, M)
        for n in range(space.n_max + 1):
            base = np.zeros((space.n_source_tuples, space.msets[n].shape[0]))
            if n < space.n_max:
                for ell in range(space.M):
                    env = (space.psq - p_norm[:, ell] ** 2)[:, None] + omega_sums[n][None, :]
                    pl = np.broadcast_to(p_norm[:, ell][:, None], env.shape)
                    base += cache.get_many(pl, env)
            factors.append(-model.g**2 * base)
    return _diagonal_handle(space, factors, model)


def contact_offdiagonal(model, space, cutoff=None):
    """Off-diagonal part of the contact term; see _offdiagonal_kernel."""
    return OperatorHandle(-model.g**2 * _offdiagonal_kernel(model, space, cutoff),
                          True, model, space)


def apply_contact_offdiagonal(model, space, cutoff, psi):
    return contact_offdiagonal(model, space, cutoff).apply(psi)


def contact_term(model, space, mode=DiagonalMode.GRID_CONSISTENT,
                 cutoff=None, cache=None):
    """The full contact term.

    Form-perturbation models use g * annihilation o boundary_map directly;
    renormalizable models use the diagonal + off-diagonal kernel split.
    """
    # the product a B through sector n+1 and the off-diagonal kernel have
    # the pattern of the exchange kernels: refuse both before any gather
    _refuse_over_budget(space, _exchange_bound(space, cutoff), "contact term")
    if not model.is_renormalisable:
        a = _annihilation_kernel(model, space, cutoff)
        mat = sp.csr_array((model.g * a) @ _boundary_matrix(model, space, cutoff))
    else:
        mat = sp.csr_array(contact_diagonal(model, space, mode, cutoff, cache).matrix
                           + contact_offdiagonal(model, space, cutoff).matrix)
    return OperatorHandle(mat, True, model, space)


# --------------------------------------------------------------------------
# Hamiltonians
# --------------------------------------------------------------------------

def _plus_ladder(sector_part, g, a):
    """sector_part + g (a + a.T) for a boson-number preserving sector_part.

    The three patterns are disjoint, so scipy sizes each sum exactly.
    """
    ga = g * a
    return sp.csr_array(sector_part + ga + ga.T)


def cutoff_hamiltonian(model, space, cutoff=None):
    """L + g (annihilation + creation) with the cutoff form factor."""
    a = _annihilation_kernel(model, space, cutoff)
    mat = _plus_ladder(_diag(flat_free_values(model, space)), model.g, a)
    return OperatorHandle(mat, True, model, space)


def hamiltonian(model, space, mode=DiagonalMode.GRID_CONSISTENT,
                cutoff=None, cache=None):
    """The interior-boundary-condition Hamiltonian on the truncated space:

        H = (1 - B)^T L (1 - B) + T = L + g (a + a.T) + B^T L B + T,

    with B the boundary map and T the contact term; the cross terms are
    -L B = g a.T and its transpose.  The adjoint is the transpose, so
    hermiticity is structural.
    """
    # B^T L B passes through sector n+1, so the exchange bound refuses it
    # (and the contact term) before a or L is built
    _refuse_over_budget(space, _exchange_bound(space, cutoff), "contact term")
    a = _annihilation_kernel(model, space, cutoff)
    free = flat_free_values(model, space)
    # B^T L B = g^2 a L^(-1) a.T, from B = -g L^(-1) a.T
    blb = sp.csr_array(a @ _diag(model.g**2 / free) @ a.T)
    contact = contact_term(model, space, mode, cutoff, cache).matrix
    mat = _plus_ladder(sp.csr_array(_diag(free) + blb + contact), model.g, a)
    return OperatorHandle(mat, True, model, space)


def shifted(handle, shift):
    """handle + shift * Id, as a handle on the same space."""
    # in place on a copy: a Hamiltonian stores its whole diagonal, so the
    # pattern and the size stay those of the matrix
    mat = handle.matrix.copy()
    mat.setdiag(mat.diagonal() + shift)
    return dataclasses.replace(handle, matrix=mat, factors=None)


# --------------------------------------------------------------------------
# dense assembly
# --------------------------------------------------------------------------

def assemble_dense(handle, cap=DENSE_CAP):
    """Dense real matrix in the orthonormalized basis.

    Basis vector j is the coefficient unit vector rescaled by the inverse
    square-root weight, so the operator adjoint is the transpose of the
    returned matrix.
    """
    dim = handle.space.total_dim
    if dim > cap:
        raise DimensionCap(f"dense dimension {dim} exceeds cap {cap}")
    return handle.matrix.toarray()
