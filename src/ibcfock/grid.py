"""Momentum lattice and symmetrized Fock-sector index algebra.

The lattice is a uniform tensor grid with half-cell offset: with N points
per axis and extent k_max, the axis coordinates are

    c_i = -k_max + (i + 1/2) h,   h = 2 k_max / N,   i = 0..N-1,

so no node is at the origin and |k| >= h/2 on every axis, keeping the
form factor finite at every node.

Half-offset coordinates are odd multiples of h/2, so the sum or
difference of two node values is an integer multiple of h and never a
node itself.  Momentum transfer between a source and a boson therefore
uses the boson's *transfer displacement*: its coordinate rounded toward
zero onto the displacement lattice h*Z^d.  Source shifts by transfer
displacements have exact index arithmetic; a shifted index that leaves
the box is marked -1 in FockSpace.source_shift and contributes zero to
kernel sums.

An n-boson sector is indexed by a source tuple (one node id per source)
and a canonically sorted multiset of node ids; the multiplicity of the
multiset (the number of distinct orderings) enters the inner product as
a weight, together with the cell volume h^(d(M+n)).

A FockSpace whose index tables would not fit in SPACE_BUDGET_BYTES, a
fixed share of physical memory, is refused with SpaceTooLarge before
any table is allocated.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

__all__ = [
    "GridSpec",
    "MomentumGrid",
    "build_grid",
    "sector_dimension",
    "SpaceTooLarge",
    "FockSpace",
    "FockVector",
]

_INDEX_CAP = 2**62

# A FockSpace is built only if its index tables fit in this share of
# physical memory.
SPACE_BUDGET_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 4
# Peak bytes while building the tables, measured with tracemalloc: per
# boson multiset, its tuple, list slot, dict entry and row index, plus
# 24 per boson for the tuple slot and the int64 array row; per source
# tuple, 24 per source and 16 for psq and the flat id.
_BYTES_PER_MSET = 128
_BYTES_PER_BOSON = 24


@dataclass(frozen=True)
class GridSpec:
    """Uniform half-offset momentum box: d axes, N points each, extent k_max."""

    d: int
    points_per_axis: int
    k_max: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("d must be 1, 2, or 3")
        if self.points_per_axis < 2 or self.points_per_axis % 2 != 0:
            raise ValueError("points_per_axis must be an even integer >= 2")
        if self.k_max <= 0:
            raise ValueError("k_max must be positive")

    @property
    def h(self):
        return 2.0 * self.k_max / self.points_per_axis


class MomentumGrid:
    """Precomputed node data for a GridSpec.

    Attributes
    ----------
    axis : (N,) axis coordinates
    coords : (Q, d) node coordinates, row-major over axes
    norms : (Q,) Euclidean node norms
    transfer : (Q, d) integer transfer displacement of each node, in
        units of h (the node coordinate rounded toward zero onto h*Z^d)
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.d = spec.d
        self.h = spec.h
        n = spec.points_per_axis
        self.points_per_axis = n
        self.axis = -spec.k_max + (np.arange(n) + 0.5) * self.h
        # per-axis index of each node, row-major over axes; the node tables
        # are gathered from per-axis tables, and the squared norms add the
        # axes left to right, as (coords**2).sum(axis=1) does
        self.axis_index = np.indices((n,) * spec.d).reshape(spec.d, -1).T.copy()
        self.coords = self.axis[self.axis_index]
        axis_sq = self.axis**2
        norms_sq = axis_sq[self.axis_index[:, 0]]
        for j in range(1, spec.d):
            norms_sq += axis_sq[self.axis_index[:, j]]
        self.norms = np.sqrt(norms_sq)
        self.n_nodes = self.coords.shape[0]
        # toward-zero displacement of each node
        self.transfer = np.trunc(self.axis / self.h).astype(np.int64)[self.axis_index]
        self._model_tables = {}
        self._radix = n ** np.arange(spec.d - 1, -1, -1, dtype=np.int64)

    def __repr__(self):
        return (f"MomentumGrid(d={self.d}, points={self.points_per_axis}, "
                f"k_max={self.spec.k_max}, nodes={self.n_nodes})")

    @staticmethod
    def _model_key(model):
        # tables depend only on the form factor and dispersion shapes
        return (model.v.kind.value, model.v.alpha,
                model.omega.kind.value, model.omega.beta)

    def tables(self, model):
        """Cached per-node values (vhat, omega) for a model."""
        key = self._model_key(model)
        if key not in self._model_tables:
            self._model_tables[key] = (
                np.asarray(model.vhat(self.norms), dtype=float),
                np.asarray(model.omega_of(self.norms), dtype=float),
            )
        return self._model_tables[key]

    def cutoff_mask(self, cutoff):
        """Boolean node mask for the ball |k| < cutoff; None means all nodes."""
        if cutoff is None:
            return np.ones(self.n_nodes, dtype=bool)
        return self.norms < float(cutoff)

    def shift_node_ids(self, displacement):
        """Vectorized node shift by an integer displacement (units of h).

        Returns an (Q,) int array mapping each node id to the id of the
        shifted node, with -1 where the shift leaves the box.
        """
        disp = np.asarray(displacement, dtype=np.int64)
        idx = self.axis_index + disp[None, :]
        ok = np.all((idx >= 0) & (idx < self.points_per_axis), axis=1)
        out = np.where(ok, idx @ self._radix, -1)
        return out


def build_grid(spec: GridSpec) -> MomentumGrid:
    return MomentumGrid(spec)


def _multiplicity(bosons):
    """Number of distinct orderings of a sorted tuple: n! / prod of rep!."""
    mult = math.factorial(len(bosons))
    for c in Counter(bosons).values():
        mult //= math.factorial(c)
    return mult


class SpaceTooLarge(ValueError):
    """A FockSpace whose index tables exceed SPACE_BUDGET_BYTES or whose
    sector dimension exceeds the index range."""


def sector_dimension(grid, M, n):
    """(#nodes)^M * C(#nodes + n - 1, n), the size of the n-boson sector."""
    q = grid.n_nodes if hasattr(grid, "n_nodes") else int(grid)
    if n < 0 or M < 1:
        raise ValueError("need n >= 0 and M >= 1")
    dim = q**M * math.comb(q + n - 1, n)
    if dim > _INDEX_CAP:
        raise OverflowError(f"sector dimension {dim} exceeds the index range")
    return dim


def _refuse_oversized(q, M, n_max):
    """Raise SpaceTooLarge unless the index tables of a space with q
    nodes fit the budget; counts only, nothing is allocated."""
    try:
        sector_dimension(q, M, n_max)     # the top sector is the largest
    except OverflowError as exc:
        raise SpaceTooLarge(str(exc)) from None
    need = q**M * (24 * M + 16) + sum(
        math.comb(q + n - 1, n) * (_BYTES_PER_MSET + _BYTES_PER_BOSON * n)
        for n in range(n_max + 1))
    if need > SPACE_BUDGET_BYTES:
        raise SpaceTooLarge(
            f"a Fock space with {q} nodes, M = {M} and n_max = {n_max} needs about "
            f"{need / 2**30:.3g} GiB of index tables, over the limit of "
            f"{SPACE_BUDGET_BYTES / 2**30:.3g} GiB")


class FockSpace:
    """Index tables for the truncated space: sectors n = 0..N_max.

    Coefficients of sector n are stored as a complex (S, B_n) array,
    S = (#nodes)^M source tuples by B_n canonical boson multisets.  The
    inner product weight of a coefficient is multiplicity * h^(d(M+n)).
    """

    def __init__(self, grid: MomentumGrid, M: int, n_max: int):
        if M < 1 or n_max < 0:
            raise ValueError("need M >= 1 and n_max >= 0")
        q = grid.n_nodes
        _refuse_oversized(q, M, n_max)
        self.grid = grid
        self.M = M
        self.n_max = n_max
        self.n_source_tuples = q**M
        # source tuples in row-major order; psq[s] = sum of |p_i|^2
        self.src_tuples = np.stack(
            [g.ravel() for g in np.meshgrid(*([np.arange(q)] * M), indexing="ij")],
            axis=1,
        ).astype(np.int64)
        self.psq = (grid.norms**2)[self.src_tuples].sum(axis=1)
        self._flat_ids = np.arange(self.n_source_tuples, dtype=np.int64)

        self.msets = []       # per n: (B_n, n) sorted node ids
        self.mult = []        # per n: (B_n,) multiplicities
        self._mset_pos = []   # per n: dict mapping tuple -> row
        for n in range(n_max + 1):
            rows = list(combinations_with_replacement(range(q), n))
            arr = np.asarray(rows, dtype=np.int64).reshape(len(rows), n)
            self.msets.append(arr)
            self.mult.append(np.asarray([_multiplicity(r) for r in rows], dtype=float))
            self._mset_pos.append({r: j for j, r in enumerate(rows)})
        self.dims = [self.n_source_tuples * m.shape[0] for m in self.msets]
        self.total_dim = int(sum(self.dims))
        self._ins_cache = {}
        self._src_shift_cache = {}
        self._omega_cache = {}
        self._kernel_cache = {}     # ops primitives per (kind, model shape, cutoff)

    def __repr__(self):
        return (f"FockSpace(M={self.M}, n_max={self.n_max}, nodes={self.grid.n_nodes}, "
                f"dim={self.total_dim})")

    # --- per-model node energies -------------------------------------
    def omega_sums(self, model):
        """Per sector n: (B_n,) sums of omega over the multiset."""
        key = MomentumGrid._model_key(model)
        if key not in self._omega_cache:
            om = self.grid.tables(model)[1]
            sums = []
            for n in range(self.n_max + 1):
                if n == 0:
                    sums.append(np.zeros(1))
                else:
                    sums.append(om[self.msets[n]].sum(axis=1))
            self._omega_cache[key] = sums
        return self._omega_cache[key]

    def free_values(self, model, n):
        """(S, B_n) array of P^2 + Omega(K) over the sector."""
        return self.psq[:, None] + self.omega_sums(model)[n][None, :]

    # --- index maps ----------------------------------------------------
    def insert_map(self, n, k):
        """(B_n,) target rows in sector n+1 of multiset union {k}, and the
        count of k in the target."""
        key = (n, int(k))
        if key not in self._ins_cache:
            if n + 1 > self.n_max:
                raise IndexError("insertion beyond the truncation")
            pos = self._mset_pos[n + 1]
            targets = np.empty(self.msets[n].shape[0], dtype=np.int64)
            counts = np.empty(self.msets[n].shape[0], dtype=float)
            for j, row in enumerate(self.msets[n]):
                t = tuple(sorted(row.tolist() + [int(k)]))
                targets[j] = pos[t]
                counts[j] = t.count(int(k))
            self._ins_cache[key] = (targets, counts)
        return self._ins_cache[key]

    def source_shift(self, i, k, sign):
        """(S,) map of source-tuple ids under p_i -> p_i + sign*transfer(k).

        Entries are -1 where the shifted source leaves the box.
        """
        key = (int(i), int(k), int(sign))
        if key not in self._src_shift_cache:
            disp = sign * self.grid.transfer[int(k)]
            node_map = self.grid.shift_node_ids(disp)   # (Q,) -> id or -1
            col = self.src_tuples[:, i]
            mapped = node_map[col]
            q = self.grid.n_nodes
            stride = q ** (self.M - 1 - i)
            out = np.where(mapped >= 0,
                           self._flat_ids + (mapped - col) * stride,
                           -1)
            self._src_shift_cache[key] = out
        return self._src_shift_cache[key]

    def weights(self, n):
        """(B_n,) inner-product weights multiplicity * h^(d(M+n))."""
        return self.mult[n] * self.grid.h ** (self.grid.d * (self.M + n))


class FockVector:
    """Truncated state: one (S, B_n) complex coefficient array per sector."""

    def __init__(self, space: FockSpace, sectors=None):
        self.space = space
        if sectors is None:
            sectors = [np.zeros((space.n_source_tuples, m.shape[0]), dtype=complex)
                       for m in space.msets]
        self.sectors = sectors

    @classmethod
    def zero(cls, space):
        return cls(space)

    @classmethod
    def random(cls, space, seed=None):
        rng = np.random.default_rng(seed)
        v = cls(space)
        for n in range(space.n_max + 1):
            shape = v.sectors[n].shape
            v.sectors[n] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return v

    def copy(self):
        return FockVector(self.space, [s.copy() for s in self.sectors])

    def __add__(self, other):
        return FockVector(self.space, [a + b for a, b in zip(self.sectors, other.sectors)])

    def __sub__(self, other):
        return FockVector(self.space, [a - b for a, b in zip(self.sectors, other.sectors)])

    def __mul__(self, scalar):
        return FockVector(self.space, [scalar * s for s in self.sectors])

    __rmul__ = __mul__

    def inner(self, other):
        """Multiplicity- and volume-weighted inner product, conjugate-linear
        in self."""
        total = 0.0 + 0.0j
        for n in range(self.space.n_max + 1):
            w = self.space.weights(n)
            total += np.einsum("sb,sb,b->", self.sectors[n].conj(), other.sectors[n], w)
        return complex(total)

    def norm(self):
        return math.sqrt(max(self.inner(self).real, 0.0))

    def flatten(self):
        """Coefficients scaled by sqrt(weight): the 2-norm of the flat
        vector equals the weighted norm."""
        parts = []
        for n in range(self.space.n_max + 1):
            w = np.sqrt(self.space.weights(n))
            parts.append((self.sectors[n] * w[None, :]).ravel())
        return np.concatenate(parts)

    @classmethod
    def unflatten(cls, space, flat):
        v = cls(space)
        off = 0
        for n in range(space.n_max + 1):
            s, b = space.n_source_tuples, space.msets[n].shape[0]
            w = np.sqrt(space.weights(n))
            block = flat[off:off + s * b].reshape(s, b).astype(complex)
            v.sectors[n] = block / w[None, :]
            off += s * b
        return v
