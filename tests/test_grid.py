import math
from collections import Counter
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest

from ibcfock import grid
from ibcfock.grid import (FockSpace, FockVector, GridSpec, SpaceTooLarge, build_grid,
                          sector_dimension)


class TestBuildGrid:
    def test_d1_two_nodes(self):
        g = build_grid(GridSpec(1, 2, 1.0))
        np.testing.assert_allclose(g.axis, [-0.5, 0.5])

    def test_d2_sixteen_nodes(self):
        g = build_grid(GridSpec(2, 4, 2.0))
        assert g.n_nodes == 16
        assert g.norms.min() == pytest.approx(math.sqrt(2) * 0.5)

    def test_d3_origin_free(self):
        g = build_grid(GridSpec(3, 8, 4.0))
        assert g.n_nodes == 512
        assert g.norms.min() > 0
        # half-cell offset: every axis coordinate at least h/2 in magnitude
        assert np.abs(g.coords).min() >= g.h / 2 - 1e-15

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(2, 3, 1.0)      # odd points
        with pytest.raises(ValueError):
            GridSpec(2, 4, -1.0)
        with pytest.raises(ValueError):
            GridSpec(4, 4, 1.0)

    def test_transfer_displacement_rounds_toward_zero(self):
        g = build_grid(GridSpec(1, 4, 2.0))    # nodes -1.5 -0.5 0.5 1.5, h = 1
        np.testing.assert_array_equal(g.transfer.ravel(), [-1, 0, 0, 1])
        # displacement magnitude never exceeds the node magnitude
        g3 = build_grid(GridSpec(3, 6, 3.0))
        assert np.all(np.abs(g3.transfer * g3.h) <= np.abs(g3.coords) + 1e-12)

    @pytest.mark.parametrize("d,n,k_max", [
        (1, 2, 1.0), (1, 10, 3.3), (2, 4, 2.0), (2, 16, 0.7), (3, 6, 3.3), (3, 48, 13.0),
    ])
    def test_node_tables_match_elementwise_formulas(self, d, n, k_max):
        # the tables evaluated on (Q, d) meshgrid arrays, bit for bit
        g = build_grid(GridSpec(d, n, k_max))
        coords = np.stack([a.ravel() for a in np.meshgrid(*[g.axis] * d, indexing="ij")],
                          axis=1)
        index = np.stack([a.ravel() for a in np.meshgrid(*[np.arange(n)] * d,
                                                         indexing="ij")], axis=1)
        want = {"coords": coords, "axis_index": index,
                "norms": np.sqrt((coords**2).sum(axis=1)),
                "transfer": np.trunc(coords / g.h).astype(np.int64)}
        for name, ref in want.items():
            got = getattr(g, name)
            np.testing.assert_array_equal(got, ref, err_msg=name)
            assert got.dtype == ref.dtype and got.flags.c_contiguous, name

    def test_cutoff_mask(self):
        g = build_grid(GridSpec(2, 4, 2.0))
        assert g.cutoff_mask(None).all()
        m = g.cutoff_mask(1.0)
        assert m.sum() == (g.norms < 1.0).sum() > 0


class TestSectorDimension:
    @pytest.mark.parametrize("q,M,n,expected", [
        (2, 1, 0, 2),
        (2, 1, 2, 6),
        (16, 1, 2, 2176),
    ])
    def test_values(self, q, M, n, expected):
        assert sector_dimension(q, M, n) == expected

    def test_brute_force_oracle(self):
        # enumerate sorted pairs over 16 nodes explicitly
        count = sum(1 for _ in combinations_with_replacement(range(16), 2))
        assert sector_dimension(16, 1, 2) == 16 * count

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            sector_dimension(10**6, 3, 4)


class TestSpaceTooLarge:
    def test_refused_over_budget(self, monkeypatch):
        monkeypatch.setattr(grid, "SPACE_BUDGET_BYTES", 0)
        with pytest.raises(SpaceTooLarge):
            FockSpace(build_grid(GridSpec(1, 2, 1.0)), 1, 1)

    def test_index_overflow_is_refused(self):
        # 512^7 source tuples exceed the index range
        with pytest.raises(SpaceTooLarge):
            FockSpace(build_grid(GridSpec(3, 8, 2.0)), 7, 1)


class TestInnerProduct:
    @pytest.fixture
    def space(self):
        return FockSpace(build_grid(GridSpec(1, 4, 2.0)), 1, 3)

    def test_against_unsymmetrized_expansion(self, space):
        u = FockVector.random(space, 1)
        v = FockVector.random(space, 2)
        g = space.grid
        total = 0.0 + 0.0j
        for n in range(space.n_max + 1):
            for s in range(space.n_source_tuples):
                for b, row in enumerate(space.msets[n]):
                    n_perms = len(set(permutations(row.tolist())))
                    w = n_perms * g.h ** (g.d * (space.M + n))
                    total += w * np.conj(u.sectors[n][s, b]) * v.sectors[n][s, b]
        assert u.inner(v) == pytest.approx(total, rel=1e-12)

    def test_positive_definite(self, space):
        u = FockVector.random(space, 3)
        assert u.inner(u).real > 0
        assert abs(u.inner(u).imag) < 1e-12 * u.inner(u).real

    def test_parseval(self, space):
        u = FockVector.random(space, 4)
        assert u.norm() == pytest.approx(np.linalg.norm(u.flatten()), rel=1e-13)

    def test_flatten_unflatten_inverse(self, space):
        u = FockVector.random(space, 5)
        v = FockVector.unflatten(space, u.flatten())
        for a, b in zip(u.sectors, v.sectors):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_conjugate_symmetry(self, space):
        u = FockVector.random(space, 6)
        v = FockVector.random(space, 7)
        assert u.inner(v) == pytest.approx(np.conj(v.inner(u)))


class TestSourceShiftMaps:
    def test_off_grid_entries(self):
        space = FockSpace(build_grid(GridSpec(1, 4, 2.0)), 2, 1)
        m = space.source_shift(1, 3, -1)    # node 3 transfers by +1 cell
        tuples = space.src_tuples
        for s, target in enumerate(m):
            p1 = tuples[s, 1]
            if p1 == 0:
                assert target == -1
            else:
                assert tuples[target, 1] == p1 - 1
                assert tuples[target, 0] == tuples[s, 0]

    def test_zero_transfer_is_identity(self):
        space = FockSpace(build_grid(GridSpec(1, 4, 2.0)), 1, 1)
        # innermost nodes (ids 1, 2) have zero transfer displacement
        np.testing.assert_array_equal(space.source_shift(0, 1, +1),
                                      np.arange(space.n_source_tuples))


class TestIndexTablesOracle:
    """The index tables every operator is built from, against brute-force
    recomputation on plain tuples."""

    @pytest.fixture(scope="class", params=[GridSpec(1, 4, 2.0), GridSpec(2, 4, 2.0)],
                    ids=["1d", "2d"])
    def space(self, request):
        return FockSpace(build_grid(request.param), 2, 3)

    @staticmethod
    def multisets(q, n):
        """Sorted boson tuples of sector n, in lexicographic order."""
        return sorted({tuple(sorted(t)) for t in product(range(q), repeat=n)})

    def test_multisets_and_multiplicities(self, space):
        q = space.grid.n_nodes
        for n in range(space.n_max + 1):
            rows = self.multisets(q, n)
            assert [tuple(r) for r in space.msets[n].tolist()] == rows
            for row, mult in zip(rows, space.mult[n]):
                expected = math.factorial(n)
                for c in Counter(row).values():
                    expected //= math.factorial(c)
                assert mult == expected

    def test_insert_map(self, space):
        q = space.grid.n_nodes
        for n in range(space.n_max):
            target_row = {t: j for j, t in enumerate(self.multisets(q, n + 1))}
            for k in range(q):
                targets, counts = space.insert_map(n, k)
                for j, row in enumerate(self.multisets(q, n)):
                    t = tuple(sorted(row + (k,)))
                    assert targets[j] == target_row[t]
                    assert counts[j] == t.count(k)

    def test_source_shift(self, space):
        d, N, M = space.grid.d, space.grid.points_per_axis, space.M
        q = space.grid.n_nodes
        tuples = list(product(range(q), repeat=M))     # row-major source tuples
        row_of = {t: s for s, t in enumerate(tuples)}

        def axes(node):
            return [node // N ** (d - 1 - a) % N for a in range(d)]

        for i, k, sign in product(range(M), range(q), (-1, 1)):
            # coordinate of axis index c is (c + 1/2 - N/2) h; rounded toward zero
            transfer = [math.trunc(c + 0.5 - N / 2) for c in axes(k)]
            got = space.source_shift(i, k, sign)
            for s, src in enumerate(tuples):
                target = [c + sign * t for c, t in zip(axes(src[i]), transfer)]
                if all(0 <= c < N for c in target):
                    moved = list(src)
                    moved[i] = sum(c * N ** (d - 1 - a) for a, c in enumerate(target))
                    assert got[s] == row_of[tuple(moved)]
                else:
                    assert got[s] == -1
