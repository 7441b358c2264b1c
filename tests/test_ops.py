import numpy as np
import pytest
import scipy.sparse as sp

from ibcfock import model, ops
from ibcfock.grid import FockSpace, FockVector, GridSpec, SpaceTooLarge, build_grid


@pytest.fixture(scope="module")
def delta_setup():
    m = model.delta2d(g=0.8)
    space = FockSpace(build_grid(GridSpec(2, 4, 2.0)), 1, 2)
    return m, space


@pytest.fixture(scope="module")
def micro_setup():
    # tiny d=2 configuration for dense comparisons
    m = model.delta2d(g=0.7)
    space = FockSpace(build_grid(GridSpec(2, 2, 1.5)), 1, 2)
    return m, space


@pytest.fixture(scope="module")
def froehlich_setup():
    m = model.froehlich(g=0.6)
    space = FockSpace(build_grid(GridSpec(3, 2, 2.0)), 1, 2)
    return m, space


@pytest.fixture(scope="module")
def two_source_setup():
    # on 2 points per axis every transfer is 0, so the two-source tests
    # there see no shifted source pairing; on 4 x 4 the sources trade momentum
    m = model.delta2d(g=0.9, M=2)
    space = FockSpace(build_grid(GridSpec(2, 4, 2.0)), 2, 2)
    return m, space


def dense(handle):
    return ops.assemble_dense(handle)


class TestFreeMultiplier:
    def test_power_zero_is_identity(self, micro_setup):
        m, space = micro_setup
        h = ops.free_multiplier(m, space, 0.0)
        v = FockVector.random(space, 0)
        assert (h.apply(v) - v).norm() == 0.0

    def test_single_node_value(self):
        # one source at p = 0.5, one boson at k = 0.5, omega = 1 + k^2
        m = model.power_law_model(1, 0.0, 2.0)
        space = FockSpace(build_grid(GridSpec(1, 2, 1.0)), 1, 1)
        h = ops.free_multiplier(m, space, 1.0)
        v = FockVector.zero(space)
        v.sectors[1][1, 1] = 1.0             # source and boson on node 1, +0.5
        out = h.apply(v)
        assert out.sectors[1][1, 1] == pytest.approx(0.25 + 1.25)

    def test_inverse_pair_on_bosonic_sectors(self, micro_setup):
        m, space = micro_setup
        v = FockVector.random(space, 1)
        v.sectors[0][:] = 0.0
        back = ops.free_multiplier(m, space, 1.0).apply(
            ops.free_multiplier(m, space, -1.0).apply(v))
        assert (back - v).norm() < 1e-13 * v.norm()

    def test_singular_inverse_detection(self, micro_setup, monkeypatch):
        # a synthetic sector with an exact zero cannot be inverted; our grids
        # never produce one, so patch a zero into the space's free values
        m, space = micro_setup
        assert space.free_values(m, 0).min() > 0.0
        assert ops.free_multiplier(m, space, -1.0).selfadjoint_claim   # fine here
        free_values = space.free_values

        def with_zero(model, n):
            vals = free_values(model, n).copy()
            vals[0, 0] = 0.0
            return vals

        monkeypatch.setattr(space, "free_values", with_zero)
        with pytest.raises(ops.SingularInverse):
            ops.free_multiplier(m, space, -1.0)


class TestNumberMultiplier:
    def test_scaling(self, micro_setup):
        _, space = micro_setup
        h = ops.number_multiplier(space, 1.0)
        v = FockVector.random(space, 2)
        out = h.apply(v)
        for n in range(space.n_max + 1):
            np.testing.assert_allclose(out.sectors[n], n * v.sectors[n])

    def test_zero_power_is_identity(self, micro_setup):
        _, space = micro_setup
        h = ops.number_multiplier(space, 0.0)
        v = FockVector.random(space, 3)
        assert (h.apply(v) - v).norm() == 0.0

    def test_negative_power_raises(self, micro_setup):
        _, space = micro_setup
        with pytest.raises(ops.SingularInverse):
            ops.number_multiplier(space, -1.0)


class TestLadderOperators:
    def test_vacuum_annihilates_to_zero(self, delta_setup):
        m, space = delta_setup
        v = FockVector.zero(space)
        v.sectors[0][:] = np.random.default_rng(0).standard_normal(v.sectors[0].shape)
        assert ops.apply_annihilation(m, space, None, v).norm() == 0.0

    def test_single_term_kernel(self):
        # d=1, two nodes, vhat = 1: one boson at k = +0.5 with source at +0.5;
        # the transfer displacement of +-0.5 is zero, so the coefficient lands
        # at the unshifted source node with weight h = 1
        m = model.power_law_model(1, 0.0, 2.0, g=1.0)
        space = FockSpace(build_grid(GridSpec(1, 2, 1.0)), 1, 1)
        v = FockVector.zero(space)
        v.sectors[1][1, 1] = 1.0
        out = ops.apply_annihilation(m, space, None, v)
        expected = np.zeros((2, 1))
        expected[1, 0] = space.grid.h  # sqrt(1) * h * vhat
        np.testing.assert_allclose(out.sectors[0], expected)
        assert out.sectors[1].any() == False

    def test_adjointness_random_states(self, delta_setup):
        m, space = delta_setup
        phi = FockVector.random(space, 11)
        psi = FockVector.random(space, 12)
        lhs = phi.inner(ops.apply_annihilation(m, space, None, psi))
        rhs = ops.apply_creation(m, space, None, phi).inner(psi)
        assert abs(lhs - rhs) < 1e-13 * phi.norm() * psi.norm()

    def test_adjointness_d1_four_nodes(self):
        # random vacuum-sector phi against one-boson psi on a 4-node line
        m = model.power_law_model(1, 0.2, 1.0, g=1.0)
        space = FockSpace(build_grid(GridSpec(1, 4, 2.0)), 1, 1)
        rng = np.random.default_rng(8)
        phi = FockVector.zero(space)
        phi.sectors[0][:] = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        psi = FockVector.zero(space)
        psi.sectors[1][:] = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = phi.inner(ops.apply_annihilation(m, space, None, psi))
        rhs = ops.apply_creation(m, space, None, phi).inner(psi)
        assert abs(lhs - rhs) <= 1e-13 * max(phi.norm() * psi.norm(), 1.0)

    def test_adjointness_with_cutoff(self, delta_setup):
        m, space = delta_setup
        phi = FockVector.random(space, 13)
        psi = FockVector.random(space, 14)
        lam = 1.3
        lhs = phi.inner(ops.apply_annihilation(m, space, lam, psi))
        rhs = ops.apply_creation(m, space, lam, phi).inner(psi)
        assert abs(lhs - rhs) < 1e-13 * phi.norm() * psi.norm()

    def test_dense_adjoint_exact(self, micro_setup):
        m, space = micro_setup
        a = dense(ops.annihilation(m, space))
        astar = dense(ops.creation(m, space))
        assert np.abs(astar - a.conj().T).max() < 1e-14

    def test_creation_is_the_transpose_of_annihilation(self, delta_setup):
        m, space = delta_setup
        a = ops.annihilation(m, space).matrix
        assert sp.issparse(a) and a.format == "csr"
        assert a.dtype == np.float64 and a.indices.dtype == np.int32
        astar = dense(ops.creation(m, space))
        assert np.abs(astar - dense(ops.annihilation(m, space)).T).max() == 0.0

    def test_cutoff_prunes_nodes(self, delta_setup):
        m, space = delta_setup
        psi = FockVector.random(space, 15)
        full = ops.apply_annihilation(m, space, None, psi)
        cut = ops.apply_annihilation(m, space, 0.9, psi)
        assert (full - cut).norm() > 1e-8  # the cutoff really removes terms

    def test_connectivity_respected(self, delta_setup):
        m, space = delta_setup
        v = FockVector.zero(space)
        v.sectors[1][:] = 1.0
        up = ops.apply_creation(m, space, None, v)
        assert not up.sectors[0].any() and not up.sectors[1].any()
        down = ops.apply_annihilation(m, space, None, v)
        assert not down.sectors[1].any() and not down.sectors[2].any()


class TestBoundaryMap:
    def test_zero_in_zero_out(self, delta_setup):
        m, space = delta_setup
        assert ops.apply_boundary_map(m, space, None, FockVector.zero(space)).norm() == 0.0

    def test_kernel_formula_d1(self):
        # g=1, M=1, vhat=1, omega=1: sector-1 output is
        # -psi0(p + t(k)) / (p^2 + 1) at each node pair
        m = model.power_law_model(1, 0.0, 0.0, g=1.0)
        space = FockSpace(build_grid(GridSpec(1, 4, 2.0)), 1, 1)
        rng = np.random.default_rng(5)
        psi = FockVector.zero(space)
        psi.sectors[0][:, 0] = rng.standard_normal(4)
        out = ops.apply_boundary_map(m, space, None, psi)
        g = space.grid
        for s in range(4):
            for k in range(4):
                shifted = space.source_shift(0, k, +1)[s]
                expected = 0.0
                if shifted >= 0:
                    expected = -psi.sectors[0][shifted, 0] / (g.norms[s] ** 2 + 1.0)
                assert out.sectors[1][s, k] == pytest.approx(expected)

    def test_dense_factorization(self, micro_setup):
        m, space = micro_setup
        b = dense(ops.boundary_map(m, space))
        astar = dense(ops.creation(m, space))
        linv = dense(ops.free_multiplier(m, space, -1.0))
        assert np.abs(b + m.g * linv @ astar).max() < 1e-12

    def test_no_rows_in_vacuum_sector(self, delta_setup):
        m, space = delta_setup
        b = ops.boundary_map(m, space).matrix.tocsr()
        assert b.indptr[space.dims[0]] == 0
        assert b.nnz > 0

    def test_adjoint_is_exact(self, delta_setup):
        m, space = delta_setup
        phi = FockVector.random(space, 21)
        psi = FockVector.random(space, 22)
        lhs = phi.inner(ops.apply_boundary_map(m, space, None, psi))
        rhs = ops.apply_boundary_map_adjoint(m, space, None, phi).inner(psi)
        assert abs(lhs - rhs) < 1e-13 * phi.norm() * psi.norm()

    def test_range_in_free_operator_kernel_pairing(self, delta_setup):
        # <B phi, L psi> = <phi, -g a psi> for all grid states
        m, space = delta_setup
        phi = FockVector.random(space, 23)
        psi = FockVector.random(space, 24)
        free = ops.free_multiplier(m, space, 1.0)
        lhs = ops.apply_boundary_map(m, space, None, phi).inner(free.apply(psi))
        rhs = phi.inner(-m.g * ops.apply_annihilation(m, space, None, psi))
        assert abs(lhs - rhs) < 1e-12 * phi.norm() * psi.norm()

    def test_nilpotent_on_truncated_space(self, delta_setup):
        m, space = delta_setup
        v = FockVector.random(space, 25)
        w = v.copy()
        for _ in range(space.n_max + 1):
            w = ops.apply_boundary_map(m, space, None, w)
        assert w.norm() == 0.0

    def test_neumann_inversion(self, delta_setup):
        m, space = delta_setup
        v = FockVector.random(space, 26)
        x = v.copy()
        term = v.copy()
        for _ in range(space.n_max):
            term = ops.apply_boundary_map(m, space, None, term)
            x = x + term
        residual = (x - ops.apply_boundary_map(m, space, None, x)) - v
        assert residual.norm() < 1e-13 * v.norm()


class TestContactTerm:
    def test_composed_form_perturbation(self, froehlich_setup):
        m, space = froehlich_setup
        t = dense(ops.contact_term(m, space))
        b = dense(ops.boundary_map(m, space))
        free = dense(ops.free_multiplier(m, space, 1.0))
        assert np.abs(t + b.conj().T @ free @ b).max() < 1e-12

    def test_offdiagonal_vanishes_on_vacuum_sector(self, delta_setup):
        m, space = delta_setup
        v = FockVector.zero(space)
        v.sectors[0][:] = 1.0
        # single source: no source-exchange kernels; no bosons: no exchange
        assert ops.apply_contact_offdiagonal(m, space, None, v).norm() == 0.0

    def test_offdiagonal_hermitian_two_sources(self):
        m = model.delta2d(g=0.9, M=2)
        space = FockSpace(build_grid(GridSpec(2, 2, 1.0)), 2, 2)
        to = dense(ops.contact_offdiagonal(m, space))
        assert np.abs(to - to.conj().T).max() < 1e-11
        # with two sources the source-exchange part is present
        assert np.abs(to).max() > 0

    def test_grid_consistent_split_matches_composition(self, delta_setup):
        # diagonal + off-diagonal kernels equal the composed contact term
        # plus the grid counterterm, exactly
        m, space = delta_setup
        e = ops.counterterm_grid(m, space, None)
        v = FockVector.random(space, 31)
        split = (ops.contact_diagonal(m, space).apply(v)
                 + ops.contact_offdiagonal(m, space).apply(v))
        composed = m.g * ops.apply_annihilation(
            m, space, None, ops.apply_boundary_map(m, space, None, v)) + e * v
        assert (split - composed).norm() < 1e-12 * v.norm()

    def test_grid_consistent_split_matches_composition_at_cutoff(self, delta_setup):
        m, space = delta_setup
        lam = 1.5
        e = ops.counterterm_grid(m, space, lam)
        v = FockVector.random(space, 32)
        split = (ops.contact_diagonal(m, space, cutoff=lam).apply(v)
                 + ops.contact_offdiagonal(m, space, cutoff=lam).apply(v))
        composed = m.g * ops.apply_annihilation(
            m, space, lam, ops.apply_boundary_map(m, space, lam, v)) + e * v
        assert (split - composed).norm() < 1e-12 * v.norm()

    def test_two_source_split_matches_composition(self):
        m = model.delta2d(g=0.9, M=2)
        space = FockSpace(build_grid(GridSpec(2, 2, 1.0)), 2, 2)
        e = ops.counterterm_grid(m, space, None)
        v = FockVector.random(space, 33)
        split = (ops.contact_diagonal(m, space).apply(v)
                 + ops.contact_offdiagonal(m, space).apply(v))
        composed = m.g * ops.apply_annihilation(
            m, space, None, ops.apply_boundary_map(m, space, None, v)) + e * v
        assert (split - composed).norm() < 1e-12 * v.norm()

    def test_offdiagonal_hermitian_two_sources_with_transfers(self, two_source_setup):
        m, space = two_source_setup
        t = ops.contact_offdiagonal(m, space).matrix
        assert abs(t - t.T).max() < 1e-11
        source = np.concatenate([np.repeat(np.arange(space.n_source_tuples), len(ms))
                                 for ms in space.msets])
        coo = t.tocoo()
        assert np.any(source[coo.row] != source[coo.col])

    def test_two_source_split_matches_composition_with_transfers(self, two_source_setup):
        m, space = two_source_setup
        e = ops.counterterm_grid(m, space, None)
        v = FockVector.random(space, 33)
        split = (ops.contact_diagonal(m, space).apply(v)
                 + ops.contact_offdiagonal(m, space).apply(v))
        composed = m.g * ops.apply_annihilation(
            m, space, None, ops.apply_boundary_map(m, space, None, v)) + e * v
        assert (split - composed).norm() < 1e-12 * v.norm()

    def test_boson_exchange_kernel_against_loop_reference(self):
        # literal per-index evaluation of the exchange kernels as an
        # independent oracle for the vectorized scatter implementation
        m = model.delta2d(g=0.9)
        space = FockSpace(build_grid(GridSpec(2, 2, 1.0)), 1, 2)
        g = space.grid
        vhat, om = g.tables(m)
        hd = g.h**g.d
        phi = FockVector.random(space, 34)
        out = ops.apply_contact_offdiagonal(m, space, None, phi)

        n = 1  # check the one-boson sector coefficient by coefficient
        for s in range(space.n_source_tuples):
            for b, mset in enumerate(space.msets[n]):
                acc = 0.0 + 0.0j
                for w in mset.tolist():  # one entry; counts handled by the loop
                    for k in range(g.n_nodes):
                        s1 = space.source_shift(0, k, -1)[s]
                        if s1 < 0:
                            continue
                        s2 = space.source_shift(0, w, +1)[s1]
                        if s2 < 0:
                            continue
                        arg = space._mset_pos[n][tuple(sorted([k]))]
                        denom = (space.psq[s1] + om[w] + om[k])
                        acc += (-m.g**2 * hd * vhat[k] * vhat[w]
                                * phi.sectors[n][s2, arg] / denom)
                assert out.sectors[n][s, b] == pytest.approx(acc, abs=1e-12)


class TestRefusalAboveBudget:
    """An operator whose kernel triplets exceed the assembly budget is
    refused from counts, before any index gather or array is allocated."""

    BUILDERS = [ops.annihilation, ops.creation, ops.boundary_map, ops.contact_term,
                ops.cutoff_hamiltonian, ops.hamiltonian,
                lambda m, s: ops.shifted(ops.cutoff_hamiltonian(m, s), 0.5)]

    @staticmethod
    def forbid_allocation(monkeypatch):
        for name in ("_shifts", "_inserts", "flat_free_values"):
            monkeypatch.setattr(ops, name, lambda *args: pytest.fail("allocated"))

    @pytest.mark.parametrize("m,spec", [
        (model.delta2d(g=0.9, M=2), GridSpec(2, 2, 1.0)),
        (model.froehlich(g=0.6, M=2), GridSpec(3, 2, 2.0)),   # composed contact term
    ])
    def test_every_builder_refuses(self, m, spec, monkeypatch):
        space = FockSpace(build_grid(spec), 2, 2)
        builders = list(self.BUILDERS)
        if m.is_renormalisable:
            builders.append(ops.contact_offdiagonal)
        monkeypatch.setattr(ops, "ASSEMBLY_BUDGET_BYTES", 0)
        self.forbid_allocation(monkeypatch)
        for build in builders:
            with pytest.raises(SpaceTooLarge, match="Fock space .* GiB"):
                build(m, space)
        assert not space._kernel_cache

    def test_budget_between_the_kernels(self, monkeypatch):
        # a fits, the exchange kernels do not: the composed contact term of a
        # form-perturbation model is refused, the ladder operators still build
        m = model.froehlich(g=0.6, M=2)
        space = FockSpace(build_grid(GridSpec(3, 2, 2.0)), 2, 2)
        a_bytes = ops._annihilation_bound(space, None) * ops._BYTES_PER_TRIPLET
        exchange_bytes = ops._exchange_bound(space, None) * ops._BYTES_PER_TRIPLET
        assert a_bytes < exchange_bytes
        monkeypatch.setattr(ops, "ASSEMBLY_BUDGET_BYTES", a_bytes)
        assert ops.annihilation(m, space).matrix.nnz > 0
        assert ops.cutoff_hamiltonian(m, space).matrix.nnz > 0
        self.forbid_allocation(monkeypatch)
        with pytest.raises(SpaceTooLarge, match="contact term"):
            ops.contact_term(m, space)
        with pytest.raises(SpaceTooLarge, match="contact term"):
            ops.hamiltonian(m, space)


class TestContactDiagonalContinuum:
    def test_requires_renormalisable(self, froehlich_setup):
        m, space = froehlich_setup
        with pytest.raises(ValueError):
            ops.contact_diagonal(m, space, ops.DiagonalMode.CONTINUUM)

    def test_cache_corner_values_match_direct(self):
        from ibcfock import quad
        m = model.delta2d(g=1.0)
        cache = ops.ContactDiagonalCache(m, bucket=0.25)
        for ip, ie in ((0, 0), (4, 0), (2, 8)):
            direct = quad.regularized_subtracted_integral(
                m, ip * 0.25, ie * 0.25, tol=1e-8)
            assert cache.corner_value(ip, ie) == pytest.approx(direct, abs=1e-10)
        assert len(cache) == 3

    def test_interpolation_close_to_direct(self):
        from ibcfock import quad
        m = model.delta2d(g=1.0)
        cache = ops.ContactDiagonalCache(m, bucket=0.05)
        p, env = 0.62, 1.17
        direct = quad.regularized_subtracted_integral(m, p, env, tol=1e-10)
        interp = cache.get_many(np.array([p]), np.array([env]))[0]
        assert interp == pytest.approx(direct, abs=2e-4)

    def test_continuum_handle_diagonal_values(self, micro_setup):
        from ibcfock import quad
        m, space = micro_setup
        fine = ops.ContactDiagonalCache(m, bucket=0.02)
        h = ops.contact_diagonal(m, space, ops.DiagonalMode.CONTINUUM, cache=fine)
        coarse = ops.contact_diagonal(m, space, ops.DiagonalMode.CONTINUUM)
        v = FockVector.zero(space)
        v.sectors[0][:] = 1.0
        out = h.apply(v)
        out_coarse = coarse.apply(v)
        norms = space.grid.norms
        for s in range(space.n_source_tuples):
            expected = -m.g**2 * quad.regularized_subtracted_integral(
                m, norms[s], 0.0, tol=1e-8)
            assert out.sectors[0][s, 0] == pytest.approx(expected, rel=2e-3)
            # default bucket (grid spacing / 4) interpolates more coarsely
            assert out_coarse.sectors[0][s, 0] == pytest.approx(expected, rel=2e-2)


class TestHamiltonians:
    def test_zero_coupling_reduces_to_free(self, micro_setup):
        _, space = micro_setup
        m0 = model.delta2d(g=0.0)
        v = FockVector.random(space, 41)
        h = ops.hamiltonian(m0, space)
        free = ops.free_multiplier(m0, space, 1.0)
        assert (h.apply(v) - free.apply(v)).norm() < 1e-14 * v.norm()

    def test_cutoff_hamiltonian_three_terms(self, micro_setup):
        m, space = micro_setup
        v = FockVector.random(space, 42)
        out = ops.cutoff_hamiltonian(m, space).apply(v)
        manual = (ops.free_multiplier(m, space, 1.0).apply(v)
                  + m.g * ops.apply_annihilation(m, space, None, v)
                  + m.g * ops.apply_creation(m, space, None, v))
        assert (out - manual).norm() < 1e-14 * out.norm()

    def test_headline_identity_dense(self, micro_setup):
        m, space = micro_setup
        hd = dense(ops.hamiltonian(m, space))
        hl = dense(ops.cutoff_hamiltonian(m, space))
        e = ops.counterterm_grid(m, space, None)
        assert np.abs(hd - hl - e * np.eye(space.total_dim)).max() < 1e-12

    def test_headline_identity_at_finite_cutoff(self, micro_setup):
        m, space = micro_setup
        lam = 1.0
        hd = dense(ops.hamiltonian(m, space, cutoff=lam))
        hl = dense(ops.cutoff_hamiltonian(m, space, cutoff=lam))
        e = ops.counterterm_grid(m, space, lam)
        assert np.abs(hd - hl - e * np.eye(space.total_dim)).max() < 1e-12

    def test_shifted_cutoff_hamiltonian_is_the_hamiltonian(self, micro_setup):
        m, space = micro_setup
        lam = 1.0
        e = ops.counterterm_grid(m, space, lam)
        reg = ops.shifted(ops.cutoff_hamiltonian(m, space, cutoff=lam), e)
        hd = dense(ops.hamiltonian(m, space, cutoff=lam))
        assert np.abs(dense(reg) - hd).max() < 1e-12

    def test_hermiticity_both_modes(self, micro_setup):
        m, space = micro_setup
        for mode in (ops.DiagonalMode.GRID_CONSISTENT, ops.DiagonalMode.CONTINUUM):
            hd = dense(ops.hamiltonian(m, space, mode))
            assert np.abs(hd - hd.conj().T).max() < 1e-10

    def test_form_perturbation_hermiticity(self, froehlich_setup):
        m, space = froehlich_setup
        hd = dense(ops.hamiltonian(m, space))
        assert np.abs(hd - hd.conj().T).max() < 1e-12

    def test_linearity(self, delta_setup):
        m, space = delta_setup
        h = ops.hamiltonian(m, space)
        x = FockVector.random(space, 43)
        y = FockVector.random(space, 44)
        lhs = h.apply(2.0 * x + 1.5j * y)
        rhs = 2.0 * h.apply(x) + 1.5j * h.apply(y)
        assert (lhs - rhs).norm() < 1e-12 * (lhs.norm() + 1.0)


@pytest.mark.parametrize("n_max", [0, 1, 2])
@pytest.mark.parametrize("M", [1, 2])
@pytest.mark.parametrize("kind", ["delta2d", "nelson", "froehlich"])
def test_top_sector_block_is_diagonal(kind, M, n_max):
    # the kernels that would couple two states of sector n_max pass through
    # sector n_max + 1, so every stored entry of the top sector's block lies
    # on the diagonal; the direct resolvent solve rests on it
    if kind == "delta2d":
        # 4 points per axis: on 2 the source-exchange transfers all vanish
        m, spec = model.delta2d(g=0.7, M=M), GridSpec(2, 4, 2.0)
    else:
        m, spec = getattr(model, kind)(g=0.6, M=M), GridSpec(3, 2, 1.0)
    space = FockSpace(build_grid(spec), M, n_max)
    lam = 0.5 * spec.k_max
    handles = {
        "hamiltonian grid": ops.hamiltonian(m, space),
        "hamiltonian continuum": ops.hamiltonian(m, space, ops.DiagonalMode.CONTINUUM),
        "cutoff_hamiltonian at lambda": ops.cutoff_hamiltonian(m, space, lam),
        "cutoff_hamiltonian full grid": ops.cutoff_hamiltonian(m, space),
        "shifted cutoff_hamiltonian": ops.shifted(ops.cutoff_hamiltonian(m, space, lam),
                                                  ops.counterterm_grid(m, space, lam)),
        "contact_term": ops.contact_term(m, space),
    }
    top = space.total_dim - space.dims[-1]
    for name, h in handles.items():
        coo = h.matrix.tocoo()
        in_top = (coo.row >= top) & (coo.col >= top)
        assert np.array_equal(coo.row[in_top], coo.col[in_top]), name


class TestDenseAssembly:
    def test_identity_handle(self, micro_setup):
        m, space = micro_setup
        ident = ops.OperatorHandle(sp.eye_array(space.total_dim, format="csr"),
                                   True, m, space)
        np.testing.assert_allclose(dense(ident), np.eye(space.total_dim), atol=1e-15)

    def test_free_handle_is_diagonal(self, micro_setup):
        m, space = micro_setup
        mat = dense(ops.free_multiplier(m, space, 1.0))
        off = mat - np.diag(np.diag(mat))
        assert np.abs(off).max() < 1e-15
        assert np.diag(mat).min() >= 1.0  # every sector with a boson has L >= 1

    def test_dimension_cap(self, micro_setup):
        m, space = micro_setup
        with pytest.raises(ops.DimensionCap):
            ops.assemble_dense(ops.free_multiplier(m, space, 1.0), cap=10)
