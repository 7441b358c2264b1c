import itertools
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from ibcfock import analysis, model, ops
from ibcfock.grid import FockSpace, FockVector, GridSpec, SpaceTooLarge, build_grid


@pytest.fixture(scope="module")
def small_setup():
    m = model.delta2d(g=0.8)
    space = FockSpace(build_grid(GridSpec(2, 2, 1.5)), 1, 2)
    return m, space


class TestResolventSolve:
    def test_diagonal_closed_form(self, small_setup):
        m, space = small_setup
        free = ops.free_multiplier(m, space, 1.0)
        psi = FockVector.random(space, 1)
        [x], _ = analysis.resolvent_solve(free, 1j, [psi], tol=1e-10)
        closed = FockVector(space, [
            psi.sectors[n] / (space.free_values(m, n) + 1j)
            for n in range(space.n_max + 1)])
        assert (x - closed).norm() < 1e-9 * closed.norm()

    def test_contraction_bound(self, small_setup):
        # ||(H+i)^-1 psi|| <= ||psi|| for hermitian H
        m, space = small_setup
        h = ops.hamiltonian(m, space)
        psi = FockVector.random(space, 2)
        [x], _ = analysis.resolvent_solve(h, 1j, [psi], tol=1e-9)
        assert x.norm() <= psi.norm() * (1 + 1e-9)

    def test_against_dense_solve(self, small_setup):
        m, space = small_setup
        h = ops.hamiltonian(m, space)
        hd = ops.assemble_dense(h)
        b = FockVector.random(space, 3)
        [x], _ = analysis.resolvent_solve(h, 1j, [b], tol=1e-10)
        x_dense = np.linalg.solve(hd + 1j * np.eye(space.total_dim), b.flatten())
        assert np.linalg.norm(x.flatten() - x_dense) < 1e-8 * np.linalg.norm(x_dense)

    def test_true_residual_contract(self, small_setup):
        m, space = small_setup
        h = ops.hamiltonian(m, space)
        psi = FockVector.random(space, 4)
        tol = 1e-8
        [x], _ = analysis.resolvent_solve(h, 1j, [psi], tol=tol)
        res = (h.apply(x) + 1j * x - psi).norm()
        assert res <= tol * psi.norm()

    def test_rejects_real_shift(self, small_setup):
        m, space = small_setup
        h = ops.hamiltonian(m, space)
        with pytest.raises(ValueError):
            analysis.resolvent_solve(h, complex(1.0, 0.0), [FockVector.random(space, 5)])

    @pytest.mark.parametrize("M,n_max", [(1, 0), (1, 1), (1, 2), (2, 2)])
    def test_block_against_dense_solve(self, M, n_max):
        m = model.delta2d(g=0.8, M=M)
        space = FockSpace(build_grid(GridSpec(2, 2, 1.5)), M, n_max)
        h = ops.hamiltonian(m, space)
        psis = [FockVector.random(space, seed) for seed in range(3)]
        xs, res = analysis.resolvent_solve(h, 1j, psis, tol=1e-10)
        b = np.stack([p.flatten() for p in psis], axis=1)
        ref = np.linalg.solve(ops.assemble_dense(h) + 1j * np.eye(space.total_dim), b)
        got = np.stack([x.flatten() for x in xs], axis=1)
        assert np.linalg.norm(got - ref) < 1e-12 * np.linalg.norm(ref)
        assert res.shape == (3,)
        assert (res <= 1e-10 * np.linalg.norm(b, axis=0)).all()

    def test_block_equals_column_solves(self, small_setup):
        m, space = small_setup
        h = ops.hamiltonian(m, space)
        psis = [FockVector.random(space, seed) for seed in (6, 7, 8)]
        xs, res = analysis.resolvent_solve(h, 1j, psis)
        for psi, x, r in zip(psis, xs, res):
            [y], [ry] = analysis.resolvent_solve(h, 1j, [psi])
            assert (x - y).norm() <= 1e-15 * y.norm()
            assert abs(r - ry) <= 1e-15 * psi.norm()

    def test_rejects_off_diagonal_top_block(self, small_setup):
        m, space = small_setup
        n = space.total_dim
        couple = sp.coo_array(([0.5, 0.5], ([n - 1, n - 2], [n - 2, n - 1])), shape=(n, n))
        h = ops.OperatorHandle(sp.csr_array(ops.hamiltonian(m, space).matrix + couple),
                               True, m, space)
        with pytest.raises(ValueError, match="not diagonal"):
            analysis.resolvent_solve(h, 1j, [FockVector.random(space, 9)])

    def test_factor_over_budget_is_refused(self, small_setup, monkeypatch):
        m, space = small_setup
        h = ops.hamiltonian(m, space)
        monkeypatch.setattr(ops, "ASSEMBLY_BUDGET_BYTES", 1000)

        def no_factor(*args, **kwargs):
            raise AssertionError("splu called over the budget")

        monkeypatch.setattr(analysis, "splu", no_factor)
        with pytest.raises(SpaceTooLarge, match="sparse LU"):
            analysis.resolvent_solve(h, 1j, [FockVector.random(space, 10)])


class TestProbes:
    def test_normalized_and_smooth(self, small_setup):
        _, space = small_setup
        p = analysis.gaussian_probe(space, width=1.0, sectors=(0, 1))
        assert p.norm() == pytest.approx(1.0, rel=1e-12)
        assert p.sectors[0].any() and p.sectors[1].any()
        assert not p.sectors[2].any()

    def test_seeded_family_is_deterministic(self, small_setup):
        _, space = small_setup
        a = analysis.gaussian_probe(space, 1.0, sectors=(0, 1), seed=7)
        b = analysis.gaussian_probe(space, 1.0, sectors=(0, 1), seed=7)
        assert (a - b).norm() == 0.0


class TestRenormFlow:
    def test_zero_coupling_errors_vanish(self):
        m = model.delta2d(g=0.0)
        space = FockSpace(build_grid(GridSpec(2, 4, 2.0)), 1, 1)
        rep = analysis.renorm_flow(m, space, [0.5, 1.0, 2.0], probes=2, tol=1e-9)
        assert rep.resolvent_errors.max() < 1e-8

    def test_full_grid_entry_is_exact(self):
        m = model.delta2d(g=0.6)
        space = FockSpace(build_grid(GridSpec(2, 4, 2.0)), 1, 1)
        rep = analysis.renorm_flow(m, space, [2.0], probes=2, tol=1e-9)
        # lambda = k_max saturates to the full grid, the exact-identity case
        assert rep.lambdas == [None]
        assert rep.resolvent_errors.max() < 1e-8 * 10

    def test_errors_decrease_and_report_roundtrip(self):
        m = model.delta2d(g=0.6)
        space = FockSpace(build_grid(GridSpec(2, 4, 2.0)), 1, 1)
        rep = analysis.renorm_flow(m, space, [0.5, 1.0, 1.5, 2.0], probes=2, tol=1e-9)
        errs = rep.resolvent_errors
        for col in range(errs.shape[1]):
            for j in range(errs.shape[0] - 1):
                assert errs[j + 1, col] < errs[j, col] * 1.01
        assert (rep.solver_residuals <= 1e-9 * 1.01).all()
        payload = json.loads(rep.to_json())
        assert payload["lambdas"][-1] == "full_grid"
        assert payload["model"]["case"] == "renormalisable"
        csv = rep.to_csv()
        assert csv.splitlines()[0].startswith("lambda,e_grid,e_continuum")

    def test_counterterm_variants_increase(self):
        m = model.delta2d(g=0.6)
        space = FockSpace(build_grid(GridSpec(2, 4, 2.0)), 1, 1)
        rep = analysis.renorm_flow(m, space, [0.5, 1.0, 2.0], probes=1, tol=1e-9)
        assert all(b > a for a, b in zip(rep.e_grid, rep.e_grid[1:]))
        assert all(b > a for a, b in zip(rep.e_continuum, rep.e_continuum[1:]))

    def test_thread_count_does_not_change_results(self):
        m = model.delta2d(g=0.6)
        space = FockSpace(build_grid(GridSpec(2, 2, 1.5)), 1, 1)
        rep1 = analysis.renorm_flow(m, space, [0.75, 1.5], probes=2, tol=1e-9, threads=1)
        rep2 = analysis.renorm_flow(m, space, [0.75, 1.5], probes=2, tol=1e-9, threads=3)
        np.testing.assert_array_equal(rep1.resolvent_errors, rep2.resolvent_errors)

    def test_requires_renormalisable(self):
        m = model.froehlich()
        space = FockSpace(build_grid(GridSpec(3, 2, 1.0)), 1, 1)
        with pytest.raises(ValueError):
            analysis.renorm_flow(m, space, [0.5])


# the etas sit on either side of each model's threshold
SCAN_MODELS = pytest.mark.parametrize("spec,etas", [
    (model.delta2d(g=0.9), [0.3, 0.7]),
    (model.nelson(g=1.0), [0.3, 0.7]),
    (model.froehlich(g=1.0), [0.5, 0.9]),
], ids=["delta2d", "nelson", "froehlich"])


class TestRegularityScan:
    def test_double_sum_matches_operator_route(self):
        # dual route: the scan's closed double sum against the literal
        # L^eta o boundary_map norm on a materialized space
        m = model.delta2d(g=0.9)
        k_max, points = 2.0, 4
        grid = build_grid(GridSpec(2, points, k_max))
        space = FockSpace(grid, 1, 1)
        sigma = 1.0
        cont = (sigma * math.sqrt(math.pi)) ** m.d
        psi = FockVector.zero(space)
        psi.sectors[0][:, 0] = np.exp(-space.psq / (2 * sigma**2)) / math.sqrt(cont)
        for eta in (0.0, 0.3, 0.7):
            lhalf = ops.free_multiplier(m, space, eta)
            direct = lhalf.apply(ops.apply_boundary_map(m, space, None, psi)).norm()
            sel = np.arange(grid.n_nodes)
            amp2 = np.exp(-grid.norms**2 / sigma**2) / cont
            fast = math.sqrt(analysis._scan_norm_squared(
                m, grid, [eta], grid.coords[sel], amp2[sel])[0])
            assert fast == pytest.approx(direct, rel=1e-12)

    @staticmethod
    def _unreduced_table(m, ladder, etas, sigma):
        # the scan's double sum with every selected probe node, no orbits
        cont = (sigma * math.sqrt(math.pi)) ** m.d
        table = np.zeros((len(etas), len(ladder)))
        for j, k_max in enumerate(ladder):
            grid = build_grid(GridSpec(m.d, int(round(2 * k_max)), k_max))
            sel = np.nonzero(grid.norms <= min(6.0 * sigma, k_max))[0]
            amp2 = np.exp(-grid.norms[sel] ** 2 / sigma**2) / cont
            for i, eta in enumerate(etas):
                table[i, j] = math.sqrt(analysis._scan_norm_squared(
                    m, grid, [eta], grid.coords[sel], amp2)[0])
        return table

    @SCAN_MODELS
    def test_orbit_reduction_matches_unreduced_sum(self, spec, etas):
        # rungs 2 and 4 clip the probe radius 6 at k_max, rung 8 does not
        ladder = [2.0, 4.0, 8.0]
        rep = analysis.regularity_scan(spec, ladder, etas, probe_width=1.0)
        want = self._unreduced_table(spec, ladder, etas, 1.0)
        np.testing.assert_allclose(rep.norm_table, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec", [model.delta2d(), model.nelson()],
                             ids=["delta2d", "nelson"])
    def test_one_sum_per_orbit(self, spec, monkeypatch):
        # the scan evaluates one inner sum per orbit of the selected nodes
        # under signed axis permutations, counted here by brute force
        sizes = []
        inner = analysis._scan_norm_squared

        def counting(m, grid, etas, probe_q, probe_vals):
            sizes.append(len(probe_q))
            return inner(m, grid, etas, probe_q, probe_vals)

        monkeypatch.setattr(analysis, "_scan_norm_squared", counting)
        analysis.regularity_scan(spec, [4.0], [0.3, 0.7])
        grid = build_grid(GridSpec(spec.d, 8, 4.0))
        nodes = {tuple(int(c) for c in np.rint(2 * x / grid.h))
                 for x in grid.coords[grid.norms <= 4.0]}
        orbits = {frozenset(tuple(s * x[p] for s, p in zip(signs, perm))
                            for perm in itertools.permutations(range(spec.d))
                            for signs in itertools.product((1, -1), repeat=spec.d))
                  & nodes for x in nodes}
        assert sizes == [len(orbits)]
        assert len(orbits) < len(nodes)

    @SCAN_MODELS
    def test_all_etas_in_one_pass_match_single_eta_scans(self, spec, etas):
        ladder = [2.0, 4.0, 8.0]
        rep = analysis.regularity_scan(spec, ladder, etas)
        single = [analysis.regularity_scan(spec, ladder, [eta]) for eta in etas]
        np.testing.assert_allclose(
            rep.norm_table, np.vstack([r.norm_table for r in single]), rtol=1e-13, atol=0)
        assert rep.verdicts == [r.verdicts[0] for r in single]

    def test_eta_zero_is_cauchy_for_every_model(self):
        for spec in (model.delta2d(), model.nelson(), model.froehlich()):
            rep = analysis.regularity_scan(spec, [2.0, 4.0, 8.0, 16.0], [0.0])
            assert rep.verdicts == ["Cauchy"]

    def test_norms_nondecreasing_in_cutoff(self):
        rep = analysis.regularity_scan(model.delta2d(), [2., 4., 8., 16.], [0.3, 0.7])
        diffs = np.diff(rep.norm_table, axis=1)
        assert (diffs >= -1e-12).all()

    def test_delta2d_dichotomy(self):
        rep = analysis.regularity_scan(model.delta2d(), [4., 8., 16., 32.], [0.3, 0.7])
        assert rep.verdicts == ["Cauchy", "Diverging"]

    def test_half_power_face_diverges(self):
        # eta slightly above 1/2 blows up under refinement for the
        # renormalizable contact model, for every probe width in a family
        for width in (0.6, 0.9, 1.2, 1.5, 2.0):
            rep = analysis.regularity_scan(model.delta2d(), [4., 8., 16., 32.],
                                           [0.6], probe_width=width)
            assert rep.verdicts == ["Diverging"]

    def test_half_power_face_diverges_nelson(self):
        for width in (0.6, 0.9, 1.2, 1.5, 2.0):
            rep = analysis.regularity_scan(model.nelson(), [4., 8., 16., 32.],
                                           [0.6], probe_width=width)
            assert rep.verdicts == ["Diverging"]

    def test_report_roundtrip(self):
        rep = analysis.regularity_scan(model.delta2d(), [2., 4.], [0.1])
        payload = json.loads(rep.to_json())
        assert payload["verdicts"] == rep.verdicts
        assert rep.to_csv().splitlines()[0].startswith("eta,")

    def test_rejects_multi_source(self):
        with pytest.raises(ValueError):
            analysis.regularity_scan(model.delta2d(M=2), [2., 4.], [0.3])

    def test_rejects_nonincreasing_ladder(self):
        with pytest.raises(ValueError):
            analysis.regularity_scan(model.delta2d(), [4., 4.], [0.3])


class TestSectorNorms:
    def test_identity(self, small_setup):
        m, space = small_setup
        ident = ops.OperatorHandle(sp.eye_array(space.total_dim, format="csr"),
                                   True, m, space)
        assert analysis.sector_norm_estimate(ident, 1) == pytest.approx(1.0)

    def test_diagonal_max(self, small_setup):
        m, space = small_setup
        free = ops.free_multiplier(m, space, 1.0)
        est = analysis.sector_norm_estimate(free, 1)
        assert est == pytest.approx(space.free_values(m, 1).max(), rel=1e-6)

    def test_against_dense_singular_value(self, small_setup):
        m, space = small_setup
        b = ops.boundary_map(m, space)
        bd = ops.assemble_dense(b)
        offsets = np.cumsum([0] + space.dims)
        block = bd[offsets[1]:offsets[2], offsets[0]:offsets[1]]
        sv = np.linalg.svd(block, compute_uv=False)[0]
        est = analysis.sector_norm_estimate(b, 0)
        assert est == pytest.approx(sv, rel=1e-12)

    def test_growth_exponent_fit(self):
        ns = [1, 2, 3, 4]
        vals = [2.0 * n**0.37 for n in ns]
        assert analysis.fit_growth_exponent(ns, vals) == pytest.approx(0.37, abs=1e-12)


class TestGroundEnergy:
    def test_zero_coupling_minimum(self, small_setup):
        _, space = small_setup
        m0 = model.delta2d(g=0.0)
        e = analysis.ground_energy(m0, space, k=1)[0]
        assert e == pytest.approx(space.free_values(m0, 0).min(), rel=1e-12)

    def test_dense_and_iterative_agree(self, small_setup):
        m, space = small_setup
        dense_vals = analysis.ground_energy(m, space, k=2, method="dense")
        iter_vals = analysis.ground_energy(m, space, k=2, method="iterative", tol=1e-10)
        np.testing.assert_allclose(iter_vals, dense_vals, rtol=1e-6)

    def test_iterative_matches_dense_two_sources(self):
        m = model.delta2d(g=0.9, M=2)
        space = FockSpace(build_grid(GridSpec(2, 2, 1.0)), 2, 2)
        dense_vals = analysis.ground_energy(m, space, k=3, method="dense")
        iter_vals = analysis.ground_energy(m, space, k=3, method="iterative", tol=1e-10)
        np.testing.assert_allclose(iter_vals, dense_vals, rtol=1e-8)

    def test_iterative_rejects_large_true_residual(self, small_setup, monkeypatch):
        m, space = small_setup

        def bad_eigsh(mat, k, **kwargs):
            vecs = np.zeros((mat.shape[0], k))
            vecs[0] = 1.0
            return np.full(k, -1.0), vecs      # not an eigenpair

        monkeypatch.setattr(analysis, "eigsh", bad_eigsh)
        with pytest.raises(analysis.NoConvergence):
            analysis.ground_energy(m, space, k=1, method="iterative")

    def test_lanczos_basis_over_budget_is_refused(self, small_setup, monkeypatch):
        m, space = small_setup
        basis_bytes = 20 * space.total_dim * 8          # eigsh's 20 Lanczos vectors
        monkeypatch.setattr(ops, "ASSEMBLY_BUDGET_BYTES", basis_bytes - 1)
        monkeypatch.setattr(analysis, "eigsh",
                            lambda *args, **kwargs: pytest.fail("eigsh called"))
        with pytest.raises(SpaceTooLarge, match="Lanczos basis"):
            analysis.ground_energy(m, space, k=1, method="iterative")

    def test_memory_error_is_not_no_convergence(self, small_setup, monkeypatch):
        m, space = small_setup

        def oom_eigsh(*args, **kwargs):
            raise MemoryError("no room for the Lanczos vectors")

        monkeypatch.setattr(analysis, "eigsh", oom_eigsh)
        with pytest.raises(MemoryError):
            analysis.ground_energy(m, space, k=1, method="iterative")

    def test_bounded_below_along_refinement(self):
        m = model.delta2d(g=0.5)
        vals = []
        for points, k_max in ((2, 1.0), (4, 2.0)):
            space = FockSpace(build_grid(GridSpec(2, points, k_max)), 1, 2)
            vals.append(analysis.ground_energy(m, space, k=1)[0])
        assert all(np.isfinite(vals))


class TestNumberBound:
    def test_zero_coupling_at_most_one(self, small_setup):
        _, space = small_setup
        m0 = model.delta2d(g=0.0)
        assert analysis.number_bound_check(m0, space, samples=6) <= 1.0

    def test_bounded_under_refinement(self):
        m = model.delta2d(g=0.7)
        r1 = analysis.number_bound_check(
            m, FockSpace(build_grid(GridSpec(2, 2, 1.5)), 1, 2), samples=8)
        r2 = analysis.number_bound_check(
            m, FockSpace(build_grid(GridSpec(2, 4, 1.5)), 1, 2), samples=8)
        assert r2 < 4.0 * max(r1, 1.0)


class TestScalingUnderRefinement:
    def test_boundary_map_exponent_survives_uv_refinement(self):
        # the growth-exponent bound holds on a once-refined grid as well
        m = model.froehlich(g=1.0)
        space = FockSpace(build_grid(GridSpec(3, 4, 2.0)), 1, 2)
        b = ops.boundary_map(m, space)
        norms = [analysis.sector_norm_estimate(b, n - 1) for n in (1, 2)]
        assert analysis.fit_growth_exponent([1, 2], norms) <= -0.10

    def test_annihilation_exponent_survives_uv_refinement(self):
        m = model.froehlich(g=1.0)
        space = FockSpace(build_grid(GridSpec(3, 4, 2.0)), 1, 2)
        halfinv = ops.free_multiplier(m, space, -0.5)
        a_half = ops.OperatorHandle(
            ops.annihilation(m, space).matrix @ halfinv.matrix, False, m, space)
        norms = [analysis.sector_norm_estimate(a_half, n) for n in (1, 2)]
        assert analysis.fit_growth_exponent([1, 2], norms) <= 0.40


class TestGroundEnergyAnchor:
    def test_nelson_small_g_regression_anchor(self):
        # frozen on first run (grid 2^3 nodes, k_max = 2, N_max = 2)
        m = model.nelson(g=0.2)
        space = FockSpace(build_grid(GridSpec(3, 2, 2.0)), 1, 2)
        e0 = analysis.ground_energy(m, space, k=1)[0]
        assert e0 == pytest.approx(2.63630805961565, rel=1e-10)


@pytest.mark.slow
class TestGroundEnergyLadder:
    def test_nelson_cauchy_along_proportional_refinement(self):
        # fixed spacing h = 1, growing box: successive minimum-eigenvalue
        # gaps shrink (property, not a value claim)
        m = model.nelson(g=0.5)
        vals = []
        for points, k_max in ((2, 1.0), (4, 2.0), (6, 3.0)):
            space = FockSpace(build_grid(GridSpec(3, points, k_max)), 1, 2)
            method = "dense" if space.total_dim <= ops.DENSE_CAP else "iterative"
            vals.append(analysis.ground_energy(m, space, k=1, method=method,
                                               tol=1e-7)[0])
        gaps = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert gaps[1] < gaps[0]
