"""Acceptance suite: one test per acceptance criterion, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each criterion asserts its stated tolerance and its runtime
budget.
"""

import math
import time

import numpy as np
import pytest

from ibcfock import analysis, model, ops, quad
from ibcfock.grid import FockSpace, FockVector, GridSpec, build_grid
from ibcfock.model import Case, Dispersion, DispersionKind, FormFactor, FormKind


def check(criterion, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {criterion}] {name}: {status} ({detail})")
    assert ok, f"criterion {criterion} {name}: {detail}"


def test_criterion_1_exactness_suite():
    start = time.time()
    m = model.delta2d(g=0.8)
    space = FockSpace(build_grid(GridSpec(2, 4, 2.0)), 1, 2)

    a = ops.assemble_dense(ops.annihilation(m, space))
    astar = ops.assemble_dense(ops.creation(m, space))
    d_adj = np.abs(astar - a.conj().T).max()
    check(1, "a* is the exact adjoint of a", d_adj <= 1e-12, f"defect {d_adj:.2e}")

    bmat = ops.assemble_dense(ops.boundary_map(m, space))
    linv = ops.assemble_dense(ops.free_multiplier(m, space, -1.0))
    d_fact = np.abs(bmat + m.g * linv @ astar).max()
    check(1, "boundary map factorization", d_fact <= 1e-12, f"defect {d_fact:.2e}")

    h = ops.assemble_dense(ops.hamiltonian(m, space))
    h_lam = ops.assemble_dense(ops.cutoff_hamiltonian(m, space))
    e_grid = ops.counterterm_grid(m, space, None)
    d_head = np.abs(h - h_lam - e_grid * np.eye(space.total_dim)).max()
    check(1, "headline identity H = H_cutoff + E_grid", d_head <= 1e-10,
          f"defect {d_head:.2e}")

    d_herm = np.abs(h - h.conj().T).max()
    t_od = ops.assemble_dense(ops.contact_offdiagonal(m, space))
    d_herm_od = np.abs(t_od - t_od.conj().T).max()
    check(1, "hermiticity of H and off-diagonal contact term",
          max(d_herm, d_herm_od) <= 1e-10,
          f"H {d_herm:.2e}, offdiag {d_herm_od:.2e}")

    mf = model.froehlich(g=0.6)
    spf = FockSpace(build_grid(GridSpec(3, 2, 2.0)), 1, 2)
    t = ops.assemble_dense(ops.contact_term(mf, spf))
    b = ops.assemble_dense(ops.boundary_map(mf, spf))
    lf = ops.assemble_dense(ops.free_multiplier(mf, spf, 1.0))
    d_t = np.abs(t + b.conj().T @ lf @ b).max()
    check(1, "form-perturbation contact term = -B^H L B", d_t <= 1e-11,
          f"defect {d_t:.2e}")

    elapsed = time.time() - start
    check(1, "runtime budget 60 s", elapsed < 60.0, f"{elapsed:.1f} s")


def test_criterion_2_counterterm_asymptotics():
    start = time.time()
    nelson = model.nelson(g=1.0, M=1)
    target = 4.0 * math.pi * math.log(2.0)
    diff = model.self_energy(nelson, 400.0) - model.self_energy(nelson, 200.0)
    rel = abs(diff - target) / target
    check(2, "Nelson doubling increment -> 4 pi ln 2", rel <= 0.02,
          f"rel dev {rel:.4f}")

    delta = model.delta2d(g=1.0, M=1)
    target2 = math.pi * math.log(2.0)
    diff2 = model.self_energy(delta, 400.0) - model.self_energy(delta, 200.0)
    rel2 = abs(diff2 - target2) / target2
    check(2, "contact-model doubling increment -> pi ln 2", rel2 <= 0.02,
          f"rel dev {rel2:.4f}")

    for name, spec in (("Nelson", nelson), ("contact", delta)):
        ratio = model.self_energy(spec, 1e4) / model.self_energy(spec, 1e2)
        check(2, f"{name} counterterm divergence E(1e4)/E(1e2) >= 1.8",
              ratio >= 1.8, f"ratio {ratio:.3f}")

    elapsed = time.time() - start
    check(2, "runtime budget 30 s", elapsed < 30.0, f"{elapsed:.1f} s")


def test_criterion_3_renorm_flow():
    start = time.time()
    m = model.delta2d(g=0.5)
    space = FockSpace(build_grid(GridSpec(2, 8, 4.0)), 1, 2)
    tol = 1e-8
    k = space.grid.spec.k_max
    rep = analysis.renorm_flow(m, space, [k / 4, k / 2, 3 * k / 4, k],
                               probes=3, tol=tol)
    errs = rep.resolvent_errors
    decreasing = all(
        errs[j + 1, p] < errs[j, p] * 1.01
        for p in range(errs.shape[1]) for j in range(errs.shape[0] - 1))
    check(3, "resolvent errors strictly decreasing (1% slack)", decreasing,
          f"ladder {np.array2string(errs.max(axis=1), precision=3)}")
    final = errs[-1].max()
    check(3, "final ladder entry at solver tolerance", final <= tol * 10,
          f"final {final:.2e} vs {tol * 10:.0e}")
    elapsed = time.time() - start
    check(3, "runtime budget 300 s", elapsed < 300.0, f"{elapsed:.1f} s")


def test_criterion_4_regularity_dichotomy():
    start = time.time()
    ladder = [4.0, 8.0, 16.0, 32.0]
    cases = [
        ("Nelson", model.nelson(g=1.0), [0.3, 0.7]),
        ("Froehlich", model.froehlich(g=1.0), [0.5, 0.9]),
        ("contact", model.delta2d(g=1.0), [0.3, 0.7]),
    ]
    for name, spec, etas in cases:
        rep = analysis.regularity_scan(spec, ladder, etas)
        check(4, f"{name} eta={etas[0]} verdict Cauchy",
              rep.verdicts[0] == "Cauchy", f"got {rep.verdicts[0]}")
        check(4, f"{name} eta={etas[1]} verdict Diverging",
              rep.verdicts[1] == "Diverging", f"got {rep.verdicts[1]}")
    elapsed = time.time() - start
    check(4, "runtime budget 300 s", elapsed < 300.0, f"{elapsed:.1f} s")


def test_criterion_5_parameter_integral_bounds():
    start = time.time()
    p_grid = np.logspace(-1, 3, 9)
    sup3 = 0.0
    for theta in (1.5, 2.0, 2.5):
        ratios = [quad.verify_bound_3d(p, theta) for p in p_grid]
        assert all(np.isfinite(r) and r > 0 for r in ratios)
        sup3 = max(sup3, max(ratios))
    check(5, "3d bound ratio bounded over sweep", sup3 < 60.0,
          f"empirical sup {sup3:.3f}")

    ratio_inf = quad.verify_bound_3d(1e3, 2.0)
    rel = abs(ratio_inf - math.pi**3) / math.pi**3
    check(5, "theta=2 ratio within 3% of pi^3 at p=1e3", rel <= 0.03,
          f"rel dev {rel:.5f}")

    sup2 = 0.0
    for theta in (1, 2):
        ratios = [quad.verify_bound_2d(p, theta) for p in (1., 4., 16., 64., 256.)]
        assert all(np.isfinite(r) and r > 0 for r in ratios)
        sup2 = max(sup2, max(ratios))
    check(5, "2d bound ratio bounded over sweep", sup2 < 60.0,
          f"empirical sup {sup2:.3f}")
    elapsed = time.time() - start
    check(5, "runtime budget 60 s", elapsed < 60.0, f"{elapsed:.1f} s")


def test_criterion_6_scaling_exponents():
    start = time.time()
    m = model.froehlich(g=1.0)
    space = FockSpace(build_grid(GridSpec(3, 2, 1.0)), 1, 4)
    ns = [1, 2, 3, 4]

    bmap = ops.boundary_map(m, space)
    b_norms = [analysis.sector_norm_estimate(bmap, n - 1) for n in ns]
    b_exp = analysis.fit_growth_exponent(ns, b_norms)
    check(6, "boundary-map sector norms grow with exponent <= D/4 + 0.15",
          b_exp <= -1.0 / 4.0 + 0.15, f"fit {b_exp:.4f} vs -0.10")

    halfinv = ops.free_multiplier(m, space, -0.5)
    a_half = ops.OperatorHandle(
        ops.annihilation(m, space).matrix @ halfinv.matrix, False, m, space)
    a_norms = [analysis.sector_norm_estimate(a_half, n) for n in ns]
    a_exp = analysis.fit_growth_exponent(ns, a_norms)
    check(6, "annihilation L^-1/2 sector norms grow with exponent <= (2+D)/4 + 0.15",
          a_exp <= 1.0 / 4.0 + 0.15, f"fit {a_exp:.4f} vs 0.40")
    elapsed = time.time() - start
    check(6, "runtime budget 180 s", elapsed < 180.0, f"{elapsed:.1f} s")


def test_criterion_7_invertibility_and_number_bound():
    start = time.time()
    m = model.delta2d(g=0.8)
    space = FockSpace(build_grid(GridSpec(2, 4, 2.0)), 1, 2)

    psi = FockVector.random(space, 7)
    psi = (1.0 / psi.norm()) * psi
    x = psi.copy()
    term = psi.copy()
    for _ in range(space.n_max):
        term = ops.apply_boundary_map(m, space, None, term)
        x = x + term
    # after n_max + 1 Neumann terms the inversion is exact by nilpotency
    resid = ((x - ops.apply_boundary_map(m, space, None, x)) - psi).norm()
    check(7, "Neumann inversion residual (exact nilpotency)", resid <= 1e-13,
          f"residual {resid:.2e}")
    check(7, "Neumann inversion residual within solver budget", resid <= 1e-8,
          f"residual {resid:.2e}")

    coarse = analysis.number_bound_check(
        m, FockSpace(build_grid(GridSpec(2, 2, 2.0)), 1, 2), samples=12)
    refined = analysis.number_bound_check(m, space, samples=12)
    check(7, "number bound sup stays bounded under refinement doubling",
          refined <= max(2.0 * coarse, 1.0) and refined < 10.0,
          f"coarse {coarse:.3f}, refined {refined:.3f}")
    elapsed = time.time() - start
    check(7, "runtime budget 60 s", elapsed < 60.0, f"{elapsed:.1f} s")


def test_criterion_8_parameter_logic_table():
    pl = lambda a: FormFactor(FormKind.POWER_LAW, a)
    disp = lambda b: Dispersion(DispersionKind.POWER_LOWER, b)

    froe = model.validate(3, pl(1.0), Dispersion(DispersionKind.CONSTANT_ONE, 0.0))
    check(8, "Froehlich parameters fall in the form-perturbation case",
          froe.case is Case.FORM_PERTURBATION, froe.case.value)
    check(8, "Froehlich uv exponent and threshold",
          model.uv_exponent(3, 1.0) == -1.0
          and model.regularity_threshold(model.froehlich()) == 0.75,
          "D=-1, eta<3/4")

    nel = model.validate(3, pl(0.5), disp(1.0))
    check(8, "Nelson (beta=1, alpha=1/2) is renormalisable",
          nel.case is Case.RENORMALISABLE, nel.case.value)
    below = model.validate(3, pl(7.0 / 18.0 - 1e-9), disp(1.0))
    above = model.validate(3, pl(7.0 / 18.0 + 1e-9), disp(1.0))
    check(8, "beta=1 admissibility boundary at alpha = 7/18",
          below.case is Case.INVALID and above.case is Case.RENORMALISABLE,
          f"below: {below.case.value}, above: {above.case.value}")
    check(8, "Nelson uv exponent and threshold",
          model.uv_exponent(3, 0.5) == 0.0
          and model.regularity_threshold(model.nelson()) == 0.5,
          "D=0, eta<1/2")

    delta = model.validate(2, pl(0.0), disp(2.0))
    check(8, "2d contact model is renormalisable",
          delta.case is Case.RENORMALISABLE, delta.case.value)

    below6 = model.validate(3, pl(1.0 / 6.0 - 1e-9), disp(2.0))
    above6 = model.validate(3, pl(1.0 / 6.0 + 1e-9), disp(2.0))
    check(8, "beta=2 admissibility boundary at alpha = 1/6",
          below6.case is Case.INVALID and above6.case is Case.RENORMALISABLE,
          f"below: {below6.case.value}, above: {above6.case.value}")

    d1 = all(model.validate(1, pl(a), disp(b)).case is Case.FORM_PERTURBATION
             for a in np.linspace(0.0, 0.499, 12) for b in (0.0, 1.0, 2.0))
    check(8, "one dimension is always a form perturbation", d1, "alpha in [0, 1/2)")
