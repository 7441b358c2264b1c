"""High-accuracy quadrature for the rotation-invariant continuum integrals.

Everything here reduces a d-dimensional integral of a radial (or
radial-angular) integrand to one-dimensional adaptive quadrature.  The
angular integral is always done in closed form:

* d = 3: the solid-angle integral of 1/((p-q)^2 + c) is a log kernel,
* d = 2: the full-circle integral of 1/((p-q)^2 + c) is an algebraic
  kernel obtained from the arctan antiderivative,
* d = 1: the "angle" is the sign of q.

The one-dimensional engine is QUADPACK via scipy.integrate.quad; a weak
|k|^(-2a) singularity at the origin is flattened by the substitution
r = t^(1/(d-2a)) before handing the integrand to the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureFailure",
    "QuadratureResult",
    "radial_integral",
    "regularized_subtracted_integral",
    "verify_bound_3d",
    "verify_bound_2d",
    "bound_sweep",
]

# surface measure of the unit sphere in d = 1, 2, 3
_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

_TINY = 1e-300


class QuadratureFailure(RuntimeError):
    """Raised when the adaptive error estimate cannot reach the tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.abs_error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")


def _quad_1d(f, a, b, tol, points=None):
    """scipy.integrate.quad with a relative-tolerance contract.

    Returns (value, abserr, neval); raises QuadratureFailure if the
    internal estimate does not satisfy abserr <= tol*|value| + tiny.
    QUADPACK is imported here, so a run that integrates nothing never loads it.
    """
    from scipy import integrate

    kwargs = {"epsabs": _TINY, "epsrel": max(tol, 1e-13), "limit": 200, "full_output": 1}
    if points is not None and np.isfinite(b):
        kwargs["points"] = [x for x in points if a < x < b]
    out = integrate.quad(f, a, b, **kwargs)
    val, err, info = out[0], out[1], out[2]
    neval = int(info.get("neval", 0))
    if err > tol * abs(val) + 1e-12 * tol + _TINY:
        # one retry with a split at the midpoint of the finite part
        if np.isfinite(b):
            mid = 0.5 * (a + b)
        else:
            mid = a + 1.0 if a > 0 else 1.0
        v1, e1, i1 = integrate.quad(f, a, mid, epsabs=_TINY, epsrel=max(tol, 1e-13),
                                    limit=200, full_output=1)[:3]
        v2, e2, i2 = integrate.quad(f, mid, b, epsabs=_TINY, epsrel=max(tol, 1e-13),
                                    limit=200, full_output=1)[:3]
        val, err = v1 + v2, e1 + e2
        neval += int(i1.get("neval", 0)) + int(i2.get("neval", 0))
        if err > tol * abs(val) + 1e-12 * tol + _TINY:
            raise QuadratureFailure(
                f"error estimate {err:.3e} exceeds tolerance for value {val:.6e}"
            )
    return val, err, neval


def radial_integral(profile, d, r_min, r_max, tol=1e-10, singular_exponent=0.0):
    """Integrate a function of |k| over the shell r_min < |k| < r_max in R^d.

    Parameters
    ----------
    profile : callable
        Scalar function of the radius r = |k|.
    d : int
        Space dimension, 1, 2 or 3 (fixes the surface factor).
    r_min, r_max : float
        Shell radii; r_max may be numpy.inf.
    tol : float
        Relative tolerance of the adaptive estimate.
    singular_exponent : float
        If positive, profile behaves like r^(-singular_exponent) at the
        origin; the integral is then computed in the variable
        t = r^(d - singular_exponent), which removes the singularity.

    Returns
    -------
    QuadratureResult
    """
    if d not in _SURFACE:
        raise ValueError(f"unsupported dimension {d}")
    if r_min < 0 or r_max < r_min:
        raise ValueError("need 0 <= r_min <= r_max")
    if r_max == r_min:
        return QuadratureResult(0.0, 0.0, 0)
    surf = _SURFACE[d]

    if singular_exponent > 0.0 and r_min == 0.0:
        gamma = d - singular_exponent
        if gamma <= 0:
            raise QuadratureFailure(
                f"singularity exponent {singular_exponent} not integrable in d={d}"
            )
        # r = t^(1/gamma), d^dk = surf * r^(d-1) dr = (surf/gamma) * r^(d-gamma) dt
        def g(t):
            r = t ** (1.0 / gamma)
            return profile(r) * r ** (d - gamma) / gamma

        val, err, neval = _quad_1d(g, 0.0, r_max ** gamma if np.isfinite(r_max) else np.inf, tol)
    else:
        def g(r):
            return profile(r) * r ** (d - 1)

        val, err, neval = _quad_1d(g, r_min, r_max, tol)
    return QuadratureResult(surf * val, surf * err, neval)


def _angular_mean_inverse(d, r, p, c):
    """Closed-form angular integral of 1/((p - q)^2 + c) at |q| = r.

    Returns the integral over the sphere of radius r (surface measure
    included), i.e. the angular part of the d-dimensional integral.
    """
    if p == 0.0:
        return _SURFACE[d] * r ** (d - 1) / (r * r + c)
    if d == 3:
        num = (r + p) ** 2 + c
        den = (r - p) ** 2 + c
        return math.pi * (r / p) * math.log(num / den)
    if d == 2:
        a2 = ((r - p) ** 2 + c) * ((r + p) ** 2 + c)
        return 2.0 * math.pi * r / math.sqrt(a2)
    # d == 1: the two half-lines
    return 1.0 / ((r - p) ** 2 + c) + 1.0 / ((r + p) ** 2 + c)


def regularized_subtracted_integral(model, p_norm, env, tol=1e-8):
    """The renormalized diagonal kernel value I(p, env).

    Computes

        I = integral over k of |vhat(k)|^2 * ( 1/((p-k)^2 + env + omega(k))
                                               - 1/(k^2 + omega(k)) )

    which is finite precisely because the divergent large-k parts of the
    two terms cancel; the subtraction implements the counterterm at
    infinite cutoff.  p_norm >= 0 is |p|, env >= 0 collects the energies
    of the spectator degrees of freedom.

    The integral is split at R0 = 2(p + sqrt(env)) + 1; on the tail the
    subtracted integrand decays like r^(D-2) with D < 1, which is
    checked symbolically before integrating.
    """
    if not model.is_renormalisable:
        raise ValueError("regularized kernel is defined for renormalisable models only")
    if p_norm < 0 or env < 0:
        raise ValueError("p_norm and env must be nonnegative")
    d = model.d
    vhat = model.v.value
    omega = model.omega.value

    # tail exponent of the subtracted integrand: (d-1) - 2*alpha - 3
    if model.D - 2.0 >= -1.0:
        raise QuadratureFailure("subtracted tail is not integrable for these parameters")

    def integrand(r):
        w = omega(r)
        c = env + w
        ang = _angular_mean_inverse(d, r, p_norm, c)
        free = _SURFACE[d] * r ** (d - 1) / (r * r + w)
        return vhat(r) ** 2 * (ang - free)

    r0 = 2.0 * (p_norm + math.sqrt(env)) + 1.0
    v1, e1, _ = _quad_1d(integrand, 0.0, r0, tol, points=[p_norm] if p_norm > 0 else None)
    v2, e2, _ = _quad_1d(integrand, r0, np.inf, tol)
    val, err = v1 + v2, e1 + e2
    if err > tol * max(abs(val), 1.0):
        raise QuadratureFailure(f"combined error {err:.3e} too large for I = {val:.6e}")
    return val


def verify_bound_3d(p_norm, theta, tol=1e-6):
    """Scaled value of the 3d parameter integral with power weight theta.

    Computes J(p) = integral over R^3 of dq / ((p-q)^2 + 1) / |q|^theta
    for theta in (1, 3) using the log-kernel angular reduction, and
    returns the ratio J(p) * p^(theta-1), which stays bounded in p.
    """
    if not (1.0 < theta < 3.0):
        raise ValueError("theta must lie in (1, 3)")
    if p_norm <= 0:
        raise ValueError("p_norm must be positive")
    p = float(p_norm)

    # substitution t = r/p:  J = (pi / p^(theta-1)) * int t^(1-theta) log(...) dt
    ip2 = 1.0 / (p * p)

    def g(t):
        num = (t + 1.0) ** 2 + ip2
        den = (t - 1.0) ** 2 + ip2
        return t ** (1.0 - theta) * math.log(num / den)

    # integrable log singularity at t = 1, mild power at t = 0
    v1, e1, _ = _quad_1d(g, 0.0, 2.0, tol, points=[1.0])
    v2, e2, _ = _quad_1d(g, 2.0, np.inf, tol)
    val = math.pi * (v1 + v2)
    err = math.pi * (e1 + e2)
    if err > tol * max(abs(val), 1.0):
        raise QuadratureFailure("3d bound integral did not converge")
    return val  # equals J(p) * p^(theta-1)


def verify_bound_2d(p_norm, theta, tol=1e-6):
    """Scaled value of the 2d parameter integral with weight (q^2+1)^(theta/2).

    Computes J(p) = integral over R^2 of dq / (((p-q)^2 + 1) (q^2+1)^(theta/2))
    for theta in {1, 2} and returns J(p) * p^theta / (log(1+p) + 1).
    """
    if theta not in (1, 2):
        raise ValueError("theta must be 1 or 2")
    if p_norm <= 0:
        raise ValueError("p_norm must be positive")
    p = float(p_norm)

    def g(r):
        a2 = ((r - p) ** 2 + 1.0) * ((r + p) ** 2 + 1.0)
        return 2.0 * math.pi * r * (r * r + 1.0) ** (-0.5 * theta) / math.sqrt(a2)

    v1, e1, _ = _quad_1d(g, 0.0, 2.0 * p + 2.0, tol, points=[p])
    v2, e2, _ = _quad_1d(g, 2.0 * p + 2.0, np.inf, tol)
    val, err = v1 + v2, e1 + e2
    if err > tol * max(abs(val), 1.0):
        raise QuadratureFailure("2d bound integral did not converge")
    return val * p ** theta / (math.log(1.0 + p) + 1.0)


def bound_sweep(d, p_values, thetas, tol=1e-6):
    """Evaluate the bound ratio on a (p, theta) grid.

    Returns a list of rows (p, theta, integral, ratio), suitable for CSV
    export.  The reported empirical supremum makes no optimality claim.
    """
    rows = []
    for theta in thetas:
        for p in p_values:
            if d == 3:
                ratio = verify_bound_3d(p, theta, tol)
                integral = ratio / p ** (theta - 1.0)
            elif d == 2:
                ratio = verify_bound_2d(p, theta, tol)
                integral = ratio * (math.log(1.0 + p) + 1.0) / p ** theta
            else:
                raise ValueError("bound sweeps are defined for d = 2, 3")
            rows.append((float(p), float(theta), integral, ratio))
    return rows
