"""Projection onto the constraint manifold G = 0 along rays.

For u with A1 > 0 and C > 0 the scaling t*u satisfies

    G(t u) = t^2 A1 + t^4 B - t^(p+1) C = 0

at exactly one t > 0.  In the substituted variable s = t^2 the root
equation reads q(s) = A1 + s B - s^((p-1)/2) C with (p-1)/2 in (1, 2):
q(0) = A1 > 0, q has at most one interior maximum and tends to -inf, so
the positive root is unique and brackets safely.  The root is found by
safeguarded Newton with bisection fallback to 1e-13 relative in s.

The scaled field maximizes the action along its ray, which makes the
projection a stable ingredient of descent: any nonzero step can be pulled
back onto the manifold by one scalar solve.

The potential comes in sampled, as a `ScalarField` on the field's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonCoerciveError, ZeroFieldError
from .functional import EnergyBreakdown, energy_breakdown
from .grid import ScalarField

_REL_TOL_S = 1e-13
_MAX_NEWTON = 200


def _solve_fiber(A1: float, B: float, C: float, p: float) -> float:
    """The unique t > 0 with t^2 A1 + t^4 B = t^(p+1) C, as the root s = t^2 of q.

    q(s) = A1 + s B - s^((p-1)/2) C.  Raises ZeroFieldError when C = 0 and
    NonCoerciveError when A1 <= 0.
    """
    if C <= 0.0:
        raise ZeroFieldError(f"projection needs C > 0, got C={C}")
    if A1 <= 0.0:
        raise NonCoerciveError(
            f"projection needs A1 > 0 (coercivity fails at this field), got A1={A1}"
        )
    if B < 0.0:
        raise ValueError(f"nonlocal term must be nonnegative, got B={B}")
    m = 0.5 * (p - 1.0)

    def q(s: float) -> float:
        return A1 + s * B - s**m * C

    def dq(s: float) -> float:
        return B - m * s ** (m - 1.0) * C

    # bracket the root by doubling / halving from s = 1
    s_lo, s_hi = 1.0, 1.0
    if q(1.0) > 0.0:
        while q(s_hi) > 0.0:
            s_hi *= 2.0
            if s_hi > 1e120:
                raise ArithmeticError("fiber root bracket diverged")
        s_lo = s_hi / 2.0
    else:
        while q(s_lo) <= 0.0:
            s_lo /= 2.0
            if s_lo < 1e-120:
                raise ArithmeticError("fiber root bracket vanished")
        s_hi = s_lo * 2.0

    s = 0.5 * (s_lo + s_hi)
    for _ in range(_MAX_NEWTON):
        val = q(s)
        if val > 0.0:
            s_lo = s
        else:
            s_hi = s
        slope = dq(s)
        s_new = math.nan
        if slope < 0.0:  # Newton only on the decreasing branch
            cand = s - val / slope
            if s_lo < cand < s_hi:
                s_new = cand
        if math.isnan(s_new):
            s_new = 0.5 * (s_lo + s_hi)
        done = abs(s_new - s) <= _REL_TOL_S * s_new
        s = s_new
        if done:
            break
    return math.sqrt(s)


@dataclass(frozen=True)
class FiberScaling:
    """Result of projecting a ray onto the manifold.

    `breakdown` is the projected field's, at t = 1, and `scaled_breakdown`
    the one evaluated fresh at t_bar.
    """

    t_bar: float
    scaled_breakdown: EnergyBreakdown
    breakdown: EnergyBreakdown


def nehari_project(u: ScalarField, V: ScalarField, p: float) -> FiberScaling:
    """Scale u onto the manifold and recompute its energies there.

    The scaled breakdown is evaluated fresh from the scaled field (not by
    ray algebra), so the on-manifold invariant |G| <= 1e-10 (|A1|+B+C) is
    a genuine check of the whole pipeline, not of the root solver alone.
    """
    breakdown = energy_breakdown(u, V, p)
    t = _solve_fiber(breakdown.A1, breakdown.B, breakdown.C, p)
    scaled = energy_breakdown(u.scaled(t), V, p)
    return FiberScaling(t_bar=t, scaled_breakdown=scaled, breakdown=breakdown)


def ray_profile(breakdown: EnergyBreakdown, t: np.ndarray) -> np.ndarray:
    """Action along the ray, I(t u), from the breakdown at t = 1."""
    p = breakdown.p
    return (
        0.5 * breakdown.A1 * t**2
        + 0.25 * breakdown.B * t**4
        - breakdown.C * t ** (p + 1.0) / (p + 1.0)
    )


def ray_max_check(fs: FiberScaling) -> bool:
    """Verify I(t u) <= I(t_bar u) on a log-spaced sample of t, u the projected field.

    The profile comes from the ray algebra of u's own breakdown
    (`fs.breakdown`), the claimed maximum from the fresh one at t_bar.
    Samples t at 50 log-spaced points of [t_bar/10, 10 t_bar] plus a
    fine local scan within 2% of t_bar (so sub-percent misplacements of
    the claimed maximum are detected); passes when no sample exceeds the
    claimed ray maximum by more than 1e-12 relative.
    """
    ts = np.concatenate(
        [
            np.geomspace(fs.t_bar / 10.0, fs.t_bar * 10.0, 50),
            fs.t_bar * np.linspace(0.98, 1.02, 17),
        ]
    )
    profile = ray_profile(fs.breakdown, ts)
    i_max = fs.scaled_breakdown.I
    return bool(np.all(profile <= i_max + 1e-12 * abs(i_max)))

