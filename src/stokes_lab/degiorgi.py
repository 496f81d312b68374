"""De Giorgi-type counter-example: radially structured tensor, closed-form
solution family, exponents, and integrability thresholds.

The tensor adds a rank-one radial reinforcement of strength 4/xi^2 to the
identity-on-Sym map; the induced equation admits the exact radial family
u = (c1 r^eps + c2 r^(-eps)) e_r with eps = |xi|/sqrt(4 + xi^2).  Everything
here is evaluated in polar components and rotated to Cartesian at each point;
the origin is excluded by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import OriginSingular
from .tensors import ID_LIN, ElasticityField

__all__ = [
    "epsilon",
    "degiorgi_tensor",
    "restricted_tensor",
    "ClosedFormSolution",
    "q_tail_classify",
    "TailVerdict",
]

_DEF_ORIGIN_TOL = 1e-12


def epsilon(xi: float) -> float:
    """Decay/growth exponent |xi| / sqrt(4 + xi^2); even in xi, in [0, 1)."""
    xi = float(xi)
    return abs(xi) / np.sqrt(4.0 + xi * xi)


def _radial_dyads(points):
    pts = np.asarray(points, dtype=float)
    r = np.sqrt(np.sum(pts * pts, axis=-1))
    if np.any(r < _DEF_ORIGIN_TOL):
        raise OriginSingular("tensor evaluation requested at the origin")
    e = pts / r[..., None]
    return r, e


# identity on Sym, as a fourth-order component array
_D = np.eye(2)
_ID_SYM = 0.5 * (np.einsum("ih,jk->ijhk", _D, _D) + np.einsum("ik,jh->ijhk", _D, _D))


def degiorgi_tensor(xi: float, action_on: Literal["sym", "lin"] = "sym") -> ElasticityField:
    """Radially reinforced tensor field C[L] = (base L) + 4 xi^-2 (e_r x e_r)(e_r . L e_r).

    action_on="sym" is the elasticity map (base = sym, vanishes on skew
    arguments) with Sym bounds (1, 1 + 4/xi^2).  action_on="lin" keeps the
    full gradient (base = identity on Lin), the flavor positive on all of Lin
    with the same bounds; the two agree on symmetric arguments and share the
    closed-form radial family.  Both depend on x through e_r only, so they
    are declared equivariant.
    """
    sq = float(xi) * float(xi)
    amp = 4.0 / sq if sq > 0 else math.inf
    if not math.isfinite(amp):
        raise ValueError(f"4/xi^2 must be finite, got xi = {xi!r}")
    base = _ID_SYM if action_on == "sym" else ID_LIN

    def action(points):
        _, e = _radial_dyads(points)
        # ((e_i e_j) e_h) e_k: outer products by broadcasting, multiplied left
        # to right; then base + amp * p4 in place, without two more temporaries
        ee = e[..., :, None] * e[..., None, :]
        p4 = ee[..., None, None] * e[..., None, None, :, None] * e[..., None, None, None, :]
        p4 *= amp
        p4 += base
        return p4

    mu0, mue = 1.0, 1.0 + amp
    return ElasticityField(
        action=action,
        mu0=mu0,
        mue=mue,
        lin_bounds_pair=(mu0, mue) if action_on == "lin" else None,
        equivariant=True,
    )


def restricted_tensor(xi: float, lo: float, hi: float) -> ElasticityField:
    """The Lin flavor of degiorgi_tensor(xi) on lo <= r <= hi, and its upper
    bound 1 + 4/xi^2 times Id_Lin elsewhere, with Lin bounds (1, 1 + 4/xi^2):
    a heterogeneous material of relative contrast (4/xi^2) / (1 + 4/xi^2)
    that is homogeneous near the hole and far out, and radial, so declared
    equivariant."""
    base = degiorgi_tensor(xi, action_on="lin")
    mue = base.mue

    def action(points):
        pts = np.asarray(points, dtype=float)
        r = np.linalg.norm(pts, axis=-1)
        a = base.action(pts)
        a[(r < lo) | (r > hi)] = mue * ID_LIN
        return a

    return ElasticityField(action=action, mu0=1.0, mue=mue, lin_bounds_pair=(1.0, mue),
                           equivariant=True)


@dataclass(frozen=True)
class ClosedFormSolution:
    """Exact radial solution u = (c1 r^eps + c2 r^(-eps)) e_r with exact gradient."""

    xi: float
    c1: float = 1.0
    c2: float = -1.0

    def __post_init__(self):
        if self.xi == 0:
            raise ValueError("xi must be nonzero")

    @property
    def eps(self) -> float:
        return epsilon(self.xi)

    def radial(self, r):
        r = np.asarray(r, dtype=float)
        eps = self.eps
        return self.c1 * r**eps + self.c2 * r ** (-eps)

    def radial_derivative(self, r):
        r = np.asarray(r, dtype=float)
        eps = self.eps
        return eps * (self.c1 * r ** (eps - 1.0) - self.c2 * r ** (-eps - 1.0))

    def displacement(self, points):
        r, e = _radial_dyads(points)
        return self.radial(r)[..., None] * e

    def gradient(self, points):
        """Exact Cartesian gradient f' e_r x e_r + (f/r) e_theta x e_theta."""
        r, e = _radial_dyads(points)
        er = np.einsum("...i,...j->...ij", e, e)
        et = np.eye(2) - er
        fp = self.radial_derivative(r)
        fr = self.radial(r) / r
        return fp[..., None, None] * er + fr[..., None, None] * et

    def gradient_norm_sq(self, r):
        """|grad u|^2 as a function of radius only (rotational symmetry)."""
        r = np.asarray(r, dtype=float)
        return self.radial_derivative(r) ** 2 + (self.radial(r) / r) ** 2


@dataclass
class TailVerdict:
    verdict: str                 # CONVERGENT | DIVERGENT | INCONCLUSIVE
    threshold: float             # 2 / (1 - eps)
    increments: np.ndarray       # integral of |grad u|^q over each annulus 2^k < r < 2^(k+1)
    flagged_critical: bool       # q within 2% of the threshold


# outer radius of the tail classification, and the band of total change
# around flat within which the verdict is INCONCLUSIVE
_TAIL_R_MAX = 2.0**20
_TAIL_FLAT_BAND = 0.10


def q_tail_classify(sol: ClosedFormSolution, q: float) -> TailVerdict:
    """Classify the q-energy tail of the closed-form field over 1 < r < 2^20.

    Integrates T(R) = int |grad u|^q on dyadic annuli by Gauss quadrature of
    the exact radial integrand.  The verdict reads off the total geometric
    trend of the increments across the ladder (skipping the first two octaves
    where the subdominant branch still matters): increments shrinking ->
    CONVERGENT, bounded below -> DIVERGENT, total change within 10% of flat
    -> INCONCLUSIVE (q too near the threshold for this outer radius).
    """
    if q <= 1:
        raise ValueError("q must exceed 1")
    eps = sol.eps
    threshold = 2.0 / (1.0 - eps)

    n_oct = max(int(np.floor(np.log2(_TAIL_R_MAX))), 4)
    edges = 2.0 ** np.arange(n_oct + 1)
    # 64-point Gauss per octave in log r: exact enough for the smooth integrand
    gx, gw = np.polynomial.legendre.leggauss(64)
    increments = np.empty(n_oct)
    for k in range(n_oct):
        a, b = np.log(edges[k]), np.log(edges[k + 1])
        s = 0.5 * (b - a) * gx + 0.5 * (a + b)
        r = np.exp(s)
        integ = sol.gradient_norm_sq(r) ** (q / 2.0) * r * r  # extra r from dr = r ds
        increments[k] = 2.0 * np.pi * 0.5 * (b - a) * np.sum(gw * integ)

    skip = min(2, n_oct - 2)
    window = increments[skip:]
    trend = float(window[-1] / window[0])
    flagged = abs(q - threshold) <= 0.02 * threshold

    if abs(trend - 1.0) <= _TAIL_FLAT_BAND:
        verdict = "INCONCLUSIVE"
    elif trend < 1.0:
        verdict = "CONVERGENT"
    else:
        verdict = "DIVERGENT"
    return TailVerdict(verdict=verdict, threshold=threshold, increments=increments,
                       flagged_critical=flagged)
