"""Algebra of two-dimensional elasticity tensors and tensor fields.

A constant elasticity tensor is a fourth-order array C[i,j,h,k] with major
symmetry C[i,j,h,k] = C[h,k,i,j], acting on 2x2 tensors through their
symmetric part.  Position-dependent materials are ElasticityField objects:
an evaluator x -> action array plus certified positivity bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    BoundsViolated,
    InvalidBounds,
    NotPositiveDefinite,
)

__all__ = [
    "sym",
    "ElasticityTensor",
    "IsotropicModuli",
    "ElasticityField",
    "constant_field",
    "ID_LIN",
    "scalar_field",
    "tabulated_scalar_field",
    "random_scalar_field",
    "apply_tensor",
    "certify_bounds",
    "acoustic_tensor",
    "strong_ellipticity_margin",
    "gamma_exponent",
]


def sym(a):
    """Symmetric part of a (...,2,2) array."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


# Orthonormal basis of Sym under the Frobenius product: e1xe1, e2xe2,
# (e1xe2 + e2xe1)/sqrt(2).  With this weighting the induced 3x3 matrix of a
# major-symmetric tensor is symmetric and its eigenvalues are exactly the
# positivity bounds.
_VOIGT = np.zeros((3, 2, 2))
_VOIGT[0, 0, 0] = 1.0
_VOIGT[1, 1, 1] = 1.0
_VOIGT[2, 0, 1] = _VOIGT[2, 1, 0] = 1.0 / np.sqrt(2.0)

# Identity on Lin, Id_Lin[L] = L, as fourth-order components d_ih d_jk.
ID_LIN = np.einsum("ih,jk->ijhk", np.eye(2), np.eye(2))
ID_LIN.flags.writeable = False


class ElasticityTensor:
    """Constant fourth-order elasticity tensor with major symmetry.

    The stored components carry right-pair symmetry, so the action
    C[L] = einsum('ijhk,hk->ij') (apply_tensor) automatically goes through
    sym(L) and vanishes on skew arguments.
    """

    def __init__(self, components):
        c = np.asarray(components, dtype=float)
        if c.shape != (2, 2, 2, 2):
            raise ValueError(f"expected shape (2,2,2,2), got {c.shape}")
        major = np.transpose(c, (2, 3, 0, 1))
        scale = max(np.abs(c).max(), 1.0)
        if np.abs(c - major).max() > 1e-12 * scale:
            raise ValueError("components lack major symmetry")
        # project the input pair onto Sym: the action ignores skew input
        c = 0.5 * (c + np.transpose(c, (0, 1, 3, 2)))
        self.c = c
        self._bounds: Optional[tuple[float, float]] = None

    @property
    def mu0(self) -> float:
        return self.bounds[0]

    @property
    def mue(self) -> float:
        return self.bounds[1]

    @property
    def bounds(self) -> tuple[float, float]:
        if self._bounds is None:
            self._bounds = certify_bounds(self)
        return self._bounds


@dataclass(frozen=True)
class IsotropicModuli:
    """Lame parameters of an isotropic material: C[E] = 2 mu E + lambda tr(E) I.

    The Kelvin matrix divides by 4 pi mu (lambda + 2 mu), so that product
    must be a positive, finite, normal float, besides mu > 0 and lambda >= 0."""

    lambda_lame: float
    mu_shear: float

    def __post_init__(self):
        lam, mu = float(self.lambda_lame), float(self.mu_shear)
        kelvin = 4.0 * np.pi * mu * (lam + 2.0 * mu)
        if not (mu > 0 and lam >= 0 and np.finfo(float).tiny <= kelvin < np.inf):
            raise InvalidBounds(
                f"need mu_shear > 0, lambda_lame >= 0 and a positive, finite, normal "
                f"4 pi mu (lambda + 2 mu), got ({self.lambda_lame}, {self.mu_shear})"
            )

    def tensor(self) -> ElasticityTensor:
        lam, mu = self.lambda_lame, self.mu_shear
        d = np.eye(2)
        c = (
            mu * (np.einsum("ih,jk->ijhk", d, d) + np.einsum("ik,jh->ijhk", d, d))
            + lam * np.einsum("ij,hk->ijhk", d, d)
        )
        return ElasticityTensor(c)


def _components(C) -> np.ndarray:
    """The components of an ElasticityTensor, or raw components as floats."""
    return C.c if isinstance(C, ElasticityTensor) else np.asarray(C, dtype=float)


def apply_tensor(C, L):
    """Evaluate C[L] = C[sym L]; the result is symmetric.

    Accepts an ElasticityTensor or raw components; both the components
    (..., 2,2,2,2) and L (..., 2,2) may carry broadcastable batch dimensions.
    """
    L = np.asarray(L, dtype=float)
    return np.einsum("...ijhk,...hk->...ij", _components(C), sym(L))


def _sym_eigenvalues(c) -> np.ndarray:
    """(..., 3) ascending eigenvalues of the operators that the components c
    (..., 2,2,2,2) induce on Sym, through the symmetric Voigt matrices."""
    m = np.einsum("aij,...ijhk,bhk->...ab", _VOIGT, c, _VOIGT)
    return np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, -1, -2)))


def certify_bounds(C) -> tuple[float, float]:
    """Extreme eigenvalues of the induced operator on symmetric tensors.

    Returns (mu0, mue) with mu0 |E|^2 <= E.C[E] <= mue |E|^2 on Sym.
    Raises NotPositiveDefinite when the least eigenvalue is <= 0.
    """
    ev = _sym_eigenvalues(_components(C))
    if ev[0] <= 0.0:
        raise NotPositiveDefinite(f"least Sym eigenvalue {ev[0]:.6g} <= 0")
    return float(ev[0]), float(ev[-1])


def acoustic_tensor(C, n):
    """Gamma(n)_ih = C_ijhk n_j n_k for direction(s) n of shape (...,2)."""
    n = np.asarray(n, dtype=float)
    return np.einsum("ijhk,...j,...k->...ih", _components(C), n, n)


def _least_acoustic_eigenvalue(c, beta):
    """Least eigenvalue of sym Gamma(b), b = (cos beta, sin beta), in closed
    form (tr - hypot(g00 - g11, g01 + g10)) / 2, for angle(s) beta."""
    g = acoustic_tensor(c, np.stack([np.cos(beta), np.sin(beta)], axis=-1))
    g00, g11 = g[..., 0, 0], g[..., 1, 1]
    return 0.5 * (g00 + g11 - np.hypot(g00 - g11, g[..., 0, 1] + g[..., 1, 0]))


# directions sampled per half circle, and golden-section steps refining the
# least sample between its two neighbours (the bracket shrinks to 4e-11 rad)
_MARGIN_ANGLES = 720
_MARGIN_GOLDEN_STEPS = 40


def strong_ellipticity_margin(C) -> float:
    """Minimum of a.C[a x b]b over unit vectors a, b.

    Since a.C[a x b]b = a.Gamma(b)a, this is the least eigenvalue of the
    acoustic tensor Gamma(b) minimized over directions b: sampled at 720
    directions per half circle (Gamma is even in b), then refined by a
    golden-section search between the neighbours of the least sample.  A
    positive value certifies strong ellipticity; a nonpositive return is a
    valid verdict.
    """
    c = _components(C)
    h = np.pi / _MARGIN_ANGLES
    vals = _least_acoustic_eigenvalue(c, h * np.arange(_MARGIN_ANGLES))
    i = int(np.argmin(vals))
    lo, hi = h * (i - 1), h * (i + 1)
    r = 0.5 * (np.sqrt(5.0) - 1.0)
    x1, x2 = hi - r * (hi - lo), lo + r * (hi - lo)
    f1, f2 = _least_acoustic_eigenvalue(c, x1), _least_acoustic_eigenvalue(c, x2)
    for _ in range(_MARGIN_GOLDEN_STEPS):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - r * (hi - lo)
            f1 = _least_acoustic_eigenvalue(c, x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + r * (hi - lo)
            f2 = _least_acoustic_eigenvalue(c, x2)
    return float(min(vals[i], f1, f2))


def _check_bounds_pair(mu0: float, mue: float):
    if not (0.0 < mu0 <= mue):
        raise InvalidBounds(f"need 0 < mu0 <= mue, got ({mu0}, {mue})")


def gamma_exponent(mu0: float, mue: float) -> float:
    """Energy-growth rate 4 mu0 / (5 mu0 + 8 mue); lies in (0, 4/13]."""
    _check_bounds_pair(mu0, mue)
    return 4.0 * mu0 / (5.0 * mu0 + 8.0 * mue)


@dataclass
class ElasticityField:
    """Position-dependent elasticity action with certified bounds.

    action(points) maps (...,2) coordinates to (...,2,2,2,2) component
    arrays.  mu0 and mue bound E.C(x)[E]/|E|^2 on symmetric E;
    lin_bounds_pair additionally bounds the quotient on all of Lin when the
    action does not annihilate skew tensors (both certificates are recorded
    because different results assume different ones).  The bounds are
    caller-supplied and spot-verified at sample points, never silently
    clamped.  equivariant declares C(R x) = R * C(x) for every rotation R,
    (R * C)_ijhk = R_ia R_jb R_hc R_kd C_abcd, a property of the material's
    construction: the annulus solver then builds its one-column stiffness
    from column 0's cells and checks it against one fence column only, where
    an undeclared material is scanned column by column.
    """

    action: Callable[[np.ndarray], np.ndarray]
    mu0: float
    mue: float
    lin_bounds_pair: Optional[tuple[float, float]] = None
    equivariant: bool = False

    def __post_init__(self):
        _check_bounds_pair(self.mu0, self.mue)

    def __call__(self, points) -> np.ndarray:
        return self.action(np.asarray(points, dtype=float))

    def check_bounds_at(self, points):
        """Verify the declared Sym bounds at the sampled points, up to a slack
        of 1e-9 max(mue, 1).

        Raises BoundsViolated naming the worst offender; returns the sampled
        (min, max) eigenvalue range when the certificate holds.
        """
        ev = _sym_eigenvalues(self(np.atleast_2d(np.asarray(points, dtype=float))))
        lo, hi = float(ev[..., 0].min()), float(ev[..., -1].max())
        slack = 1e-9 * max(self.mue, 1.0)
        if lo < self.mu0 - slack or hi > self.mue + slack:
            k = int(np.argmin(ev[..., 0])) if lo < self.mu0 - slack else int(np.argmax(ev[..., -1]))
            raise BoundsViolated(
                f"sampled Sym eigenvalues [{lo:.6g}, {hi:.6g}] violate declared "
                f"({self.mu0:.6g}, {self.mue:.6g}) near point index {k}"
            )
        return lo, hi


def constant_field(C) -> ElasticityField:
    """Wrap a constant tensor (or IsotropicModuli) as an ElasticityField,
    declared equivariant exactly when the tensor is isotropic: when its
    components equal their rotation by 1 rad to 1e-12 relative (invariance
    under an irrational turn is invariance under every turn)."""
    if isinstance(C, IsotropicModuli):
        C = C.tensor()
    if not isinstance(C, ElasticityTensor):
        C = ElasticityTensor(C)
    mu0, mue = C.bounds
    comp = C.c.copy()
    R = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    turned = np.einsum("ia,jb,hc,kd,abcd->ijhk", R, R, R, R, comp)
    isotropic = np.abs(turned - comp).max() <= 1e-12 * np.abs(comp).max()

    def action(points):
        pts = np.asarray(points, dtype=float)
        return np.broadcast_to(comp, pts.shape[:-1] + (2, 2, 2, 2)).copy()

    return ElasticityField(action=action, mu0=mu0, mue=mue, equivariant=bool(isotropic))


def scalar_field(scale, lo: float, hi: float) -> ElasticityField:
    """The field s(x) Id_Lin with Sym and Lin bounds (lo, hi), for a scale
    mapping (...,2) points to (...) stiffnesses; (lo, hi) is the caller's
    certificate of the range of s."""

    def action(points):
        pts = np.asarray(points, dtype=float)
        return scale(pts)[..., None, None, None, None] * ID_LIN

    return ElasticityField(action=action, mu0=lo, mue=hi, lin_bounds_pair=(lo, hi))


# point-sample pairs whose distances the nearest-sample lookup forms at once
_TABLE_BLOCK_PAIRS = 1 << 18


def tabulated_scalar_field(r, theta, scales) -> ElasticityField:
    """The scalar field s(x) Id_Lin whose s(x) is the scale of the sample
    nearest to x, for samples at polar coordinates (r, theta); the lookup
    runs one block of points at a time, and the Sym and Lin bounds are the
    extreme scales."""
    tab_pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    rows = max(_TABLE_BLOCK_PAIRS // len(tab_pts), 1)

    def nearest(pts):
        flat = pts.reshape(-1, 2)
        idx = np.empty(len(flat), dtype=np.intp)
        for lo in range(0, len(flat), rows):
            d2s = np.sum((flat[lo:lo + rows, None, :] - tab_pts[None, :, :]) ** 2, axis=-1)
            idx[lo:lo + rows] = np.argmin(d2s, axis=1)
        return scales[idx].reshape(pts.shape[:-1])

    return scalar_field(nearest, float(scales.min()), float(scales.max()))


def random_scalar_field(lo: float, hi: float, rng) -> ElasticityField:
    """Smooth seeded stiffness lo + (hi - lo) s(x) times Id_Lin, with

        s = (1 + tanh(a0 cos th + a1 sin 2th + a2 cos(pi r / 8))) / 2

    and a = rng.normal(size=3), so the field stays within (lo, hi)."""
    a3 = rng.normal(size=3)

    def scale(pts):
        r = np.linalg.norm(pts, axis=-1)
        th = np.arctan2(pts[..., 1], pts[..., 0])
        s = 0.5 + 0.5 * np.tanh(
            a3[0] * np.cos(th) + a3[1] * np.sin(2 * th) + a3[2] * np.cos(np.pi * r / 8)
        )
        return lo + (hi - lo) * s

    return scalar_field(scale, lo, hi)
