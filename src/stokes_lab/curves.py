"""Parametrized closed boundary curves with periodic-trapezoid quadrature nodes.

Three curves: the circle and the ellipse (smooth, spectral quadrature) and
the rounded square, the Lipschitz stand-in.  Each constructor hands the
curve its own exact inside rule, and builds nodes that are exactly centrally
symmetric (node j + N/2 is node j turned by pi).  The circle and the ellipse
are also exactly mirror-symmetric: they are built from nodes 0..N/4 alone,
with the nodes on the axes exactly on them, and node -j mod N is node j
reflected in the x1-axis.

Convention: curves are parametrized counterclockwise on [0, 2pi); the stored
unit normal points out of the exterior domain, i.e. into the bounded body.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BoundaryCurve"]

# [[0, -1], [1, 0]]^k for k = 0..3: integer matrices, so each turn is exact
_QUARTER_TURNS = np.stack([np.linalg.matrix_power(np.array([[0, -1], [1, 0]]), k)
                           for k in range(4)])


# sigma = diag(1, -1), the mirror x2 -> -x2, as component signs
_MIRROR = np.array([1.0, -1.0])


def _with_half_turn(first):
    """Nodes N/2..N-1 as the exact negation of nodes 0..N/2-1: (N/2, 2) -> (N, 2)."""
    return np.concatenate([first, -first])


def _with_mirror(quarter, n: int, sign):
    """Nodes 0..N/2-1 from nodes 0..N/4, node N/2 - r being sign times node
    r: (N//4 + 1, ...) -> (N/2, ...).  With sign = -sigma for points and
    sigma for derivatives, and the half turn after it, node -j mod N is
    sigma times node j, and its derivative -sigma times node j's."""
    m = n // 2
    return np.concatenate([quarter, sign * quarter[m - len(quarter) : 0 : -1]])


def _quarter_harmonics(n: int):
    """cos t and sin t at t_j = 2 pi j / n for j = 0..n//4, with cos t = 0
    exactly at j = n/4 (when 4 divides n)."""
    t = 2.0 * np.pi * np.arange(n // 4 + 1) / n
    c, s = np.cos(t), np.sin(t)
    if n % 4 == 0:
        c[-1] = 0.0
    return c, s


def _inside_ellipse(a: float, b: float):
    """The inside rule of the ellipse (x1/a)^2 + (x2/b)^2 = 1."""
    return lambda p: (p[:, 0] / a) ** 2 + (p[:, 1] / b) ** 2 < 1.0


class BoundaryCurve:
    """Closed curve sampled at N (even) quadrature nodes t_k = 2 pi k / N.

    Attributes
    ----------
    t : (N,) parameters; points, dpoints : (N,2) positions and derivatives
    speed : (N,) |x'(t)|; normal : (N,2) unit normal into the body
    weights : (N,) quadrature weights |x'(t_k)| 2 pi / N
    kind : "circle" | "ellipse" | "rounded_square"
    smooth : False only for the rounded square (curvature jumps)

    `inside` maps (m, 2) points to the (m,) booleans of is_inside.  Raises
    ValueError when the geometry under- or overflows float64: a squared node
    chord or squared speed below the smallest normal float, or a squared
    bounding-box diagonal (a bound on every squared chord) that is not finite.
    Also raises ValueError unless the nodes are exactly centrally symmetric,
    node j + N/2 being node j turned by pi (points and derivatives negated bit
    for bit): the boundary solver factors its operator in that symmetry's
    even and odd blocks.  mirror_symmetric records whether node -j mod N is
    also sigma times node j, sigma = diag(1, -1), and its derivative -sigma
    times node j's, bit for bit; then the solver splits each block once more.
    """

    def __init__(self, t, points, dpoints, kind: str, inside, smooth: bool = True,
                 grad_f_norm=None):
        self.t = np.asarray(t, dtype=float)
        self.points = np.asarray(points, dtype=float)
        self.dpoints = np.asarray(dpoints, dtype=float)
        self.kind = kind
        self.smooth = smooth
        self.grad_f_norm = None if grad_f_norm is None else np.asarray(grad_f_norm, float)
        self._inside = inside

        n = self.t.size
        if n % 2 != 0 or n < 16:
            raise ValueError(f"need an even node count >= 16, got {n}")
        self.n = n
        with np.errstate(over="ignore", invalid="ignore"):
            chord2 = np.sum((self.points - np.roll(self.points, -1, axis=0)) ** 2, axis=1)
            speed2 = np.sum(self.dpoints**2, axis=1)
            extent2 = np.sum(np.ptp(self.points, axis=0) ** 2)
        if not (min(chord2.min(), speed2.min()) >= np.finfo(float).tiny
                and np.isfinite(extent2)):
            raise ValueError("scale outside float64: a squared node chord or speed is below "
                             "the smallest normal float, or the squared extent is not finite")
        half = n // 2
        if not (np.array_equal(self.points[half:], -self.points[:half])
                and np.array_equal(self.dpoints[half:], -self.dpoints[:half])):
            raise ValueError("nodes are not centrally symmetric: node j + N/2 must be "
                             "node j turned by pi, in points and derivatives")
        flip = -np.arange(n) % n
        self.mirror_symmetric = bool(
            np.array_equal(self.points[flip], _MIRROR * self.points)
            and np.array_equal(self.dpoints[flip], -_MIRROR * self.dpoints))
        self.speed = np.linalg.norm(self.dpoints, axis=1)
        tangent = self.dpoints / self.speed[:, None]
        # CCW parametrization: (-tau_y, tau_x) points into the body
        self.normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=-1)
        self.tangent = tangent
        self.weights = self.speed * (2.0 * np.pi / n)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def circle(cls, a: float, n: int = 256) -> "BoundaryCurve":
        if a <= 0:
            raise ValueError("radius must be positive")
        return cls._conic(a, a, n, kind="circle", grad_f_norm=np.full(n, 2.0 / a))

    @classmethod
    def ellipse(cls, a: float, b: float, n: int = 256) -> "BoundaryCurve":
        """Ellipse (x1/a)^2 + (x2/b)^2 = 1; carries |grad f| on the boundary."""
        if a <= 0 or b <= 0:
            raise ValueError("semi-axes must be positive")
        return cls._conic(a, b, n, kind="ellipse")

    @classmethod
    def _conic(cls, a: float, b: float, n: int, kind: str,
               grad_f_norm=None) -> "BoundaryCurve":
        """(a cos t, b sin t) at t_j = 2 pi j / n, built from nodes 0..n//4 by
        the mirror and the half turn, with |grad f| of the ellipse unless
        given."""
        c, s = _quarter_harmonics(n)
        pts = _with_half_turn(_with_mirror(np.stack([a * c, b * s], axis=-1), n, -_MIRROR))
        dpts = _with_half_turn(_with_mirror(np.stack([-a * s, b * c], axis=-1), n, _MIRROR))
        if grad_f_norm is None:
            # an axis below about 1e-154 overflows here; __init__ refuses that scale
            with np.errstate(over="ignore"):
                quarter = 2.0 * np.sqrt((c / a) ** 2 + (s / b) ** 2)
            grad_f_norm = np.tile(_with_mirror(quarter, n, 1.0), 2)
        return cls(2.0 * np.pi * np.arange(n) / n, pts, dpts, kind=kind,
                   inside=_inside_ellipse(a, b), grad_f_norm=grad_f_norm)

    @classmethod
    def rounded_square(cls, half_side: float = 1.0, radius: float = 0.25,
                       n: int = 256) -> "BoundaryCurve":
        """The square [-h, h]^2 with corners rounded by arcs of radius rho
        (Lipschitz stand-in): C^1 with curvature jumps, so layer quadrature
        downgrades from spectral to algebraic.

        Constant speed, the perimeter over 2 pi.  Side 0 is the segment from
        (rho - h, -h) to (h - rho, -h) and the quarter arc about
        (h - rho, rho - h); node j lies on side k = 4j // n, the fraction
        (4j mod n) / n along it, at side 0's point there turned k quarter
        turns.  So for n % 4 == 0 the nodes are exactly quarter-turn symmetric,
        and for every even n exactly centrally symmetric (node j + n/2 is on
        side k + 2 at the same fraction).
        Inside is distance below rho from the inner square [rho - h, h - rho]^2.
        """
        h, rho = half_side, radius
        if not 0 < rho < h:
            raise ValueError("rounded square needs 0 < radius < half_side")
        c = h - rho
        seg = 2.0 * c
        side = seg + 0.5 * np.pi * rho
        k, m = np.divmod(4 * np.arange(n), n)
        s = side * m / n                             # arclength along side k
        theta = np.maximum(s - seg, 0.0) / rho       # angle swept on the arc
        on_arc = s > seg
        pts = np.stack([np.where(on_arc, c + rho * np.sin(theta), s - c),
                        np.where(on_arc, -c - rho * np.cos(theta), -h)], axis=-1)
        dpts = (4.0 * side / (2.0 * np.pi)) * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        turns = _QUARTER_TURNS[k]

        def inside(p):
            gap = np.maximum(np.abs(p) - c, 0.0)
            return np.hypot(gap[:, 0], gap[:, 1]) < rho

        return cls(2.0 * np.pi * np.arange(n) / n, np.einsum("jab,jb->ja", turns, pts),
                   np.einsum("jab,jb->ja", turns, dpts), kind="rounded_square",
                   inside=inside, smooth=False)

    # -- geometry -------------------------------------------------------------

    @property
    def perimeter(self) -> float:
        return float(self.weights.sum())

    def total(self, density) -> np.ndarray:
        """Weighted quadrature of a nodal vector density: sum_k w_k psi_k."""
        psi = np.asarray(density, dtype=float)
        return np.einsum("k,ki->i", self.weights, psi)

    def inner_product(self, f, g) -> float:
        """Weighted L2 pairing of nodal vector fields on the curve."""
        f = np.asarray(f, dtype=float)
        g = np.asarray(g, dtype=float)
        return float(np.einsum("k,ki,ki->", self.weights, f, g))

    def is_inside(self, points) -> np.ndarray:
        """True for points strictly inside the body bounded by the curve."""
        return self._inside(np.atleast_2d(np.asarray(points, dtype=float)))
