"""Parametrized closed boundary curves with periodic-trapezoid quadrature nodes.

Convention: curves are parametrized counterclockwise on [0, 2pi); the stored
unit normal points out of the exterior domain, i.e. into the bounded body.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["BoundaryCurve"]

# point-edge pairs per block of the crossing-number test
_BLOCK_PAIRS = 1 << 16


class BoundaryCurve:
    """Closed curve sampled at N (even) quadrature nodes t_k = 2 pi k / N.

    Attributes
    ----------
    t : (N,) parameters; points, dpoints : (N,2) positions and derivatives
    speed : (N,) |x'(t)|; normal : (N,2) unit normal into the body
    weights : (N,) quadrature weights |x'(t_k)| 2 pi / N
    kind : "circle" | "ellipse" | "rounded_polygon"
    smooth : False only for the rounded polygon (curvature jumps)
    """

    def __init__(self, t, points, dpoints, kind: str, smooth: bool = True,
                 grad_f_norm=None, axes: Optional[tuple[float, float]] = None):
        self.t = np.asarray(t, dtype=float)
        self.points = np.asarray(points, dtype=float)
        self.dpoints = np.asarray(dpoints, dtype=float)
        self.kind = kind
        self.smooth = smooth
        self.grad_f_norm = None if grad_f_norm is None else np.asarray(grad_f_norm, float)
        self.axes = axes

        n = self.t.size
        if n % 2 != 0 or n < 16:
            raise ValueError(f"need an even node count >= 16, got {n}")
        self.n = n
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
        t = 2.0 * np.pi * np.arange(n) / n
        pts = a * np.stack([np.cos(t), np.sin(t)], axis=-1)
        dpts = a * np.stack([-np.sin(t), np.cos(t)], axis=-1)
        gf = np.full(n, 2.0 / a)  # |grad f| for f = |x|^2/a^2
        return cls(t, pts, dpts, kind="circle", grad_f_norm=gf, axes=(a, a))

    @classmethod
    def ellipse(cls, a: float, b: float, n: int = 256) -> "BoundaryCurve":
        """Ellipse (x1/a)^2 + (x2/b)^2 = 1; carries |grad f| on the boundary."""
        if a <= 0 or b <= 0:
            raise ValueError("semi-axes must be positive")
        t = 2.0 * np.pi * np.arange(n) / n
        pts = np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)
        dpts = np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1)
        gf = 2.0 * np.sqrt((np.cos(t) / a) ** 2 + (np.sin(t) / b) ** 2)
        return cls(t, pts, dpts, kind="ellipse", grad_f_norm=gf, axes=(a, b))

    @classmethod
    def rounded_polygon(cls, vertices, radius: float, n: int = 256) -> "BoundaryCurve":
        """Convex polygon with circular-arc corner rounding (Lipschitz stand-in).

        Constant-speed arclength parametrization; C^1 but with curvature
        jumps, so layer quadrature downgrades from spectral to algebraic.
        The strict-convexity and edge-fit checks make the curve simple.
        """
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
            raise ValueError("need at least 3 planar vertices")
        if radius <= 0:
            raise ValueError("rounding radius must be positive")
        # force counterclockwise orientation
        area2 = np.sum(verts[:, 0] * np.roll(verts[:, 1], -1)
                       - np.roll(verts[:, 0], -1) * verts[:, 1])
        if area2 < 0:
            verts = verts[::-1]

        m = verts.shape[0]
        pieces = []  # ("seg", p0, u, length) or ("arc", center, phi0, dphi)
        tang_in = []
        tang_out = []
        cut = []
        for i in range(m):
            prev_v = verts[(i - 1) % m]
            v = verts[i]
            next_v = verts[(i + 1) % m]
            u_in = v - prev_v
            u_in = u_in / np.linalg.norm(u_in)
            u_out = next_v - v
            u_out = u_out / np.linalg.norm(u_out)
            cross = u_in[0] * u_out[1] - u_in[1] * u_out[0]
            if cross <= 1e-12:
                raise ValueError("vertices must describe a strictly convex polygon")
            turn = np.arctan2(cross, np.dot(u_in, u_out))
            d = radius * np.tan(turn / 2.0)
            tang_in.append(u_in)
            tang_out.append(u_out)
            cut.append(d)
        for i in range(m):
            v = verts[i]
            next_v = verts[(i + 1) % m]
            edge = np.linalg.norm(next_v - v)
            if cut[i] + cut[(i + 1) % m] >= edge:
                raise ValueError("rounding radius too large for an edge")
        for i in range(m):
            v = verts[i]
            next_v = verts[(i + 1) % m]
            u = tang_out[i]
            p0 = v + cut[i] * u
            p1 = next_v - cut[(i + 1) % m] * u
            pieces.append(("seg", p0, u, float(np.linalg.norm(p1 - p0))))
            # rounding arc at the next vertex
            j = (i + 1) % m
            nv = verts[j]
            u_in = tang_in[j]
            u_next = tang_out[j]
            # center sits radius away from both edges, inside the polygon
            n_in = np.array([-u_in[1], u_in[0]])     # left normal = inward for CCW
            center = nv - cut[j] * u_in + radius * n_in
            phi0 = np.arctan2(-(n_in[1]), -(n_in[0]))
            n_out = np.array([-u_next[1], u_next[0]])
            phi1 = np.arctan2(-(n_out[1]), -(n_out[0]))
            dphi = np.mod(phi1 - phi0, 2.0 * np.pi)
            pieces.append(("arc", center, phi0, dphi * radius))

        lengths = np.array([p[3] if p[0] == "seg" else p[3] for p in pieces])
        total = lengths.sum()
        starts = np.concatenate([[0.0], np.cumsum(lengths)])[:-1]

        t = 2.0 * np.pi * np.arange(n) / n
        s = t / (2.0 * np.pi) * total
        pts = np.empty((n, 2))
        dpts = np.empty((n, 2))
        scale = total / (2.0 * np.pi)  # ds/dt: constant speed
        idx = np.minimum(np.searchsorted(starts, s, side="right") - 1, len(pieces) - 1)
        for k in range(n):
            kind_p, a0, a1, plen = pieces[idx[k]]
            sl = s[k] - starts[idx[k]]
            if kind_p == "seg":
                pts[k] = a0 + sl * a1
                dpts[k] = a1 * scale
            else:
                phi = a1 + sl / radius
                pts[k] = a0 + radius * np.array([np.cos(phi), np.sin(phi)])
                tau = np.array([-np.sin(phi), np.cos(phi)])
                dpts[k] = tau * scale
        return cls(t, pts, dpts, kind="rounded_polygon", smooth=False)

    @classmethod
    def rounded_square(cls, half_side: float = 1.0, radius: float = 0.25,
                       n: int = 256) -> "BoundaryCurve":
        h = half_side
        verts = [(-h, -h), (h, -h), (h, h), (-h, h)]
        return cls.rounded_polygon(verts, radius, n=n)

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
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind in ("circle", "ellipse"):
            a, b = self.axes
            f = (pts[:, 0] / a) ** 2 + (pts[:, 1] / b) ** 2
            return f < 1.0
        # crossing number of the node polygon (exact enough at node
        # resolution), over blocks of points against all edges at once
        x1 = self.points
        x2 = np.roll(x1, -1, axis=0)
        inside = np.empty(pts.shape[0], dtype=bool)
        rows = max(1, _BLOCK_PAIRS // self.n)
        for lo in range(0, pts.shape[0], rows):
            p = pts[lo : lo + rows, None, :]
            cond = (x1[:, 1] <= p[..., 1]) != (x2[:, 1] <= p[..., 1])
            tpar = (p[..., 1] - x1[:, 1]) / np.where(cond, x2[:, 1] - x1[:, 1], 1.0)
            xc = x1[:, 0] + tpar * (x2[:, 0] - x1[:, 0])
            inside[lo : lo + rows] = (np.sum(cond & (xc > p[..., 0]), axis=1) % 2) == 1
        return inside
