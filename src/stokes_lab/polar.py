"""Graded polar grids on annuli and nodal displacement fields.

Bilinear elements on (r, theta) cells with exact polar Jacobians; 2x2 Gauss
quadrature per cell.  Arrays are laid out ring first, theta-column second:
nodal values (n_r, n_theta, ...), cells (n_r - 1, n_theta, ...) and their
Gauss points (n_r - 1, n_theta, nq, ...).  Corner a of cell (i, j) is node
(i + CORNER_RING[a], j + CORNER_ANGLE[a] mod n_theta); `corners` gathers
nodal values to the corners and `scatter_corners`, its adjoint, sums them
back.  The grid caches its quadrature geometry: the Gauss points, and per
ring the radii and weights (the r dr dtheta area element folded in).
Cartesian shape gradients are made when read: those of theta-column 0 for
the stiffness, which rotates them to every other column, and the whole
grid's for field gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["PolarGrid", "DiscreteField", "relative_l2_error"]

_GAUSS1 = np.array([-1.0, 1.0]) / np.sqrt(3.0)

# (ring, angle) offsets of a cell's corners, counterclockwise in (r, theta)
CORNER_RING = (0, 1, 1, 0)
CORNER_ANGLE = (0, 0, 1, 1)


def corners(u: np.ndarray) -> np.ndarray:
    """(n_r - 1, n_theta, 4, ...) values at the corners of every cell of the
    nodal values u (n_r, n_theta, ...)."""
    n = u.shape[0] - 1
    return np.stack([np.roll(u[i:i + n], -d, axis=1) for i, d in zip(CORNER_RING, CORNER_ANGLE)],
                    axis=2)


def scatter_corners(c: np.ndarray) -> np.ndarray:
    """The adjoint of corners: the nodal values (n_r, n_theta, ...) that sum
    the per-corner values c (n_r - 1, n_theta, 4, ...) of the cells at each
    node."""
    n = c.shape[0]
    u = np.zeros((n + 1, c.shape[1]) + c.shape[3:])
    for a, (i, d) in enumerate(zip(CORNER_RING, CORNER_ANGLE)):
        u[i:i + n] += np.roll(c[:, :, a], d, axis=1)
    return u


def _ref_points():
    """Radial and angular reference coordinates (xi, eta) of the 2x2 Gauss
    points in the reference square, each (nq,)."""
    gx, gy = np.meshgrid(_GAUSS1, _GAUSS1, indexing="ij")
    return gx.ravel(), gy.ravel()


class PolarGrid:
    """Annulus 1 <= r <= r_max with geometric radial grading, periodic in theta."""

    def __init__(self, r_max: float, n_r: int, n_theta: int, r_min: float = 1.0):
        if r_max <= r_min:
            raise ValueError("r_max must exceed r_min")
        if n_r < 3:
            raise ValueError("need at least 3 radial nodes")
        if n_theta < 8 or n_theta % 2 != 0:
            raise ValueError("n_theta must be even and >= 8")
        ratio = (r_max / r_min) ** (1.0 / (n_r - 1))
        if not (1.0 <= ratio <= 1.2):
            raise ValueError(
                f"geometric grading ratio {ratio:.4f} outside [1, 1.2]; "
                "increase n_r or reduce r_max"
            )
        self.r_min = float(r_min)
        self.r_max = float(r_max)
        self.n_r = int(n_r)
        self.n_theta = int(n_theta)
        self.ratio = float(ratio)
        self.radii = r_min * ratio ** np.arange(n_r)
        self.radii[-1] = r_max
        self.thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
        self.dtheta = 2.0 * np.pi / n_theta
        self._qp = None

    def node_points(self) -> np.ndarray:
        """(n_r, n_theta, 2) Cartesian positions of the nodes."""
        t = self.thetas
        return self.radii[:, None, None] * np.stack([np.cos(t), np.sin(t)], axis=-1)

    # -- quadrature geometry -----------------------------------------------------

    def _quadrature(self):
        if self._qp is not None:
            return self._qp
        r0 = self.radii[:-1]
        r1 = self.radii[1:]
        dr = (r1 - r0)[:, None]                       # (n_r-1, 1)
        rmid = (0.5 * (r0 + r1))[:, None]
        dt = self.dtheta
        xi, eta = _ref_points()

        rq = rmid + 0.5 * dr * xi[None, :]            # (n_r-1, nq)
        tq = self.thetas[:, None] + 0.5 * dt * (1.0 + eta)[None, :]     # (n_theta, nq)
        wq = 0.25 * dr * dt * rq                      # area weight incl. Jacobian r

        # bilinear shapes, one per corner (CORNER_RING, CORNER_ANGLE)
        shp = 0.25 * np.stack(
            [
                (1 - xi) * (1 - eta),
                (1 + xi) * (1 - eta),
                (1 + xi) * (1 + eta),
                (1 - xi) * (1 + eta),
            ],
            axis=-1,
        )                                              # (nq, 4)

        pts = rq[:, None, :, None] * np.stack([np.cos(tq), np.sin(tq)], axis=-1)
        self._qp = {"rq": rq, "wq": wq, "shapes": shp, "points": pts}
        return self._qp

    def _shape_gradients(self, n_cols: int) -> np.ndarray:
        """(n_r - 1, n_cols, nq, 4, 2) Cartesian gradients d_k N_a of the shape
        functions at the Gauss points of the cells in the theta-columns
        0..n_cols - 1, one elementwise formula for any n_cols."""
        xi, eta = _ref_points()
        dt = self.dtheta
        dr = np.diff(self.radii)[:, None, None, None]                # (n_r-1, 1, 1, 1)
        rq = self.qp_radii[:, None, :, None]                        # (n_r-1, 1, nq, 1)
        tq = self.thetas[:n_cols, None] + 0.5 * dt * (1.0 + eta)[None, :]
        er = np.stack([np.cos(tq), np.sin(tq)], axis=-1)[:, :, None, :]    # (n_cols, nq, 1, 2)
        et = np.stack([-np.sin(tq), np.cos(tq)], axis=-1)[:, :, None, :]
        dxi = 0.25 * np.stack([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)], axis=-1)
        deta = 0.25 * np.stack([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)], axis=-1)
        d_dr = dxi * (2.0 / dr)                                       # (n_r-1, 1, nq, 4)
        d_dt = deta * (2.0 / dt) / rq
        return d_dr[..., None] * er + d_dt[..., None] * et

    @property
    def qp_points(self) -> np.ndarray:
        """(n_r - 1, n_theta, nq, 2) Cartesian Gauss points of every cell."""
        return self._quadrature()["points"]

    @property
    def qp_weights(self) -> np.ndarray:
        """(n_r - 1, nq) Gauss weights of a cell of each ring, the same in
        every theta-column."""
        return self._quadrature()["wq"]

    @property
    def qp_radii(self) -> np.ndarray:
        """(n_r - 1, nq) Gauss-point radii of a cell of each ring."""
        return self._quadrature()["rq"]

    @property
    def qp_shapes(self) -> np.ndarray:
        """(nq, 4) values of the corners' shape functions at the Gauss points."""
        return self._quadrature()["shapes"]

    @property
    def qp_shape_gradients(self) -> np.ndarray:
        """(n_r - 1, n_theta, nq, 4, 2) shape gradients of every cell, made on
        each read."""
        return self._shape_gradients(self.n_theta)

    @property
    def column_shape_gradients(self) -> np.ndarray:
        """(n_r - 1, nq, 4, 2) shape gradients of the cells of theta-column 0."""
        return self._shape_gradients(1)[:, 0]

    # -- ring differencing ---------------------------------------------------

    def ring_gradient(self, values: np.ndarray, i: int) -> np.ndarray:
        """Cartesian gradient of a nodal field on ring i, (n_theta, 2, 2).

        Radial derivative by a second-order 3-point stencil on the nonuniform
        radii (one-sided at the boundary rings), angular derivative by
        centered differences on the uniform angles.
        """
        v = values
        r = self.radii
        n_r = self.n_r
        if i == 0:
            ks = (0, 1, 2)
        elif i == n_r - 1:
            ks = (n_r - 1, n_r - 2, n_r - 3)
        else:
            ks = (i - 1, i, i + 1)
        x0, x1, x2 = (r[k] for k in ks)
        f0, f1, f2 = (v[k] for k in ks)
        xi = r[i]
        c0 = (2 * xi - x1 - x2) / ((x0 - x1) * (x0 - x2))
        c1 = (2 * xi - x0 - x2) / ((x1 - x0) * (x1 - x2))
        c2 = (2 * xi - x0 - x1) / ((x2 - x0) * (x2 - x1))
        du_dr = c0 * f0 + c1 * f1 + c2 * f2                     # (n_theta, 2)

        vi = v[i]
        du_dt = (np.roll(vi, -1, axis=0) - np.roll(vi, 1, axis=0)) / (2 * self.dtheta)

        er = np.stack([np.cos(self.thetas), np.sin(self.thetas)], axis=-1)
        et = np.stack([-np.sin(self.thetas), np.cos(self.thetas)], axis=-1)
        return (
            du_dr[:, :, None] * er[:, None, :]
            + du_dt[:, :, None] * et[:, None, :] / r[i]
        )


@dataclass
class DiscreteField:
    """Nodal 2-vector values on a polar grid, periodic in theta."""

    grid: PolarGrid
    values: np.ndarray  # (n_r, n_theta, 2)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_r, self.grid.n_theta, 2)
        if self.values.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    @classmethod
    def sample(cls, grid: PolarGrid, func: Callable) -> "DiscreteField":
        """Sample func(points (...,2)) -> (...,2) at the grid nodes."""
        return cls(grid, np.asarray(func(grid.node_points()), dtype=float))

    @classmethod
    def zeros(cls, grid: PolarGrid) -> "DiscreteField":
        return cls(grid, np.zeros((grid.n_r, grid.n_theta, 2)))

    def gradient_at_qp(self) -> np.ndarray:
        """(n_r - 1, n_theta, nq, 2, 2) with [..., m, k] = d_k u_m at the Gauss
        points of every cell."""
        u_cells = np.swapaxes(corners(self.values), -1, -2)        # (n_r-1, n_theta, 2, 4)
        return u_cells[:, :, None] @ self.grid.qp_shape_gradients

    def values_at_qp(self) -> np.ndarray:
        """(n_r - 1, n_theta, nq, 2) values at the Gauss points of every cell."""
        return self.grid.qp_shapes @ corners(self.values)


def relative_l2_error(u: DiscreteField, exact: DiscreteField) -> float:
    """L2 norm of u - exact over the annulus relative to that of exact, both
    by Gauss quadrature of the bilinear interpolants."""
    grid = exact.grid
    diff = DiscreteField(grid, u.values - exact.values)
    w = grid.qp_weights[:, None]
    num = float(np.sum(w * np.sum(diff.values_at_qp() ** 2, axis=-1)))
    den = float(np.sum(w * np.sum(exact.values_at_qp() ** 2, axis=-1)))
    return float(np.sqrt(num / max(den, 1e-300)))
