"""Graded polar grids on annuli and nodal displacement fields.

Bilinear elements on (r, theta) cells with exact polar Jacobians; 2x2 Gauss
quadrature per cell.  Arrays are laid out ring first, theta-column second:
nodal values (n_r, n_theta, ...), cells (n_r - 1, n_theta, ...) and their
Gauss points (n_r - 1, n_theta, nq, ...).  Corner a of cell (i, j) is node
(i + CORNER_RING[a], j + CORNER_ANGLE[a] mod n_theta); `corners` gathers
nodal values to the corners and `scatter_corners`, its adjoint, sums them
back.  The reference Gauss coordinates and the corners' shapes there are
module constants; a grid keeps only its per-ring Gauss radii qp_radii and
weights qp_weights (the r dr dtheta area element folded in), both
(n_r - 1, nq).  Gauss points and Cartesian shape gradients are made only
for a slice of rings and theta-columns: the points of one block of
columns for the stiffness, of one block of rings for the load or a
diagnostic, or a sparse sample of them; the shape gradients of
theta-column 0 for the stiffness, which rotates them to every other
column, and those of one block of rings of cells for field gradients.
Whole-grid Gauss-point diagnostics run over the blocks of
`PolarGrid.ring_blocks`, so their temporaries are those of one block,
whatever the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["PolarGrid", "DiscreteField", "relative_l2_error"]


def _constant(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# radial and angular reference coordinates (xi, eta) of the 2x2 Gauss points
# in the reference square, radial index first, each (nq,)
_XI = _constant(np.repeat([-1.0, 1.0], 2) / np.sqrt(3.0))
_ETA = _constant(np.tile([-1.0, 1.0], 2) / np.sqrt(3.0))

# (ring, angle) offsets of a cell's corners, counterclockwise in (r, theta)
CORNER_RING = (0, 1, 1, 0)
CORNER_ANGLE = (0, 0, 1, 1)

# (nq, 4) bilinear shapes of the corners at the Gauss points
_SHAPES = _constant(0.25 * np.stack([(1 - _XI) * (1 - _ETA), (1 + _XI) * (1 - _ETA),
                                     (1 + _XI) * (1 + _ETA), (1 - _XI) * (1 + _ETA)], axis=-1))

# cells of the block of rings that a whole-grid Gauss-point diagnostic works
# on at once (one ring at least): about 1 KB of temporaries per cell
_RING_BLOCK_CELLS = 1 << 12


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


class PolarGrid:
    """Annulus 1 <= r <= r_max with geometric radial grading, periodic in theta."""

    qp_shapes = _SHAPES

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
        self._quadrature()

    def node_points(self, rings=slice(None)) -> np.ndarray:
        """Cartesian positions of the nodes of the rings `rings`, a ring
        index (n_theta, 2) or a slice (n_rings, n_theta, 2), all rings by
        default; bit for bit that part of the whole grid's."""
        t = self.thetas
        return self.radii[rings, None, None] * np.stack([np.cos(t), np.sin(t)], axis=-1)

    # -- quadrature geometry -----------------------------------------------------

    def _quadrature(self):
        """Set the Gauss-point radii qp_radii and the Gauss weights qp_weights
        of a cell of each ring, the same in every theta-column, both
        (n_r - 1, nq)."""
        dr = np.diff(self.radii)[:, None]
        rmid = (0.5 * (self.radii[:-1] + self.radii[1:]))[:, None]
        self.qp_radii = rmid + 0.5 * dr * _XI
        self.qp_weights = 0.25 * dr * self.dtheta * self.qp_radii

    def _qp_angles(self, cols) -> np.ndarray:
        """(n_cols, nq) Gauss-point angles of the cells of the theta-columns
        cols (a slice or an index array)."""
        return self.thetas[cols, None] + 0.5 * self.dtheta * (1.0 + _ETA)

    def gauss_points(self, rings: slice = slice(None), cols=slice(None)) -> np.ndarray:
        """(n_rings, n_cols, nq, 2) Cartesian Gauss points of the cells in the
        rings of cells `rings` and the theta-columns cols (a slice or an index
        array), all by default; bit for bit that slice of the whole grid's."""
        tq = self._qp_angles(cols)
        return self.qp_radii[rings, None, :, None] * np.stack([np.cos(tq), np.sin(tq)], axis=-1)

    def qp_sample(self, count: int) -> np.ndarray:
        """(m, 2) every max(N // count, 1)-th of the N Gauss points of the
        grid in the (ring, column, point) order of gauss_points(), so about
        count of them, made without the others."""
        shape = (self.n_r - 1, self.n_theta, self.qp_radii.shape[1])
        n = int(np.prod(shape))
        i, j, q = np.unravel_index(np.arange(0, n, max(n // count, 1)), shape)
        tq = self._qp_angles(j)[np.arange(j.size), q]
        return self.qp_radii[i, q, None] * np.stack([np.cos(tq), np.sin(tq)], axis=-1)

    def shape_gradients(self, n_cols: int, rings: slice = slice(None)) -> np.ndarray:
        """(n_rings, n_cols, nq, 4, 2) Cartesian gradients d_k N_a of the shape
        functions at the Gauss points of the cells in the rings of cells
        `rings` (all by default) and the theta-columns 0..n_cols - 1, one
        elementwise formula for any rings and n_cols."""
        dt = self.dtheta
        dr = np.diff(self.radii)[rings, None, None, None]           # (n_rings, 1, 1, 1)
        rq = self.qp_radii[rings, None, :, None]                    # (n_rings, 1, nq, 1)
        tq = self._qp_angles(slice(n_cols))
        er = np.stack([np.cos(tq), np.sin(tq)], axis=-1)[:, :, None, :]    # (n_cols, nq, 1, 2)
        et = np.stack([-np.sin(tq), np.cos(tq)], axis=-1)[:, :, None, :]
        dxi = 0.25 * np.stack([-(1 - _ETA), (1 - _ETA), (1 + _ETA), -(1 + _ETA)], axis=-1)
        deta = 0.25 * np.stack([-(1 - _XI), -(1 + _XI), (1 + _XI), (1 - _XI)], axis=-1)
        d_dr = dxi * (2.0 / dr)                                       # (n_r-1, 1, nq, 4)
        d_dt = deta * (2.0 / dt) / rq
        return d_dr[..., None] * er + d_dt[..., None] * et

    def ring_blocks(self, n_rings: int | None = None) -> list[slice]:
        """Consecutive blocks of the rings of cells 0..n_rings - 1 (all
        n_r - 1 by default), each of at most _RING_BLOCK_CELLS cells and one
        ring at least, in order."""
        n = self.n_r - 1 if n_rings is None else n_rings
        step = max(1, _RING_BLOCK_CELLS // self.n_theta)
        return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]

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

    def _corners(self, rings: slice) -> np.ndarray:
        """(n_rings, n_theta, 4, 2) corner values of the cells in the rings of
        cells `rings`."""
        lo, hi, _ = rings.indices(self.grid.n_r - 1)
        return corners(self.values[lo:hi + 1])

    def gradient_at_qp(self, rings: slice = slice(None)) -> np.ndarray:
        """(n_rings, n_theta, nq, 2, 2) with [..., m, k] = d_k u_m at the Gauss
        points of the cells in the rings of cells `rings` (all by default);
        the shape gradients are made for those rings only."""
        u_cells = np.swapaxes(self._corners(rings), -1, -2)        # (n_rings, n_theta, 2, 4)
        return u_cells[:, :, None] @ self.grid.shape_gradients(self.grid.n_theta, rings)

    def values_at_qp(self, rings: slice = slice(None)) -> np.ndarray:
        """(n_rings, n_theta, nq, 2) values at the Gauss points of the cells in
        the rings of cells `rings` (all by default)."""
        return self.grid.qp_shapes @ self._corners(rings)


def relative_l2_error(u: DiscreteField, exact: DiscreteField) -> float:
    """L2 norm of u - exact over the annulus relative to that of exact, both
    by Gauss quadrature of the bilinear interpolants.  The two weighted
    integrands are filled one block of rings at a time and each is summed
    once, as a whole."""
    grid = exact.grid
    diff = DiscreteField(grid, u.values - exact.values)
    num = np.empty((grid.n_r - 1, grid.n_theta, grid.qp_weights.shape[1]))
    den = np.empty_like(num)
    for rings in grid.ring_blocks():
        w = grid.qp_weights[rings, None]
        np.multiply(w, np.sum(diff.values_at_qp(rings) ** 2, axis=-1), out=num[rings])
        np.multiply(w, np.sum(exact.values_at_qp(rings) ** 2, axis=-1), out=den[rings])
    return float(np.sqrt(float(np.sum(num)) / max(float(np.sum(den)), 1e-300)))
