"""Variational solver on truncated exterior domains and energy diagnostics.

The exterior domain is replaced by the annulus 1 < r < r_max with a
configurable outer condition; the solver minimizes the discrete energy
int grad(u) . C[grad(u)] over bilinear elements.  Every stiffness is built
once, in polar components, one block of _FRAME_BLOCK theta-columns at a
time: the material at the Gauss points of each theta-column of cells, made
for that block only, is rotated into that column's polar frame, turned into
element matrices by one matrix product per ring and added into a 9-point
stencil of 2x2 blocks over the (ring, theta) nodes, with one column of
blocks per theta-column of nodes, or a single column when the material is
rotation-equivariant and the stiffness block-circulant in theta (from two
theta-columns of cells when the material declares it).  A
block-circulant stiffness is inverted by one angular Fourier solve (a
block-Thomas sweep over the rings per mode, factored over its symbols);
any other is solved by conjugate gradients preconditioned by the Fourier
solve of its theta-mean.  Beyond the stencil, the Fourier factors and the
iteration vectors, every stage holds one block of work at most: the load
and the diagnostics work one block of rings at a time, the stencil one
block of columns, and its product a chunk of rings of shifted copies; no
whole-grid array of Gauss points, frames or element matrices is ever
held.  Only the load and the Dirichlet data (on the way in) and the
solution (on the way out) are rotated between Cartesian and polar
components.  The module also measures the quantities the theory
estimates: interior/exterior energy profiles and their rate-gamma
monotonicity, the truncated work-energy defect, net tractions, far-field
decay exponents, and the contraction fixed point.  One harness,
oracle_ladder, checks the solver against an exact field: the relative L2
errors of solves on a ladder of grids and the orders between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import NotContracting, RadiusOutOfGrid, SolverDiverged
from .polar import (
    CORNER_ANGLE, CORNER_RING, DiscreteField, PolarGrid, relative_l2_error, scatter_corners
)
from .tensors import ID_LIN, ElasticityField

__all__ = [
    "VariationalProblem",
    "bump_force",
    "solve_annulus",
    "OracleLadder",
    "oracle_ladder",
    "EnergyProfile",
    "energy_profiles",
    "GrowthReport",
    "growth_monotonicity_check",
    "energy_identity_residual",
    "net_traction_discrete",
    "DecayFit",
    "decay_exponent_fit",
    "ContractionReport",
    "contraction_solve",
]


@dataclass
class VariationalProblem:
    """Data of the truncated exterior problem.

    inner_data / outer_data: finite nodal (n_theta, 2) arrays, None for
    zero, or callables of points, such as an exact field's displacement,
    handed the ring's node points (n_theta, 2) (grid.node_points(ring))
    and returning the values there.  outer_kind is "dirichlet" or
    "traction_free" (natural condition: the outer ring stays free).  force,
    when present, must be supported strictly inside r_max / 2.
    """

    field: ElasticityField
    inner_data: object = None
    outer_kind: str = "dirichlet"
    outer_data: object = None
    force: Optional[Callable] = None

    def __post_init__(self):
        if self.outer_kind not in ("dirichlet", "traction_free"):
            raise ValueError(f"unknown outer condition {self.outer_kind!r}")

    def boundary_values(self, grid: PolarGrid, which: str) -> np.ndarray:
        data = self.inner_data if which == "inner" else self.outer_data
        if data is None:
            return np.zeros((grid.n_theta, 2))
        if callable(data):
            data = data(grid.node_points(0 if which == "inner" else -1))
        arr = np.asarray(data, dtype=float)
        if arr.shape != (grid.n_theta, 2):
            raise ValueError(f"{which} boundary data must have shape (n_theta, 2) = "
                             f"({grid.n_theta}, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{which} boundary data must be finite")
        return arr


def bump_force(amp, r_max: float) -> Callable:
    """Smooth volume force exp(-((r - 5)/2)^2) (a0 + a1 cos 2th, a2 + a3 sin th)
    for the amplitudes amp = (a0, a1, a2, a3), cut off at r_max / 2 so that
    it meets the support condition of VariationalProblem."""

    def force(points):
        pts = np.asarray(points, dtype=float)
        r = np.linalg.norm(pts, axis=-1)
        th = np.arctan2(pts[..., 1], pts[..., 0])
        bump = np.exp(-((r - 5.0) / 2.0) ** 2) * (r < r_max / 2)
        return np.stack(
            [bump * (amp[0] + amp[1] * np.cos(2 * th)), bump * (amp[2] + amp[3] * np.sin(th))],
            axis=-1,
        )

    return force


def _add_cells(S: np.ndarray, ke: np.ndarray, nodes: slice):
    """Add to the node columns `nodes` of the (n_r, 2, 3, 3, 2, n_cols)
    stencil S[i, m, o + 1, d + 1, h, j] the element matrices ke
    (n_r - 1, len + 1, 8, 8), rows and columns (corner a, component m), of
    the theta-columns of cells nodes.start - 1 .. nodes.stop - 1.  S couples
    component m of node (i, j) to component h of node (i + o, j + d), zero
    where ring i + o is off the grid; corner a of the cell in column j is a
    node of column j + A_a, so node column j takes its corners with A_a = 0
    from cell j and those with A_a = 1 from cell j - 1."""
    n_r, n = S.shape[0], ke.shape[1]
    # (i, a, b, m, h, j): ring, corners a and b, components m and h, column
    cells = ke.reshape(n_r - 1, n, 4, 2, 4, 2).transpose(0, 2, 4, 3, 5, 1)
    for a in range(4):
        own = cells[:, a, ..., 1 - CORNER_ANGLE[a]:n - CORNER_ANGLE[a]]
        rows = S[CORNER_RING[a]:CORNER_RING[a] + n_r - 1, ..., nodes]
        for b in range(4):
            o = CORNER_RING[b] - CORNER_RING[a] + 1
            d = CORNER_ANGLE[b] - CORNER_ANGLE[a] + 1
            rows[:, :, o, d] += own[:, b]


_APPLY_COPY_BYTES = 1 << 20     # shifted input copies _stiffness_apply holds at a time


def _stiffness_apply(S: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K x for nodal values x (n, n_theta, 2) on the n rings of a stencil S
    of _stencil, or of its rows on n consecutive rings; x counts as zero on
    the rings beyond them.  A one-column S is shared by every theta.  The 9
    shifted copies of x are stacked a chunk of rings at a time, at most
    _APPLY_COPY_BYTES of them, and each chunk's product is written into its
    rings of the result."""
    n, n_t = x.shape[:2]
    xp = np.zeros((n + 2, 2, n_t + 2))
    xp[1:-1, :, 1:-1] = x.transpose(0, 2, 1)
    xp[:, :, 0], xp[:, :, -1] = xp[:, :, -2], xp[:, :, 1]          # periodic in theta
    S = S.reshape(n, 2, 18, -1)
    y = np.empty((n, 2, n_t))
    step = max(1, _APPLY_COPY_BYTES // (18 * n_t * xp.itemsize))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        X = np.stack([xp[lo + o:hi + o, :, d:d + n_t] for o in range(3) for d in range(3)], axis=1)
        np.einsum("imkj,ikj->imj", S[lo:hi], X.reshape(hi - lo, 18, n_t), out=y[lo:hi])
    return y.transpose(0, 2, 1)


def _force_vector(grid: PolarGrid, force: Optional[Callable]) -> np.ndarray:
    """Load vector int f.N_a, nodal (n_r, n_theta, 2); the force must vanish
    beyond r_max / 2.  The force is evaluated one block of rings at a time
    (PolarGrid.ring_blocks) into the cells' loads."""
    if force is None:
        return np.zeros((grid.n_r, grid.n_theta, 2))
    loads = np.empty((grid.n_r - 1, grid.n_theta, 4, 2))
    largest = outside = 0.0
    for rings in grid.ring_blocks():
        f_qp = np.asarray(force(grid.gauss_points(rings)), dtype=float)
        mags = np.linalg.norm(f_qp, axis=-1)
        beyond = grid.qp_radii[rings, None] > 0.5 * grid.r_max
        outside = mags.max(initial=outside, where=beyond)
        largest = max(largest, mags.max())
        np.einsum("iq,qa,ijqm->ijam", grid.qp_weights[rings], grid.qp_shapes, f_qp,
                  out=loads[rings])
    if outside > 1e-12 * max(largest, 1.0):
        raise ValueError("volume force must be supported strictly inside r_max / 2")
    return scatter_corners(loads)


# -- the polar frame ------------------------------------------------------------

_FRAME_BLOCK = 8                # theta-columns of nodes built per batch


def _rotations(thetas: np.ndarray) -> np.ndarray:
    """(n, 2, 2) rotations R(theta), mapping polar to Cartesian components."""
    c, s = np.cos(thetas), np.sin(thetas)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def _to_polar(R: np.ndarray, v: np.ndarray) -> np.ndarray:
    """R(theta_j)^T v at every node of nodal values v (..., n_theta, 2)."""
    return (v[..., None, :] @ R)[..., 0, :]


def _to_cartesian(R: np.ndarray, x: np.ndarray) -> np.ndarray:
    """R(theta_j) x at every node of polar components x (..., n_theta, 2)."""
    return (R @ x[..., None])[..., 0]


def _polar_frame(C: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The material C (n_r - 1, n_cols, nq, 2, 2, 2, 2) at the Gauss points
    of the theta-columns of cells that start at the angles thetas, rotated
    into each column's polar frame, Q^T C Q with Q = R(theta_j) x R(theta_j),
    by two batched matrix products: a (n_r - 1, n_cols, 2, 2, nq, 2, 2) view
    of the components C[q, m k, h l] with the axes (m, h, q, k, l) last."""
    n_rc, n_cols, nq = C.shape[:3]
    R = _rotations(thetas)
    q = np.einsum("jia,jkb->jikab", R, R).reshape(n_cols, 4, 4)
    # (column, row index (m, k), ring, Gauss point, column index (h, l))
    C = C.reshape(n_rc, n_cols, nq, 4, 4).transpose(1, 3, 0, 2, 4)
    qtc = np.swapaxes(q, -1, -2) @ C.reshape(n_cols, 4, -1)
    qtcq = (qtc.reshape(n_cols, -1, 4) @ q).reshape(n_cols, 2, 2, n_rc, nq, 2, 2)
    return qtcq.transpose(3, 0, 1, 5, 4, 2, 6)


def _shape_products(grid: PolarGrid) -> np.ndarray:
    """(n_r - 1, 4 nq, 16) products w_q d_k N_a d_l N_b of theta-column 0's
    cells, rows (q, k, l) and columns (corner a, corner b)."""
    g = grid.shape_gradients(1)[:, 0]
    return np.einsum("iq,iqak,iqbl->iqklab", grid.qp_weights, g, g).reshape(g.shape[0], -1, 16)


def _cell_matrices(P: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """(n_r - 1, n_cols, 8, 8) element matrices ke[(a m), (b h)], the sum of
    P[(q k l), (a b)] C[q, m k, h l] over (q, k, l) for the shape products P
    and the polar frame (_polar_frame), as one matrix product per ring of
    the frame's rows (column, m, h)."""
    n_rc, n_cols = frame.shape[:2]
    ke = (frame.reshape(n_rc, 4 * n_cols, -1) @ P).reshape(n_rc, n_cols, 2, 2, 4, 4)
    return ke.transpose(0, 1, 4, 2, 5, 3).reshape(n_rc, n_cols, 8, 8)


def _element_map(grid: PolarGrid) -> Callable:
    """Polar frame -> element matrices in the nodes' frames: column j's cells
    are column 0's rotated by theta_j, so they take column 0's shape products
    (_cell_matrices) and corners rotated by (0, 0, dtheta, dtheta), T^T ke T."""
    P, T = _shape_products(grid), np.zeros((4, 2, 4, 2))
    T[range(4), :, range(4)] = _rotations(grid.dtheta * np.asarray(CORNER_ANGLE, dtype=float))
    T = T.reshape(8, 8)
    return lambda frame: T.T @ _cell_matrices(P, frame) @ T


def _column_stencil(ke: np.ndarray) -> np.ndarray:
    """The one-column stencil of the element matrices ke (n_r - 1, 1, 8, 8)
    of every theta-column: the cell before column 0 is column 0 itself."""
    S = np.zeros((ke.shape[0] + 1, 2, 3, 3, 2, 1))
    _add_cells(S, np.broadcast_to(ke, (ke.shape[0], 2) + ke.shape[2:]), slice(0, 1))
    return S


def _polar_stencil(grid: PolarGrid, field: ElasticityField) -> np.ndarray:
    """The stencil (_add_cells), in the polar components of the nodes, of the
    stiffness of the material field.

    A material declared equivariant (ElasticityField.equivariant) is
    evaluated at the Gauss points of two theta-columns of cells only:
    column 0 and the fence column n_theta // 3 + 1, which for every grid
    (n_theta even and >= 8) is no quarter or half turn of column 0, so a
    material with only a four-fold symmetry cannot pass it.  Both are
    rotated into their polar frames (_polar_frame); when they differ by more
    than 1e-12 relative the declaration is false and ValueError is raised,
    else the stencil has the one column of column 0's frame.

    Any other material is built one block of _FRAME_BLOCK theta-columns of
    nodes at a time from the cells that touch them.  Per block, the material
    at the cells' Gauss points, made for the block only
    (PolarGrid.gauss_points), is rotated into each cell column's polar frame,
    compared with column 0's and turned into element matrices
    (_element_map).  While every column equals column 0 to 1e-12 relative,
    C(R x) = R * C(x) holds at the Gauss points and nothing is kept: the
    stiffness is block-circulant and its stencil has the one column of
    column 0's frame, bit for bit the declared path's.  At the first block
    that differs, the n_theta-column stencil is allocated and the earlier
    blocks are evaluated again."""
    n_t = grid.n_theta
    element_matrices = _element_map(grid)
    if field.equivariant:
        cells = np.array([0, n_t // 3 + 1])
        frame = _polar_frame(field(grid.gauss_points(cols=cells)), grid.thetas[cells])
        ref = frame[:, 0:1]
        if np.abs(frame - ref).max() > 1e-12 * np.abs(ref).max():
            raise ValueError(f"a material declared equivariant differs in theta-column "
                             f"{cells[1]} of {n_t} from column 0 in its polar frame")
        return _column_stencil(element_matrices(ref))

    def block(lo):
        """The node columns from lo and the polar frame of their cells."""
        nodes = slice(lo, min(lo + _FRAME_BLOCK, n_t))
        cells = np.arange(lo - 1, nodes.stop) % n_t
        return nodes, _polar_frame(field(grid.gauss_points(cols=cells)), grid.thetas[cells])

    S = None
    for lo in range(0, n_t, _FRAME_BLOCK):
        nodes, frame = block(lo)
        if lo == 0:
            ref = frame[:, 1:2]                         # column 0: R(0) is the identity
            tol = 1e-12 * np.abs(ref).max()
        if S is None and np.abs(frame - ref).max() > tol:
            S = np.zeros((grid.n_r, 2, 3, 3, 2, n_t))
            for early in range(0, lo, _FRAME_BLOCK):
                nodes_e, frame_e = block(early)
                _add_cells(S, element_matrices(frame_e), nodes_e)
        if S is not None:
            _add_cells(S, element_matrices(frame), nodes)
    return _column_stencil(element_matrices(ref)) if S is None else S


def _identity_stencil(grid: PolarGrid, scale: float) -> np.ndarray:
    """The one-column polar stencil of the stiffness of scale * Id_Lin, whose
    frame in every column is itself: Id_Lin is invariant under R x R."""
    c0 = (scale * ID_LIN).transpose(0, 2, 1, 3)                       # axes (m, h, k, l)
    frame = np.broadcast_to(c0[:, :, None], (grid.n_r - 1, 1, 2, 2, len(grid.qp_shapes), 2, 2))
    return _column_stencil(_element_map(grid)(frame))


class _Stiffness:
    """The free system of a problem on a grid, in polar components.  The
    free rings are 1..last, a contiguous range of DOFs in ring-major order:
    last = n_r - 2 with a Dirichlet outer ring, n_r - 1 otherwise.  Built at
    once, in this order: the rotations R(theta_j) of the node columns and the
    Cartesian nodal values carrying the Dirichlet data on the inner ring (and
    on the outer ring under a Dirichlet outer condition), zero on the free
    rings; the load in polar components, whose support is checked before the
    material is evaluated; the polar stencil of the stiffness
    (_polar_stencil, from the material one block of theta-columns at a time);
    its rows K_f on the free rings and the right-hand side b_f - K_fd u_d
    there.  A contraction run builds it once for its fixed-point iteration
    and its direct reference solve."""

    def __init__(self, problem: VariationalProblem, grid: PolarGrid):
        self.grid = grid
        self.rotations = R = _rotations(grid.thetas)
        self._u = np.zeros((grid.n_r, grid.n_theta, 2))
        self._u[0] = problem.boundary_values(grid, "inner")
        self.last = grid.n_r - 1
        if problem.outer_kind == "dirichlet":
            self._u[-1] = problem.boundary_values(grid, "outer")
            self.last -= 1
        load = _to_polar(R, _force_vector(grid, problem.force))
        stencil = _polar_stencil(grid, problem.field)
        self.K_f = stencil[1:self.last + 1]
        # u vanishes on the free rings, so K u is K_fd u_d there
        self.rhs = (load - _stiffness_apply(stencil, _to_polar(R, self._u)))[1:self.last + 1]

    def field(self, x: np.ndarray) -> DiscreteField:
        """The displacement with the polar components x on the free rings and
        the Dirichlet data on the others."""
        u = self._u.copy()
        u[1:self.last + 1] = _to_cartesian(self.rotations, x)
        return DiscreteField(self.grid, u)


# relative max-norm residual a solve must reach
_RESIDUAL_TOL = 1e-8


def _check_residual(Kx: np.ndarray, rhs: np.ndarray, x: np.ndarray):
    scale = max(np.abs(rhs).max(), np.abs(Kx).max(), 1e-300)
    rel = np.abs(Kx - rhs).max() / scale
    if not np.all(np.isfinite(x)) or rel > _RESIDUAL_TOL:
        raise SolverDiverged(f"solve residual {rel:.3g} exceeds {_RESIDUAL_TOL:g}")


# -- angular Fourier solve of block-circulant stiffnesses ------------------------

# The block-tridiagonal helpers below hold stacks of 2x2 (or 2xk) blocks as
# (..., 2, 2, m) arrays, the stack index last: their elementwise products then
# run over contiguous rows of m entries, about twice as fast as over (m, 2, 2).

_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])[..., None]


def _inverse_2x2(D: np.ndarray) -> np.ndarray:
    """Closed-form inverses adj(D) / det(D) of a stack of 2x2 blocks;
    SolverDiverged when a determinant is not finite (a pivot beyond the
    float range) or vanishes.  The checks overflow quietly."""
    with np.errstate(over="ignore", invalid="ignore"):
        det = D[..., 0, 0, :] * D[..., 1, 1, :] - D[..., 0, 1, :] * D[..., 1, 0, :]
        if not np.all(np.isfinite(det)):
            raise SolverDiverged("stiffness of an angular mode overflows: a pivot's "
                                 "determinant is not finite")
        size = np.abs(D).max(axis=(-3, -2))
        if not np.all(np.abs(det) > 1e-14 * size * size):
            raise SolverDiverged("stiffness of an angular mode is singular")
    adj = np.swapaxes(D[..., ::-1, ::-1, :], -3, -2) * _ADJUGATE_SIGNS
    return adj / det[..., None, None, :]


def _mul_2x2(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y for stacks of 2x2 blocks X and 2xk blocks Y, as the sum of two
    outer products: about 3x faster than matmul on stacks of small complex
    blocks."""
    return X[..., :, :1, :] * Y[..., :1, :, :] + X[..., :, 1:, :] * Y[..., 1:, :, :]


def _block_thomas_factor(A: np.ndarray, U: np.ndarray, L: np.ndarray):
    """Forward-sweep factors of the block-tridiagonal systems with diagonal
    A (n, 2, 2, m), upper U and lower L (n - 1, 2, 2, m), one per index of
    the last axis, written over them and returned as (A, U, L): the inverse
    pivots D_i^-1 over A, W_i = D_i^-1 U_i over U and M_i = D_i^-1 L_{i-1}
    over L; W and M column-first, W[i, c, r] = W_i[r, c], so that the solve
    sweeps read each block's columns as (2, m) rows.  Each block is read
    before its factor is written."""
    W_rows, M_rows = np.swapaxes(U, 1, 2), np.swapaxes(L, 1, 2)
    A[0] = _inverse_2x2(A[0])
    for i in range(1, A.shape[0]):
        W_rows[i - 1] = _mul_2x2(A[i - 1], U[i - 1])
        A[i] = _inverse_2x2(A[i] - _mul_2x2(L[i - 1], W_rows[i - 1]))
        M_rows[i - 1] = _mul_2x2(A[i], L[i - 1])
    return A, U, L


def _block_thomas_solve(factors, F: np.ndarray) -> np.ndarray:
    """Solve the factored systems for the right-hand sides F (n, 2, m): all
    D_i^-1 F_i in one batch, then the sweeps z_i -= M_i z_{i-1} forward and
    z_i -= W_i z_{i+1} back.  Each step is three ufunc calls into one
    (2, 2, m) work array P: P[c] = column c of the factor times entry c of
    the neighbour, P[0] += P[1], z_i -= P[0], so z_i - (m0 p0 + m1 p1) in
    that order of operations."""
    Dinv, W, M = factors
    z = _mul_2x2(Dinv, F[:, :, None])[:, :, 0]
    entries = z[:, :, None]                     # (n, 2, 1, m): entry c of each z_i
    P = np.empty(M.shape[1:], dtype=np.result_type(M, z))
    P0, P1 = P
    forward, back = zip(M, entries, z[1:]), zip(W[::-1], entries[::-1], z[-2::-1])
    for factor, near, cur in chain(forward, back):
        np.multiply(factor, near, out=P)
        np.add(P0, P1, out=P0)
        np.subtract(cur, P0, out=cur)
    return z


def _fourier_inverse(S: np.ndarray, n_theta: int) -> Callable:
    """The inverse of a block-circulant stiffness on its free rings, given by
    the rows S of its one-column stencil on those rings.  One real FFT in
    theta splits it into one block-tridiagonal system over the rings per
    angular mode, with symbol s(0) + s(1) e^{i phi_k} + s(-1) e^{-i phi_k};
    these are factored here, once, over the symbol arrays.  The returned
    solve maps nodal values (free rings, n_theta, 2) to nodal values in the
    components of S."""
    k = np.arange(n_theta // 2 + 1)
    phase = np.exp(1j * np.outer([-1.0, 0.0, 1.0], 2.0 * np.pi * k / n_theta))
    down, same, up = (np.einsum("imdh,dk->imhk", S[:, :, o, :, :, 0], phase) for o in range(3))
    factors = _block_thomas_factor(same, up[:-1], down[1:])

    def solve(rhs: np.ndarray) -> np.ndarray:
        y = _block_thomas_solve(factors, np.fft.rfft(rhs.transpose(0, 2, 1), axis=2))
        return np.fft.irfft(y, n=n_theta, axis=2).transpose(0, 2, 1)

    return solve


# -- any other material: conjugate gradients -----------------------------------

_PCG_TOL = 1e-12                # relative residual at which conjugate gradients stop
_PCG_MAX_ITER = 500             # steps after which they fail
_SINGULAR_DIAGONAL = 1e-14      # free DOFs with a diagonal this small relative to the largest


def _pcg(apply: Callable, precondition: Callable, rhs: np.ndarray) -> np.ndarray:
    """Preconditioned conjugate gradients for K x = rhs from x = 0, run to a
    relative residual of _PCG_TOL; SolverDiverged on a breakdown
    (p^T K p <= 0 or not finite) or when _PCG_MAX_ITER steps do not reach it."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    stop = _PCG_TOL * np.linalg.norm(rhs)
    if np.linalg.norm(r) <= stop:
        return x
    p = precondition(r)
    rz = np.vdot(r, p)
    for _ in range(_PCG_MAX_ITER):
        Kp = apply(p)
        pKp = np.vdot(p, Kp)
        if not (np.isfinite(pKp) and pKp > 0):
            raise SolverDiverged(f"conjugate gradients broke down: p^T K p = {pKp:.3g}")
        alpha = rz / pKp
        x += alpha * p
        r -= alpha * Kp
        del Kp                  # not held through the preconditioner, nor z through apply
        if np.linalg.norm(r) <= stop:
            return x
        z = precondition(r)
        rz, rz_prev = np.vdot(r, z), rz
        p *= rz / rz_prev
        p += z
        del z
    raise SolverDiverged(f"conjugate gradients did not reach a relative residual of "
                         f"{_PCG_TOL:g} in {_PCG_MAX_ITER} steps")


def _solve(stiffness: _Stiffness) -> np.ndarray:
    """The polar components of the solution on the free rings.  The Fourier
    inverse of the theta-mean of the stiffness (for a theta-dependent one,
    T. Chan's optimal circulant preconditioner applied ring by ring) solves
    a one-column stiffness directly and preconditions conjugate gradients on
    any other."""
    K_f, rhs = stiffness.K_f, stiffness.rhs
    circulant = K_f.shape[-1] == 1
    if not circulant:
        diag = K_f[:, [0, 1], 1, 1, [0, 1]]
        weak = np.count_nonzero(diag <= _SINGULAR_DIAGONAL * diag.max())
        if weak:
            raise SolverDiverged(f"stiffness is singular: {weak} of {diag.size} free DOFs have a "
                                 f"diagonal at most {_SINGULAR_DIAGONAL:g} of the largest")
    inverse = _fourier_inverse(K_f.mean(axis=-1, keepdims=True), stiffness.grid.n_theta)
    if circulant:
        x = inverse(rhs)
    else:
        x = _pcg(lambda p: _stiffness_apply(K_f, p), inverse, rhs)
    _check_residual(_stiffness_apply(K_f, x), rhs, x)
    return x


def solve_annulus(problem: VariationalProblem, grid: PolarGrid) -> DiscreteField:
    """Minimize the discrete energy subject to the boundary conditions.

    The declared bounds of the material are spot-checked at about 257 Gauss
    points first, before anything is built.  The stiffness is built in polar
    components.  For a rotation-equivariant material, C(R x) = R * C(x) at
    every Gauss point (isotropic constants, radial scalar fields, the
    counter-example tensors), it is block-circulant in theta and solved
    directly by one FFT in theta and a block-tridiagonal sweep over the
    rings per angular mode.  A material declared equivariant
    (ElasticityField.equivariant) is evaluated at two theta-columns of
    cells for this, an undeclared one at every column (_polar_stencil).
    Any other material is solved by
    conjugate gradients on its stiffness stencil to a relative residual of
    1e-12, preconditioned by that Fourier solve for the theta-mean of the
    stencil (the stencil of the material averaged over theta in its polar
    frame); the step count is bounded in terms of the contrast of the
    material to that average (10-20 steps at contrast 2).
    Raises BoundsViolated when spot-checked material samples leave the
    declared bounds, ValueError when a material declared equivariant is
    not, SolverDiverged when the system is singular (a vanishing
    angular mode, or a free DOF whose stiffness diagonal is at most 1e-14 of
    the largest), when conjugate gradients break down or take more than 500
    steps, or when the result misses a relative residual of 1e-8
    (ill-conditioning proxy).
    """
    problem.field.check_bounds_at(grid.qp_sample(257))
    stiffness = _Stiffness(problem, grid)
    return stiffness.field(_solve(stiffness))


# -- exact-field oracles ---------------------------------------------------------


@dataclass
class OracleLadder:
    """Relative L2 errors on grids coarse to fine, the orders log2(e_k /
    e_{k+1}) between them, and the finest grid's solve and exact field."""

    errors: np.ndarray
    orders: np.ndarray
    solution: DiscreteField
    exact: DiscreteField


def oracle_ladder(problem: VariationalProblem, exact: Callable,
                  grids: Iterable[PolarGrid]) -> OracleLadder:
    """Solve the problem on each grid and take relative_l2_error against the
    exact displacement, a function of points, sampled at the nodes.  The
    caller poses the ring data, so data the exact field meets only to
    round-off (zero on a ring) can be posed exactly."""
    errors = []
    for grid in grids:
        solution = solve_annulus(problem, grid)
        sampled = DiscreteField.sample(grid, exact)
        errors.append(relative_l2_error(solution, sampled))
    errors = np.asarray(errors)
    return OracleLadder(errors, np.log2(errors[:-1] / errors[1:]), solution, sampled)


# -- energy bookkeeping --------------------------------------------------------


def _dirichlet_density(g: np.ndarray, _rings: slice) -> np.ndarray:
    """|grad u|^2 + |div u|^2 at the Gauss points of the gradient g (..., 2, 2)."""
    div = g[..., 0, 0] + g[..., 1, 1]
    return np.sum(g * g, axis=(-2, -1)) + div * div


def _ring_integrals(u: DiscreteField, density: Callable, n_rings: Optional[int] = None
                    ) -> np.ndarray:
    """The Gauss-rule integrals over the rings of cells 0..n_rings - 1 (all
    by default) of density(g, rings): its values (n_rings, n_theta, nq) at
    the Gauss points of the rings of cells `rings`, where u has the gradient
    g = u.gradient_at_qp(rings).  One block of rings (PolarGrid.ring_blocks)
    at a time, so the temporaries are those of one block."""
    grid = u.grid
    sums = np.empty(grid.n_r - 1 if n_rings is None else n_rings)
    for rings in grid.ring_blocks(sums.size):
        dens = density(u.gradient_at_qp(rings), rings)
        sums[rings] = np.sum(dens * grid.qp_weights[rings, None], axis=-1).sum(axis=1)
    return sums


@dataclass
class EnergyProfile:
    """Interior energy G and exterior tail Q of int(|grad u|^2 + |div u|^2).

    radii are the grid ring radii; G[k] integrates over r < radii[k], Q[k]
    over the grid portion beyond, so G + Q = G[-1] = total at every radius.
    """

    radii: np.ndarray
    G: np.ndarray
    Q: np.ndarray

    @property
    def total(self) -> float:
        return float(self.G[-1])


def energy_profiles(u: DiscreteField) -> EnergyProfile:
    """G and Q of u on its grid rings, from the ring integrals of the Dirichlet
    density summed one block of rings at a time."""
    grid = u.grid
    ring = _ring_integrals(u, _dirichlet_density)
    G = np.concatenate([[0.0], np.cumsum(ring)])
    return EnergyProfile(radii=grid.radii.copy(), G=G, Q=G[-1] - G)


def _ring_at(radii: np.ndarray, radius: float) -> int:
    """Index of the ring nearest to radius; raises RadiusOutOfGrid for a
    radius outside [radii[0], radii[-1]]."""
    if not radii[0] <= radius <= radii[-1]:
        raise RadiusOutOfGrid(f"radius {radius} outside the grid [{radii[0]:g}, {radii[-1]:g}]")
    return int(np.argmin(np.abs(radii - radius)))


def _nearest_rings(radii: np.ndarray, targets) -> list[int]:
    """Distinct indices of the rings nearest to the target radii, ascending,
    without ring 0 (the inner boundary)."""
    rings = sorted({_ring_at(radii, t) for t in np.atleast_1d(targets)})
    return [k for k in rings if k > 0]


def _dyadic_rings(radii: np.ndarray, lo: float, hi: float) -> list[int]:
    """_nearest_rings of the dyadic ladder lo, 2 lo, 4 lo, ... up to hi,
    without the rungs below the inner ring."""
    targets = []
    r = lo
    while r <= hi * (1 + 1e-12):
        if r >= radii[0]:
            targets.append(r)
        r *= 2.0
    return _nearest_rings(radii, targets)


# largest fractional drop or rise of a monotonicity audit that passes
_GROWTH_TOLERANCE = 0.01


@dataclass
class GrowthReport:
    """Monotonicity audit of G(R)/R^gamma (nondecreasing for interior-growth
    class fields) and R^gamma Q(R) (nonincreasing for decaying fields).

    Violations are reported as the worst fractional drop/rise between
    consecutive sampled radii; nothing is raised."""

    worst_g_violation: float    # max fractional decrease of G(R) / R^gamma
    worst_q_violation: float    # max fractional increase of R^gamma Q(R)
    tolerance: float
    degenerate: bool

    @property
    def q_ok(self) -> bool:
        return self.degenerate or self.worst_q_violation <= self.tolerance


def growth_monotonicity_check(profile: EnergyProfile, gamma: float) -> GrowthReport:
    """Audit the two rate-gamma monotonicities on the dyadic radii 2, 4, ...
    up to r_max / 2.

    The interior inequality needs the field to solve the homogeneous equation
    down to the center or to vanish on the inner boundary with zero net
    traction; the exterior one needs a decaying finite-energy field.  The
    report only measures; the caller asserts on the class that applies.
    """
    idx = _dyadic_rings(profile.radii, 2.0, profile.radii[-1] / 2)
    rs = profile.radii[idx]
    G = profile.G[idx]
    Q = profile.Q[idx]

    total = profile.total
    # constant fields produce pure round-off energy (~1e-30); flag them
    if total <= 1e-20 or not np.isfinite(total):
        return GrowthReport(0.0, 0.0, _GROWTH_TOLERANCE, degenerate=True)

    g_scaled = G / rs**gamma
    q_scaled = rs**gamma * Q
    with np.errstate(divide="ignore", invalid="ignore"):
        g_drop = np.where(g_scaled[:-1] > 0, 1.0 - g_scaled[1:] / g_scaled[:-1], 0.0)
        q_rise = np.where(q_scaled[:-1] > 0, q_scaled[1:] / q_scaled[:-1] - 1.0, 0.0)
    return GrowthReport(
        worst_g_violation=float(np.maximum(g_drop, 0.0).max(initial=0.0)),
        worst_q_violation=float(np.maximum(q_rise, 0.0).max(initial=0.0)),
        tolerance=_GROWTH_TOLERANCE,
        degenerate=False,
    )


# -- boundary functionals --------------------------------------------------------


def _ring_traction(u: DiscreteField, problem: VariationalProblem, ring: int,
                   sign: float) -> np.ndarray:
    """(n_theta, 2) traction C[grad u] n at the nodes of a grid ring for the
    normal n = sign * e_r, with grad u from the 3-point ring stencils and C
    the problem's material there."""
    grid = u.grid
    grad = grid.ring_gradient(u.values, ring)
    pts = grid.node_points(ring)
    stress = np.einsum("nmkhl,nhl->nmk", problem.field(pts), grad)
    return np.einsum("nmk,nk->nm", stress, sign * pts / grid.radii[ring])


def energy_identity_residual(u: DiscreteField, problem: VariationalProblem, radius: float) -> float:
    """Relative defect of the truncated work-energy relation

        int_{1<r<R} grad u . C[grad u] = int_{r=1} u.s(u) + int_{r=R} u.s(u),

    inner normal = -e_r (out of the annulus), outer normal = +e_r; R is the
    ring nearest to radius, and RadiusOutOfGrid is raised outside the grid or
    on the inner ring."""
    grid = u.grid
    kR = _ring_at(grid.radii, radius)
    if kR <= 0:
        raise RadiusOutOfGrid(f"radius {radius} below the first interior ring")
    R = grid.radii[kR]

    def work(g, rings):
        return np.einsum("...mk,...mkhl,...hl->...", g, problem.field(grid.gauss_points(rings)), g)

    energy = float(_ring_integrals(u, work, kR).sum())

    total_work = 0.0
    for ring, sign in ((0, -1.0), (kR, +1.0)):
        s_u = _ring_traction(u, problem, ring, sign)
        r = grid.radii[ring]
        total_work += r * grid.dtheta * float(np.einsum("nm,nm->", u.values[ring], s_u))

    scale = max(abs(energy), 1e-300)
    return abs(energy - total_work) / scale


def net_traction_discrete(u: DiscreteField, problem: VariationalProblem,
                          radius: Optional[float] = None) -> np.ndarray:
    """Quadrature of the traction over a grid circle with the normal pointing
    toward the hole (the boundary functional of the exterior domain).

    Defaults to the inner boundary r = 1; pass another radius (snapped to the
    nearest ring, RadiusOutOfGrid outside the grid) for the flux
    conservation cross-check.  Vanishes for decaying solutions."""
    grid = u.grid
    ring = 0 if radius is None else _ring_at(grid.radii, radius)
    return grid.radii[ring] * grid.dtheta * _ring_traction(u, problem, ring, -1.0).sum(axis=0)


# -- decay fits --------------------------------------------------------------


@dataclass
class DecayFit:
    """Log-log regression of max_theta |u - u0| against r."""

    alpha: float
    u0: np.ndarray
    radii: np.ndarray
    poor_fit: bool


# rms log-log residual beyond which a decay fit is flagged poor
_POOR_FIT_RMS = 0.1


def decay_exponent_fit(u: DiscreteField, radii: Optional[np.ndarray] = None) -> DecayFit:
    """Fit u - u0 = O(r^-alpha) on the given radii, or by default the dyadic
    ladder in [2, r_max/4]; at least 5 distinct rings are needed.

    u0 is the angular mean at the largest fitting radius; radii are snapped to
    the nearest grid rings (RadiusOutOfGrid outside the grid).  The default
    drops the outer quarter to suppress truncation pollution."""
    grid = u.grid
    if radii is None:
        rings = _dyadic_rings(grid.radii, 2.0, grid.r_max / 4.0)
    else:
        rings = _nearest_rings(grid.radii, radii)
    if len(rings) < 5:
        raise ValueError(f"need >= 5 distinct fitting radii, got {len(rings)}")

    u0 = u.values[rings[-1]].mean(axis=0)
    rs = grid.radii[rings]
    d = np.linalg.norm(u.values[rings] - u0, axis=-1).max(axis=-1)
    if np.any(d <= 0):
        raise ValueError("field coincides with its angular mean at a fitting radius")
    coef, res = np.polyfit(np.log(rs), np.log(d), 1, full=True)[:2]
    rms = float(np.sqrt(res[0] / len(rings))) if res.size else 0.0
    return DecayFit(alpha=float(-coef[0]), u0=u0, radii=rs, poor_fit=rms > _POOR_FIT_RMS)


# -- contraction fixed point --------------------------------------------------


@dataclass
class ContractionReport:
    factors: np.ndarray
    n_iter: int
    converged: bool
    direct_agreement: float     # max|u_fix - u_dir| / max|u_dir| against the direct solve

    @property
    def worst_factor(self) -> float:
        return float(self.factors.max()) if self.factors.size else 0.0

    @property
    def n_contraction_steps(self) -> int:
        """Applications of the fixed-point map beyond the source term v_f."""
        return max(self.n_iter - 1, 0)


# the iteration stops once an increment is this fraction of the first one
_CONTRACTION_TOL = 1e-12
_CONTRACTION_MAX_ITER = 100


def contraction_solve(
    problem: VariationalProblem, grid: PolarGrid
) -> tuple[DiscreteField, ContractionReport]:
    """Fixed-point iteration v_{k+1} = v_f + Q[v_k] for the heterogeneous
    problem, preconditioned by the comparison material C0 = scale * (identity
    product) C0_ijhk = scale * d_ih d_jk, and its agreement with the direct
    solve.

    Q inverts the discrete C0-operator on the same grid and boundary
    conditions, the desk-scale stand-in for the whole-plane kernel
    convolution: C0 is rotation-invariant, so its polar stencil has one
    column and Q is the angular Fourier inverse of solve_annulus (one real
    FFT in theta and one 2x2 block-tridiagonal sweep over the rings per
    angular mode), factored once per call.  The limit therefore solves
    exactly the same discrete system as solve_annulus.  One _Stiffness
    serves both: the direct solve of solve_annulus runs on it first, before
    Q is factored, and only its nodal values u_dir are kept; direct_agreement
    is max|u_fix - u_dir| / max(max|u_dir|, 1e-300).  The declared bounds are
    not spot-checked, so an indefinite material meets the NotContracting
    guard.  The iteration runs in polar components and carries its residual
    from step to step: each step applies Q to what the previous increment
    left, and the material's polar stencil to the increment.  So the
    increments never cancel against the data and their ratios stay clear of
    round-off.  Per-iteration contraction factors are ratios of the gradient
    L^2 norms of the increments, each sqrt(inc^T K0 inc / scale) with the C0
    stiffness K0: under the same Gauss rule this is the quadrature of
    |grad inc|^2, since the energy of the identity product is the same in
    every frame.  As inc = Q res, K0 inc is res, so the norm is read as
    sqrt(inc . res / scale) from res before its update, with no stencil
    applied.  With scale = the upper Lin bound of the material (mue when it
    declares none), the factor is bounded by the relative contrast
    (scale - lower) / scale.  The iteration stops once an increment is 1e-12
    of the first, or after 100 steps.  Raises NotContracting after three
    consecutive factors above 1, and what the direct solve raises.
    """
    if problem.field.lin_bounds_pair is not None:
        c0_scale = problem.field.lin_bounds_pair[1]
    else:
        c0_scale = problem.field.mue

    stiffness = _Stiffness(problem, grid)
    u_dir = stiffness.field(_solve(stiffness)).values   # before Q: their work arrays never coexist
    K_f, res, last = stiffness.K_f, stiffness.rhs.copy(), stiffness.last
    green0 = _fourier_inverse(_identity_stencil(grid, c0_scale)[1:last + 1], grid.n_theta)

    w = np.zeros_like(res)
    factors = []
    prev_inc_norm = None
    n_bad = 0
    scale_norm = None
    for n_iter in range(1, _CONTRACTION_MAX_ITER + 1):
        inc = green0(res)
        inc_norm = float(np.sqrt(max(np.vdot(inc, res), 0.0) / c0_scale))
        res -= _stiffness_apply(K_f, inc)
        w += inc
        if scale_norm is None:
            scale_norm = max(inc_norm, 1e-300)
        if prev_inc_norm is not None and prev_inc_norm > 0:
            fac = inc_norm / prev_inc_norm
            factors.append(fac)
            n_bad = n_bad + 1 if fac > 1.0 else 0
            if n_bad >= 3:
                raise NotContracting(
                    f"gradient-L^2 factors exceeded 1 for 3 consecutive "
                    f"iterations (last {fac:.3g}); contrast too large"
                )
        prev_inc_norm = inc_norm
        converged = inc_norm <= _CONTRACTION_TOL * scale_norm
        if converged:
            break

    u_fix = stiffness.field(w)
    return u_fix, ContractionReport(
        factors=np.asarray(factors),
        n_iter=n_iter,
        converged=converged,
        direct_agreement=float(
            np.abs(u_fix.values - u_dir).max() / max(np.abs(u_dir).max(), 1e-300)
        ),
    )
