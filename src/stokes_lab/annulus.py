"""Variational solver on truncated exterior domains and energy diagnostics.

The exterior domain is replaced by the annulus 1 < r < r_max with a
configurable outer condition; the solver minimizes the discrete energy
int grad(u) . C[grad(u)] over bilinear elements, by an angular Fourier solve
for rotation-equivariant materials and by conjugate gradients on a 9-point
stencil, preconditioned by that Fourier solve, for any other.  The module
also measures the quantities the theory estimates: interior/exterior energy
profiles and their rate-gamma monotonicity, the truncated work-energy
defect, net tractions, far-field decay exponents, and the contraction fixed
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import NotCirculant, NotContracting, RadiusOutOfGrid, SolverDiverged
from .polar import DiscreteField, PolarGrid
from .tensors import ID_LIN, ElasticityField

__all__ = [
    "VariationalProblem",
    "bump_force",
    "solve_annulus",
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

    inner_data / outer_data: nodal (n_theta, 2) arrays, callables of theta,
    or None for zero.  outer_kind is "dirichlet" or "traction_free" (natural
    condition: the outer ring stays free).  force, when present, must be
    supported strictly inside r_max / 2.
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
            return np.asarray(data(grid.thetas), dtype=float).reshape(grid.n_theta, 2)
        arr = np.asarray(data, dtype=float)
        if arr.shape != (grid.n_theta, 2):
            raise ValueError(f"boundary data must be (n_theta, 2), got {arr.shape}")
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


def _element_matrices(grad: np.ndarray, weights: np.ndarray, action_qp: np.ndarray) -> np.ndarray:
    """(nc, 8, 8) element matrices, rows and columns (node a, component m).

    Block (m, h) sums w d_k N_a C_mkhl d_l N_b over the Gauss points and
    k, l.  Each of the four component pairs is contracted on its own: over
    k per Gauss point, then over the Gauss points and l in one batched
    matrix product per cell."""
    nc, nq = weights.shape
    wC = (action_qp.reshape(nc, nq, 4, 4) * weights[..., None, None]).reshape(nc, nq, 2, 2, 2, 2)
    grad_t = grad.transpose(0, 1, 3, 2).reshape(nc, 2 * nq, 4)     # rows (Gauss point, l)
    ke = np.empty((nc, 4, 2, 4, 2))
    for m in range(2):
        for h in range(2):
            gc = grad @ wC[:, :, m, :, h, :]                       # (nc, nq, a, l)
            ke[:, :, m, :, h] = gc.transpose(0, 2, 1, 3).reshape(nc, 4, 2 * nq) @ grad_t
    return ke.reshape(nc, 8, 8)


# local node offsets (ring, angle) of a cell's corners, in PolarGrid.cells order
_CORNER_RING = (0, 1, 1, 0)
_CORNER_ANGLE = (0, 0, 1, 1)


def _theta_stencil(ke: np.ndarray):
    """Stencil of the stiffness with the (n_r - 1, 4, 4, ..., n_cols)
    matrices ke of its cells over their corners (any block shape between),
    the last axis running over the theta-columns j of cells: all of them, or
    only column 0 (n_cols = 1) when the element matrices repeat along theta
    and the stiffness is circulant.

    Returns (same, up, down) with [:, d + 1, ..., j] holding s(i, i, d),
    s(i, i + 1, d) and s(i + 1, i, d): the block coupling node (i, j) to
    node (i', j + d), d in {-1, 0, 1}."""
    n_r = ke.shape[0] + 1
    same = np.zeros((n_r, 3) + ke.shape[3:])
    up = np.zeros((n_r - 1, 3) + ke.shape[3:])
    down = np.zeros_like(up)
    for a in range(4):
        for b in range(4):
            d = _CORNER_ANGLE[b] - _CORNER_ANGLE[a] + 1
            # corner a of the cell in column j is a node of column j + A_a
            kab = np.roll(ke[:, a, b], _CORNER_ANGLE[a], axis=-1)
            if _CORNER_RING[a] == _CORNER_RING[b]:
                same[_CORNER_RING[a]:_CORNER_RING[a] + n_r - 1, d] += kab
            elif _CORNER_RING[a] == 0:
                up[:, d] += kab
            else:
                down[:, d] += kab
    return same, up, down


def _stencil_apply(stencil, x: np.ndarray) -> np.ndarray:
    """K x for nodal values x (n, n_theta, 2) on the n rings of the
    block-circulant stiffness with the (same, up, down) stencil of
    _theta_stencil, its 2x2 blocks shared by every theta."""
    same, up, down = stencil
    y = np.zeros((x.shape[0], 2, x.shape[1]))
    for d in (-1, 0, 1):
        xs = np.roll(x, -d, axis=1).transpose(0, 2, 1)   # x[:, j + d], (n, 2, n_theta)
        y += same[:, d + 1] @ xs
        y[:-1] += up[:, d + 1] @ xs[1:]
        y[1:] += down[:, d + 1] @ xs[:-1]
    return y.transpose(0, 2, 1)


def _free_rings(stencil, last: int):
    """A (same, up, down) stencil restricted to the free rings 1..last."""
    same, up, down = stencil
    return same[1:last + 1], up[1:last], down[1:last]


def _force_vector(grid: PolarGrid, force: Optional[Callable]) -> np.ndarray:
    """Load vector int f.N_a; the force must vanish beyond r_max / 2."""
    b = np.zeros(2 * grid.n_nodes)
    if force is None:
        return b
    f_qp = np.asarray(force(grid.qp_points), dtype=float)
    mags = np.linalg.norm(f_qp, axis=-1)
    outside = grid.qp_radii > 0.5 * grid.r_max
    if mags[outside].max(initial=0.0) > 1e-12 * max(mags.max(), 1.0):
        raise ValueError("volume force must be supported strictly inside r_max / 2")
    fe = np.einsum("cq,qa,cqm->cam", grid.qp_weights, grid.qp_shapes, f_qp)
    np.add.at(b, (2 * grid.cells[:, :, None] + np.arange(2)).ravel(), fe.ravel())
    return b


def _dirichlet_rings(problem: VariationalProblem, grid: PolarGrid):
    """Nodal values (n_r, n_theta, 2) carrying the Dirichlet data on the inner
    ring (and on the outer ring under a Dirichlet outer condition), zero on
    the free rings, and the index `last` of the last free ring.

    The free rings are 1..last, a contiguous range of DOFs in ring-major
    order: last = n_r - 2 with a Dirichlet outer ring, n_r - 1 otherwise."""
    u = np.zeros((grid.n_r, grid.n_theta, 2))
    u[0] = problem.boundary_values(grid, "inner")
    if problem.outer_kind == "traction_free":
        return u, grid.n_r - 1
    u[-1] = problem.boundary_values(grid, "outer")
    return u, grid.n_r - 2


# relative max-norm residual a solve must reach
_RESIDUAL_TOL = 1e-8


def _check_residual(Kx: np.ndarray, rhs: np.ndarray, x: np.ndarray):
    scale = max(np.abs(rhs).max(), np.abs(Kx).max(), 1e-300)
    rel = np.abs(Kx - rhs).max() / scale
    if not np.all(np.isfinite(x)) or rel > _RESIDUAL_TOL:
        raise SolverDiverged(f"solve residual {rel:.3g} exceeds {_RESIDUAL_TOL:g}")


class _Stiffness:
    """A material's action at the Gauss points of a grid and, built on first
    use, its stiffness as a 9-point stencil of Cartesian 2x2 blocks: one
    block per node and neighbour, from the element matrices of every
    theta-column of cells.  A contraction run builds it once for its
    fixed-point iteration and its direct reference solve."""

    def __init__(self, problem: VariationalProblem, grid: PolarGrid):
        self.grid = grid
        self.action = problem.field(grid.qp_points)

    @cached_property
    def stencil(self) -> np.ndarray:
        return _cartesian_stencil(self.grid, self.action)


def _cartesian_stencil(grid: PolarGrid, action_qp: np.ndarray) -> np.ndarray:
    """(n_r, 2, 3, 3, 2, n_theta) stencil S[i, m, o + 1, d + 1, h, j]: the
    entry coupling component m of node (i, j) to component h of node
    (i + o, j + d), zero where ring i + o is off the grid."""
    n_r = grid.n_r
    ke = _element_matrices(grid.qp_shape_gradients, grid.qp_weights, action_qp)
    cells = ke.reshape(n_r - 1, grid.n_theta, 4, 2, 4, 2).transpose(0, 2, 4, 3, 5, 1)
    same, up, down = (s.transpose(0, 2, 1, 3, 4) for s in _theta_stencil(cells))  # (i, m, d, h, j)
    S = np.zeros((n_r, 2, 3, 3, 2, grid.n_theta))
    S[1:, :, 0] = down
    S[:, :, 1] = same
    S[:-1, :, 2] = up
    return S


def _stiffness_apply(S: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K x for nodal values x (n, n_theta, 2) on the n rings of a stencil S
    of _cartesian_stencil, or of its rows on n consecutive rings; x counts
    as zero on the rings beyond them."""
    n, n_t = x.shape[:2]
    xp = np.zeros((n + 2, 2, n_t + 2))
    xp[1:-1, :, 1:-1] = x.transpose(0, 2, 1)
    xp[:, :, 0], xp[:, :, -1] = xp[:, :, -2], xp[:, :, 1]          # periodic in theta
    X = np.stack([xp[o:o + n, :, d:d + n_t] for o in range(3) for d in range(3)], axis=1)
    y = np.einsum("imkj,ikj->imj", S.reshape(n, 2, 18, n_t), X.reshape(n, 18, n_t))
    return y.transpose(0, 2, 1)


def _free_system(problem: VariationalProblem, stiffness: _Stiffness):
    """The stencil rows of the free rings 1..last, the right-hand side
    b_f - K_fd u_d there, the nodal values u (n_r, n_theta, 2) carrying the
    Dirichlet data, and last."""
    grid = stiffness.grid
    u, last = _dirichlet_rings(problem, grid)
    b = _force_vector(grid, problem.force).reshape(u.shape)
    rhs = (b - _stiffness_apply(stiffness.stencil, u))[1:last + 1]   # u vanishes on the free rings
    return stiffness.stencil[1:last + 1], rhs, u, last


# -- angular Fourier solve of block-circulant stiffnesses ------------------------

_EQUIVARIANCE_BLOCK = 32        # theta-columns rotated per batch into their polar frames


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


def _polar_frame(grid: PolarGrid, action_qp: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The 4x4 component matrices of the theta-columns `cols` of cells
    rotated into each column's polar frame, Q^T C Q with
    Q = R(theta_j) x R(theta_j), by two batched matrix products; laid out as
    (column, row index a, ring, Gauss point, column index b)."""
    C = action_qp.reshape(grid.n_r - 1, grid.n_theta, -1, 4, 4).transpose(1, 3, 0, 2, 4)[cols]
    R = _rotations(grid.thetas[cols])
    q = np.einsum("jia,jkb->jikab", R, R).reshape(cols.size, 4, 4)
    qtc = np.swapaxes(q, -1, -2) @ C.reshape(cols.size, 4, -1)
    return (qtc.reshape(cols.size, -1, 4) @ q).reshape(C.shape)


def _rotation_equivariant(grid: PolarGrid, action_qp: np.ndarray) -> bool:
    """Whether C(R x) = R * C(x) holds at the Gauss points: every theta-column
    of cells, rotated into its polar frame, equals column 0 to 1e-12
    relative.  Column j's Gauss geometry is column 0's rotated by theta_j, so
    a passed check makes the stiffness block-circulant in polar components.
    A few sampled columns are compared first, so that a material that
    depends on theta is turned down at once; the rest follow in blocks."""
    n_t = grid.n_theta
    ref = _polar_frame(grid, action_qp, np.array([0]))[0]   # R(0) = identity
    tol = 1e-12 * np.abs(ref).max()
    blocks = [np.unique([1, n_t // 3, n_t // 2, n_t - 1])]
    blocks += [np.arange(lo, min(lo + _EQUIVARIANCE_BLOCK, n_t))
               for lo in range(1, n_t, _EQUIVARIANCE_BLOCK)]
    return all(np.abs(_polar_frame(grid, action_qp, cols) - ref).max() <= tol
               for cols in blocks)


def _polar_stencil(grid: PolarGrid, action0: np.ndarray):
    """The circulant stencil, in polar components, of the equivariant
    material whose action on the cells (i, 0) is action0: their element
    matrices with the corners rotated by (0, 0, dtheta, dtheta)."""
    col = slice(None, None, grid.n_theta)              # cell (i, 0) of every ring i
    ke = _element_matrices(grid.qp_shape_gradients[col], grid.qp_weights[col], action0)
    T = np.zeros((8, 8))
    for a, rot in enumerate(_rotations(grid.dtheta * np.asarray(_CORNER_ANGLE, dtype=float))):
        T[2 * a:2 * a + 2, 2 * a:2 * a + 2] = rot
    pke = (T.T @ ke @ T).reshape(grid.n_r - 1, 4, 2, 4, 2).transpose(0, 1, 3, 2, 4)
    return tuple(s[..., 0] for s in _theta_stencil(pke[..., None]))


_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _inverse_2x2(D: np.ndarray) -> np.ndarray:
    """Closed-form inverses adj(D) / det(D) of a stack of 2x2 blocks;
    SolverDiverged when a determinant vanishes or a pivot is not finite."""
    det = D[..., 0, 0] * D[..., 1, 1] - D[..., 0, 1] * D[..., 1, 0]
    size = np.abs(D).max(axis=(-2, -1))
    if not np.all(np.isfinite(det) & (np.abs(det) > 1e-14 * size * size)):
        raise SolverDiverged("stiffness of an angular mode is singular")
    adj = np.swapaxes(D[..., ::-1, ::-1], -1, -2) * _ADJUGATE_SIGNS
    return adj / det[..., None, None]


def _mul_2x2(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y for stacks of 2x2 blocks X and 2xk blocks Y, as the sum of two
    outer products: about 3x faster than matmul on stacks of small complex
    blocks."""
    return X[..., :, :1] * Y[..., :1, :] + X[..., :, 1:] * Y[..., 1:, :]


def _block_thomas_factor(A: np.ndarray, U: np.ndarray, L: np.ndarray):
    """Forward-sweep factors of the block-tridiagonal systems with diagonal
    A (n, m, 2, 2), upper U and lower L (n - 1, m, 2, 2), one per index of
    axis 1: the inverse pivots D_i^-1, W_i = D_i^-1 U_i, and L."""
    Dinv = np.empty_like(A)
    W = np.empty_like(U)
    for i in range(A.shape[0]):
        Dinv[i] = _inverse_2x2(A[0] if i == 0 else A[i] - _mul_2x2(L[i - 1], W[i - 1]))
        if i < U.shape[0]:
            W[i] = _mul_2x2(Dinv[i], U[i])
    return Dinv, W, L


def _block_thomas_solve(factors, F: np.ndarray) -> np.ndarray:
    """Solve the factored systems for the right-hand sides F (n, m, 2): one
    forward sweep, one back sweep."""
    Dinv, W, L = factors
    z = np.empty(F.shape + (1,), dtype=np.result_type(Dinv, F))
    for i in range(F.shape[0]):                          # z_i = D_i^-1 (F_i - L_{i-1} z_{i-1})
        r = F[0, ..., None] if i == 0 else F[i, ..., None] - _mul_2x2(L[i - 1], z[i - 1])
        z[i] = _mul_2x2(Dinv[i], r)
    for i in range(F.shape[0] - 2, -1, -1):
        z[i] -= _mul_2x2(W[i], z[i + 1])
    return z[..., 0]


def _fourier_inverse(stencil, n_theta: int) -> Callable:
    """The inverse of a block-circulant stiffness on the free rings, given
    by its restricted polar-component stencil.  One real FFT in theta splits
    it into one block-tridiagonal system over the rings per angular mode,
    with symbol S_k = s(0) + s(1) e^{i phi_k} + s(-1) e^{-i phi_k}; these
    are factored here, once.  The returned solve maps polar components
    (free rings, n_theta, 2) to polar components."""
    k = np.arange(n_theta // 2 + 1)
    phase = np.exp(1j * np.outer([-1.0, 0.0, 1.0], 2.0 * np.pi * k / n_theta))
    same, up, down = (np.einsum("idmh,dk->ikmh", s, phase) for s in stencil)
    factors = _block_thomas_factor(same, up, down)

    def solve(rhs: np.ndarray) -> np.ndarray:
        y = _block_thomas_solve(factors, np.fft.rfft(rhs, axis=1))
        return np.fft.irfft(y, n=n_theta, axis=1)

    return solve


def _fourier_solve(problem: VariationalProblem, grid: PolarGrid,
                   action_qp: np.ndarray) -> DiscreteField:
    """solve_annulus for a rotation-equivariant material: the Fourier
    inverse of its polar-component stiffness, read off the first
    theta-column of cells; the Dirichlet rings enter the right-hand side
    through the off-diagonal blocks."""
    stencil = _polar_stencil(grid, action_qp[:: grid.n_theta])
    u, last = _dirichlet_rings(problem, grid)
    R = _rotations(grid.thetas)
    b = _to_polar(R, _force_vector(grid, problem.force).reshape(u.shape))
    rhs = (b - _stencil_apply(stencil, _to_polar(R, u)))[1:last + 1]
    K_f = _free_rings(stencil, last)
    x = _fourier_inverse(K_f, grid.n_theta)(rhs)
    _check_residual(_stencil_apply(K_f, x), rhs, x)
    u[1:last + 1] = _to_cartesian(R, x)
    return DiscreteField(grid, u)


# -- any other material: conjugate gradients -----------------------------------

_PCG_TOL = 1e-12                # relative residual at which conjugate gradients stop
_PCG_MAX_ITER = 500             # steps after which they fail
_SINGULAR_DIAGONAL = 1e-14      # free DOFs with a diagonal this small relative to the largest


def _averaged_inverse(grid: PolarGrid, action_qp: np.ndarray, last: int) -> Callable:
    """Preconditioner of the stiffness on the free rings 1..last: the
    Fourier inverse for the equivariant material whose polar-frame action
    on each Gauss-point ring is the theta-average of this material's (T.
    Chan's optimal circulant preconditioner, applied ring by ring), mapping
    Cartesian residuals to Cartesian corrections."""
    n_t = grid.n_theta
    total = sum(_polar_frame(grid, action_qp, np.arange(lo, min(lo + _EQUIVARIANCE_BLOCK, n_t)))
                .sum(axis=0) for lo in range(0, n_t, _EQUIVARIANCE_BLOCK))
    mean = (total / n_t).transpose(1, 2, 0, 3).reshape(grid.n_r - 1, -1, 2, 2, 2, 2)
    inverse = _fourier_inverse(_free_rings(_polar_stencil(grid, mean), last), n_t)
    R = _rotations(grid.thetas)
    return lambda r: _to_cartesian(R, inverse(_to_polar(R, r)))


def _pcg(apply: Callable, precondition: Callable, rhs: np.ndarray) -> np.ndarray:
    """Preconditioned conjugate gradients for K x = rhs from x = 0, run to a
    relative residual of _PCG_TOL; SolverDiverged on a breakdown
    (p^T K p <= 0 or not finite) or when _PCG_MAX_ITER steps do not reach it."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    stop = _PCG_TOL * np.linalg.norm(rhs)
    if np.linalg.norm(r) <= stop:
        return x
    z = precondition(r)
    p = z
    rz = np.vdot(r, z)
    for _ in range(_PCG_MAX_ITER):
        Kp = apply(p)
        pKp = np.vdot(p, Kp)
        if not (np.isfinite(pKp) and pKp > 0):
            raise SolverDiverged(f"conjugate gradients broke down: p^T K p = {pKp:.3g}")
        alpha = rz / pKp
        x += alpha * p
        r -= alpha * Kp
        if np.linalg.norm(r) <= stop:
            return x
        z = precondition(r)
        rz, rz_prev = np.vdot(r, z), rz
        p = z + (rz / rz_prev) * p
    raise SolverDiverged(f"conjugate gradients did not reach a relative residual of "
                         f"{_PCG_TOL:g} in {_PCG_MAX_ITER} steps")


def _pcg_solve(problem: VariationalProblem, stiffness: _Stiffness) -> DiscreteField:
    K_f, rhs, u, last = _free_system(problem, stiffness)
    diag = K_f[:, [0, 1], 1, 1, [0, 1]]
    weak = np.count_nonzero(diag <= _SINGULAR_DIAGONAL * diag.max())
    if weak:
        raise SolverDiverged(f"stiffness is singular: {weak} of {diag.size} free DOFs have a "
                             f"diagonal at most {_SINGULAR_DIAGONAL:g} of the largest")
    precondition = _averaged_inverse(stiffness.grid, stiffness.action, last)
    x = _pcg(lambda p: _stiffness_apply(K_f, p), precondition, rhs)
    _check_residual(_stiffness_apply(K_f, x), rhs, x)
    u[1:last + 1] = x
    return DiscreteField(stiffness.grid, u)


def solve_annulus(
    problem: VariationalProblem,
    grid: PolarGrid,
    check_bounds: bool = True,
    *,
    _stiffness: Optional[_Stiffness] = None,
) -> DiscreteField:
    """Minimize the discrete energy subject to the boundary conditions.

    A rotation-equivariant material, C(R x) = R * C(x) at every Gauss point
    (isotropic constants, radial scalar fields, the counter-example tensors),
    is solved directly by one FFT in theta and a block-tridiagonal sweep
    over the rings per angular mode.  Any other material is solved by
    conjugate gradients on its stiffness stencil to a relative residual of
    1e-12, preconditioned by that Fourier solve for the material averaged
    over theta in its polar frame; the step count is bounded in terms of
    the contrast of the material to that average (10-20 steps at contrast 2).
    Raises BoundsViolated when spot-checked material samples leave the
    declared bounds, SolverDiverged when the system is singular (a vanishing
    angular mode, or a free DOF whose stiffness diagonal is at most 1e-14 of
    the largest), when conjugate gradients break down or take more than 500
    steps, or when the result misses a relative residual of 1e-8
    (ill-conditioning proxy).

    _stiffness is a private hand-off: the _Stiffness of this problem on
    this grid, when the caller has built it already.
    """
    stiffness = _Stiffness(problem, grid) if _stiffness is None else _stiffness
    if check_bounds:
        flat = grid.qp_points.reshape(-1, 2)
        problem.field.check_bounds_at(flat[:: max(flat.shape[0] // 257, 1)])
    if _rotation_equivariant(grid, stiffness.action):
        return _fourier_solve(problem, grid, stiffness.action)
    return _pcg_solve(problem, stiffness)


# -- energy bookkeeping --------------------------------------------------------


def _dirichlet_integrand_qp(u: DiscreteField) -> np.ndarray:
    """|grad u|^2 + |div u|^2 at the Gauss points, (n_cells, nq)."""
    g = u.gradient_at_qp()
    div = g[..., 0, 0] + g[..., 1, 1]
    return np.sum(g * g, axis=(-2, -1)) + div * div


def _ring_sums(grid: PolarGrid, cell_qp_values: np.ndarray) -> np.ndarray:
    per_cell = np.sum(cell_qp_values * grid.qp_weights, axis=-1)
    return per_cell.reshape(grid.n_r - 1, grid.n_theta).sum(axis=1)


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
    grid = u.grid
    ring = _ring_sums(grid, _dirichlet_integrand_qp(u))
    G = np.concatenate([[0.0], np.cumsum(ring)])
    return EnergyProfile(radii=grid.radii.copy(), G=G, Q=G[-1] - G)


def _nearest_rings(radii: np.ndarray, targets) -> list[int]:
    """Distinct indices of the rings nearest to the target radii, ascending,
    without ring 0 (the inner boundary)."""
    rings = sorted({int(np.argmin(np.abs(radii - t))) for t in np.atleast_1d(targets)})
    return [k for k in rings if k > 0]


def _dyadic_rings(radii: np.ndarray, lo: float, hi: float) -> list[int]:
    """_nearest_rings of the dyadic ladder lo, 2 lo, 4 lo, ... up to hi."""
    targets = []
    r = lo
    while r <= hi * (1 + 1e-12):
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

    gamma: float
    radii: np.ndarray
    g_scaled: np.ndarray        # G(R) / R^gamma
    q_scaled: np.ndarray        # R^gamma Q(R)
    worst_g_violation: float    # max fractional decrease of g_scaled
    worst_q_violation: float    # max fractional increase of q_scaled
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
        return GrowthReport(gamma, rs, np.zeros_like(rs), np.zeros_like(rs),
                            0.0, 0.0, _GROWTH_TOLERANCE, degenerate=True)

    g_scaled = G / rs**gamma
    q_scaled = rs**gamma * Q
    with np.errstate(divide="ignore", invalid="ignore"):
        g_drop = np.where(g_scaled[:-1] > 0, 1.0 - g_scaled[1:] / g_scaled[:-1], 0.0)
        q_rise = np.where(q_scaled[:-1] > 0, q_scaled[1:] / q_scaled[:-1] - 1.0, 0.0)
    return GrowthReport(
        gamma=gamma,
        radii=rs,
        g_scaled=g_scaled,
        q_scaled=q_scaled,
        worst_g_violation=float(np.maximum(g_drop, 0.0).max(initial=0.0)),
        worst_q_violation=float(np.maximum(q_rise, 0.0).max(initial=0.0)),
        tolerance=_GROWTH_TOLERANCE,
        degenerate=False,
    )


# -- boundary functionals --------------------------------------------------------


def _ring_traction_data(u: DiscreteField, problem: VariationalProblem, ring: int):
    """Gradient, stress and normal data on a grid ring.

    Returns (points, grad, stress) with grad from the 3-point ring stencils
    and stress = C[grad] evaluated with the problem's material."""
    grid = u.grid
    grad = grid.ring_gradient(u.values, ring)
    pts = np.stack(
        [grid.radii[ring] * np.cos(grid.thetas), grid.radii[ring] * np.sin(grid.thetas)],
        axis=-1,
    )
    action = problem.field(pts)
    stress = np.einsum("nmkhl,nhl->nmk", action, grad)
    return pts, grad, stress


def energy_identity_residual(u: DiscreteField, problem: VariationalProblem, radius: float) -> float:
    """Relative defect of the truncated work-energy relation

        int_{1<r<R} grad u . C[grad u] = int_{r=1} u.s(u) + int_{r=R} u.s(u),

    inner normal = -e_r (out of the annulus), outer normal = +e_r."""
    grid = u.grid
    kR = grid.nearest_ring(radius)
    if kR <= 0:
        raise RadiusOutOfGrid(f"radius {radius} below the first interior ring")
    R = grid.radii[kR]

    g = u.gradient_at_qp()
    action = problem.field(grid.qp_points)
    dens = np.einsum("cqmk,cqmkhl,cqhl->cq", g, action, g)
    ring_e = _ring_sums(grid, dens)
    energy = float(ring_e[:kR].sum())

    total_work = 0.0
    for ring, sign in ((0, -1.0), (kR, +1.0)):
        pts, grad, stress = _ring_traction_data(u, problem, ring)
        r = grid.radii[ring]
        n = sign * pts / r
        s_u = np.einsum("nmk,nk->nm", stress, n)
        total_work += r * grid.dtheta * float(np.einsum("nm,nm->", u.values[ring], s_u))

    scale = max(abs(energy), 1e-300)
    return abs(energy - total_work) / scale


def net_traction_discrete(u: DiscreteField, problem: VariationalProblem,
                          radius: Optional[float] = None) -> np.ndarray:
    """Quadrature of the traction over a grid circle with the normal pointing
    toward the hole (the boundary functional of the exterior domain).

    Defaults to the inner boundary r = 1; pass another radius for the flux
    conservation cross-check.  Vanishes for decaying solutions."""
    grid = u.grid
    ring = 0 if radius is None else grid.nearest_ring(radius)
    pts, grad, stress = _ring_traction_data(u, problem, ring)
    r = grid.radii[ring]
    n = -pts / r
    s_u = np.einsum("nmk,nk->nm", stress, n)
    return r * grid.dtheta * s_u.sum(axis=0)


# -- decay fits --------------------------------------------------------------


@dataclass
class DecayFit:
    """Log-log regression of max_theta |u - u0| against r."""

    alpha: float
    u0: np.ndarray
    residual: float
    radii: np.ndarray
    distances: np.ndarray
    poor_fit: bool


# rms log-log residual beyond which a decay fit is flagged poor
_POOR_FIT_RMS = 0.1


def decay_exponent_fit(u: DiscreteField, radii: Optional[np.ndarray] = None) -> DecayFit:
    """Fit u - u0 = O(r^-alpha) on (at least 5) dyadic radii.

    u0 is the angular mean at the largest fitting radius; radii are snapped to
    grid rings and default to the dyadic ladder inside [2, r_max/4] (the outer
    quarter is dropped to suppress truncation pollution)."""
    grid = u.grid
    if radii is None:
        rings = _dyadic_rings(grid.radii, 2.0, grid.r_max / 4.0)
    else:
        rings = _nearest_rings(grid.radii, radii)
    if len(rings) < 5:
        raise ValueError(f"need >= 5 distinct fitting radii, got {len(rings)}")

    u0 = u.angular_mean(rings[-1])
    rs = grid.radii[rings]
    d = np.array([u.max_over_ring(k, offset=u0) for k in rings])
    if np.any(d <= 0):
        raise ValueError("field coincides with its angular mean at a fitting radius")
    coef, res = np.polyfit(np.log(rs), np.log(d), 1, full=True)[:2]
    rms = float(np.sqrt(res[0] / len(rings))) if res.size else 0.0
    return DecayFit(
        alpha=float(-coef[0]),
        u0=u0,
        residual=rms,
        radii=rs,
        distances=d,
        poor_fit=rms > _POOR_FIT_RMS,
    )


# -- contraction fixed point --------------------------------------------------


@dataclass
class ContractionReport:
    factors: np.ndarray
    q: float
    n_iter: int
    converged: bool
    c0_scale: float

    @property
    def worst_factor(self) -> float:
        return float(self.factors.max()) if self.factors.size else 0.0

    @property
    def n_contraction_steps(self) -> int:
        """Applications of the fixed-point map beyond the source term v_f."""
        return max(self.n_iter - 1, 0)


def _grad_q_norm(grid: PolarGrid, flat_values: np.ndarray, q: float) -> float:
    g2 = grid.gradient_sq_at_qp(flat_values)
    return float(np.sum(grid.qp_weights * g2 ** (0.5 * q)) ** (1.0 / q))


def _comparison_solver(problem: VariationalProblem, grid: PolarGrid, c0_scale: float) -> Callable:
    """Q: inverse of the stiffness of C0 = c0_scale * Id_Lin on the free DOFs
    of the problem.

    C0 couples no components and is rotation-invariant, so its stiffness is
    the same scalar operator on both Cartesian components and circulant in
    theta, with stencil s(i, i', d) over ring pairs and angular offsets
    d in {-1, 0, 1}, read off the element matrices of the first theta-column
    of cells.  The grid is symmetric under theta -> -theta, so s(d=-1) =
    s(d=+1) and mode k of a real FFT in theta sees the real symmetric
    tridiagonal matrix s(0) + 2 s(1) cos(2 pi k / n_theta) over the free
    rings (the Dirichlet rings drop out whole).  One Thomas factorization
    serves every mode; the returned solve maps a free-DOF vector, ordered
    (ring, theta, component), to Q applied to it.  Raises NotCirculant when
    the stencil is not symmetric in d, SolverDiverged when a pivot vanishes.
    """
    n_t = grid.n_theta
    col = slice(None, None, n_t)                       # cell (i, 0) of every ring i
    c0 = np.broadcast_to(c0_scale * ID_LIN, grid.qp_weights[col].shape + (2, 2, 2, 2))
    ke = _element_matrices(grid.qp_shape_gradients[col], grid.qp_weights[col], c0)
    same, next_, _ = (s[..., 0] for s in _theta_stencil(ke[:, 0::2, 0::2, None]))  # component 0
    asym = max(np.abs(same[:, 0] - same[:, 2]).max(), np.abs(next_[:, 0] - next_[:, 2]).max())
    if asym > 1e-13 * np.abs(same).max():
        raise NotCirculant(f"comparison stencil s(d=-1) != s(d=+1) by {asym:.3g}")

    last = _dirichlet_rings(problem, grid)[1]
    cos = np.cos(2.0 * np.pi * np.arange(n_t // 2 + 1) / n_t)
    phase = np.stack([cos, np.ones_like(cos), cos])  # symbol of d = -1, 0, 1, (3, modes)
    diag = same[1:last + 1] @ phase                    # (free rings, modes)
    off = next_[1:last] @ phase
    nf = diag.shape[0]
    inv_piv = np.empty_like(diag)
    upper = np.empty_like(off)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_piv[0] = 1.0 / diag[0]
        for i in range(1, nf):
            upper[i - 1] = off[i - 1] * inv_piv[i - 1]
            inv_piv[i] = 1.0 / (diag[i] - off[i - 1] * upper[i - 1])
    if not np.all(np.isfinite(inv_piv)):
        raise SolverDiverged("comparison operator is singular")
    inv_piv, off, upper = inv_piv[..., None], off[..., None], upper[..., None]

    def solve(res: np.ndarray) -> np.ndarray:
        y = np.fft.rfft(res.reshape(nf, n_t, 2), axis=1)
        y[0] *= inv_piv[0]
        for i in range(1, nf):
            y[i] = (y[i] - off[i - 1] * y[i - 1]) * inv_piv[i]
        for i in range(nf - 2, -1, -1):
            y[i] -= upper[i] * y[i + 1]
        return np.fft.irfft(y, n=n_t, axis=1).reshape(-1)

    return solve


# the iteration stops once an increment is this fraction of the first one
_CONTRACTION_TOL = 1e-12
_CONTRACTION_MAX_ITER = 100


def contraction_solve(
    problem: VariationalProblem, grid: PolarGrid, q: float = 2.0, *,
    _stiffness: Optional[_Stiffness] = None,
) -> tuple[DiscreteField, ContractionReport]:
    """Fixed-point iteration v_{k+1} = v_f + Q[v_k] for the heterogeneous
    problem, preconditioned by the comparison material C0 = scale * (identity
    product) C0_ijhk = scale * d_ih d_jk.

    Q inverts the discrete C0-operator on the same grid and boundary
    conditions, the desk-scale stand-in for the whole-plane kernel
    convolution: C0 is rotation-invariant, so one real FFT in theta splits
    that operator into one tridiagonal system over the rings per angular
    mode, factored once per call; it stays a scalar solve, apart from the
    2x2 block sweeps of solve_annulus.  The limit therefore solves exactly
    the same discrete system as solve_annulus.  The residual is carried from
    step to step: each step applies Q to what the previous increment left,
    and the material's stiffness to the increment, as the 9-point stencil of
    2x2 blocks that solve_annulus's conjugate gradients use, built once per
    call.  So the increments never cancel against the data and their ratios
    stay clear of round-off.  Per-iteration contraction factors are
    measured in the gradient L^q norm; with scale = the upper Lin bound of
    the material (mue when it declares none), the factor is bounded by the
    relative contrast (scale - lower) / scale.  The iteration stops once an
    increment is 1e-12 of the first, or after 100 steps.  Raises
    NotContracting after three consecutive factors above 1.  _stiffness is
    the private hand-off of solve_annulus.
    """
    if problem.field.lin_bounds_pair is not None:
        c0_scale = problem.field.lin_bounds_pair[1]
    else:
        c0_scale = problem.field.mue

    stiffness = _Stiffness(problem, grid) if _stiffness is None else _stiffness
    K_f, rhs, u, last = _free_system(problem, stiffness)
    green0 = _comparison_solver(problem, grid, c0_scale)
    shape = rhs.shape
    rhs = rhs.reshape(-1)
    free = slice(2 * grid.n_theta, 2 * grid.n_theta * (last + 1))

    w = np.zeros(rhs.size)
    res = rhs
    factors = []
    prev_inc_norm = None
    full = u.reshape(-1)
    n_bad = 0
    converged = False
    n_iter = 0
    scale_norm = None
    for k in range(_CONTRACTION_MAX_ITER):
        inc = green0(res)
        res = res - _stiffness_apply(K_f, inc.reshape(shape)).reshape(-1)
        w = w + inc
        n_iter = k + 1
        full[free] = w
        inc_full = np.zeros_like(full)
        inc_full[free] = inc
        inc_norm = _grad_q_norm(grid, inc_full, q)
        if scale_norm is None:
            scale_norm = max(inc_norm, 1e-300)
        if prev_inc_norm is not None and prev_inc_norm > 0:
            fac = inc_norm / prev_inc_norm
            factors.append(fac)
            n_bad = n_bad + 1 if fac > 1.0 else 0
            if n_bad >= 3:
                raise NotContracting(
                    f"gradient-L^{q:g} factors exceeded 1 for 3 consecutive "
                    f"iterations (last {fac:.3g}); contrast too large"
                )
        prev_inc_norm = inc_norm
        if inc_norm <= _CONTRACTION_TOL * scale_norm:
            converged = True
            break

    field_out = DiscreteField(grid, full.reshape(grid.n_r, grid.n_theta, 2))
    return field_out, ContractionReport(
        factors=np.asarray(factors),
        q=q,
        n_iter=n_iter,
        converged=converged,
        c0_scale=float(c0_scale),
    )
