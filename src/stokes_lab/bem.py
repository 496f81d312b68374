"""Exterior Dirichlet solver via the simple-layer representation.

The solution is sought as u(x) = v[psi](x) + kappa with

    v[psi](x) = int U(x - y) psi(y) ds_y ,

the quadrature uses the periodic trapezoid rule plus the exact log-splitting
weights (Martensen-Kussmaul), spectrally accurate on smooth curves.  Every
boundary problem is a right-hand side of one bordered system

    [ A   1 ] [psi  ]   [data]
    [ W   0 ] [kappa] = [ t  ] ,

factored once per operator: [data; 0] gives the Dirichlet pair (psi, kappa),
[0; e_i] the equilibrium density with total e_i and constant trace -kappa.
The operator holds this one C-ordered (2N+2)^2 array, A being a view of it;
it is assembled a block of rows at a time, and LAPACK factors its transpose,
which is Fortran-contiguous as it stands, so the only other full-size array
is the factors themselves.
The bordered matrix stays well conditioned at the logarithmic-capacity
radius, where A alone is singular.  The weighted pairing of boundary data
with the equilibrium densities is the solvability residual that detects the
Stokes paradox.

Off the curve, v[psi] and its gradient are evaluated by the same plain
quadrature, written as the kernel's angular series Phi(e) = sum_k Re(e^k) A_k
+ Im(e^k) B_k over the unit chords e = (x - y)/|x - y|: per block of targets,
log r and the powers e^k (e^j / r for gradients) are formed as (rows, N)
scalar arrays and contracted with the weighted density by matrix products.
Cost: m targets take O(m N K) flops for K retained orders and no trig call;
memory is a few (rows, N) arrays of about 2^14 pairs, independent of m.
Accuracy is that of the trapezoid rule: spectral a few node spacings h away,
degrading within about 1h of the curve (relative error about 5e-4 at 1h and
5e-2 at 0.1h, measured against an exact solution).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .curves import BoundaryCurve
from .errors import (
    CurveNotSmooth,
    DegenerateBasis,
    NotAnEllipse,
    PointInsideBody,
    SingularPoint,
    SingularSystem,
)
from .kelvin import FundamentalSolution, unit_powers
from .tensors import IsotropicModuli, apply_tensor

__all__ = [
    "SingleLayerOperator",
    "assemble_single_layer",
    "kress_log_weights",
    "EquilibriumBasis",
    "equilibrium_basis",
    "paradox_residual",
    "ellipse_compatibility",
    "ellipse_direction_error",
    "ellipse_residual_agreement",
    "zero_total_density",
    "ExteriorSolution",
    "solve_dirichlet",
    "evaluate",
    "evaluate_gradient",
    "m_space_representative",
    "circle_traction_total",
]


def _as_kernel(c0) -> FundamentalSolution:
    if isinstance(c0, FundamentalSolution):
        return c0
    if isinstance(c0, IsotropicModuli):
        return FundamentalSolution.isotropic(c0)
    return FundamentalSolution.from_tensor(c0)


def _check_data(curve: BoundaryCurve, data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape != (curve.n, 2):
        raise ValueError(f"boundary data must have shape ({curve.n}, 2), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("boundary data contains non-finite values")
    return arr


def kress_log_weights(n: int) -> np.ndarray:
    """Quadrature weights R_j for the periodic integral of
    f(s) log(4 sin^2((t-s)/2)) ds at offsets t - s_j = 2 pi j / n; exact
    for trigonometric polynomials of degree < n/2.

    R_j = -(4 pi / n) (sum_{m=1}^{n/2-1} cos(m d_j) / m + cos(n d_j / 2) / n),
    d_j = 2 pi j / n, is the inverse real FFT of the coefficients 1/m
    (m = 1..n/2, the Nyquist one counted once) scaled by -2 pi."""
    coef = np.zeros(n // 2 + 1)
    coef[1:] = 1.0 / np.arange(1, n // 2 + 1)
    return -2.0 * np.pi * np.fft.irfft(coef, n)


_AUG_COND_LIMIT = 1e12     # bordered system [A 1; W 0]
_TOTALS_COND_LIMIT = 1e8   # totals matrix of the equilibrium basis


def _cond_estimate(lu, at) -> float:
    """1-norm condition estimate of the matrix whose transpose `at` is
    factored in `lu`: the infinity-norm estimate for `at` itself."""
    gecon, lange = get_lapack_funcs(("gecon", "lange"), (lu[0],))
    rcond, info = gecon(lu[0], lange("I", at), norm="I")
    if info != 0 or not np.isfinite(rcond):
        return float("inf")
    return float(1.0 / max(rcond, 1e-300))


@dataclass
class SingleLayerOperator:
    """Dense Nystrom discretization of the simple-layer boundary map, held
    as the bordered matrix [A 1; W 0] of its boundary problems."""

    curve: BoundaryCurve
    kernel: FundamentalSolution
    bordered: np.ndarray  # (2N+2, 2N+2) C-ordered; A interleaves node and component
    _aug: Optional[tuple] = field(default=None, repr=False)  # (LU of bordered.T, cond)

    @property
    def mat(self) -> np.ndarray:
        """A, the (2N, 2N) leading block of the bordered matrix (a view)."""
        n2 = 2 * self.curve.n
        return self.bordered[:n2, :n2]

    def _augmented_lu(self) -> tuple:
        """LU of the transpose of [A 1; W 0] and the bordered matrix's
        condition estimate, built on first use; raises SingularSystem past
        _AUG_COND_LIMIT."""
        if self._aug is None:
            at = self.bordered.T  # Fortran-contiguous: getrf copies it once, untransposed
            lu = lu_factor(at, check_finite=False)  # assemble_single_layer checked it
            cond = _cond_estimate(lu, at)
            if not np.isfinite(cond) or cond > _AUG_COND_LIMIT:
                raise SingularSystem(
                    f"augmented system condition {cond:.3g} exceeds {_AUG_COND_LIMIT:g}"
                )
            self._aug = (lu, cond)
        return self._aug

    @property
    def cond(self) -> float:
        """1-norm condition estimate of the bordered system [A 1; W 0]."""
        return self._augmented_lu()[1]

    def apply(self, density) -> np.ndarray:
        psi = np.asarray(density, dtype=float).reshape(-1)
        return (self.mat @ psi).reshape(self.curve.n, 2)


def _augmented_solve(op: SingleLayerOperator, data, total) -> tuple:
    """(psi, kappa) with v[psi] + kappa = data at the nodes and total(psi) =
    total, from the cached factors of the transpose plus one refinement step."""
    lu, _ = op._augmented_lu()
    n = op.curve.n
    rhs = np.concatenate([np.reshape(data, -1), total])
    x = lu_solve(lu, rhs, trans=1)
    x += lu_solve(lu, rhs - op.bordered @ x, trans=1)
    return x[: 2 * n].reshape(n, 2), x[2 * n :]


# node pairs per block of assembly rows or evaluation targets: each (rows, N)
# complex array takes 256 kB and stays cache-resident (larger blocks measured
# slower)
_BLOCK_PAIRS = 1 << 14


def assemble_single_layer(curve: BoundaryCurve, c0) -> SingleLayerOperator:
    """Assemble the bordered matrix [A 1; W 0] whose 2N x 2N block A maps
    nodal densities to v[psi] at the nodes.

    The kernel's log part is integrated by the exact periodic log-splitting
    weights; the smooth remainder by the plain trapezoid rule.  On the rounded
    square the same composite rule applies but only with algebraic accuracy,
    which is reported as a CurveNotSmooth warning.

    A is written straight into the bordered array, one block of rows at a
    time, so apart from the result only a few (rows, N) arrays are live.  Its
    entry (i, m, j, h) is (Phi0 S_ij + (2 pi / n) Phi(e_ij)) speed_j, where
    the log terms S_ij = (pi / n) log r_ij^2 + crow[(i - j) % n] take the
    parameter-difference parts of the splitting from one circulant row:
    crow_k = R_k / 2 - (pi / n) log(4 sin^2(pi k / n)), crow_0 = R_0 / 2, and
    S_ii = crow_0 + (2 pi / n) log speed_i (the limit of the smooth
    remainder Phi0 (1/2) log(r^2 / 4 sin^2) + Phi(direction) is
    Phi0 log|x'(t)| + Phi(tangent), Phi being even).  Raises SingularSystem
    when an entry is not finite; that scan replaces lu_factor's own.
    """
    kernel = _as_kernel(c0)
    if not curve.smooth:
        warnings.warn(
            "curve is only piecewise-smooth: quadrature accuracy downgrades "
            "from spectral to the composite trapezoid rate",
            CurveNotSmooth,
            stacklevel=2,
        )
    n = curve.n
    n2 = 2 * n
    crow = 0.5 * kress_log_weights(n)
    crow[1:] -= (np.pi / n) * np.log(4.0 * np.sin(np.pi * np.arange(1, n) / n) ** 2)

    bordered = np.zeros((n2 + 2, n2 + 2))
    blocks = bordered[:n2, :n2].reshape(n, 2, n, 2)
    rows = max(1, _BLOCK_PAIRS // n)
    for lo in range(0, n, rows):
        _layer_rows(blocks[lo : lo + rows], curve, kernel, crow, lo)
    for c in range(2):
        bordered[c:n2:2, n2 + c] = 1.0
        bordered[n2 + c, c:n2:2] = curve.weights
    if not np.isfinite(bordered).all():
        raise SingularSystem("bordered matrix holds non-finite entries")
    return SingleLayerOperator(curve=curve, kernel=kernel, bordered=bordered)


def _layer_rows(out, curve: BoundaryCurve, kernel: FundamentalSolution, crow, lo: int):
    """Write the rows of A for nodes lo, lo + 1, ... into out, their
    (rows, 2, N, 2) block of the bordered array (see assemble_single_layer).
    Only (rows, N) arrays are formed, and they are freed on return."""
    n = curve.n
    i = np.arange(lo, lo + out.shape[0])
    speed = curve.speed
    z = curve.points[:, 0] + 1j * curve.points[:, 1]
    e = z[i, None] - z[None, :]
    r2 = e.real**2 + e.imag**2
    r2[i - lo, i] = 1.0
    # unit chords; on the diagonal their limit, the unit tangent
    e /= np.sqrt(r2)
    e[i - lo, i] = curve.tangent[i, 0] + 1j * curve.tangent[i, 1]
    s = np.log(r2, out=r2)
    s *= np.pi / n
    offset = i[:, None] - np.arange(n)
    offset %= n
    s += crow[offset]
    s[i - lo, i] = crow[0] + (2.0 * np.pi / n) * np.log(speed[i])
    s *= speed
    angular = kernel.angular(e)
    w = (2.0 * np.pi / n) * speed
    # one (rows, N) component (m, h) at a time: long inner loops
    for m in range(2):
        for h in range(2):
            comp = angular[:, :, m, h] * w
            comp += kernel.phi0[m, h] * s
            out[:, m, :, h] = comp


@dataclass
class EquilibriumBasis:
    """Two densities spanning the space of constant-trace layer potentials.

    Each density is normalized to unit weighted L2 norm (all compatibility
    verdicts are invariant under this choice).  totals holds sum_k w_k psi_i
    column-wise: a positive diagonal, since psi_i is the solution with total
    e_i; its invertibility is the discrete form of the classical rank-two
    property.
    """

    curve: BoundaryCurve
    psi: np.ndarray            # (2, N, 2)
    totals: np.ndarray         # (2, 2), column i = total of psi_i
    boundary_values: np.ndarray  # (2, 2): constant trace of v[psi_i]
    cond_totals: float


def equilibrium_basis(op: SingleLayerOperator) -> EquilibriumBasis:
    """Solve [A 1; W 0] [psi_i; k_i] = [0; e_i] and normalize; certify the
    totals matrix.  psi_i has total e_i / norm_i and constant trace
    -k_i / norm_i."""
    curve = op.curve
    psi = np.empty((2, curve.n, 2))
    bvals = np.empty((2, 2))
    for i, e_i in enumerate(np.eye(2)):
        sol, k_i = _augmented_solve(op, np.zeros((curve.n, 2)), e_i)
        norm = np.sqrt(curve.inner_product(sol, sol))
        if not np.isfinite(norm) or norm == 0.0:
            raise DegenerateBasis("augmented solve for a unit total degenerated")
        psi[i] = sol / norm
        bvals[i] = -k_i / norm
    totals = np.stack([curve.total(psi[0]), curve.total(psi[1])], axis=-1)
    cond = float(np.linalg.cond(totals))
    if not np.isfinite(cond) or cond > _TOTALS_COND_LIMIT:
        raise DegenerateBasis(
            f"totals matrix condition {cond:.3g} exceeds {_TOTALS_COND_LIMIT:g}; "
            "discretization failure or curve outside the method's scope"
        )
    return EquilibriumBasis(
        curve=curve, psi=psi, totals=totals, boundary_values=bvals, cond_totals=cond
    )


def paradox_residual(data, basis: EquilibriumBasis) -> np.ndarray:
    """Weighted pairings of the boundary data with the equilibrium densities.

    The zero vector (within tolerance) is equivalent to the existence of a
    decaying finite-energy exterior solution; any nonzero constant datum
    yields a nonzero residual - the paradox."""
    u = _check_data(basis.curve, data)
    w = basis.curve.weights
    return np.array(
        [np.einsum("k,ki,ki->", w, u, basis.psi[0]),
         np.einsum("k,ki,ki->", w, u, basis.psi[1])]
    )


def _check_ellipse(curve: BoundaryCurve):
    if curve.kind not in ("ellipse", "circle") or curve.grad_f_norm is None:
        raise NotAnEllipse("curve was not constructed as ellipse(a, b)")


def ellipse_compatibility(data, curve: BoundaryCurve) -> np.ndarray:
    """Quadrature of data / |grad f| over an ellipse boundary.

    Agrees with paradox_residual up to an invertible 2x2 rescaling
    (ellipse_residual_agreement); the closed-form counterpart of the
    computed equilibrium pairing."""
    _check_ellipse(curve)
    u = _check_data(curve, data)
    return np.einsum("k,ki->i", curve.weights / curve.grad_f_norm, u)


def _ellipse_densities(curve: BoundaryCurve) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form equilibrium densities e_i / |grad f| of an ellipse
    boundary normalized to unit weighted L2 norm, (2, N, 2), and their norms
    before normalization, (2,)."""
    _check_ellipse(curve)
    dens = np.zeros((2, curve.n, 2))
    for i in range(2):
        dens[i, :, i] = 1.0 / curve.grad_f_norm
    norms = np.array([np.sqrt(curve.inner_product(d, d)) for d in dens])
    return dens / norms[:, None, None], norms


def ellipse_direction_error(basis: EquilibriumBasis) -> float:
    """Largest weighted L2 distance, up to sign, between an equilibrium
    density psi_i and the closed-form one e_i / |grad f| (both normalized)
    on an ellipse boundary."""
    curve = basis.curve
    err = 0.0
    for psi, target in zip(basis.psi, _ellipse_densities(curve)[0]):
        diff = min(curve.inner_product(psi - target, psi - target),
                   curve.inner_product(psi + target, psi + target))
        err = max(err, float(np.sqrt(diff)))
    return err


def ellipse_residual_agreement(residual, compat, basis: EquilibriumBasis) -> float:
    """Largest |residual_i - s_i compat_i / ||e_i / |grad f|||_w| over i on an
    ellipse boundary: the paradox residual <data, psi_i>_w against the
    closed-form compatibility compat = ellipse_compatibility(data, curve),
    rescaled by the norm of the closed-form density and signed by
    s_i = sign <psi_i, e_i / |grad f|>_w.  Both pair the data with the same
    normalized density, so they differ by the discretization error of psi_i
    (ellipse_direction_error) times the data's norm."""
    curve = basis.curve
    targets, norms = _ellipse_densities(curve)
    signs = np.sign([curve.inner_product(psi, t) for psi, t in zip(basis.psi, targets)])
    return float(np.abs(np.asarray(residual) - signs * np.asarray(compat) / norms).max())


@dataclass
class ExteriorSolution:
    """Pair (psi, kappa) realizing u = v[psi] + kappa outside the curve.

    Dirichlet solves and obstruction-space fields share this type."""

    curve: BoundaryCurve
    kernel: FundamentalSolution
    psi: np.ndarray           # (N, 2)
    kappa: np.ndarray         # (2,)
    cond: float               # condition estimate of the augmented system
    replay_error: float       # max |v[psi] + kappa - data| at the nodes

    @property
    def total_density(self) -> np.ndarray:
        """sum_k w_k psi_k, the net boundary traction of u by the
        layer-potential flux identity (normal pointing out of the exterior
        domain); cross-validated in tests by large-circle quadrature."""
        return self.curve.total(self.psi)


def zero_total_density(curve: BoundaryCurve, rng) -> np.ndarray:
    """Seeded smooth density of total zero on the curve: Fourier modes 1-3 in
    the parameter with coefficients rng.normal(size=(3, 4)), minus its mean.
    Its layer potential is compatible data for a decaying exterior solution."""
    coefs = rng.normal(size=(3, 4))
    t = curve.t
    psi = np.zeros((curve.n, 2))
    for k in range(3):
        psi[:, 0] += coefs[k, 0] * np.cos((k + 1) * t) + coefs[k, 1] * np.sin((k + 1) * t)
        psi[:, 1] += coefs[k, 2] * np.cos((k + 1) * t) + coefs[k, 3] * np.sin((k + 1) * t)
    psi -= curve.total(psi) / curve.perimeter
    return psi


def solve_dirichlet(op: SingleLayerOperator, data) -> ExteriorSolution:
    """Solve the bordered system for right-hand side [data; 0], enforcing the
    zero-total side condition; the far field then satisfies
    u - kappa = O(1/r)."""
    curve = op.curve
    u = _check_data(curve, data)
    psi, kappa = _augmented_solve(op, u, np.zeros(2))
    replay = np.abs(op.apply(psi) + kappa - u).max()
    return ExteriorSolution(
        curve=curve, kernel=op.kernel, psi=psi, kappa=kappa, cond=op.cond,
        replay_error=float(replay),
    )


def _layer_eval(curve, kernel, psi, x, gradient=False):
    """v[psi] (m, 2), or its gradient (m, 2, 2), at the points x (..., 2).

    Per block of targets only (rows, N) scalar arrays are formed: log r and
    the powers e^k of the unit chords e = (x - y)/r, r = |x - y| (for the
    gradient e^j / r).  Each is contracted with the weighted density by one
    matrix product; the 2x2 series coefficients act on the (rows, 2) result.
    With g = d/dx_1 + i d/dx_2, g log r = e / r and g Phi = i e Phi' / r, and
    for a unit e
        i e Re(e^k) / r = (i/2) (e^(k+1) + conj(e^(k-1))) / r,
        i e Im(e^k) / r = (1/2) (e^(k+1) - conj(e^(k-1))) / r,
    so order k of Phi' = dPhi/dphi reads the harmonics k - 1 and k + 1.
    """
    pts = np.asarray(x, dtype=float).reshape(-1, 2)
    targets = pts[:, 0] + 1j * pts[:, 1]
    nodes = curve.points[:, 0] + 1j * curve.points[:, 1]
    wpsi = (curve.weights[:, None] * psi).astype(complex)
    terms = list(kernel.terms(derivative=gradient))
    if gradient:
        orders = sorted({1} | {k + s for k, _, _ in terms for s in (-1, 1)})
    else:
        orders = [k for k, _, _ in terms]
    out = np.empty((pts.shape[0], 2, 2) if gradient else (pts.shape[0], 2))
    rows = max(1, _BLOCK_PAIRS // curve.n)
    for lo in range(0, pts.shape[0], rows):
        z = targets[lo : lo + rows, None] - nodes[None, :]
        r2 = z.real**2 + z.imag**2
        if not r2.all():
            raise SingularPoint("layer potential requested at a quadrature node")
        inv_r = 1.0 / np.sqrt(r2)
        harmonics = unit_powers(z * inv_r, orders)
        if gradient:
            # c[j] = sum_n (e^j / r) wpsi_n; g = d u / dx_1 + i d u / dx_2
            c = {j: (ej * inv_r) @ wpsi for j, ej in zip(orders, harmonics)}
            g = c[1] @ kernel.phi0.T
            for k, a, b in terms:
                up, dn = c[k + 1], c[k - 1].conj()
                g += 0.5 * ((1j * (up + dn)) @ a.T + (up - dn) @ b.T)
            out[lo : lo + rows] = np.stack([g.real, g.imag], axis=-1)
        else:
            v = (0.5 * np.log(r2)) @ wpsi.real @ kernel.phi0.T
            for (_, a, b), ek in zip(terms, harmonics):
                vk = ek @ wpsi
                v += vk.real @ a.T + vk.imag @ b.T
            out[lo : lo + rows] = v
    return out


def evaluate(solution: ExteriorSolution, x) -> np.ndarray:
    """u(x) = v[psi](x) + kappa at points strictly outside the curve.

    Plain-quadrature evaluation: accuracy degrades within about one node
    spacing of the boundary.  Raises PointInsideBody inside the body and
    SingularPoint at a quadrature node."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if np.any(solution.curve.is_inside(pts.reshape(-1, 2))):
        raise PointInsideBody("evaluation point lies inside the body")
    val = _layer_eval(solution.curve, solution.kernel, solution.psi, pts) + solution.kappa
    return val.reshape(pts.shape) if np.asarray(x).ndim > 1 else val[0]


def evaluate_gradient(solution: ExteriorSolution, x) -> np.ndarray:
    """grad u at exterior points, from the exact kernel gradient."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if np.any(solution.curve.is_inside(pts.reshape(-1, 2))):
        raise PointInsideBody("evaluation point lies inside the body")
    g = _layer_eval(solution.curve, solution.kernel, solution.psi, pts, gradient=True)
    return g.reshape(pts.shape[:-1] + (2, 2)) if np.asarray(x).ndim > 1 else g[0]


def m_space_representative(op: SingleLayerOperator, psi_prime) -> ExteriorSolution:
    """The obstruction-space field h = v[psi'] - v[psi']|_boundary of an
    equilibrium density psi', as the pair (psi', -mean trace).

    h vanishes on the boundary up to replay_error, the largest deviation of
    the trace from its mean; its net traction is the (nonzero) total of psi',
    and h grows like Phi0 log r * total at infinity."""
    psi = np.asarray(psi_prime, dtype=float)
    trace = op.apply(psi)
    bval = trace.mean(axis=0)
    return ExteriorSolution(
        curve=op.curve, kernel=op.kernel, psi=psi, kappa=-bval, cond=op.cond,
        replay_error=float(np.abs(trace - bval).max()),
    )


def circle_traction_total(gradient_fn, c0, radius: float, n_nodes: int = 1024,
                          toward_origin: bool = False) -> np.ndarray:
    """Quadrature of the traction of a field over the circle |x| = radius.

    gradient_fn(points) -> (...,2,2) Cartesian gradients; c0 is the constant
    tensor producing the stress.  By default the normal points away from the
    origin (flux out of the disk); toward_origin=True flips it, matching the
    convention of a boundary seen from the exterior domain."""
    t = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    nrm = np.stack([np.cos(t), np.sin(t)], axis=-1)
    pts = radius * nrm
    if toward_origin:
        nrm = -nrm
    grad = gradient_fn(pts)
    stress = apply_tensor(c0, grad)
    trac = np.einsum("nik,nk->ni", stress, nrm)
    return (radius * 2.0 * np.pi / n_nodes) * trac.sum(axis=0)
