"""Exterior Dirichlet solver via the simple-layer representation.

The solution is sought as u(x) = v[psi](x) + kappa with

    v[psi](x) = int U(x - y) psi(y) ds_y ,

the quadrature uses the periodic trapezoid rule plus the exact log-splitting
weights (Martensen-Kussmaul), spectrally accurate on smooth curves.  Every
boundary problem is a right-hand side of one bordered system

    [ A   1 ] [psi  ]   [data]
    [ W   0 ] [kappa] = [ t  ] :

[data; 0] gives the Dirichlet pair (psi, kappa), [0; e_i] the equilibrium
density with total e_i and constant trace -kappa.  Every curve is centrally
symmetric (node j + N/2 is node j turned by pi, bit for bit) and the kernel is
even, so A commutes with the half turn; the circle and the ellipse are also
mirror-symmetric (node -j is node j reflected by sigma = diag(1, -1)), and an
isotropic kernel commutes with sigma, so A then commutes with the mirror
too.  The densities split into symmetry classes, each named by its two
characters (c_rho, c_sigma), the signs by which the half turn and the
mirror map it to itself: two classes c_rho = +-1 for the half turn alone,
four (c_rho, c_sigma) with the mirror.  A maps each class to itself (the
symmetry reduction of Allgower, Boehmer, Georg and Miranda, SIAM J. Numer.
Anal. 29 (1992) 534-552).  The operator holds only the rows of A for the
representative nodes, 0..N/2-1 or 0..N/4, assembled a block of rows at a
time; adding c_rho times the rows' other column half, then c_sigma sigma
times their mirror columns, turns them into one block of N (two blocks) or
N/2 (four blocks) DOFs per class.  The classes that hold constant densities
(c_rho = 1; with the mirror, c_sigma = 1 holds the x- and c_sigma = -1 the
y-constant one) are bordered by them and by their totals.  A node that its
mirror fixes (node 0, and node N/4 when 4 divides N) keeps one component in
each block.  Each block is factored once per operator, in place through its
transpose: two blocks take a quarter, four blocks a sixteenth of the flops
of one LU of the bordered matrix.  A solve is one solve per block plus one
refinement step whose residual takes A from the stored rows, in one product
with the class densities.  The bordered system stays well conditioned at
the logarithmic-capacity radius, where A alone is singular: its singular
directions are equilibrium densities, which lie in the bordered blocks.
The weighted pairing of boundary data with the equilibrium densities is the
solvability residual that detects the Stokes paradox; psi_1 is exactly
sigma-even and psi_2 exactly sigma-odd on mirrored operators.

Off the curve, v[psi] and its gradient are evaluated by the same plain
quadrature, written as the kernel's angular series Phi(e) = sum_k Re(e^k) A_k
+ Im(e^k) B_k over the unit chords e = (x - y)/|x - y|, in real arithmetic
with no square root and no trig call: per block of targets, the chords
(dx, dy) and r^2 give e^2 = (2 dx^2 / r^2 - 1, 2 dx dy / r^2), and for
gradients 2 e / r = 2 (dx, dy) / r^2; the even powers of e (the odd ones over
r for gradients) follow by multiplication with e^2.  With log r^2 for values
they fill (rows, N) work planes, allocated once per call and reused by every
block, which meet the weighted density in one matrix product per two
harmonics, one per block for an isotropic kernel.  Order 0 of Phi adds a
constant.  Cost: m targets take O(m N K) flops for K retained orders; memory
is about ten (rows, N) planes of 2^14 pairs, independent of m and K.
Accuracy is that of the trapezoid rule: spectral a few node spacings h away,
degrading within about 1h of the curve (relative error against an exact
solution on a 2x1 ellipse: 1.6e-4 at 1h and 2.2e-2 at 0.1h with N = 256,
7.7e-5 and 1.1e-2 with N = 512; 2.5e-14 and 7.3e-15 at 5h).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curves import _MIRROR, BoundaryCurve
from .errors import (
    CurveNotSmooth,
    DegenerateBasis,
    NotAnEllipse,
    PointInsideBody,
    SingularPoint,
    SingularSystem,
)
from .kelvin import FundamentalSolution
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


_AUG_COND_LIMIT = 1e12     # symmetry blocks of the bordered system
_TOTALS_COND_LIMIT = 1e8   # totals matrix of the equilibrium basis


# scipy.linalg (about 0.3 s and 28 MB to import) is reached only through the
# three functions below, which import it at their first call: assembling or
# evaluating loads no SciPy, and the first dense factorization loads it.

def lu_factor(a) -> tuple:
    """scipy.linalg.lu_factor of a, in place and without a finite check
    (assembly scans the rows instead), importing scipy.linalg on first call."""
    from scipy.linalg import lu_factor as factor

    return factor(a, overwrite_a=True, check_finite=False)


def lu_solve(lu_and_piv, b) -> np.ndarray:
    """The solution x of X^T x = b for the matrix X factored in lu_and_piv
    (scipy.linalg.lu_solve with trans=1), importing scipy.linalg on first
    call."""
    from scipy.linalg import lu_solve as solve

    return solve(lu_and_piv, b, trans=1)


def _lapack(name: str, a: np.ndarray):
    """The LAPACK routine `name` for a's dtype (scipy.linalg.get_lapack_funcs),
    importing scipy.linalg on first call."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(name, (a,))


def _cond_estimate(lu, norm: float) -> float:
    """1-norm condition estimate of the matrix X whose transpose is factored
    in `lu`, given norm = ||X||_1: the infinity-norm estimate for X^T."""
    gecon = _lapack("gecon", lu[0])
    rcond, info = gecon(lu[0], norm, norm="I")
    if info != 0 or not np.isfinite(rcond):
        return float("inf")
    return float(1.0 / max(rcond, 1e-300))


class _SymmetryClass:
    """The nodal densities psi with psi[j + N/2] = c_rho psi[j] and, on
    mirrored operators, psi[-j] = c_sigma sigma psi[j]; c_sigma is None for
    the half turn alone.  order is the number of symmetries the class is
    fixed under.

    A density of the class is stored by its degrees of freedom (DOFs) at the
    representative nodes 0..reps-1, the entries `keep` of their flattened
    (node, component) pairs: nodes 0..N/2-1 for the half turn alone, nodes
    0..N/4 with the mirror.  With
    the mirror, node N/2 - r = partner[r] holds sign[r] = c_sigma c_rho sigma
    times node r, and node 0, its own partner, c_sigma sigma times itself.
    A node that is its own partner (node 0, and node N/4 when 4 divides N)
    keeps only the components that its sign keeps; mult counts the nodes
    each kept DOF stands for.  border lists the components whose constant
    density lies in the class: both for c_rho = 1 alone, x (y) for c_rho = 1
    and c_sigma = 1 (-1), none for c_rho = -1.
    """

    def __init__(self, n: int, c_rho: float, c_sigma: Optional[float] = None):
        self.n, self.c_rho, self.c_sigma = n, c_rho, c_sigma
        m, h = n // 2, n // 4
        if c_sigma is None:
            self.reps, self.order = m, 2
            self.keep = np.arange(2 * m)
            self.mult = np.full(2 * m, 2.0)
            self.border = (0, 1) if c_rho > 0 else ()
            return
        self.reps, self.order = h + 1, 4
        self.partner = np.r_[0, m - 1 : m - h - 1 : -1]
        self.sign = np.tile(c_sigma * c_rho * _MIRROR, (h + 1, 1))
        self.sign[0] = c_sigma * _MIRROR
        own = self.partner == np.arange(h + 1)
        self.keep = np.flatnonzero(~(own[:, None] & (self.sign < 0.0)).reshape(-1))
        self.mult = np.where(own, 2.0, 4.0)[self.keep // 2]
        self.border = () if c_rho < 0 else (0,) if c_sigma > 0 else (1,)

    def half(self, x, out=None) -> np.ndarray:
        """The half-turn fold x[j] + c_rho x[j + N/2] for j < N/2, (..., N, 2)
        -> (..., N/2, 2), read in place in one pass, into out if given."""
        m = self.n // 2
        fold = np.add if self.c_rho > 0 else np.subtract
        return fold(x[..., :m, :], x[..., m:, :], out=out)

    def fold(self, x) -> np.ndarray:
        """sum_g chi(g) M_g x[g r] over the symmetries g at the kept DOFs r:
        (..., N, 2) -> (..., DOFs).  Over the rows of A it gives the class
        block up to the column scale mult / order; over data, order times
        the data's class part."""
        return self.mirror(self.half(x))

    def mirror(self, x) -> np.ndarray:
        """The mirror fold x[r] + sign[r] x[partner[r]] of a half-turn fold x
        at the kept DOFs, (..., N/2, 2) -> (..., DOFs): the partners gathered
        by one index array, signed and summed in place.  For the half turn
        alone, x at the kept DOFs."""
        if self.c_sigma is not None:
            part = np.take(x, self.partner, axis=-2)
            part *= self.sign
            x = np.add(x[..., : self.reps, :], part, out=part)
        return np.take(x.reshape(x.shape[:-2] + (-1,)), self.keep, axis=-1)

    def border_columns(self) -> np.ndarray:
        """(DOFs, borders): the constant densities of the border components."""
        return (self.keep[:, None] % 2 == np.array(self.border, dtype=int)).astype(float)

    def border_rows(self, weights) -> np.ndarray:
        """(borders, DOFs): the totals of a class density, mult w per DOF."""
        return self.border_columns().T * (self.mult * weights[self.keep // 2])

    def expand(self, dofs) -> np.ndarray:
        """The class density (N, 2) with the given DOFs, exactly: every node
        is a DOF's value with its signs applied."""
        x = np.zeros(2 * self.reps)
        x[self.keep] = dofs
        x = x.reshape(-1, 2)
        if self.c_sigma is not None:
            full = np.empty((self.n // 2, 2))
            full[self.partner] = self.sign * x
            full[: self.reps] = x
            x = full
        return np.concatenate([x, self.c_rho * x])


def _symmetry_classes(n: int, mirrored: bool) -> tuple:
    """The symmetry classes of densities on n nodes: (c_rho, c_sigma) for
    c_rho = +-1 and, on mirrored operators, c_sigma = +-1."""
    return tuple(_SymmetryClass(n, c_rho, c_sigma) for c_rho in (1.0, -1.0)
                 for c_sigma in ((1.0, -1.0) if mirrored else (None,)))


@dataclass
class SingleLayerOperator:
    """Dense Nystrom discretization of the simple-layer boundary map on a
    centrally symmetric curve.  The operator holds only `rows`, the rows of
    A for the representative nodes of its symmetries: nodes 0..N/2-1, or
    nodes 0..N/4 when the curve and the kernel are also mirror-symmetric
    (see _SymmetryClass)."""

    curve: BoundaryCurve
    kernel: FundamentalSolution
    rows: np.ndarray  # (2R, 2N) C-ordered; rows and columns interleave node and component
    _aug: Optional[tuple] = field(default=None, repr=False)  # (LUs of the blocks' transposes, cond)

    @property
    def mirror_symmetric(self) -> bool:
        """Whether A commutes with the mirror too: four symmetry blocks."""
        return self.curve.mirror_symmetric and self.kernel.mirror_symmetric

    @functools.cached_property
    def _classes(self) -> tuple:
        return _symmetry_classes(self.curve.n, self.mirror_symmetric)

    def _augmented_lu(self) -> tuple:
        """LUs of the transposes of the symmetry blocks, one per class: the
        class's folded rows at its kept DOFs, bordered by the constant
        densities of its border components (the totals their row takes are
        mult w at those DOFs), and the condition estimate
        max ||block|| max ||block^-1|| of the block diagonal in the 1-norm;
        built on first use, and raises SingularSystem past _AUG_COND_LIMIT."""
        if self._aug is None:
            rows = self.rows.reshape(self.rows.shape[0], -1, 2)
            lange = _lapack("lange", rows)
            lus, norms, inverse_norms = [], [], []
            folded = None
            for cls in self._classes:
                dofs, size = cls.keep.size, cls.keep.size + len(cls.border)
                block = np.zeros((size, size))
                if cls.c_sigma is None:  # the half turn alone: fold straight into the block
                    cls.half(rows, out=block[:dofs, :dofs].reshape(dofs, -1, 2))
                else:
                    if cls.c_sigma > 0:  # the first class of its c_rho: the shared half-turn fold
                        folded = cls.half(rows, out=folded)
                    np.take(cls.mirror(folded), cls.keep, axis=0, out=block[:dofs, :dofs])
                    # a node that is its own partner entered its column twice
                    twice = np.flatnonzero(cls.mult < cls.order)
                    block[:dofs, twice] *= cls.mult[twice] / cls.order
                block[:dofs, dofs:] = cls.border_columns()
                block[dofs:, :dofs] = cls.border_rows(self.curve.weights)
                at = block.T  # Fortran-contiguous: getrf factors it in place
                norm = lange("I", at)  # ||block||_1, taken before the factors overwrite it
                lus.append(lu_factor(at))
                norms.append(norm)
                inverse_norms.append(_cond_estimate(lus[-1], norm) / norm)
            cond = max(norms) * max(inverse_norms)
            if not np.isfinite(cond) or cond > _AUG_COND_LIMIT:
                raise SingularSystem(
                    f"augmented system condition {cond:.3g} exceeds {_AUG_COND_LIMIT:g}"
                )
            self._aug = (lus, cond)
        return self._aug

    @property
    def cond(self) -> float:
        """1-norm condition estimate of the bordered system [A 1; W 0] in its
        symmetry blocks (see _augmented_lu)."""
        return self._augmented_lu()[1]

    def _image(self, parts) -> np.ndarray:
        """The stored rows times each class density of `parts` (one per
        class), in one product: (2R, classes)."""
        return self.rows @ np.stack([p.reshape(-1) for p in parts], axis=1)

    def apply(self, density) -> np.ndarray:
        """A psi at the nodes, (N, 2): psi's class parts meet the stored rows
        in one product, and each class's image is expanded from its
        representative nodes."""
        psi = np.asarray(density, dtype=float).reshape(self.curve.n, 2)
        classes = self._classes
        image = self._image([c.expand(c.fold(psi) / c.order) for c in classes])
        return sum(c.expand(image[c.keep, k]) for k, c in enumerate(classes))


def _augmented_solve(op: SingleLayerOperator, data, total) -> tuple:
    """(psi, kappa) with v[psi] + kappa = data at the nodes and total(psi) =
    total, from the cached block factors plus one refinement step whose
    residual takes A from the stored rows.  Each class solves for its part
    of the data and of the totals; a class whose right-hand side is zero
    gets an exactly zero density."""
    lus, _ = op._augmented_lu()
    classes, curve = op._classes, op.curve
    data = np.reshape(data, (curve.n, 2))
    total = np.asarray(total, dtype=float)
    rhs = [np.concatenate([c.fold(data) / c.order, total[list(c.border)]]) for c in classes]
    sol = [lu_solve(lu, b) for lu, b in zip(lus, rhs)]
    image = op._image([c.expand(x[: c.keep.size]) for c, x in zip(classes, sol)])
    for k, c in enumerate(classes):
        x, dofs = sol[k], c.keep.size
        res = rhs[k] - np.concatenate([image[c.keep, k] + c.border_columns() @ x[dofs:],
                                       c.border_rows(curve.weights) @ x[:dofs]])
        sol[k] = x + lu_solve(lus[k], res)
    kappa = np.zeros(2)
    for c, x in zip(classes, sol):
        kappa[list(c.border)] = x[c.keep.size :]
    return sum(c.expand(x[: c.keep.size]) for c, x in zip(classes, sol)), kappa


# node pairs per block of assembly rows or evaluation targets: each (rows, N)
# complex array of assembly takes 256 kB, each real plane of evaluation 128 kB,
# and they stay cache-resident (larger blocks measured slower)
_BLOCK_PAIRS = 1 << 14


def _log_row(n: int) -> np.ndarray:
    """The circulant row of the log terms, crow_k = R_k / 2 - (pi / n)
    log(4 sin^2(pi k / n)), crow_0 = R_0 / 2 (see assemble_single_layer),
    made exactly symmetric: crow[n - k] is crow[k]."""
    k = np.arange(1, n // 2 + 1)
    crow = 0.5 * kress_log_weights(n)
    crow[k] -= (np.pi / n) * np.log(4.0 * np.sin(np.pi * k / n) ** 2)
    crow[n - k] = crow[k]
    return crow


def assemble_single_layer(curve: BoundaryCurve,
                          c0: IsotropicModuli | FundamentalSolution) -> SingleLayerOperator:
    """Assemble the rows of the 2N x 2N matrix A (mapping nodal densities to
    v[psi] at the nodes) for the representative nodes: 0..N/2-1, or 0..N/4
    when the curve and the kernel are mirror-symmetric.  c0 is isotropic
    moduli or a kernel; an anisotropic tensor enters as its kernel,
    FundamentalSolution.from_tensor(c0).

    The curve's nodes are centrally symmetric and the kernel is even, so
    the rows of node j + N/2 are those of node j with the column halves
    swapped; under the mirror, those of node -j are those of node j with
    the columns of node -k in place of node k's and components times sigma
    on both sides.  The kernel's log part is integrated by the exact
    periodic log-splitting weights; the smooth remainder by the plain
    trapezoid rule.  On the rounded square the same composite rule applies
    but only with algebraic accuracy, which is reported as a CurveNotSmooth
    warning.

    The rows are written one block at a time into work arrays allocated once
    (_layer_rows), so apart from the result only a few (rows, N) arrays are
    live.  Entry (i, m, j, h) is (Phi0 S_ij + (2 pi / n) Phi(e_ij)) speed_j,
    where the log terms S_ij = (pi / n) log r_ij^2 + crow[(i - j) % n] take
    the parameter-difference parts of the splitting from one circulant row
    (_log_row), and S_ii = crow_0 + (2 pi / n) log speed_i (the limit of the
    smooth remainder Phi0 (1/2) log(r^2 / 4 sin^2) + Phi(direction) is
    Phi0 log|x'(t)| + Phi(tangent), Phi being even).  Raises ValueError for
    a kernel with odd angular orders, and SingularSystem when an entry is not
    finite; that scan replaces lu_factor's own.
    """
    kernel = FundamentalSolution.isotropic(c0) if isinstance(c0, IsotropicModuli) else c0
    if any(k % 2 for k in kernel.orders):
        raise ValueError("kernel has odd angular orders, so U(-d) != U(d) and "
                         "the half-turn symmetry of A fails")
    if not curve.smooth:
        warnings.warn(
            "curve is only piecewise-smooth: quadrature accuracy downgrades "
            "from spectral to the composite trapezoid rate",
            CurveNotSmooth,
            stacklevel=2,
        )
    n = curve.n
    reps = n // 4 + 1 if curve.mirror_symmetric and kernel.mirror_symmetric else n // 2
    rows = np.empty((2 * reps, 2 * n))
    _layer_rows(rows.reshape(reps, 2, n, 2), curve, kernel, _log_row(n))
    if not np.isfinite(rows).all():
        raise SingularSystem("layer matrix holds non-finite entries")
    return SingleLayerOperator(curve=curve, kernel=kernel, rows=rows)


def _layer_rows(out, curve: BoundaryCurve, kernel: FundamentalSolution, crow):
    """Write the rows of A for nodes 0, 1, ..., len(out) - 1 into out,
    (rows, 2, N, 2), one block of rows at a time (see
    assemble_single_layer).  The block's (rows, N) work arrays and the
    kernel's angular scratch are allocated once, here."""
    n = curve.n
    # at most _BLOCK_PAIRS pairs, and a sixteenth of the rows, so the work
    # arrays (120 bytes a pair for an isotropic kernel) stay a small part
    # of the result
    step = max(1, min(_BLOCK_PAIRS // n, len(out) // 16))
    speed = curve.speed
    w = (2.0 * np.pi / n) * speed
    z = curve.points[:, 0] + 1j * curve.points[:, 1]
    # row i of crow[(i - j) % n] is window n - i of the doubled row, crow
    # being symmetric
    windows = sliding_window_view(np.concatenate([crow, crow]), n)
    e = np.empty((step, n), dtype=complex)
    s, tmp, term = np.empty((3, step, n))
    angular = np.empty((step, n, 2, 2))
    work = kernel.angular_work(step * n)
    for lo in range(0, len(out), step):
        b = min(step, len(out) - lo)
        i = np.arange(lo, lo + b)
        eb, sb, tb, ab = e[:b], s[:b], tmp[:b], angular[:b]
        np.subtract(z[i, None], z[None, :], out=eb)
        np.multiply(eb.real, eb.real, out=sb)  # r^2
        np.multiply(eb.imag, eb.imag, out=tb)
        sb += tb
        sb[i - lo, i] = 1.0
        # unit chords; on the diagonal their limit, the unit tangent
        eb /= np.sqrt(sb, out=tb)
        eb[i - lo, i] = curve.tangent[i, 0] + 1j * curve.tangent[i, 1]
        np.log(sb, out=sb)
        sb *= np.pi / n
        sb += windows[n - lo : n - lo - b : -1]
        sb[i - lo, i] = crow[0] + (2.0 * np.pi / n) * np.log(speed[i])
        sb *= speed
        kernel.angular(eb, out=ab, work=work)
        # one (rows, N) component (m, h) at a time: long inner loops
        for m in range(2):
            for h in range(2):
                np.multiply(ab[:, :, m, h], w, out=tb)
                tb += np.multiply(sb, kernel.phi0[m, h], out=term[:b])
                out[lo : lo + b, m, :, h] = tb


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


def _plane_map(kernel: FundamentalSolution, half: int, gradient: bool) -> np.ndarray:
    """The real matrix (2P, 2), or (2P, 4) for gradients, that takes the
    contractions y[p, j] = sum_n plane_p(x, y_n) (w psi)_nj of a target's P
    planes (see _layer_eval), flattened as (p, j), to v[psi] - (sum w psi) A_0^T
    or to its gradient, flattened as (i, d) with d the derivative direction.

    Value planes: log r^2, then Re e^k and Im e^k for k = 2, 4, .., 2 half.
    With Phi(e) = sum_k Re(e^k) A_k + Im(e^k) B_k, plane log r^2 carries
    Phi0 / 2 and Re e^k, Im e^k carry A_k, B_k.
    Gradient planes: Re and Im of 2 e^j / r for j = 1, 3, .., 2 half + 1.
    With g = d/dx_1 + i d/dx_2, g log r = e / r and g Phi = i e Phi' / r,
    and for a unit e
        i e Re(e^k) / r = (i/2) (e^(k+1) + conj(e^(k-1))) / r,
        i e Im(e^k) / r = (1/2) (e^(k+1) - conj(e^(k-1))) / r,
    so order k of Phi' = dPhi/dphi, coefficients (A'_k, B'_k), reads the
    harmonics k - 1 and k + 1: with R_j + i I_j the contraction of e^j / r,
        Re g = R_1 Phi0^T + sum_k (-(I_(k+1) - I_(k-1)) A'_k^T
                                   + (R_(k+1) - R_(k-1)) B'_k^T) / 2,
        Im g = I_1 Phi0^T + sum_k ((R_(k+1) + R_(k-1)) A'_k^T
                                   + (I_(k+1) + I_(k-1)) B'_k^T) / 2.
    """
    if not gradient:
        mat = np.zeros((1 + 2 * half, 2, 2))
        mat[0] = 0.5 * kernel.phi0.T
        for k, a, b in kernel.terms():
            if k:
                mat[k - 1], mat[k] = a.T, b.T
        return mat.reshape(-1, 2)
    mat = np.zeros((2 * half + 2, 2, 2, 2))  # (plane, j, i, d)
    mat[0, :, :, 0] = mat[1, :, :, 1] = kernel.phi0.T
    for k, a, b in kernel.terms(derivative=True):
        re_up, im_up, re_dn, im_dn = k, k + 1, k - 2, k - 1
        mat[im_up, :, :, 0] -= 0.5 * a.T
        mat[im_dn, :, :, 0] += 0.5 * a.T
        mat[re_up, :, :, 0] += 0.5 * b.T
        mat[re_dn, :, :, 0] -= 0.5 * b.T
        mat[re_up, :, :, 1] += 0.5 * a.T
        mat[re_dn, :, :, 1] += 0.5 * a.T
        mat[im_up, :, :, 1] += 0.5 * b.T
        mat[im_dn, :, :, 1] += 0.5 * b.T
    # the planes hold 2 e^j / r
    return 0.5 * mat.reshape(-1, 4)


def _harmonic_groups(h, start: int, pairs: int, c, s, tmp):
    """Write harmonic pairs (Re, Im) into the planes of h (P, rows, N) and
    yield the number of planes filled whenever the next pair would not fit,
    and once at the end.  The first of the `pairs` pairs is already in planes
    start and start + 1; each next one is the previous times c + i s, by
    complex multiplication in real arithmetic, with tmp a (rows, N) scratch
    array.  After a yield the pairs restart at plane 0, so the previous pair
    stays intact while the next is formed."""
    re, im, slot = h[start], h[start + 1], start + 2
    for _ in range(pairs - 1):
        if slot + 2 > len(h):
            yield slot
            slot = 0
        nre, nim = h[slot], h[slot + 1]
        np.multiply(re, c, out=nre)
        np.multiply(im, s, out=tmp)
        nre -= tmp
        np.multiply(re, s, out=nim)
        np.multiply(im, c, out=tmp)
        nim += tmp
        re, im, slot = nre, nim, slot + 2
    yield slot


def _layer_eval(curve, kernel, psi, x, gradient=False):
    """v[psi] (m, 2), or its gradient (m, 2, 2), at the points x (..., 2).

    In real arithmetic with no square root: per block of targets, the
    chords d = x - y_n = (dx, dy) and r^2 give the even harmonics of the unit
    chord e = d / r from e^2 = (2 dx^2 / r^2 - 1, 2 dx dy / r^2), and the
    odd ones the gradient needs from 2 e / r = 2 (dx, dy) / r^2 times powers
    of e^2.  These (rows, N) planes, with log r^2 first for values, fill a
    stack of two harmonics (plus log r^2) allocated once per call; each
    filling meets the weighted density in one (P rows, N) @ (N, 2) product,
    and the 2x2 series coefficients map the result to the output
    (_plane_map).  An isotropic kernel fills the stack once per block.
    Order 0 of Phi is the constant (sum w psi) A_0^T and takes no per-pair
    work.  The kernel must be even, as assemble_single_layer requires.
    """
    if any(k % 2 for k in kernel.orders):
        raise ValueError("kernel has odd angular orders; evaluation takes even ones")
    pts = np.asarray(x, dtype=float).reshape(-1, 2)
    m, n = pts.shape[0], curve.n
    wpsi = curve.weights[:, None] * psi
    half = max(kernel.orders, default=0) // 2
    mat = _plane_map(kernel, half, gradient)
    # values: log r^2 in plane 0, then pairs; gradients: pairs only
    start, pairs = (0, half + 1) if gradient else (1, half)
    out = np.zeros((m, mat.shape[1]))
    if not gradient and 0 in kernel.orders:
        out += wpsi.sum(axis=0) @ kernel.cos_coef[0].T
    # the chords x - y as rank-2 products [x, -1] [1; y]: each entry is one
    # rounded sum, so bit for bit the difference, at the cost of a copy
    lifted = np.stack([pts, np.full((m, 2), -1.0)], axis=-1)  # (m, component, 2)
    node_rows = np.stack([np.ones((2, n)), curve.points.T], axis=1)  # (component, 2, N)
    rows = max(1, _BLOCK_PAIRS // n)
    work = np.empty((5, rows, n))
    # each product contracts whole planes, so every target meets the same
    # products whatever its batch; rows past the last target stay finite
    stack = np.zeros((min(mat.shape[0] // 2, start + 4), rows, n))
    for lo in range(0, m, rows):
        b = min(rows, m - lo)
        bx, by, bxx, br2, btmp = work[:, :b]
        h = stack[:, :b]
        np.matmul(lifted[lo : lo + b, 0], node_rows[0], out=bx)
        np.matmul(lifted[lo : lo + b, 1], node_rows[1], out=by)
        np.multiply(bx, bx, out=bxx)
        np.multiply(by, by, out=br2)
        br2 += bxx
        if not br2.all():
            raise SingularPoint("layer potential requested at a quadrature node")
        if gradient:
            inv2 = np.divide(2.0, br2, out=br2)  # 2 / r^2
            c = np.multiply(bxx, inv2, out=bxx)
            c -= 1.0
            s = np.multiply(bx, by, out=btmp)
            s *= inv2
            np.multiply(bx, inv2, out=h[0])
            np.multiply(by, inv2, out=h[1])
            groups = _harmonic_groups(h, 0, pairs, c, s, tmp=bx)
        else:
            np.log(br2, out=h[0])
            groups = [1]
            if pairs:
                inv2 = np.divide(2.0, br2, out=br2)
                c = np.multiply(bxx, inv2, out=h[1])
                c -= 1.0
                s = np.multiply(bx, by, out=h[2])
                s *= inv2
                if pairs > 2:  # the planes of c and s are refilled
                    bxx[...], by[...] = c, s
                    c, s = bxx, by
                groups = _harmonic_groups(h, 1, pairs, c, s, tmp=bx)
        plane = 0
        for used in groups:
            y = stack[:used].reshape(used * rows, n) @ wpsi
            y = y.reshape(used, rows, 2).transpose(1, 0, 2).reshape(rows, 2 * used)
            out[lo : lo + b] += (y @ mat[2 * plane : 2 * (plane + used)])[:b]
            plane += used
    return out.reshape(m, 2, 2) if gradient else out


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


_CIRCLE_NODES = 1024            # trapezoid nodes of circle_traction_total


def circle_traction_total(gradient_fn, c0, radius: float) -> np.ndarray:
    """Quadrature of the traction of a field over the circle |x| = radius,
    with the normal pointing away from the origin (flux out of the disk),
    by the trapezoid rule on 1024 nodes.

    gradient_fn(points) -> (...,2,2) Cartesian gradients; c0 is the constant
    tensor producing the stress."""
    t = 2.0 * np.pi * np.arange(_CIRCLE_NODES) / _CIRCLE_NODES
    nrm = np.stack([np.cos(t), np.sin(t)], axis=-1)
    grad = gradient_fn(radius * nrm)
    stress = apply_tensor(c0, grad)
    trac = np.einsum("nik,nk->ni", stress, nrm)
    return (radius * 2.0 * np.pi / _CIRCLE_NODES) * trac.sum(axis=0)
