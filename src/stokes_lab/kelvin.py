"""Fundamental displacement tensor of a constant plane elasticity operator.

The kernel splits as U(d) = Phi0 log|d| + Phi(d/|d|) with Phi0 constant and
Phi homogeneous of degree zero.  For isotropic materials Phi is the classical
closed form (a degree-2 trigonometric polynomial in the angle).  For a general
strongly elliptic constant tensor, Phi comes from the angular representation

    U(x) = -(1/4 pi^2) int_0^{2pi} Gamma(n(t))^{-1} log|n(t) . x| dt ,

where Gamma is the acoustic tensor; since log|cos| has a known cosine series,
the angular integral is a periodic convolution and the Fourier coefficients of
Phi follow from an FFT of Gamma^{-1}.  Both routes store Phi as a real cosine/
sine series, which also yields the exact gradient.  The series is summed over
powers of the unit direction e = d/|d| (Re e^k = cos k phi, Im e^k = sin k phi),
so evaluation calls no trig function.

Normalization: div C0[grad(U e)] = -e delta, so the total traction of U e over
any circle enclosing the origin (outward normal) equals -e.
"""

from __future__ import annotations

import numpy as np

from .errors import NotStronglyElliptic, SingularPoint
from .tensors import ElasticityTensor, IsotropicModuli, strong_ellipticity_margin

__all__ = ["FundamentalSolution", "acoustic_tensor", "unit_powers"]

# directions per block of the angular series, so that the (K, block)
# harmonics stay cache-sized
_BLOCK_DIRECTIONS = 1 << 14


def unit_powers(e, orders, out=None):
    """Yield e**k for each k of the ascending non-negative orders.

    The powers come from repeated multiplication, so for unit directions
    e = exp(i phi) the harmonics cos(k phi) + i sin(k phi) cost no trig call.
    Every power is yielded in the same array (out, if given), multiplied in
    place, so a caller that keeps one past the next step must copy it.
    """
    ek = np.empty_like(e) if out is None else out
    ek[...], at = 1.0, 0
    for k in orders:
        for _ in range(k - at):
            ek *= e
        at = k
        yield ek


def acoustic_tensor(C, n):
    """Gamma(n)_ih = C_ijhk n_j n_k for direction(s) n of shape (...,2)."""
    c = C.c if isinstance(C, ElasticityTensor) else np.asarray(C, dtype=float)
    n = np.asarray(n, dtype=float)
    return np.einsum("ijhk,...j,...k->...ih", c, n, n)


class FundamentalSolution:
    """Evaluator for U(d) = Phi0 log|d| + Phi(d/|d|) and its exact gradient."""

    def __init__(self, phi0, cos_coef, sin_coef):
        self.phi0 = np.asarray(phi0, dtype=float)          # (2,2)
        self.cos_coef = np.asarray(cos_coef, dtype=float)  # (K+1,2,2); [0] is the mean
        self.sin_coef = np.asarray(sin_coef, dtype=float)  # (K+1,2,2); [0] unused
        # retained orders: those with a nonzero cosine or sine coefficient
        nonzero = (self.cos_coef != 0.0).any(axis=(1, 2)) | (self.sin_coef != 0.0).any(axis=(1, 2))
        self.orders = [int(k) for k in np.nonzero(nonzero)[0]]

    # -- constructors --------------------------------------------------------

    @classmethod
    def isotropic(cls, moduli: IsotropicModuli) -> "FundamentalSolution":
        """Closed-form Kelvin matrix for an isotropic material."""
        lam, mu = moduli.lambda_lame, moduli.mu_shear
        denom = 4.0 * np.pi * mu * (lam + 2.0 * mu)
        phi0 = -(lam + 3.0 * mu) / denom * np.eye(2)
        beta = (lam + mu) / denom          # coefficient of (d x d)/|d|^2
        cos_coef = np.zeros((3, 2, 2))
        sin_coef = np.zeros((3, 2, 2))
        cos_coef[0] = 0.5 * beta * np.eye(2)
        cos_coef[2] = 0.5 * beta * np.diag([1.0, -1.0])
        sin_coef[2] = 0.5 * beta * np.array([[0.0, 1.0], [1.0, 0.0]])
        return cls(phi0, cos_coef, sin_coef)

    @classmethod
    def from_tensor(cls, c0, n_angles: int = 512) -> "FundamentalSolution":
        """Angular-representation construction for a general constant tensor.

        Computes Gamma(n)^{-1} at n_angles directions, convolves with the
        cosine series of log|cos| by FFT, and keeps the (spectrally decaying)
        trigonometric coefficients of Phi.  Raises NotStronglyElliptic when
        the strong-ellipticity margin is not positive.
        """
        if not isinstance(c0, ElasticityTensor):
            c0 = ElasticityTensor(c0)
        margin = strong_ellipticity_margin(c0)
        if margin <= 0.0:
            raise NotStronglyElliptic(f"ellipticity margin {margin:.6g} <= 0")

        m = int(n_angles)
        theta = 2.0 * np.pi * np.arange(m) / m
        n = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        g = np.linalg.inv(acoustic_tensor(c0, n))          # (m,2,2)
        g *= -1.0 / (4.0 * np.pi**2)
        ghat = np.fft.fft(g, axis=0) / m                   # coefficients of e^{i k theta}

        phi0 = 2.0 * np.pi * ghat[0].real

        # log|cos t| = -log 2 + sum_{j>=1} (-1)^{j+1} cos(2jt)/j
        khat = np.zeros(m, dtype=complex)
        khat[0] = -np.log(2.0)
        for j in range(1, m // 4):
            khat[2 * j] = (-1) ** (j + 1) / (2.0 * j)
            khat[m - 2 * j] = khat[2 * j]
        fhat = 2.0 * np.pi * ghat * khat[:, None, None]

        K = m // 2 - 1
        cos_coef = np.zeros((K + 1, 2, 2))
        sin_coef = np.zeros((K + 1, 2, 2))
        cos_coef[0] = fhat[0].real
        for k in range(1, K + 1):
            cos_coef[k] = 2.0 * fhat[k].real
            sin_coef[k] = -2.0 * fhat[k].imag
        # drop the numerically-zero tail so evaluation stays cheap
        mags = np.abs(cos_coef).max(axis=(1, 2)) + np.abs(sin_coef).max(axis=(1, 2))
        keep = max(int(np.nonzero(mags > 1e-15 * mags.max())[0].max()) + 1, 3)
        return cls(phi0, cos_coef[:keep], sin_coef[:keep])

    # -- evaluation ----------------------------------------------------------

    def terms(self, derivative: bool = False):
        """Yield (k, A_k, B_k) over the retained orders k, so that

            Phi(e) = sum_k Re(e^k) A_k + Im(e^k) B_k

        at a unit direction e = exp(i phi); derivative=True gives the series
        of d Phi / d phi instead, without its vanishing order 0.  Orders whose
        cosine and sine coefficients both vanish are skipped."""
        for k in self.orders:
            c, s = self.cos_coef[k], self.sin_coef[k]
            if not derivative:
                yield k, c, s
            elif k > 0:
                yield k, k * s, -k * c

    def angular_work(self, size: int) -> tuple:
        """Scratch arrays for angular calls on up to `size` directions per
        block: the powers of e and the stacked harmonics.  A caller that
        evaluates many blocks allocates them once and passes them to each
        call."""
        size = max(1, min(size, _BLOCK_DIRECTIONS))
        return np.empty(size, dtype=complex), np.empty(2 * len(self.orders) * size)

    def angular(self, e, derivative: bool = False, out=None, work=None):
        """Phi (or d Phi / d phi) at unit complex direction(s) e, shape
        (...,2,2), written into out if given.

        Per block of directions the real and imaginary parts of the
        harmonics e^k are stacked in one contiguous (2K, block) array, which
        meets the stacked (2K, 4) cosine and sine coefficients in one matrix
        product.  work is the scratch of angular_work, allocated here unless
        given."""
        e = np.asarray(e, dtype=complex)
        terms = list(self.terms(derivative))
        orders = [k for k, _, _ in terms]
        coef = np.reshape([a for _, a, _ in terms] + [b for _, _, b in terms], (-1, 4))
        flat = e.reshape(-1)
        res = np.empty((flat.size, 4)) if out is None else out.reshape(flat.size, 4)
        powers, planes = self.angular_work(flat.size) if work is None else work
        for lo in range(0, flat.size, powers.size):
            block = flat[lo : lo + powers.size]
            h = planes[: 2 * len(orders) * block.size].reshape(2, len(orders), block.size)
            for row, ek in enumerate(unit_powers(block, orders, out=powers[: block.size])):
                h[0, row] = ek.real
                h[1, row] = ek.imag
            np.matmul(h.reshape(-1, block.size).T, coef, out=res[lo : lo + block.size])
        return res.reshape(e.shape + (2, 2))

    @property
    def mirror_symmetric(self) -> bool:
        """True when U(sigma d) = sigma U(d) sigma exactly, sigma = diag(1, -1)
        the mirror x2 -> -x2: Phi0 and every cosine coefficient diagonal and
        every sine coefficient off-diagonal, since sigma e = conj(e) keeps
        Re e^k and flips Im e^k.  Isotropic kernels are; a general
        from_tensor kernel is not."""
        diag = np.eye(2, dtype=bool)
        return not (self.phi0[~diag].any() or self.cos_coef[:, ~diag].any()
                    or self.sin_coef[:, diag].any())

    def __call__(self, d):
        """U(d) for displacement difference(s) d of shape (...,2)."""
        d = np.asarray(d, dtype=float)
        r2 = np.sum(d * d, axis=-1)
        if np.any(r2 == 0.0):
            raise SingularPoint("fundamental matrix requested at d = 0")
        e = (d[..., 0] + 1j * d[..., 1]) / np.sqrt(r2)
        logr = 0.5 * np.log(r2)
        return self.phi0 * logr[..., None, None] + self.angular(e)

    def gradient(self, d):
        """grad U: array (...,2,2,2) with [...,i,j,k] = d U_ij / d x_k.

        grad U = (Phi0 d + dPhi/dphi t) / |d|^2 with t = (-d_2, d_1)."""
        d = np.asarray(d, dtype=float)
        r2 = np.sum(d * d, axis=-1)
        if np.any(r2 == 0.0):
            raise SingularPoint("gradient requested at d = 0")
        e = (d[..., 0] + 1j * d[..., 1]) / np.sqrt(r2)
        t = np.stack([-d[..., 1], d[..., 0]], axis=-1)
        dphi = self.angular(e, derivative=True)
        grad = (
            self.phi0[..., :, :, None] * d[..., None, None, :]
            + dphi[..., :, :, None] * t[..., None, None, :]
        )
        return grad / r2[..., None, None, None]

