"""Discrete checks of the classical inequalities the energy estimates lean on.

Each check evaluates both sides of one inequality on discrete data with the
sharp classical constant (1 for the zero-mean circle inequality at the first
harmonic, sqrt(2) for the vanishing-boundary gradient bound, (q/(2-q))^q for
the radial weighted bound), so regressions in the discrete calculus surface
where the analysis lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryNotZero, NonDecayingProfile

__all__ = [
    "Trial",
    "wirtinger_check",
    "hardy_check",
    "korn_first_check",
    "wirtinger_trial",
    "hardy_trial",
    "korn_trial",
    "TRIALS",
]


@dataclass
class Trial:
    """One instance of a check: its input and both sides of the bound."""

    sample: np.ndarray
    lhs: float
    rhs: float
    ok: bool


def wirtinger_check(samples, radius: float = 1.0) -> Trial:
    """Zero-mean periodic function against its arclength derivative on a circle.

    samples: uniform angular values, shape (n,) or (n, d); the derivative is
    spectral (FFT), so band-limited inputs are handled exactly and equality
    at the first harmonic is reproduced to round-off; ok forgives a relative
    excess of 1e-10.
    """
    sample = np.asarray(samples, dtype=float)
    u = sample[:, None] if sample.ndim == 1 else sample
    n = u.shape[0]
    if n < 16:
        raise ValueError(f"need at least 16 uniform samples, got {n}")
    w = radius * 2.0 * np.pi / n                      # ds per sample
    mean = u.mean(axis=0)
    lhs = float(np.sum((u - mean) ** 2) * w)

    k = np.fft.fftfreq(n, d=1.0 / n)                  # integer wavenumbers
    du_dtheta = np.fft.ifft(1j * k[:, None] * np.fft.fft(u, axis=0), axis=0).real
    du_ds = du_dtheta / radius
    rhs = float(radius**2 * np.sum(du_ds**2) * w)
    return Trial(sample, lhs, rhs, ok=lhs <= rhs * (1.0 + 1e-10) + 1e-300)


def hardy_check(r, values, q: float, u0) -> Trial:
    """Radial weighted bound for q in (1, 2) on samples u(r_i) over a
    strictly increasing radial grid: the decaying part of u is controlled by
    its gradient with the sharp constant (q/(2-q))^q; rhs is that constant
    times the gradient integral.

    The bound presumes a q-integrable gradient (profiles decaying slower
    than r^((q-2)/q) leave that class and the truncated comparison rightly
    fails; the constant is approached as the decay rate drops toward the
    threshold).
    """
    r = np.asarray(r, dtype=float)
    sample = np.asarray(values, dtype=float)
    u = sample[:, None] if sample.ndim == 1 else sample
    if r.ndim != 1 or r.size != u.shape[0]:
        raise ValueError("radii and values disagree in length")
    if np.any(np.diff(r) <= 0):
        raise ValueError("radii must be strictly increasing")
    if not 1.0 < q < 2.0:
        raise ValueError(f"q must lie in (1, 2), got {q}")
    u0 = np.broadcast_to(np.asarray(u0, dtype=float), u.shape[1:])
    dev = np.linalg.norm(u - u0, axis=-1)

    # decay precondition: the far tail must not grow
    m = dev.size
    head = dev[: m // 2].mean()
    tail = dev[-max(m // 8, 2):].mean()
    if tail > max(head, 1e-300) * 1.5:
        raise NonDecayingProfile("the tail of |u - u0| grows; no far-field constant")

    du = np.gradient(u, r, axis=0)
    gmag = np.linalg.norm(du, axis=-1)
    area = 2.0 * np.pi * r                           # fold in the area weight r dr
    lhs = float(np.trapezoid(dev**q / r**q * area, r))
    grad_int = float(np.trapezoid(gmag**q * area, r))

    rhs = (q / (2.0 - q)) ** q * grad_int
    return Trial(sample, lhs, rhs, ok=lhs <= rhs * (1.0 + 1e-8) + 1e-300)


def korn_first_check(u, hx: float, hy: float) -> Trial:
    """First Korn bound |grad u|_2 <= sqrt(2) |sym grad u|_2 for nodal fields
    vanishing on the boundary of a uniform Cartesian grid.

    Gradients by centered differences on the interior (the field is extended
    by its boundary zeros), both sides by the same cell quadrature; ok
    forgives a relative excess of 1e-8.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 3 or u.shape[2] != 2:
        raise ValueError(f"expected (nx, ny, 2) nodal values, got {u.shape}")
    bmax = max(
        np.abs(u[0]).max(), np.abs(u[-1]).max(),
        np.abs(u[:, 0]).max(), np.abs(u[:, -1]).max(),
    )
    if bmax > 1e-14 * max(np.abs(u).max(), 1.0):
        raise BoundaryNotZero(f"boundary values reach {bmax:.3g}")

    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[1:-1] = (u[2:] - u[:-2]) / (2.0 * hx)
    gy[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * hy)
    # one-sided closures at the boundary rows keep the compact support honest
    gx[0] = (u[1] - u[0]) / hx
    gx[-1] = (u[-1] - u[-2]) / hx
    gy[:, 0] = (u[:, 1] - u[:, 0]) / hy
    gy[:, -1] = (u[:, -1] - u[:, -2]) / hy

    grad = np.stack([gx, gy], axis=-1)               # (...,2,2): d_k u_m
    gs = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    w = hx * hy
    lhs = float(np.sum(grad * grad) * w)
    rhs = float(2.0 * np.sum(gs * gs) * w)
    return Trial(u, lhs, rhs, ok=lhs <= rhs * (1.0 + 1e-8) + 1e-300)


# -- seeded random trials ------------------------------------------------------


_TH64 = 2 * np.pi * np.arange(64) / 64
_RADII = np.geomspace(1.0, 1e4, 800)
_X = np.linspace(-1.0, 1.0, 33)
_XX, _YY = np.meshgrid(_X, _X, indexing="ij")
_TAPER = np.cos(np.pi * _XX / 2) ** 2 * np.cos(np.pi * _YY / 2) ** 2


def wirtinger_trial(rng) -> Trial:
    """Harmonics 1-6 with normal coefficients on 64 angles, on a circle of
    radius uniform in [0.5, 5]."""
    coef = rng.normal(size=(6, 2))
    u = sum(
        coef[m, 0] * np.cos((m + 1) * _TH64) + coef[m, 1] * np.sin((m + 1) * _TH64)
        for m in range(6)
    )
    return wirtinger_check(u, radius=float(rng.uniform(0.5, 5.0)))


def hardy_trial(rng) -> Trial:
    """u0 + amp r^-p (1, -1/2) on 800 radii in [1, 1e4], q uniform in
    [1.1, 1.9] and p inside the q-integrable class, above (2 - q)/q."""
    q = float(rng.uniform(1.1, 1.9))
    p = (2.0 - q) / q + float(rng.uniform(0.05, 0.8))
    amp = float(rng.uniform(0.1, 3.0))
    u0 = rng.normal(size=2)
    vals = u0[None, :] + amp * _RADII[:, None] ** (-p) * np.array([1.0, -0.5])
    return hardy_check(_RADII, vals, q, u0)


def korn_trial(rng) -> Trial:
    """Random affine field times a cos^2 taper vanishing on the boundary of
    a 33x33 grid on [-1, 1]^2."""
    c = rng.normal(size=(2, 3))
    u = np.stack(
        [
            _TAPER * (c[0, 0] + c[0, 1] * _XX + c[0, 2] * _YY),
            _TAPER * (c[1, 0] + c[1, 1] * _XX + c[1, 2] * _YY),
        ],
        axis=-1,
    )
    h = _X[1] - _X[0]
    return korn_first_check(u, h, h)


TRIALS = {"wirtinger": wirtinger_trial, "hardy": hardy_trial, "korn": korn_trial}
