import numpy as np
import pytest

from stokes_lab.errors import BoundaryNotZero, NonDecayingProfile
from stokes_lab.inequalities import (
    hardy_check,
    hardy_trial,
    korn_first_check,
    korn_trial,
    wirtinger_check,
    wirtinger_trial,
)

TH64 = 2 * np.pi * np.arange(64) / 64


def taper_grid(n=33):
    x = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    taper = np.cos(np.pi * X / 2) ** 2 * np.cos(np.pi * Y / 2) ** 2
    return X, Y, taper, x[1] - x[0]


class TestWirtinger:
    def test_first_harmonic_equality(self):
        res = wirtinger_check(np.sin(TH64), radius=1.0)
        assert np.isclose(res.lhs, np.pi)
        assert np.isclose(res.rhs, np.pi)
        assert abs(res.lhs - res.rhs) <= 1e-10 * res.rhs
        assert res.ok

    def test_second_harmonic_strict(self):
        res = wirtinger_check(np.sin(2 * TH64))
        assert np.isclose(res.lhs, np.pi)
        assert np.isclose(res.rhs, 4 * np.pi)
        assert res.ok

    def test_constant(self):
        res = wirtinger_check(np.full(64, 7.0))
        assert res.lhs == 0.0 and res.rhs == 0.0 and res.ok

    def test_radius_scaling(self):
        r2 = wirtinger_check(np.sin(TH64), radius=2.0)
        assert np.isclose(r2.lhs, 2 * np.pi) and np.isclose(r2.rhs, 2 * np.pi)

    def test_vector_samples(self):
        u = np.stack([np.sin(TH64), np.cos(TH64)], axis=-1)
        res = wirtinger_check(u)
        assert np.isclose(res.lhs, res.rhs)

    def test_randomized_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            assert wirtinger_trial(rng).ok

    def test_equality_only_at_first_harmonic(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(200):
            coef = rng.normal(size=(5, 2))
            u = sum(
                coef[k, 0] * np.cos((k + 2) * TH64) + coef[k, 1] * np.sin((k + 2) * TH64)
                for k in range(5)
            )
            res = wirtinger_check(u)
            worst = max(worst, res.lhs / res.rhs)
        assert worst < 1.0 - 1e-3

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            wirtinger_check(np.zeros(8))


class TestHardy:
    def test_u_equals_u0(self):
        rr = np.geomspace(1.0, 1e4, 500)
        res = hardy_check(rr, np.full_like(rr, 2.5), 1.5, 2.5)
        assert res.lhs == 0.0 and res.ok

    def test_inverse_sqrt_profile(self):
        """u = r^(-1/2), q = 3/2: both sides finite, truncated lhs known."""
        rr = np.geomspace(1.0, 1e4, 4000)
        res = hardy_check(rr, rr**-0.5, 1.5, 0.0)
        lhs_exact = 8 * np.pi * (1 - (1e4) ** -0.25)
        assert abs(res.lhs - lhs_exact) <= 1e-3 * lhs_exact
        # rhs carries the sharp constant (q/(2-q))^q = 3^1.5 times the
        # gradient integral 2 pi int |u'|^1.5 r dr = 2^1.5 pi (1 - 1e4^-0.25)
        rhs_exact = 3**1.5 * 2**1.5 * np.pi * (1 - (1e4) ** -0.25)
        assert abs(res.rhs - rhs_exact) <= 1e-3 * rhs_exact
        assert res.ok

    def test_sharp_constant_not_violated_near_extremal(self):
        """Powers r^-p with p above the class threshold (2-q)/q stress the
        constant (the ratio approaches it as p drops to the threshold)."""
        rr = np.geomspace(1.0, 1e6, 6000)
        for q in (1.3, 1.5, 1.7):
            p_star = (2.0 - q) / q
            for dp in (0.05, 0.2, 0.5, 1.0):
                res = hardy_check(rr, rr ** -(p_star + dp), q, 0.0)
                assert res.ok, (q, dp)

    def test_out_of_class_profile_fails_honestly(self):
        """Below the threshold the gradient is not q-integrable and the
        truncated comparison must expose that the bound does not hold."""
        rr = np.geomspace(1.0, 1e6, 6000)
        res = hardy_check(rr, rr**-0.2, 1.3, 0.0)
        assert not res.ok

    def test_non_decaying_raises(self):
        rr = np.geomspace(1.0, 1e4, 500)
        with pytest.raises(NonDecayingProfile):
            hardy_check(rr, rr**0.5, 1.5, 0.0)

    def test_randomized_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            assert hardy_trial(rng).ok

    def test_profile_validation(self):
        rr = np.geomspace(1.0, 1e4, 500)
        with pytest.raises(ValueError):
            hardy_check(np.array([1.0, 1.0, 2.0]), np.zeros(3), 1.5, 0.0)   # unsorted
        with pytest.raises(ValueError):
            hardy_check(np.array([1.0, 2.0]), np.zeros(3), 1.5, 0.0)        # lengths
        for q in (0.5, 1.0, 2.0, 2.5):                                       # q not in (1, 2)
            with pytest.raises(ValueError):
                hardy_check(rr, rr**-0.5, q, 0.0)


class TestKornFirst:
    def test_gradient_field_half_ratio(self):
        """u = grad(phi): skew part vanishes, so lhs = rhs / 2 exactly."""
        X, Y, taper, h = taper_grid(65)
        phi = taper * (X**2 - Y**2 + 0.3 * X * Y)
        u = np.stack(np.gradient(phi, h, h), axis=-1)
        u[0] = u[-1] = 0.0
        u[:, 0] = u[:, -1] = 0.0
        res = korn_first_check(u, h)
        assert res.ok
        assert res.lhs / res.rhs <= 0.75

    def test_randomized_sweep(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            assert korn_trial(rng).ok

    def test_near_rotation_ratio_close_to_one(self):
        X, Y, taper, h = taper_grid(65)
        u = np.stack([-Y * taper, X * taper], axis=-1)
        res = korn_first_check(u, h)
        assert res.ok
        assert res.lhs / res.rhs > 0.85

    def test_boundary_not_zero(self):
        u = np.ones((17, 17, 2))
        with pytest.raises(BoundaryNotZero):
            korn_first_check(u, 0.1)
