import numpy as np
import pytest
from conftest import random_spd_tensor, shear_unstable_tensor

from stokes_lab.errors import InvalidBounds, NotPositiveDefinite
from stokes_lab.tensors import (
    ElasticityTensor,
    IsotropicModuli,
    acoustic_tensor,
    apply_tensor,
    certify_bounds,
    constant_field,
    gamma_exponent,
    scalar_field,
    strong_ellipticity_margin,
    sym,
)

ISO11 = IsotropicModuli(1.0, 1.0).tensor()


class TestMat2:
    def test_sym_skew_decomposition_exact(self):
        """sym is a symmetric projection: its image is symmetric, it fixes
        that image, and it annihilates the skew remainder a - sym(a)."""
        rng = np.random.default_rng(0)
        a = rng.normal(size=(100, 2, 2))
        s = sym(a)
        assert np.array_equal(s, np.swapaxes(s, -1, -2))
        assert np.array_equal(sym(s), s)
        assert np.abs(sym(a - s)).max() <= 1e-14

    def test_frobenius_norm_definite(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(50, 2, 2))
        n2 = np.sum(a * a, axis=(-2, -1))
        assert np.all(n2 > 0)
        assert np.sum(np.zeros((2, 2)) ** 2) == 0.0


class TestApply:
    def test_skew_annihilated(self):
        w = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.abs(apply_tensor(ISO11, w)).max() == 0.0

    def test_isotropic_identity(self):
        out = apply_tensor(ISO11, np.eye(2))
        assert np.allclose(out, 4.0 * np.eye(2))

    def test_degiorgi_axis_action(self):
        from stokes_lab.degiorgi import degiorgi_tensor

        fld = degiorgi_tensor(2.0)
        act = fld(np.array([1.0, 0.0]))
        e11 = np.outer([1.0, 0.0], [1.0, 0.0])
        out = np.einsum("ijhk,hk->ij", act, e11)
        assert np.allclose(out, 2.0 * e11)

    def test_sym_part_only(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            L = rng.normal(size=(2, 2))
            assert np.allclose(apply_tensor(ISO11, L), apply_tensor(ISO11, sym(L)))

    def test_major_symmetry_pairing(self):
        C = random_spd_tensor(4)
        rng = np.random.default_rng(1)
        for _ in range(50):
            e = sym(rng.normal(size=(2, 2)))
            f = sym(rng.normal(size=(2, 2)))
            assert np.isclose(
                np.sum(e * apply_tensor(C, f)), np.sum(f * apply_tensor(C, e))
            )

    def test_rejects_major_asymmetry(self):
        c = np.zeros((2, 2, 2, 2))
        c[0, 0, 1, 1] = 1.0  # no (1,1,0,0) partner
        with pytest.raises(ValueError):
            ElasticityTensor(c)


class TestBounds:
    def test_isotropic(self):
        mu0, mue = certify_bounds(ISO11)
        assert np.isclose(mu0, 2.0) and np.isclose(mue, 4.0)

    def test_degiorgi_bounds(self):
        from stokes_lab.degiorgi import degiorgi_tensor

        fld = degiorgi_tensor(2.0)
        act = fld(np.array([0.3, 0.7]))
        mu0, mue = certify_bounds(act)
        assert np.isclose(mu0, 1.0) and np.isclose(mue, 2.0)

    def test_random_vs_sampling_oracle(self):
        C = random_spd_tensor(7)
        mu0, mue = certify_bounds(C)
        rng = np.random.default_rng(8)
        e = sym(rng.normal(size=(10**5, 2, 2)))
        quot = np.einsum("nij,nij->n", e, apply_tensor(C, e)) / np.einsum(
            "nij,nij->n", e, e
        )
        assert quot.min() >= mu0 - 1e-6
        assert quot.max() <= mue + 1e-6
        # the sampled range approaches the certified one
        assert quot.min() - mu0 < 0.05 * (mue - mu0 + 1)
        assert mue - quot.max() < 0.05 * (mue - mu0 + 1)

    def test_not_positive_definite(self):
        c = -np.einsum("ih,jk->ijhk", np.eye(2), np.eye(2))
        c = 0.5 * (c + np.transpose(c, (0, 1, 3, 2)))
        with pytest.raises(NotPositiveDefinite):
            certify_bounds(ElasticityTensor(c))


class TestMargin:
    def test_isotropic_value(self):
        assert np.isclose(strong_ellipticity_margin(ISO11), 1.0, atol=1e-10)

    def test_zero_tensor(self):
        z = ElasticityTensor(np.zeros((2, 2, 2, 2)))
        assert strong_ellipticity_margin(z) == 0.0

    @pytest.mark.parametrize("seed", [0, 11, 23])
    def test_margin_is_least_acoustic_eigenvalue(self, seed):
        """a.C[a x b]b = a.Gamma(b)a, so the margin is the least eigenvalue of
        the acoustic tensor over directions b.  It is no more than the least
        eigvalsh at 4096 directions per half circle, and within 1e-10 of it
        relatively once 4096 more directions between the least sample's
        neighbours bring the sampling error (1e-7 on the coarse grid) below
        round-off."""
        C = random_spd_tensor(seed)

        def least(beta):
            b = np.stack([np.cos(beta), np.sin(beta)], axis=-1)
            return np.linalg.eigvalsh(acoustic_tensor(C, b))[:, 0]

        h = np.pi / 4096
        coarse = least(h * np.arange(4096))
        k = int(np.argmin(coarse))
        fine = least(np.linspace(h * (k - 1), h * (k + 1), 4096)).min()
        margin = strong_ellipticity_margin(C)
        assert margin <= coarse.min()
        assert abs(fine - margin) <= 1e-10 * abs(fine)

    def test_negative_margin(self):
        """A tensor whose acoustic tensor I - 2 b x b is indefinite at every
        direction reads its margin -1."""
        assert strong_ellipticity_margin(shear_unstable_tensor()) == pytest.approx(-1.0, rel=1e-12)

    def test_margin_vs_angular_oracle(self):
        C = random_spd_tensor(11)
        margin = strong_ellipticity_margin(C)
        ang = np.deg2rad(np.arange(0.0, 180.0, 1.0))
        a = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        vals = np.einsum("ijhk,pi,qj,ph,qk->pq", C.c, a, a, a, a)
        assert margin <= vals.min() + 1e-12

    def test_margin_positive_for_positive_definite(self):
        """Positivity on Sym forces a rank-one margin of at least mu0/2
        (|sym(a x b)|^2 >= |a|^2 |b|^2 / 2); the isotropic case shows the
        factor 1/2 cannot be dropped (margin mu vs mu0 = 2 mu)."""
        for seed in (2, 11, 23):
            C = random_spd_tensor(seed)
            mu0, _ = certify_bounds(C)
            assert strong_ellipticity_margin(C) >= 0.5 * mu0 * (1 - 1e-9)
        assert strong_ellipticity_margin(ISO11) == pytest.approx(0.5 * ISO11.mu0)


class TestTraction:
    """The boundary force density C[grad u] n."""

    def test_identity_gradient(self):
        n = np.array([0.6, 0.8])
        assert np.allclose(apply_tensor(ISO11, np.eye(2)) @ n, 4.0 * n)

    def test_shear(self):
        g = np.outer([1.0, 0.0], [0.0, 1.0])  # e1 x e2
        out = apply_tensor(ISO11, g) @ np.array([0.0, 1.0])
        assert np.allclose(out, [1.0, 0.0])

    def test_skew_gradient(self):
        w = np.array([[0.0, 2.0], [-2.0, 0.0]])
        assert np.abs(apply_tensor(ISO11, w) @ np.array([1.0, 0.0])).max() == 0.0


class TestExponents:
    def test_gamma_values(self):
        assert np.isclose(gamma_exponent(1.0, 1.0), 4.0 / 13.0)
        assert np.isclose(gamma_exponent(1.0, 2.0), 4.0 / 21.0)

    def test_gamma_scale_invariance(self):
        t = 7.3
        assert np.isclose(gamma_exponent(1.0, 2.0), gamma_exponent(t, 2 * t))

    def test_gamma_range_and_monotonicity(self):
        assert gamma_exponent(1.0, 1.0) == pytest.approx(4.0 / 13.0)
        vals = [gamma_exponent(1.0, m) for m in (1.0, 1.5, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 4.0 / 13.0 + 1e-15 for v in vals)

    def test_invalid(self):
        with pytest.raises(InvalidBounds):
            gamma_exponent(0.0, 1.0)
        with pytest.raises(InvalidBounds):
            gamma_exponent(2.0, 1.0)


class TestField:
    def test_constant_field_bounds(self):
        fld = constant_field(IsotropicModuli(1.0, 1.0))
        rng = np.random.default_rng(0)
        lo, hi = fld.check_bounds_at(rng.normal(size=(40, 2)))
        assert np.isclose(lo, 2.0) and np.isclose(hi, 4.0)

    def test_constant_field_declares_isotropy_only(self):
        """constant_field declares equivariance for isotropic tensors, given as
        moduli or as components, and not for a cubic tensor, which a quarter
        turn leaves as it is but a turn by 1 rad does not; the radial fields
        of the counter-example declare it, scalar fields do not."""
        from stokes_lab.degiorgi import degiorgi_tensor

        iso = IsotropicModuli(2.0, 0.5)
        assert constant_field(iso).equivariant
        assert constant_field(iso.tensor().c).equivariant
        cubic = np.zeros((2, 2, 2, 2))
        cubic[0, 0, 0, 0] = cubic[1, 1, 1, 1] = 3.0
        cubic[0, 0, 1, 1] = cubic[1, 1, 0, 0] = 1.0
        cubic[0, 1, 0, 1] = cubic[1, 0, 1, 0] = cubic[0, 1, 1, 0] = cubic[1, 0, 0, 1] = 0.5
        assert not constant_field(cubic).equivariant
        assert degiorgi_tensor(2.0).equivariant and degiorgi_tensor(2.0, "lin").equivariant
        assert not scalar_field(lambda p: np.linalg.norm(p, axis=-1), 1.0, 2.0).equivariant

    def test_bounds_violation_raises(self):
        from stokes_lab.errors import BoundsViolated

        fld = constant_field(IsotropicModuli(1.0, 1.0))
        fld.mue = 3.0  # falsify the declared certificate
        with pytest.raises(BoundsViolated):
            fld.check_bounds_at(np.array([[1.0, 0.0]]))

