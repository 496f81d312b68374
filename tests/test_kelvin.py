import numpy as np
import pytest

from stokes_lab.errors import NotStronglyElliptic, SingularPoint
from stokes_lab.kelvin import FundamentalSolution, acoustic_tensor
from stokes_lab.tensors import (
    ElasticityTensor,
    IsotropicModuli,
    apply_tensor,
)

ISO = IsotropicModuli(1.0, 1.0)


def random_spd_tensor(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    m = a @ a.T + 3.0 * np.eye(3)
    from stokes_lab.tensors import _VOIGT

    return ElasticityTensor(np.einsum("aij,ab,bhk->ijhk", _VOIGT, m, _VOIGT))


def pde_residual(fs, c, x, h, e=np.array([1.0, 0.0])):
    """Centered-difference residual of div C[grad (U e)] at x."""
    res = np.zeros(2)
    dirs = np.eye(2)
    for j in range(2):
        for k in range(2):
            if j == k:
                d2 = (fs(x + h * dirs[j]) - 2 * fs(x) + fs(x - h * dirs[j])) @ e / h**2
            else:
                d2 = (
                    fs(x + h * dirs[j] + h * dirs[k])
                    - fs(x + h * dirs[j] - h * dirs[k])
                    - fs(x - h * dirs[j] + h * dirs[k])
                    + fs(x - h * dirs[j] - h * dirs[k])
                ) @ e / (4 * h**2)
            res += np.einsum("ih,h->i", c.c[:, j, :, k], d2)
    return np.abs(res).max()


class TestKernel:
    def test_evenness(self):
        fs = FundamentalSolution.isotropic(ISO)
        d = np.array([[0.3, -1.7], [2.0, 0.1], [-0.4, -0.9]])
        assert np.allclose(fs(d), fs(-d), atol=1e-15)

    def test_symmetry_isotropic(self):
        fs = FundamentalSolution.isotropic(ISO)
        u = fs(np.array([0.7, -0.2]))
        assert np.allclose(u, u.T)

    def test_singular_point(self):
        fs = FundamentalSolution.isotropic(ISO)
        with pytest.raises(SingularPoint):
            fs(np.zeros(2))
        with pytest.raises(SingularPoint):
            fs.gradient(np.zeros(2))

    def test_split_structure(self):
        """U(d) = Phi0 log|d| + Phi(d/|d|) exactly as stored."""
        fs = FundamentalSolution.isotropic(ISO)
        d = np.array([1.3, -0.6])
        r = np.linalg.norm(d)
        phi = np.arctan2(d[1], d[0])
        assert np.allclose(fs(d), fs.phi0 * np.log(r) + fs.angular(np.exp(1j * phi)))
        # degree-zero homogeneity of the angular part
        assert np.allclose(fs(3.7 * d) - fs(d), fs.phi0 * np.log(3.7))

    def test_pde_residual_isotropic(self):
        fs = FundamentalSolution.isotropic(ISO)
        x = np.array([2.0, 1.0])
        res = [pde_residual(fs, ISO.tensor(), x, h) for h in (1e-2, 5e-3, 2.5e-3)]
        assert res[-1] < 1e-6
        orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
        assert all(1.7 < o < 2.3 for o in orders)

    def test_pde_residual_anisotropic(self):
        c = random_spd_tensor(3)
        fs = FundamentalSolution.from_tensor(c)
        x = np.array([-1.2, 1.9])
        res = [pde_residual(fs, c, x, h, e=np.array([0.3, -1.0])) for h in (1e-2, 5e-3)]
        assert res[-1] < 1e-5
        assert np.log2(res[0] / res[1]) > 1.7

    def test_force_balance_isotropic(self):
        """Total traction of U e over a circle enclosing the origin = -e."""
        fs = FundamentalSolution.isotropic(ISO)
        n = 512
        t = 2 * np.pi * np.arange(n) / n
        pts = 3.0 * np.stack([np.cos(t), np.sin(t)], axis=-1)
        nrm = pts / 3.0
        for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            gradu = np.einsum("nijk,j->nik", fs.gradient(pts), e)
            trac = np.einsum("nik,nk->ni", apply_tensor(ISO.tensor(), gradu), nrm)
            total = (3.0 * 2 * np.pi / n) * trac.sum(axis=0)
            assert np.allclose(total, -e, atol=1e-8)

    def test_force_balance_anisotropic(self):
        c = random_spd_tensor(9)
        fs = FundamentalSolution.from_tensor(c)
        n = 512
        t = 2 * np.pi * np.arange(n) / n
        pts = 2.0 * np.stack([np.cos(t), np.sin(t)], axis=-1)
        nrm = pts / 2.0
        e = np.array([0.0, 1.0])
        gradu = np.einsum("nijk,j->nik", fs.gradient(pts), e)
        trac = np.einsum("nik,nk->ni", apply_tensor(c, gradu), nrm)
        total = (2.0 * 2 * np.pi / n) * trac.sum(axis=0)
        assert np.allclose(total, -e, atol=1e-8)

    def test_routes_agree_up_to_constant(self):
        """Closed form and angular representation differ by a constant matrix
        (the kernel is unique modulo constants); gradients agree exactly."""
        fs_a = FundamentalSolution.isotropic(ISO)
        fs_b = FundamentalSolution.from_tensor(ISO.tensor(), n_angles=256)
        d = np.stack(
            [np.array([np.cos(a), np.sin(a)]) * r
             for a, r in zip(np.linspace(0, 6, 25), np.linspace(0.2, 9, 25))]
        )
        diff = fs_a(d) - fs_b(d)
        assert np.abs(diff - diff.mean(axis=0)).max() < 1e-12
        assert np.allclose(fs_a.gradient(d), fs_b.gradient(d), atol=1e-12)
        assert np.allclose(fs_a.phi0, fs_b.phi0, atol=1e-14)

    def test_gradient_matches_finite_differences(self):
        c = random_spd_tensor(5)
        fs = FundamentalSolution.from_tensor(c)
        x = np.array([0.8, -1.4])
        h = 1e-6
        g = fs.gradient(x)
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = h
            fd = (fs(x + dx) - fs(x - dx)) / (2 * h)
            assert np.allclose(g[:, :, k], fd, atol=1e-8)

    def test_series_matches_trig_reference(self):
        """Harmonics from powers of the unit direction reproduce the stored
        cosine/sine series and its derivative, written out with trig calls;
        orders with zero coefficients are skipped."""
        phi = np.linspace(-7.0, 7.0, 40001)  # several blocks of directions
        for fs in (FundamentalSolution.isotropic(ISO),
                   FundamentalSolution.from_tensor(random_spd_tensor(2))):
            k = np.arange(fs.cos_coef.shape[0])
            c = np.cos(k * phi[:, None])
            s = np.sin(k * phi[:, None])
            ref = np.einsum("pk,kij->pij", c, fs.cos_coef) + np.einsum("pk,kij->pij", s, fs.sin_coef)
            dref = np.einsum("pk,kij->pij", k * c, fs.sin_coef) - np.einsum(
                "pk,kij->pij", k * s, fs.cos_coef
            )
            e = np.exp(1j * phi)
            assert np.abs(fs.angular(e) - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.abs(fs.angular(e, derivative=True) - dref).max() <= 1e-13 * np.abs(dref).max()
            d = 2.5 * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
            direct = fs(d) - fs.phi0 * np.log(2.5)
            assert np.abs(direct - ref).max() <= 1e-13 * np.abs(ref).max()
            assert all(np.abs(fs.cos_coef[j]).max() + np.abs(fs.sin_coef[j]).max() > 0
                       for j in fs.orders)
        assert FundamentalSolution.isotropic(ISO).orders == [0, 2]

    @pytest.mark.parametrize("kernel", ["isotropic", "random-spd-0"])
    def test_angular_matches_cos_sin_series(self, kernel):
        """The one stacked product of real and imaginary harmonics against
        the plain series sum_k cos(k phi) A_k + sin(k phi) B_k, term by term,
        and its derivative, to 1e-14."""
        fs = (FundamentalSolution.isotropic(ISO) if kernel == "isotropic"
              else FundamentalSolution.from_tensor(random_spd_tensor(0)))
        phi = np.linspace(-7.0, 7.0, 40001)
        ref = np.zeros(phi.shape + (2, 2))
        dref = np.zeros(phi.shape + (2, 2))
        for k in range(fs.cos_coef.shape[0]):
            c, s = np.cos(k * phi)[:, None, None], np.sin(k * phi)[:, None, None]
            ref += c * fs.cos_coef[k] + s * fs.sin_coef[k]
            dref += k * (c * fs.sin_coef[k] - s * fs.cos_coef[k])
        e = np.exp(1j * phi)
        assert np.abs(fs.angular(e) - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.abs(fs.angular(e, derivative=True) - dref).max() <= 1e-14 * np.abs(dref).max()

    @pytest.mark.parametrize("kernel", ["isotropic", "random-spd-0"])
    def test_mirror_symmetry_from_coefficients(self, kernel):
        """An isotropic kernel reports that it commutes with the mirror
        sigma = diag(1, -1), U(sigma d) = sigma U(d) sigma, and it does to
        round-off; the anisotropic kernel of random_spd_tensor(0) reports
        that it does not, and it does not."""
        fs = (FundamentalSolution.isotropic(ISO) if kernel == "isotropic"
              else FundamentalSolution.from_tensor(random_spd_tensor(0)))
        sigma = np.diag([1.0, -1.0])
        d = np.random.default_rng(8).normal(size=(50, 2))
        gap = np.abs(fs(d @ sigma) - sigma @ fs(d) @ sigma).max() / np.abs(fs(d)).max()
        assert fs.mirror_symmetric == (kernel == "isotropic")
        assert (gap <= 1e-15) == fs.mirror_symmetric

    def test_angular_scratch_and_output_reused(self):
        """angular writes into a given output through given scratch, over
        several blocks, with the values it returns without them."""
        fs = FundamentalSolution.from_tensor(random_spd_tensor(0))
        e = np.exp(1j * np.linspace(-7.0, 7.0, 40001))
        out = np.full(e.shape + (2, 2), np.nan)
        got = fs.angular(e, out=out, work=fs.angular_work(e.size))
        assert got.base is out or got is out
        assert np.array_equal(out, fs.angular(e))

    def test_not_strongly_elliptic(self):
        with pytest.raises(NotStronglyElliptic):
            FundamentalSolution.from_tensor(np.zeros((2, 2, 2, 2)))


class TestHelpers:
    def test_acoustic_tensor_isotropic(self):
        n = np.array([0.6, 0.8])
        g = acoustic_tensor(ISO.tensor(), n)
        expect = np.eye(2) + 2.0 * np.outer(n, n)  # mu I + (lam+mu) n x n
        assert np.allclose(g, expect)
