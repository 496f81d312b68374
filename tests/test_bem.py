import dataclasses

import numpy as np
import pytest
from conftest import random_spd_tensor

from stokes_lab import bem
from stokes_lab.curves import BoundaryCurve
from stokes_lab.errors import (
    CurveNotSmooth,
    NotAnEllipse,
    PointInsideBody,
    SingularPoint,
    SingularSystem,
)
from stokes_lab.kelvin import FundamentalSolution
from stokes_lab.tensors import _VOIGT, ElasticityTensor, IsotropicModuli

ISO = IsotropicModuli(1.0, 1.0)


@pytest.fixture(scope="module")
def circle_op():
    curve = BoundaryCurve.circle(1.0, n=256)
    return bem.assemble_single_layer(curve, ISO)


@pytest.fixture(scope="module")
def circle_basis(circle_op):
    return bem.equilibrium_basis(circle_op)


def zero_total_density(curve, seed=3):
    return bem.zero_total_density(curve, np.random.default_rng(seed))


MIRROR = np.array([1.0, -1.0])


def full_from_rows(op):
    """A rebuilt from the stored rows of nodes 0..R-1 by the operator's
    symmetries g, node maps with component signs s_g:
    A[(g(i), m), (g(j), h)] = s_g[m] A[(i, m), (j, h)] s_g[h], for the half
    turn g(j) = j + N/2 (signs 1) and, on mirrored operators, the mirror
    g(j) = -j and their product (signs sigma = diag(1, -1))."""
    n = op.curve.n
    reps = op.rows.shape[0] // 2
    rows = op.rows.reshape(reps, 2, n, 2)
    j = np.arange(n)
    maps = [(j, np.ones(2)), ((j + n // 2) % n, np.ones(2))]
    if op.mirror_symmetric:
        maps += [(-j % n, MIRROR), ((n // 2 - j) % n, MIRROR)]
    a = np.full((n, 2, n, 2), np.nan)
    for g, sign in maps:
        a[np.ix_(g[:reps], [0, 1], g, [0, 1])] = (sign[:, None, None] * rows * sign)
    assert not np.isnan(a).any()
    return a.reshape(2 * n, 2 * n)


def bordered(curve, a):
    """[A 1; W 0] around a (2N, 2N) matrix A."""
    n2 = 2 * curve.n
    m = np.zeros((n2 + 2, n2 + 2))
    m[:n2, :n2] = a
    for c in range(2):
        m[c:n2:2, n2 + c] = 1.0
        m[n2 + c, c:n2:2] = curve.weights
    return m


def full_array_formula(curve, kernel):
    """A by the formula that forms the whole (n, n, 2, 2) array and then
    interleaves it: no circulant row, no row blocks, no symmetry."""
    n, t, speed = curve.n, curve.t, curve.speed
    dt = t[:, None] - t[None, :]
    log_fac = 4.0 * np.sin(dt / 2.0) ** 2
    z = curve.points[:, 0] + 1j * curve.points[:, 1]
    dz = z[:, None] - z[None, :]
    r2 = dz.real**2 + dz.imag**2
    np.fill_diagonal(r2, 1.0)
    np.fill_diagonal(log_fac, 1.0)
    e = dz / np.sqrt(r2)
    np.fill_diagonal(e, curve.tangent[:, 0] + 1j * curve.tangent[:, 1])
    smooth_log = 0.5 * np.log(r2 / log_fac)
    np.fill_diagonal(smooth_log, np.log(speed))
    m2 = kernel.phi0[None, None] * smooth_log[..., None, None] + kernel.angular(e)
    rvec = bem.kress_log_weights(n)
    rmat = rvec[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
    a = rmat[..., None, None] * (0.5 * kernel.phi0)[None, None] + (2.0 * np.pi / n) * m2
    a *= speed[None, :, None, None]
    return a.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


class TestAssembly:
    def test_log_kernel_closed_form(self):
        """Scalar single layer of a constant density on circle(a): the pure
        log kernel integrates to 2 pi a log a on the boundary."""
        for a in (0.5, 2.0):
            curve = BoundaryCurve.circle(a, n=64)
            log_kernel = FundamentalSolution(np.eye(2), np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
            op = bem.assemble_single_layer(curve, log_kernel)
            const = np.zeros((64, 2))
            const[:, 0] = 1.0
            v = op.apply(const)
            assert np.allclose(v[:, 0], 2 * np.pi * a * np.log(a), atol=1e-12)
            assert np.abs(v[:, 1]).max() < 1e-12

    def test_block_symmetry_on_circle(self):
        curve = BoundaryCurve.circle(1.0, n=64)
        op = bem.assemble_single_layer(curve, ISO)
        a = full_from_rows(op)
        assert np.abs(a - a.T).max() < 1e-12

    def test_weighted_self_adjointness_on_ellipse(self):
        curve = BoundaryCurve.ellipse(2.0, 1.0, n=64)
        op = bem.assemble_single_layer(curve, ISO)
        w = np.repeat(curve.weights, 2)
        wa = w[:, None] * full_from_rows(op)
        assert np.abs(wa - wa.T).max() < 1e-12

    def test_self_convergence(self):
        def apply_at(n):
            curve = BoundaryCurve.circle(1.0, n=n)
            op = bem.assemble_single_layer(curve, ISO)
            psi = np.stack([np.cos(curve.t), np.sin(2 * curve.t)], axis=-1)
            return op.apply(psi)

        v64 = apply_at(64)
        v512 = apply_at(512)
        assert np.abs(v64 - v512[::8]).max() < 1e-10

    def test_rounded_square_warns(self):
        curve = BoundaryCurve.rounded_square(1.0, 0.25, n=128)
        with pytest.warns(CurveNotSmooth):
            bem.assemble_single_layer(curve, ISO)

    def test_non_finite_kernel_is_singular(self):
        """A layer matrix with a non-finite entry is refused by the
        assembly's own scan, before any factorization."""
        iso = FundamentalSolution.isotropic(ISO)
        kernel = FundamentalSolution(np.full((2, 2), np.nan), iso.cos_coef, iso.sin_coef)
        with pytest.raises(SingularSystem, match="non-finite"):
            bem.assemble_single_layer(BoundaryCurve.circle(1.0, n=64), kernel)

    def test_odd_kernel_is_refused(self):
        """A kernel with an odd angular order is not even, so the rows of the
        second node half are not those of the first with the column halves
        swapped; assembly refuses it, and so does evaluation, which forms
        the even harmonics only."""
        iso = FundamentalSolution.isotropic(ISO)
        cos_coef = iso.cos_coef.copy()
        cos_coef[1] = 0.1 * np.eye(2)
        kernel = FundamentalSolution(iso.phi0, cos_coef, iso.sin_coef)
        curve = BoundaryCurve.circle(1.0, n=64)
        with pytest.raises(ValueError, match="odd angular orders"):
            bem.assemble_single_layer(curve, kernel)
        sol = bem.ExteriorSolution(curve=curve, kernel=kernel, psi=np.ones((64, 2)),
                                   kappa=np.zeros(2), cond=1.0, replay_error=0.0)
        for fn in (bem.evaluate, bem.evaluate_gradient):
            with pytest.raises(ValueError, match="odd angular orders"):
                fn(sol, [3.0, 0.0])

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("shape", ["ellipse", "rounded-square"])
    def test_matches_full_array_formula(self, shape, n):
        """A rebuilt from the stored rows equals, to round-off, the formula
        that forms the whole (n, n, 2, 2) array and then interleaves it.
        (Taking the parameter-difference terms from one circulant row
        changes the round-off by up to 1.6e-14 of the largest entry.)  The
        isotropic kernel on the ellipse stores the rows of nodes 0..n/4, the
        anisotropic one and the rounded square those of nodes 0..n/2-1."""
        if shape == "ellipse":
            curve = BoundaryCurve.ellipse(2.0, 1.0, n=n)
        else:
            curve = BoundaryCurve.rounded_square(1.0, 0.25, n=n)
        for kernel in (FundamentalSolution.isotropic(ISO),
                       FundamentalSolution.from_tensor(random_spd_tensor(0))):
            with pytest.warns(CurveNotSmooth) if not curve.smooth else _nullcontext():
                op = bem.assemble_single_layer(curve, kernel)
            a = full_array_formula(curve, kernel)
            mirrored = curve.smooth and kernel.mirror_symmetric
            assert op.mirror_symmetric == mirrored
            assert op.rows.shape == (2 * (n // 4 + 1) if mirrored else n, 2 * n)
            assert np.abs(full_from_rows(op) - a).max() <= 1e-13 * np.abs(a).max()

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_log_weights_match_cosine_sum(self, n):
        """The FFT form of the log-splitting weights against their defining
        cosine sum."""
        d = 2.0 * np.pi * np.arange(n) / n
        m = np.arange(1, n // 2)
        ref = -(4.0 * np.pi / n) * ((np.cos(np.outer(d, m)) / m).sum(axis=1)
                                    + np.cos(n * d / 2.0) / n)
        assert np.abs(bem.kress_log_weights(n) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_one_bordered_array(self):
        """On the mirrored ellipse the operator keeps only the (N/2 + 2, 2N)
        rows of A for nodes 0..N/4, and assembly holds little beyond that
        array (tracemalloc peak)."""
        import tracemalloc

        curve = BoundaryCurve.ellipse(2.0, 1.0, n=512)
        tracemalloc.start()
        try:
            op = bem.assemble_single_layer(curve, ISO)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.rows.shape == (258, 1024)
        assert peak <= 1.5 * op.rows.nbytes

    @pytest.mark.parametrize("n", [64, 66, 1024])
    def test_log_row_symmetric(self, n):
        """The circulant row of the log terms is exactly symmetric,
        crow[k] == crow[n - k], so the rows of A are exactly
        mirror-invariant."""
        crow = bem._log_row(n)
        assert np.array_equal(crow[1:], crow[:0:-1])

    def test_block_rows_match_single_rows(self, monkeypatch):
        """Rows written in blocks of 3 (the last one of 2) through the
        reused work arrays equal the rows written one at a time (to 1e-15 of
        the largest entry: a BLAS may round the rows of a product by its row
        count)."""
        curve = BoundaryCurve.ellipse(2.0, 1.0, n=256)
        rows = {}
        for pairs in (3 * 256, 256):
            monkeypatch.setattr(bem, "_BLOCK_PAIRS", pairs)
            rows[pairs] = bem.assemble_single_layer(curve, ISO).rows
        assert rows[768].shape == (130, 512)  # 65 nodes: 21 blocks of 3, one of 2
        assert np.abs(rows[768] - rows[256]).max() <= 1e-15 * np.abs(rows[256]).max()

    @pytest.mark.parametrize("shape, n", [("ellipse", 66), ("rounded-square", 64)])
    def test_apply_matches_full_array_formula(self, shape, n):
        """apply, the stored rows times the class parts of psi, is A psi
        with A from the full-array formula."""
        curve, op = _symmetry_case(shape, n)
        psi = np.random.default_rng(5).normal(size=(n, 2))
        ref = (full_array_formula(curve, op.kernel) @ psi.reshape(-1)).reshape(n, 2)
        assert np.abs(op.apply(psi) - ref).max() <= 1e-12 * np.abs(ref).max()


def _symmetry_case(shape, n):
    """A curve and its operator for a general anisotropic kernel (n = 66
    leaves N/2 odd)."""
    if shape == "ellipse":
        curve = BoundaryCurve.ellipse(2.0, 1.0, n=n)
    else:
        curve = BoundaryCurve.rounded_square(1.0, 0.25, n=n)
    with pytest.warns(CurveNotSmooth) if not curve.smooth else _nullcontext():
        op = bem.assemble_single_layer(curve, FundamentalSolution.from_tensor(random_spd_tensor(0)))
    return curve, op


class TestEquilibriumBasis:
    def test_circle_constant_directions(self, circle_basis):
        for i in range(2):
            psi = circle_basis.psi[i]
            assert np.abs(psi[:, 1 - i]).max() < 1e-12
            assert psi[:, i].std() < 1e-12

    def test_ellipse_equilibrium_directions(self):
        """Basis densities align with e_i / |grad f| on the ellipse."""
        curve = BoundaryCurve.ellipse(2.0, 1.0, n=256)
        op = bem.assemble_single_layer(curve, ISO)
        basis = bem.equilibrium_basis(op)
        for i in range(2):
            target = np.zeros((curve.n, 2))
            target[:, i] = 1.0 / curve.grad_f_norm
            target /= np.sqrt(curve.inner_product(target, target))
            err = min(
                np.sqrt(curve.inner_product(basis.psi[i] - s * target,
                                            basis.psi[i] - s * target))
                for s in (+1.0, -1.0)
            )
            assert err <= 1e-6

    def test_rank_on_three_geometries(self):
        for curve in (
            BoundaryCurve.circle(1.0, n=128),
            BoundaryCurve.ellipse(2.0, 1.0, n=128),
            BoundaryCurve.rounded_square(1.0, 0.25, n=256),
        ):
            with pytest.warns() if not curve.smooth else _nullcontext():
                op = bem.assemble_single_layer(curve, ISO)
            basis = bem.equilibrium_basis(op)
            assert abs(np.linalg.det(basis.totals)) > 1e-12

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_square_basis_quarter_turn_equivariant(self, n):
        """A quarter turn maps the rounded square to itself, node j to node
        j + n/4, and the isotropic kernel to itself, so it maps psi_1 (total
        e_1) to psi_2 (total e_2): psi_2 shifted by n/4 is psi_1 turned."""
        curve = BoundaryCurve.rounded_square(1.0, 0.25, n=n)
        with pytest.warns(CurveNotSmooth):
            psi1, psi2 = bem.equilibrium_basis(bem.assemble_single_layer(curve, ISO)).psi
        turned = np.stack([-psi1[:, 1], psi1[:, 0]], axis=-1)
        assert np.abs(np.roll(psi2, -n // 4, axis=0) - turned).max() <= 1e-11 * np.abs(psi1).max()

    @pytest.mark.parametrize("shape, n", [("ellipse", 64), ("ellipse", 66), ("circle", 64)])
    def test_basis_mirror_parity(self, shape, n):
        """psi_1 is sigma-even and psi_2 sigma-odd, bit for bit: node -j of
        psi_1 is sigma times node j, and of psi_2 minus that."""
        curve = (BoundaryCurve.ellipse(2.0, 1.0, n=n) if shape == "ellipse"
                 else BoundaryCurve.circle(1.0, n=n))
        psi1, psi2 = bem.equilibrium_basis(bem.assemble_single_layer(curve, ISO)).psi
        flip = -np.arange(n) % n
        assert np.array_equal(psi1[flip], MIRROR * psi1)
        assert np.array_equal(psi2[flip], -MIRROR * psi2)

    def test_replay_reproduces_constants(self, circle_op, circle_basis):
        for i in range(2):
            trace = circle_op.apply(circle_basis.psi[i])
            expect = circle_basis.boundary_values[i]
            assert np.abs(trace - expect).max() < 1e-8

    def test_span_stable_under_refinement(self):
        from scipy.linalg import subspace_angles

        curve1 = BoundaryCurve.ellipse(2.0, 1.0, n=128)
        curve2 = BoundaryCurve.ellipse(2.0, 1.0, n=256)
        b1 = bem.equilibrium_basis(bem.assemble_single_layer(curve1, ISO))
        b2 = bem.equilibrium_basis(bem.assemble_single_layer(curve2, ISO))
        a = np.stack([b1.psi[i].ravel() for i in range(2)], axis=1)
        b = np.stack([b2.psi[i][::2].ravel() for i in range(2)], axis=1)
        ang = subspace_angles(a, b)
        assert ang.max() < 1e-6


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class TestParadoxResidual:
    def test_constant_data_detects_paradox(self, circle_basis):
        curve = circle_basis.curve
        const = np.tile([1.0, 0.0], (curve.n, 1))
        res = bem.paradox_residual(const, circle_basis)
        mag = circle_basis.psi[0][0, 0]
        assert np.isclose(res[0], 2 * np.pi * 1.0 * mag, atol=1e-10)
        assert abs(res[1]) < 1e-12
        assert np.linalg.norm(res) > 1e-3

    def test_tangential_data_compatible(self, circle_basis):
        curve = circle_basis.curve
        tang = np.stack([-np.sin(curve.t), np.cos(curve.t)], axis=-1)
        assert np.abs(bem.paradox_residual(tang, circle_basis)).max() < 1e-12

    def test_manufactured_trace_compatible(self, circle_op, circle_basis):
        psi = zero_total_density(circle_op.curve)
        data = circle_op.apply(psi)
        assert np.abs(bem.paradox_residual(data, circle_basis)).max() < 1e-8

    def test_linearity(self, circle_op, circle_basis):
        rng = np.random.default_rng(1)
        u1 = rng.normal(size=(circle_op.curve.n, 2))
        u2 = rng.normal(size=(circle_op.curve.n, 2))
        r = bem.paradox_residual(2.0 * u1 - 3.0 * u2, circle_basis)
        r12 = 2.0 * bem.paradox_residual(u1, circle_basis) - 3.0 * bem.paradox_residual(
            u2, circle_basis
        )
        assert np.allclose(r, r12)

    def test_nonzero_constant_on_three_geometries(self):
        import warnings

        for curve in (
            BoundaryCurve.circle(1.0, n=128),
            BoundaryCurve.ellipse(2.0, 1.0, n=128),
            BoundaryCurve.rounded_square(1.0, 0.25, n=256),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CurveNotSmooth)
                op = bem.assemble_single_layer(curve, ISO)
            basis = bem.equilibrium_basis(op)
            const = np.tile([0.3, -0.8], (curve.n, 1))
            assert np.linalg.norm(bem.paradox_residual(const, basis)) > 1e-3


class TestEllipseCompatibility:
    def test_constant_data(self):
        curve = BoundaryCurve.ellipse(2.0, 1.0, n=128)
        const = np.tile([1.0, 0.0], (curve.n, 1))
        v = bem.ellipse_compatibility(const, curve)
        assert v[0] > 1.0
        assert abs(v[1]) < 1e-12

    def test_weighted_zero_mean_profile(self):
        curve = BoundaryCurve.ellipse(2.0, 1.0, n=128)
        prof = np.cos(curve.t)
        prof = prof - np.sum(curve.weights * prof / curve.grad_f_norm) / np.sum(
            curve.weights / curve.grad_f_norm
        )
        data = np.stack([curve.grad_f_norm * 0.0, prof * curve.grad_f_norm], axis=-1)
        # build datum whose weighted mean the functional kills exactly
        data[:, 0] = prof * curve.grad_f_norm
        data[:, 1] = 0.0
        v = bem.ellipse_compatibility(data, curve)
        assert np.abs(v).max() < 1e-10

    def test_matches_paradox_residual_up_to_rescaling(self):
        curve = BoundaryCurve.ellipse(2.0, 1.0, n=128)
        op = bem.assemble_single_layer(curve, ISO)
        basis = bem.equilibrium_basis(op)
        rng = np.random.default_rng(12)
        pairs = []
        for _ in range(20):
            data = rng.normal(size=(curve.n, 2))
            pairs.append(
                (bem.ellipse_compatibility(data, curve), bem.paradox_residual(data, basis))
            )
        a = np.stack([p[0] for p in pairs])
        b = np.stack([p[1] for p in pairs])
        m, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.abs(a @ m - b).max() < 1e-8 * max(np.abs(b).max(), 1.0)
        assert abs(np.linalg.det(m)) > 1e-12

    def test_not_an_ellipse(self):
        curve = BoundaryCurve.rounded_square(1.0, 0.25, n=128)
        with pytest.raises(NotAnEllipse):
            bem.ellipse_compatibility(np.zeros((curve.n, 2)), curve)


CLASS_CASES = [(n, mirrored) for n in (64, 66) for mirrored in (True, False)]
CLASS_IDS = [f"{n}-{'mirrored' if m else 'half-turn'}" for n, m in CLASS_CASES]


class TestSymmetryClasses:
    """The class algebra on its own: expand builds a density with the
    class's characters, fold undoes it up to the order, and the class parts
    of any density sum back to it."""

    @pytest.mark.parametrize("n, mirrored", CLASS_CASES, ids=CLASS_IDS)
    def test_expand_has_the_characters(self, n, mirrored):
        rng = np.random.default_rng(n)
        for cls in bem._symmetry_classes(n, mirrored):
            psi = cls.expand(rng.normal(size=cls.keep.size))
            assert np.array_equal(psi[n // 2 :], cls.c_rho * psi[: n // 2])
            if mirrored:
                assert np.array_equal(psi[-np.arange(n) % n], cls.c_sigma * MIRROR * psi)

    @pytest.mark.parametrize("n, mirrored", CLASS_CASES, ids=CLASS_IDS)
    def test_fold_undoes_expand(self, n, mirrored):
        rng = np.random.default_rng(n + 1)
        for cls in bem._symmetry_classes(n, mirrored):
            x = rng.normal(size=cls.keep.size)
            assert np.array_equal(cls.fold(cls.expand(x)), cls.order * x)

    @pytest.mark.parametrize("n, mirrored", CLASS_CASES, ids=CLASS_IDS)
    def test_class_parts_sum_to_the_density(self, n, mirrored):
        psi = np.random.default_rng(n + 2).normal(size=(n, 2))
        classes = bem._symmetry_classes(n, mirrored)
        assert len(classes) == (4 if mirrored else 2)
        parts = sum(c.expand(c.fold(psi) / c.order) for c in classes)
        assert np.abs(parts - psi).max() <= 1e-15 * np.abs(psi).max()


class TestSolveDirichlet:
    @pytest.mark.parametrize("curve", [
        BoundaryCurve.ellipse(2.0, 1.0, n=128),
        BoundaryCurve.rounded_square(1.0, 0.25, n=128),
    ], ids=["ellipse", "rounded-square"])
    def test_transposed_factors_solve_bordered_system(self, curve):
        """The solve from the transposed factors of the even and odd blocks is
        the dense solve of [A 1; W 0] itself, A rebuilt from H."""
        with pytest.warns(CurveNotSmooth) if not curve.smooth else _nullcontext():
            op = bem.assemble_single_layer(curve, ISO)
        rhs = np.random.default_rng(4).normal(size=2 * curve.n + 2)
        psi, kappa = bem._augmented_solve(op, rhs[:-2].reshape(-1, 2), rhs[-2:])
        ref = np.linalg.solve(bordered(curve, full_from_rows(op)), rhs)
        x = np.concatenate([psi.reshape(-1), kappa])
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("shape, n", [("ellipse", 66), ("rounded-square", 64)])
    def test_split_solve_matches_full_bordered_solve(self, shape, n):
        """The pair of half-size block solves plus refinement is the dense
        solve of [A 1; W 0] with A from the full-array formula, for an
        anisotropic kernel."""
        curve, op = _symmetry_case(shape, n)
        rhs = np.random.default_rng(6).normal(size=2 * n + 2)
        psi, kappa = bem._augmented_solve(op, rhs[:-2].reshape(-1, 2), rhs[-2:])
        ref = np.linalg.solve(bordered(curve, full_array_formula(curve, op.kernel)), rhs)
        x = np.concatenate([psi.reshape(-1), kappa])
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("case", ["ellipse-64", "ellipse-66", "circle-capacity"])
    def test_four_block_solve_matches_full_bordered_solve(self, case):
        """On mirrored curves an isotropic kernel is solved in four blocks
        of N/2 DOFs, and the solve plus refinement is the dense solve of
        [A 1; W 0] with A from the full-array formula, also at the
        log-capacity radius of the circle, where A alone is singular."""
        if case == "circle-capacity":
            curve = BoundaryCurve.circle(np.exp(0.25), n=64)
        else:
            curve = BoundaryCurve.ellipse(2.0, 1.0, n=int(case[-2:]))
        op = bem.assemble_single_layer(curve, ISO)
        assert op.mirror_symmetric and len(op._augmented_lu[0]) == 4
        rhs = np.random.default_rng(7).normal(size=2 * curve.n + 2)
        psi, kappa = bem._augmented_solve(op, rhs[:-2].reshape(-1, 2), rhs[-2:])
        ref = np.linalg.solve(bordered(curve, full_array_formula(curve, op.kernel)), rhs)
        x = np.concatenate([psi.reshape(-1), kappa])
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_replaced_rows_are_factored_afresh(self):
        """The block factors are cached on the operator, not passed to it:
        an operator made from another with other rows factors its own."""
        op = bem.assemble_single_layer(BoundaryCurve.ellipse(2.0, 1.0, n=64), ISO)
        assert [f.name for f in dataclasses.fields(op)] == ["curve", "kernel", "rows"]
        cond = op.cond
        assert dataclasses.replace(op, rows=2.0 * op.rows).cond != cond

    @pytest.mark.parametrize("n, sizes", [(64, [33, 33, 32, 32]), (66, [34, 34, 33, 33])],
                             ids=["64", "66"])
    def test_blocks_keep_one_component_at_mirror_fixed_nodes(self, n, sizes):
        """Each of the four blocks has N/2 DOFs, plus one border in the x-
        and the y-constant class: node 0, and node N/4 when 4 divides N,
        keep one component in each block, every other node of 0..N/4 two."""
        op = bem.assemble_single_layer(BoundaryCurve.ellipse(2.0, 1.0, n=n), ISO)
        assert [lu[0].shape[0] for lu in op._augmented_lu[0]] == sizes
        fixed = [0, n // 4] if n % 4 == 0 else [0]
        for cls in op._classes:
            per_node = np.bincount(cls.keep // 2, minlength=n // 4 + 1)
            assert per_node[fixed].tolist() == [1] * len(fixed)
            assert (np.delete(per_node, fixed) == 2).all()
            assert cls.keep.size == n // 2

    def test_constant_data(self, circle_op):
        const = np.tile([1.0, 0.0], (circle_op.curve.n, 1))
        sol = bem.solve_dirichlet(circle_op, const)
        assert np.abs(sol.psi).max() < 1e-12
        assert np.allclose(sol.kappa, [1.0, 0.0], atol=1e-10)

    def test_manufactured_recovery(self, circle_op):
        psi_star = zero_total_density(circle_op.curve)
        data = circle_op.apply(psi_star)
        sol = bem.solve_dirichlet(circle_op, data)
        scale = np.abs(psi_star).max()
        assert np.abs(sol.psi - psi_star).max() <= 1e-6 * scale
        assert np.abs(sol.kappa).max() <= 1e-8
        assert np.abs(sol.total_density).max() < 1e-10
        assert sol.replay_error <= 1e-8 * max(np.abs(data).max(), 1.0)

    def test_compatible_data_zero_kappa(self, circle_op):
        psi_star = zero_total_density(circle_op.curve, seed=9)
        data = circle_op.apply(psi_star)
        sol = bem.solve_dirichlet(circle_op, data)
        assert np.abs(sol.kappa).max() <= 1e-8

    def test_augmented_system_robust_at_degenerate_scale(self):
        """At the log-capacity radius the layer operator is singular on the
        constant mode, yet the side condition keeps the augmented system
        well conditioned and the constant datum still yields psi = 0."""
        a_star = np.exp(0.25)  # iso(1,1): exp((lam+mu)/(2(lam+3mu)))
        curve = BoundaryCurve.circle(a_star, n=128)
        op = bem.assemble_single_layer(curve, ISO)
        assert np.linalg.cond(full_from_rows(op)) > 1e12
        const = np.tile([1.0, 0.0], (curve.n, 1))
        sol = bem.solve_dirichlet(op, const)
        assert sol.cond < 1e6
        assert np.allclose(sol.kappa, [1.0, 0.0], atol=1e-10)
        assert np.abs(sol.psi).max() < 1e-10

    def test_condition_estimate_repeats(self):
        """LAPACK's gecon returns estimates that differ in their last digits
        on bit-identical LU factors; rounded to 6 significant digits, eight
        builds of one operator report one condition estimate."""
        curve = BoundaryCurve.ellipse(2.0, 1.0, n=1024)
        conds = {bem.assemble_single_layer(curve, ISO).cond for _ in range(8)}
        assert len(conds) == 1
        assert conds.pop() == 474427.0

    def test_basis_span_survives_degenerate_scale(self):
        """psi_i has a positive multiple of e_i as its total on either side of
        the log-capacity radius; on circles, including that radius where the
        bare layer operator is singular, it is the constant density along e_i."""
        for curve in (
            BoundaryCurve.circle(1.0, n=128),
            BoundaryCurve.circle(np.exp(0.25), n=128),
            BoundaryCurve.ellipse(2.0, 1.0, n=128),
        ):
            basis = bem.equilibrium_basis(bem.assemble_single_layer(curve, ISO))
            diag = np.diag(basis.totals)
            assert np.all(diag > 1e-3)
            assert np.abs(basis.totals - np.diag(diag)).max() < 1e-10
            if curve.kind == "circle":
                for i in range(2):
                    const = np.zeros(2)
                    const[i] = basis.psi[i][:, i].mean()
                    assert np.abs(basis.psi[i] - const).max() < 1e-10


class TestEvaluate:
    def test_pure_constant(self, circle_op):
        sol = bem.solve_dirichlet(circle_op, np.tile([3.0, -1.0], (circle_op.curve.n, 1)))
        pts = np.array([[2.0, 0.0], [0.0, -5.0], [100.0, 40.0]])
        assert np.allclose(bem.evaluate(sol, pts), [3.0, -1.0], atol=1e-10)

    def test_inside_raises(self, circle_op):
        sol = bem.solve_dirichlet(circle_op, np.tile([1.0, 0.0], (circle_op.curve.n, 1)))
        with pytest.raises(PointInsideBody):
            bem.evaluate(sol, np.array([[0.2, 0.1]]))

    def test_far_field_slope(self, circle_op):
        psi_star = zero_total_density(circle_op.curve)
        sol = bem.solve_dirichlet(circle_op, circle_op.apply(psi_star))
        radii = np.array([10.0, 100.0, 1000.0])
        angles = np.linspace(0, 2 * np.pi, 6, endpoint=False)
        dist = []
        for r in radii:
            pts = np.stack([r * np.cos(angles), r * np.sin(angles)], axis=-1)
            dist.append(np.linalg.norm(bem.evaluate(sol, pts) - sol.kappa, axis=-1).max())
        slope = np.polyfit(np.log(radii), np.log(dist), 1)[0]
        assert abs(slope + 1.0) <= 0.05

    def test_near_boundary_refinement_oracle(self, circle_op):
        """Five node-spacings off the boundary, plain-quadrature evaluation
        agrees with a doubly refined reference within 1e-3 (the documented
        accuracy floor of the boundary layer)."""
        curve = circle_op.curve
        psi_star = zero_total_density(curve)
        data = circle_op.apply(psi_star)
        sol = bem.solve_dirichlet(circle_op, data)

        fine = BoundaryCurve.circle(1.0, n=2 * curve.n)
        op_fine = bem.assemble_single_layer(fine, ISO)
        psi_fine = zero_total_density(fine)  # the same Fourier modes, twice the nodes
        sol_fine = bem.solve_dirichlet(op_fine, op_fine.apply(psi_fine))

        h = 2 * np.pi / curve.n
        ang = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        pts = (1.0 + 5 * h) * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        scale = max(np.abs(data).max(), 1.0)
        diff = np.abs(bem.evaluate(sol, pts) - bem.evaluate(sol_fine, pts)).max()
        assert diff <= 1e-3 * scale


def _soft_shear_kernel():
    """Orthotropic kernel with a shear modulus 1/20 of the axial ones: its
    angular series keeps far more than 30 orders."""
    voigt = np.diag([1.0, 1.0, 0.05])
    kernel = FundamentalSolution.from_tensor(
        ElasticityTensor(np.einsum("aij,ab,bhk->ijhk", _VOIGT, voigt, _VOIGT))
    )
    assert len(kernel.orders) > 30
    return kernel


class TestEvaluateOracle:
    """The blocked series evaluator against the direct quadrature sum
    sum_n U(x - y_n) w_n psi_n built from the kernel's own evaluation."""

    @pytest.mark.parametrize(
        "kernel",
        [
            FundamentalSolution.isotropic(ISO),
            FundamentalSolution.from_tensor(random_spd_tensor(0)),
            _soft_shear_kernel(),
        ],
        ids=["isotropic", "random_spd", "soft_shear"],
    )
    def test_matches_direct_sum(self, kernel):
        curve = BoundaryCurve.ellipse(2.0, 1.0, n=128)
        op = bem.assemble_single_layer(curve, kernel)
        sol = bem.solve_dirichlet(op, np.stack([np.cos(curve.t), np.sin(2 * curve.t)], axis=-1))
        rng = np.random.default_rng(5)
        h = curve.weights.max()
        m = 300
        node = rng.integers(0, curve.n, m)
        dist = h * np.geomspace(0.1, 100.0, m)
        pts = (curve.points[node] - dist[:, None] * curve.normal[node]
               + rng.uniform(-0.5, 0.5, (m, 1)) * h * curve.tangent[node])
        assert not curve.is_inside(pts).any()

        wpsi = curve.weights[:, None] * sol.psi
        d = pts[:, None, :] - curve.points[None, :, :]
        kern, kern_grad = kernel(d), kernel.gradient(d)
        u_ref = np.einsum("mnij,nj->mi", kern, wpsi) + sol.kappa
        g_ref = np.einsum("mnijk,nj->mik", kern_grad, wpsi)
        # per target, relative to the sum of the magnitudes of its terms: the
        # scale round-off acts on when far-field terms cancel
        u_scale = np.einsum("mnij,nj->m", np.abs(kern), np.abs(wpsi)) + np.abs(sol.kappa).sum()
        g_scale = np.einsum("mnijk,nj->m", np.abs(kern_grad), np.abs(wpsi))
        u = bem.evaluate(sol, pts)
        g = bem.evaluate_gradient(sol, pts)
        assert (np.abs(u - u_ref).max(axis=-1) / u_scale).max() <= 1e-12
        assert (np.abs(g - g_ref).max(axis=(-2, -1)) / g_scale).max() <= 1e-12

        # one point gives (2,) and (2, 2); an (a, b, 2) batch keeps its shape
        assert bem.evaluate(sol, pts[0]).shape == (2,)
        assert bem.evaluate_gradient(sol, pts[0]).shape == (2, 2)
        assert np.allclose(bem.evaluate(sol, pts[0]), u[0], rtol=1e-14, atol=0.0)
        batch = pts[:12].reshape(3, 4, 2)
        assert bem.evaluate(sol, batch).shape == (3, 4, 2)
        assert bem.evaluate_gradient(sol, batch).shape == (3, 4, 2, 2)
        assert np.allclose(bem.evaluate(sol, batch), u[:12].reshape(3, 4, 2), rtol=1e-14, atol=0.0)
        assert np.allclose(bem.evaluate_gradient(sol, batch), g[:12].reshape(3, 4, 2, 2),
                           rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "kernel",
        [FundamentalSolution.isotropic(ISO), _soft_shear_kernel()],
        ids=["isotropic", "soft_shear"],
    )
    def test_batches_match_single_targets(self, kernel, monkeypatch):
        """The block buffers are reused from block to block and call to call:
        a batch whose last block is partial, a batch of exactly one block
        and a single target give, per target, what that target gives alone
        (to 1e-14 of its largest component); no targets give empty arrays."""
        curve = BoundaryCurve.ellipse(2.0, 1.0, n=64)
        sol = bem.ExteriorSolution(
            curve=curve, kernel=kernel, psi=zero_total_density(curve),
            kappa=np.array([0.5, -1.0]), cond=1.0, replay_error=0.0,
        )
        monkeypatch.setattr(bem, "_BLOCK_PAIRS", 8 * curve.n)  # blocks of 8 targets
        rng = np.random.default_rng(2)
        node = rng.integers(0, curve.n, 19)
        dist = curve.weights.max() * np.geomspace(0.1, 100.0, 19)
        pts = curve.points[node] - dist[:, None] * curve.normal[node]
        for fn in (bem.evaluate, bem.evaluate_gradient):
            single = np.array([fn(sol, p) for p in pts])
            scale = np.abs(single).reshape(len(pts), -1).max(axis=1)
            # 8 + 8 + 3 targets, one block, one target
            for idx in (np.arange(19), np.arange(8), np.array([3])):
                err = np.abs(fn(sol, pts[idx]) - single[idx]).reshape(len(idx), -1).max(axis=1)
                assert (err <= 1e-14 * scale[idx]).all()
        assert bem.evaluate(sol, np.zeros((0, 2))).shape == (0, 2)
        assert bem.evaluate_gradient(sol, np.zeros((0, 2))).shape == (0, 2, 2)

    @pytest.mark.parametrize(
        "curve",
        [
            BoundaryCurve.circle(1.0, n=64),
            BoundaryCurve.ellipse(2.0, 1.0, n=64),
            BoundaryCurve.rounded_square(1.0, 0.25, n=64),
        ],
        ids=["circle", "ellipse", "square"],
    )
    def test_nodes_raise_typed_errors(self, curve):
        """A target on a quadrature node is either inside the body or the
        kernel's singular point: never a returned value."""
        sol = bem.ExteriorSolution(
            curve=curve, kernel=FundamentalSolution.isotropic(ISO),
            psi=zero_total_density(curve), kappa=np.zeros(2), cond=1.0, replay_error=0.0,
        )
        for p in curve.points:
            for fn in (bem.evaluate, bem.evaluate_gradient):
                with pytest.raises((PointInsideBody, SingularPoint)):
                    fn(sol, p)


class TestMSpaceAndTraction:
    def test_boundary_trace_vanishes(self, circle_op, circle_basis):
        """On the 256-node circle the representative's trace deviates from
        zero by less than 1e-8, reported as its replay error."""
        h = bem.m_space_representative(circle_op, circle_basis.psi[0])
        assert h.replay_error < 1e-8

    def test_evaluation_inside_body_raises(self, circle_op, circle_basis):
        h = bem.m_space_representative(circle_op, circle_basis.psi[0])
        for fn in (bem.evaluate, bem.evaluate_gradient):
            with pytest.raises(PointInsideBody):
                fn(h, np.array([0.3, -0.2]))

    def test_net_tractions_span(self, circle_op, circle_basis):
        t1 = bem.m_space_representative(circle_op, circle_basis.psi[0]).total_density
        t2 = bem.m_space_representative(circle_op, circle_basis.psi[1]).total_density
        assert abs(np.linalg.det(np.stack([t1, t2]))) > 1e-6

    def test_log_growth_comparison_bounded(self, circle_op, circle_basis):
        """h(x) - Phi0 log|x| total(psi') stays bounded as |x| grows."""
        h = bem.m_space_representative(circle_op, circle_basis.psi[0])
        lead = h.kernel.phi0 @ h.total_density
        for ang in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            pts = np.outer([1e2, 1e4, 1e6], [np.cos(ang), np.sin(ang)])
            log_r = np.log(np.linalg.norm(pts, axis=-1))
            rem = np.linalg.norm(bem.evaluate(h, pts) - log_r[:, None] * lead, axis=-1)
            assert rem.max() < 1.0
            assert rem.std() < 0.05 * (1 + rem.mean())

    def test_net_traction_zero_for_solutions(self, circle_op):
        psi_star = zero_total_density(circle_op.curve)
        sol = bem.solve_dirichlet(circle_op, circle_op.apply(psi_star))
        assert np.abs(sol.total_density).max() < 1e-10

    def test_circle_quadrature_cross_check(self, circle_op, circle_basis):
        h = bem.m_space_representative(circle_op, circle_basis.psi[0])
        # the normal toward the origin, as seen from the exterior domain
        total = -bem.circle_traction_total(lambda p: bem.evaluate_gradient(h, p), ISO.tensor(),
                                           radius=50.0)
        assert np.abs(total - h.total_density).max() < 1e-6

    def test_work_energy_relation(self, circle_op):
        """Boundary work balances the annular energy within 1%.

        The inner contour is lifted five node spacings off the body (plain
        quadrature degrades in the boundary layer); both contour integrals
        use the exact kernel gradient."""
        from stokes_lab.tensors import apply_tensor

        curve = circle_op.curve
        psi_star = zero_total_density(curve)
        sol = bem.solve_dirichlet(circle_op, circle_op.apply(psi_star))
        c0 = ISO.tensor()
        r_in = 1.0 + 5 * (2 * np.pi / curve.n)
        r_out = 10.0

        def work(radius, toward_origin):
            n = 2048
            t = 2 * np.pi * np.arange(n) / n
            nrm = np.stack([np.cos(t), np.sin(t)], axis=-1)
            pts = radius * nrm
            sgn = -1.0 if toward_origin else 1.0
            u = bem.evaluate(sol, pts) - sol.kappa
            g = bem.evaluate_gradient(sol, pts)
            trac = np.einsum("nik,nk->ni", apply_tensor(c0, g), sgn * nrm)
            return radius * 2 * np.pi / n * np.einsum("ni,ni->", u, trac)

        # energy on the annulus r_in < r < r_out by polar Gauss quadrature
        nr, nt = 160, 256
        redges = np.geomspace(r_in, r_out, nr + 1)
        tedges = np.linspace(0, 2 * np.pi, nt + 1)
        rq = 0.5 * (redges[1:] + redges[:-1])
        wr = np.diff(redges)
        tq = 0.5 * (tedges[1:] + tedges[:-1])
        wt = np.diff(tedges)
        RQ, TQ = np.meshgrid(rq, tq, indexing="ij")
        pts = np.stack([RQ * np.cos(TQ), RQ * np.sin(TQ)], axis=-1).reshape(-1, 2)
        g = bem.evaluate_gradient(sol, pts)
        dens = np.einsum("nij,nij->n", g, apply_tensor(c0, g))
        energy = np.sum((np.outer(wr * rq, wt)).ravel() * dens)

        boundary_work = work(r_in, toward_origin=True) + work(r_out, toward_origin=False)
        assert abs(energy - boundary_work) <= 0.01 * abs(energy)
