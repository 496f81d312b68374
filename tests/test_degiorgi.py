import numpy as np
import pytest

from stokes_lab.degiorgi import (
    ClosedFormSolution,
    degiorgi_tensor,
    epsilon,
    q_tail_classify,
)
from stokes_lab.errors import OriginSingular
from stokes_lab.tensors import apply_tensor, certify_bounds, sym


class TestEpsilon:
    def test_value_at_two(self):
        assert np.isclose(epsilon(2.0), 1.0 / np.sqrt(2.0))

    def test_small_xi_limit(self):
        assert epsilon(1e-9) < 1e-9

    def test_even(self):
        assert epsilon(-3.0) == epsilon(3.0)

    def test_monotone_increasing(self):
        xs = [0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [epsilon(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0 < v < 1 for v in vals)

    def test_algebraic_identity(self):
        rng = np.random.default_rng(0)
        for xi in rng.uniform(0.1, 10.0, size=20):
            e = epsilon(xi)
            assert np.isclose(e * e * (4.0 + xi * xi), xi * xi)

    def test_exponent_sits_on_uniqueness_class_boundary(self):
        """The growth rate of the counter-example family equals the
        1/sqrt(Lambda/lambda) class exponent of its own bounds exactly:
        r^eps is O(r^{1/sqrt L}) but not o(r^{1/sqrt L}), so the o-class is
        sharp for uniqueness modulo the obstruction fields."""
        rng = np.random.default_rng(4)
        for xi in rng.uniform(0.2, 8.0, size=25):
            assert np.isclose(np.sqrt(1.0 / (1.0 + 4.0 / xi**2)), epsilon(xi), rtol=1e-14)


class TestTensor:
    def test_bounds(self):
        for xi in (1.0, 2.0, 4.0):
            fld = degiorgi_tensor(xi)
            act = fld(np.array([0.4, -1.1]))
            mu0, mue = certify_bounds(act)
            assert np.isclose(mu0, 1.0)
            assert np.isclose(mue, 1.0 + 4.0 / xi**2)

    def test_origin_singular(self):
        fld = degiorgi_tensor(2.0)
        with pytest.raises(OriginSingular):
            fld(np.zeros(2))

    def test_xi_zero_rejected(self):
        with pytest.raises(ValueError):
            degiorgi_tensor(0.0)

    @pytest.mark.parametrize("xi", [1e-200, 1e-160])
    def test_xi_with_infinite_reinforcement_rejected(self, xi):
        with pytest.raises(ValueError, match="4/xi"):
            degiorgi_tensor(xi)

    def test_major_symmetry_random_pairs(self):
        fld = degiorgi_tensor(3.0)
        rng = np.random.default_rng(5)
        x = rng.normal(size=2) + np.array([2.0, 0.0])
        act = fld(x)
        for _ in range(30):
            e = sym(rng.normal(size=(2, 2)))
            f = sym(rng.normal(size=(2, 2)))
            lhs = np.sum(e * np.einsum("ijhk,hk->ij", act, f))
            rhs = np.sum(f * np.einsum("ijhk,hk->ij", act, e))
            assert np.isclose(lhs, rhs)

    def test_lin_flavor(self):
        fld = degiorgi_tensor(2.0, action_on="lin")
        act = fld(np.array([1.0, 1.0]))
        # the declared Lin bounds are the extreme eigenvalues on the dyad basis
        ev = np.linalg.eigvalsh(act.reshape(4, 4))
        assert fld.lin_bounds_pair == (1.0, 2.0)
        assert np.isclose(ev[0], 1.0) and np.isclose(ev[-1], 2.0)
        # agrees with the sym flavor on symmetric arguments
        act_sym = degiorgi_tensor(2.0)(np.array([1.0, 1.0]))
        rng = np.random.default_rng(2)
        e = sym(rng.normal(size=(8, 2, 2)))
        assert np.allclose(
            np.einsum("ijhk,nhk->nij", act, e), np.einsum("ijhk,nhk->nij", act_sym, e)
        )


class TestClosedForm:
    def test_xi_zero_rejected(self):
        with pytest.raises(ValueError):
            ClosedFormSolution(0.0)

    def test_vanishes_on_unit_circle(self):
        sol = ClosedFormSolution(2.0, 1.0, -1.0)
        th = np.linspace(0, 2 * np.pi, 37)
        pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
        assert np.abs(sol.displacement(pts)).max() < 1e-14

    def test_homogeneity_of_growing_branch(self):
        sol = ClosedFormSolution(2.0, 1.0, 0.0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 2)) + np.array([3.0, 0.0])
        assert np.allclose(sol.displacement(2 * x), 2**sol.eps * sol.displacement(x))

    def test_gradient_matches_finite_differences(self):
        sol = ClosedFormSolution(2.0, 0.7, -0.4)
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(1.5, 5.0) * np.array([np.cos(a := rng.uniform(0, 2 * np.pi)), np.sin(a)])
            g = sol.gradient(x)
            for k in range(2):
                dx = np.zeros(2)
                dx[k] = h
                fd = (sol.displacement(x + dx) - sol.displacement(x - dx)) / (2 * h)
                assert np.allclose(g[:, k], fd, atol=1e-7)

    @pytest.mark.parametrize("xi", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("coef", [(1.0, -1.0), (0.0, 1.0)])
    def test_pde_residual_second_order(self, xi, coef):
        """div C[grad u] -> 0 at order h^2 for both branches (finite differences)."""
        sol = ClosedFormSolution(xi, *coef)
        fld = degiorgi_tensor(xi)
        rng = np.random.default_rng(42)
        pts = np.stack(
            [r * np.array([np.cos(a), np.sin(a)])
             for r, a in zip(rng.uniform(1.5, 8.0, 100), rng.uniform(0, 2 * np.pi, 100))]
        )

        def max_residual(h):
            res = np.zeros((pts.shape[0], 2))
            for j in range(2):
                dx = np.zeros(2)
                dx[j] = h
                sp = apply_tensor(fld(pts + dx), sol.gradient(pts + dx))
                sm = apply_tensor(fld(pts - dx), sol.gradient(pts - dx))
                res += (sp[:, :, j] - sm[:, :, j]) / (2 * h)
            return np.abs(res).max()

        r1, r2 = max_residual(1e-2), max_residual(5e-3)
        assert r2 < 1e-4
        assert np.log2(r1 / r2) > 1.6


class TestTailClassification:
    def test_threshold_value(self):
        v = q_tail_classify(ClosedFormSolution(2.0), q=8.0)
        assert np.isclose(v.threshold, 2.0 / (1.0 - 1.0 / np.sqrt(2.0)))

    def test_convergent_above_threshold(self):
        v = q_tail_classify(ClosedFormSolution(2.0), q=8.0)
        assert v.verdict == "CONVERGENT"

    def test_divergent_at_two(self):
        v = q_tail_classify(ClosedFormSolution(2.0), q=2.0)
        assert v.verdict == "DIVERGENT"
        # increments grow like R^{2 eps}
        ratios = v.increments[3:] / v.increments[2:-1]
        assert np.allclose(ratios, 2.0 ** (2 * epsilon(2.0)), rtol=0.05)

    def test_at_threshold_flagged(self):
        par = ClosedFormSolution(2.0)
        thr = 2.0 / (1.0 - epsilon(2.0))
        v = q_tail_classify(par, q=thr)
        assert v.flagged_critical
        assert v.verdict in ("INCONCLUSIVE", "DIVERGENT")

    def test_single_flip_across_ladder(self):
        par = ClosedFormSolution(2.0)
        verdicts = [q_tail_classify(par, q=q).verdict for q in (2, 3, 5, 6.5, 7, 8)]
        definite = [v for v in verdicts if v != "INCONCLUSIVE"]
        flips = sum(a != b for a, b in zip(definite, definite[1:]))
        assert flips == 1
        assert definite[0] == "DIVERGENT" and definite[-1] == "CONVERGENT"

    def test_q_validation(self):
        with pytest.raises(ValueError):
            q_tail_classify(ClosedFormSolution(2.0), q=1.0)

