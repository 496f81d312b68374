import numpy as np
import pytest

from stokes_lab.curves import BoundaryCurve


class TestGeometry:
    @pytest.mark.parametrize(
        "curve",
        [
            BoundaryCurve.circle(1.0, n=64),
            BoundaryCurve.ellipse(2.0, 1.0, n=64),
            BoundaryCurve.rounded_square(1.0, 0.25, n=128),
        ],
        ids=["circle", "ellipse", "square"],
    )
    def test_normal_points_into_body(self, curve):
        """Hemicontinuity convention: stored normal is outward w.r.t. the
        exterior domain, so stepping along it must enter the body."""
        step = 0.05
        probe = curve.points + step * curve.normal
        assert curve.is_inside(probe).all()
        probe_out = curve.points - step * curve.normal
        assert not curve.is_inside(probe_out).any()

    def test_crossing_number_matches_pointwise_loop(self):
        """The blocked crossing-number test of rounded polygons gives the
        booleans of the per-point loop written out here."""
        rng = np.random.default_rng(11)
        for curve in (BoundaryCurve.rounded_square(1.0, 0.25, n=128),
                      BoundaryCurve.rounded_polygon([(0, 0), (2, 0), (0.5, 1.5)], 0.2, n=96)):
            x1 = curve.points
            x2 = np.roll(x1, -1, axis=0)
            pts = np.concatenate([rng.uniform(-1.5, 2.5, size=(3000, 2)), x1, 0.5 * (x1 + x2)])
            expect = np.zeros(pts.shape[0], dtype=bool)
            for k, p in enumerate(pts):
                cond = (x1[:, 1] <= p[1]) != (x2[:, 1] <= p[1])
                tpar = (p[1] - x1[:, 1]) / np.where(cond, x2[:, 1] - x1[:, 1], 1.0)
                xc = x1[:, 0] + tpar * (x2[:, 0] - x1[:, 0])
                expect[k] = (np.sum(cond & (xc > p[0])) % 2) == 1
            got = curve.is_inside(pts)
            assert np.array_equal(got, expect)
            assert 0 < got.sum() < got.size

    def test_normal_unit_and_orthogonal(self):
        c = BoundaryCurve.ellipse(2.0, 1.0, n=64)
        assert np.allclose(np.linalg.norm(c.normal, axis=1), 1.0)
        assert np.abs(np.einsum("ki,ki->k", c.normal, c.dpoints)).max() < 1e-12

    def test_circle_weights_sum_to_perimeter(self):
        c = BoundaryCurve.circle(2.5, n=128)
        assert np.isclose(c.perimeter, 2 * np.pi * 2.5)

    def test_ellipse_perimeter(self):
        c = BoundaryCurve.ellipse(2.0, 1.0, n=256)
        # Gauss-Kummer reference value for a=2, b=1
        assert np.isclose(c.perimeter, 9.688448220547675, rtol=1e-10)

    def test_ellipse_grad_f(self):
        a, b = 2.0, 1.0
        c = BoundaryCurve.ellipse(a, b, n=64)
        x = c.points
        gf = 2.0 * np.sqrt((x[:, 0] / a**2) ** 2 + (x[:, 1] / b**2) ** 2)
        assert np.allclose(c.grad_f_norm, gf)

    def test_square_constant_speed_and_perimeter(self):
        h, r = 1.0, 0.25
        c = BoundaryCurve.rounded_square(h, r, n=256)
        assert np.allclose(c.speed, c.speed[0])
        exact = 4 * (2 * h - 2 * r) + 2 * np.pi * r
        assert np.isclose(c.perimeter, exact, rtol=1e-12)

    def test_closure(self):
        c = BoundaryCurve.rounded_square(1.0, 0.2, n=128)
        gap = np.linalg.norm(c.points[0] - c.points[-1])
        assert gap < 2 * c.weights.max()

    def test_total_and_inner_product(self):
        c = BoundaryCurve.circle(1.0, n=64)
        ones = np.ones((64, 2))
        assert np.allclose(c.total(ones), [2 * np.pi, 2 * np.pi])
        assert np.isclose(c.inner_product(ones, ones), 4 * np.pi)

    def test_even_node_requirement(self):
        with pytest.raises(ValueError):
            BoundaryCurve.circle(1.0, n=63)
        with pytest.raises(ValueError):
            BoundaryCurve.circle(1.0, n=8)

    def test_rejects_nonconvex_or_oversized_rounding(self):
        with pytest.raises(ValueError):
            BoundaryCurve.rounded_polygon([(0, 0), (2, 0), (2, 2), (1, 0.5)], 0.1)
        with pytest.raises(ValueError):
            BoundaryCurve.rounded_square(1.0, 1.01)

    def test_inside_classification(self):
        for c in (BoundaryCurve.ellipse(2, 1, n=64), BoundaryCurve.rounded_square(1.0, 0.25, n=128)):
            assert c.is_inside(np.array([[0.0, 0.0]]))[0]
            assert not c.is_inside(np.array([[5.0, 5.0]]))[0]
