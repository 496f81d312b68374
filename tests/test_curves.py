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

    def test_inside_matches_crossing_number_of_fine_polygon(self):
        """The rounded square's exact inside rule gives the booleans of a
        crossing-number loop over its 4096-node polygon, at seeded points
        and at points 5e-3 off the nodes of a coarser curve, all more than
        1e-3 from the curve (the chords leave the arcs by under 2e-6)."""
        curve = BoundaryCurve.rounded_square(1.0, 0.25, n=128)
        x1 = BoundaryCurve.rounded_square(1.0, 0.25, n=4096).points
        x2 = np.roll(x1, -1, axis=0)
        # nodes at most 1.9e-3 apart: 2e-3 from all of them is 1e-3 from the curve
        pts = np.concatenate([np.random.default_rng(11).uniform(-1.5, 1.5, size=(3000, 2)),
                              curve.points + 5e-3 * curve.normal,
                              curve.points - 5e-3 * curve.normal])
        pts = pts[[np.hypot(*(x1 - p).T).min() > 2e-3 for p in pts]]
        expect = np.zeros(pts.shape[0], dtype=bool)
        for k, p in enumerate(pts):
            cond = (x1[:, 1] <= p[1]) != (x2[:, 1] <= p[1])
            tpar = (p[1] - x1[:, 1]) / np.where(cond, x2[:, 1] - x1[:, 1], 1.0)
            xc = x1[:, 0] + tpar * (x2[:, 0] - x1[:, 0])
            expect[k] = (np.sum(cond & (xc > p[0])) % 2) == 1
        got = curve.is_inside(pts)
        assert pts.shape[0] > 3000
        assert np.array_equal(got, expect)
        assert 0 < got.sum() < got.size

    @pytest.mark.parametrize("n", [64, 256])
    def test_square_nodes_quarter_turn_symmetric(self, n):
        """Node j + n/4 is node j turned by a quarter turn, bit for bit, and
        so is its derivative."""
        c = BoundaryCurve.rounded_square(1.0, 0.25, n=n)
        for v in (c.points, c.dpoints):
            turned = np.stack([-v[:, 1], v[:, 0]], axis=-1)
            assert np.array_equal(np.roll(v, -n // 4, axis=0), turned)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("h, rho", [(1.0, 0.25), (1.5, 0.4)])
    def test_square_nodes_on_curve(self, h, rho, n):
        """Nodes beyond the inner square [rho - h, h - rho]^2 in both
        coordinates lie at distance rho from their arc's centre; the others
        on a side, |x| = h or |y| = h; both to 1e-15 relative to h."""
        c = BoundaryCurve.rounded_square(h, rho, n=n)
        gap = np.abs(c.points) - (h - rho)
        on_arc = (gap > 0).all(axis=1)
        assert 0 < on_arc.sum() < n
        assert np.abs(np.hypot(*gap[on_arc].T) - rho).max() <= 1e-15 * h
        assert np.abs(np.abs(c.points[~on_arc]).max(axis=1) - h).max() <= 1e-15 * h
        # constant speed: consecutive nodes on one piece are one step of
        # arclength apart, a chord of that length on a side, of that arc on an arc
        step = c.speed[0] * 2.0 * np.pi / n
        chord = np.hypot(*(np.roll(c.points, -1, axis=0) - c.points).T)
        next_on_arc = np.roll(on_arc, -1)
        arc_chord = 2.0 * rho * np.sin(step / (2.0 * rho))
        assert np.abs(chord[on_arc & next_on_arc] - arc_chord).max() <= 1e-15 * h
        assert np.abs(chord[~on_arc & ~next_on_arc] - step).max() <= 1e-15 * h

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

    def test_rejects_oversized_rounding(self):
        with pytest.raises(ValueError, match="radius"):
            BoundaryCurve.rounded_square(1.0, 1.01)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("build", [
        lambda: BoundaryCurve.circle(1e-300, n=64),
        lambda: BoundaryCurve.circle(1e200, n=64),
        lambda: BoundaryCurve.rounded_square(1e-300, 1e-301, n=64),
        # |grad f| overflows (a warning) in the constructor, before the check
        pytest.param(lambda: BoundaryCurve.ellipse(1.0, 1e-200, n=64),
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ], ids=["tiny-circle", "huge-circle", "tiny-square", "flat-ellipse"])
    def test_rejects_scale_outside_float64(self, build):
        """A curve whose squared node chords or speeds underflow, or whose
        squared extent overflows, is refused before any speed or tangent is
        formed."""
        with pytest.raises(ValueError, match="float64"):
            build()

    def test_inside_classification(self):
        for c in (BoundaryCurve.ellipse(2, 1, n=64), BoundaryCurve.rounded_square(1.0, 0.25, n=128)):
            assert c.is_inside(np.array([[0.0, 0.0]]))[0]
            assert not c.is_inside(np.array([[5.0, 5.0]]))[0]
