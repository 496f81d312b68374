import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import ReferenceSystem

from stokes_lab import annulus
from stokes_lab.annulus import (
    VariationalProblem,
    _cartesian_stencil,
    _comparison_solver,
    _force_vector,
    _grad_q_norm,
    _polar_stencil,
    _rotation_equivariant,
    _Stiffness,
    _stiffness_apply,
    bump_force,
    contraction_solve,
    decay_exponent_fit,
    energy_identity_residual,
    energy_profiles,
    growth_monotonicity_check,
    net_traction_discrete,
    solve_annulus,
)
from stokes_lab.degiorgi import (
    CounterexampleParams,
    closed_form,
    degiorgi_tensor,
    epsilon,
    restricted_tensor,
)
from stokes_lab.errors import (
    BoundsViolated,
    NotContracting,
    RadiusOutOfGrid,
    SolverDiverged,
)
from stokes_lab.kelvin import FundamentalSolution
from stokes_lab.polar import DiscreteField, PolarGrid, relative_l2_error
from stokes_lab.tensors import (
    ID_LIN,
    ElasticityField,
    IsotropicModuli,
    constant_field,
    gamma_exponent,
    random_scalar_field,
    scalar_field,
    tabulated_scalar_field,
)

ISO = IsotropicModuli(1.0, 1.0)


def ring_data(func):
    def data(th):
        return func(np.stack([np.cos(th), np.sin(th)], axis=-1))

    return data


def outer_ring_data(func, rmax):
    def data(th):
        return func(np.stack([rmax * np.cos(th), rmax * np.sin(th)], axis=-1))

    return data


def degiorgi_problem(xi, rmax, coef=(1.0, -1.0)):
    sol = closed_form(CounterexampleParams(xi, *coef))
    prob = VariationalProblem(
        field=degiorgi_tensor(xi),
        inner_data=ring_data(sol.displacement) if coef != (1.0, -1.0) else None,
        outer_kind="dirichlet",
        outer_data=outer_ring_data(sol.displacement, rmax),
    )
    return sol, prob


class TestPolarGrid:
    def test_grading_invariants(self):
        g = PolarGrid(64.0, 64, 128)
        assert np.all(np.diff(g.radii) > 0)
        assert 1.0 <= g.ratio <= 1.2
        assert np.isclose(g.radii[0], 1.0) and np.isclose(g.radii[-1], 64.0)

    def test_grading_rejected_when_too_aggressive(self):
        with pytest.raises(ValueError):
            PolarGrid(64.0, 16, 64)  # ratio 64^(1/15) = 1.32 > 1.2

    def test_quadrature_measures_area(self):
        g = PolarGrid(16.0, 48, 96)
        assert np.isclose(g.qp_weights.sum(), np.pi * (16.0**2 - 1.0), rtol=1e-12)

    def test_ring_gradient_second_order(self):
        def u(p):
            return np.stack([np.sin(p[..., 0]), p[..., 0] * p[..., 1] ** 2], axis=-1)

        def grad_u(p):
            x, y = p[..., 0], p[..., 1]
            g = np.zeros(p.shape[:-1] + (2, 2))
            g[..., 0, 0] = np.cos(x)
            g[..., 1, 0] = y**2
            g[..., 1, 1] = 2 * x * y
            return g

        errs = []
        for n in (32, 64, 128):
            g = PolarGrid(8.0, n, 2 * n)
            f = DiscreteField.sample(g, u)
            pts = np.stack(
                [g.radii[0] * np.cos(g.thetas), g.radii[0] * np.sin(g.thetas)], axis=-1
            )
            errs.append(np.abs(g.ring_gradient(f.values, 0) - grad_u(pts)).max())
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o > 1.6 for o in orders)

    def test_field_validation(self):
        g = PolarGrid(8.0, 16, 32)
        with pytest.raises(ValueError):
            DiscreteField(g, np.zeros((3, 3, 2)))
        bad = np.zeros((16, 32, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            DiscreteField(g, bad)


class TestAssembly:
    def test_matches_cellwise_reference(self):
        """The stiffness stencil, applied to every unit vector, against the
        per-cell, per-Gauss-point sum of w d_k N_a C_mkhl d_l N_b.  For the
        equivariant materials the one-column polar stencil, broadcast over
        theta, too: against P^T K P with P the block diagonal of the
        rotations R(theta_j) of the nodes."""
        grid = PolarGrid(2.0, 8, 16)
        c, s = np.cos(grid.thetas), np.sin(grid.thetas)
        rotations = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        P = block_diag(*np.tile(rotations, (grid.n_r, 1, 1)))
        pts = grid.qp_points
        rng = np.random.default_rng(3)
        materials = {
            "degiorgi-sym": degiorgi_tensor(2.0)(pts),
            "degiorgi-lin": degiorgi_tensor(2.0, action_on="lin")(pts),
            "random-scalar": (1.0 + rng.random(pts.shape[:-1]))[..., None, None, None, None]
            * ID_LIN,
        }
        for name, action in materials.items():
            ref = np.zeros((2 * grid.n_nodes, 2 * grid.n_nodes))
            for c, nodes in enumerate(grid.cells):
                for q in range(grid.qp_weights.shape[1]):
                    grad = grid.qp_shape_gradients[c, q]        # (4, 2): d_k N_a
                    ke = grid.qp_weights[c, q] * np.einsum(
                        "ak,mkhl,bl->ambh", grad, action[c, q], grad
                    )
                    for a in range(4):
                        for b in range(4):
                            ref[2 * nodes[a]:2 * nodes[a] + 2,
                                2 * nodes[b]:2 * nodes[b] + 2] += ke[a, :, b, :]
            S = _cartesian_stencil(grid, action)
            units = np.eye(2 * grid.n_nodes).reshape(-1, grid.n_r, grid.n_theta, 2)
            K = np.stack([_stiffness_apply(S, e).ravel() for e in units], axis=1)
            assert np.abs(K - ref).max() <= 1e-14 * np.abs(ref).max(), name
            if name.startswith("degiorgi"):
                S = _polar_stencil(grid, action[:: grid.n_theta])
                assert S.shape[-1] == 1
                K = np.stack([_stiffness_apply(S, e).ravel() for e in units], axis=1)
                polar_ref = P.T @ ref @ P
                assert np.abs(K - polar_ref).max() <= 1e-14 * np.abs(polar_ref).max(), name

    @pytest.mark.parametrize("kind", ["dirichlet", "traction_free"])
    def test_reduced_system_matches_mask_formula(self, kind):
        """The stencil rows of the free rings and the right-hand side held by
        _Stiffness give the K_ff x and rhs of the boolean-mask selection on
        the scattered matrix written out here, for a theta-dependent material
        with inner data, outer data and a force."""
        grid = PolarGrid(16.0, 24, 48)
        rng = np.random.default_rng(11)
        prob = VariationalProblem(
            field=random_scalar_field(1.0, 2.0, rng),
            inner_data=rng.normal(size=(grid.n_theta, 2)),
            outer_kind=kind,
            outer_data=rng.normal(size=(grid.n_theta, 2)),
            force=bump_force(rng.normal(size=4), 16.0),
        )
        stiffness = _Stiffness(prob, grid)
        K_f, rhs, u, last = stiffness.K_f, stiffness.rhs, stiffness.u, stiffness.last

        fixed = np.zeros(2 * grid.n_nodes, dtype=bool)
        ref_vals = np.zeros(2 * grid.n_nodes)
        rings = [(0, prob.inner_data)]
        if kind == "dirichlet":
            rings.append((grid.n_r - 1, prob.outer_data))
        for ring, data in rings:
            ids = grid.node_id(ring, np.arange(grid.n_theta))
            fixed[2 * ids] = fixed[2 * ids + 1] = True
            ref_vals[2 * ids] = data[:, 0]
            ref_vals[2 * ids + 1] = data[:, 1]
        ref = ReferenceSystem(prob, grid)
        K_mask = ref.K[~fixed]
        ref_rhs = _force_vector(grid, prob.force)[~fixed] - K_mask[:, fixed] @ ref_vals[fixed]
        x = rng.normal(size=rhs.shape)
        ref_Kx = K_mask[:, ~fixed] @ x.ravel()

        assert np.array_equal(np.arange(2 * grid.n_nodes)[ref.free], np.nonzero(~fixed)[0])
        assert last == (grid.n_r - 2 if kind == "dirichlet" else grid.n_r - 1)
        assert np.array_equal(u.ravel(), ref_vals)
        assert np.abs(rhs.ravel() - ref_rhs).max() <= 1e-13 * np.abs(ref_rhs).max()
        Kx = _stiffness_apply(K_f, x).ravel()
        assert np.abs(Kx - ref_Kx).max() <= 1e-13 * np.abs(ref_Kx).max()


class TestComparisonSolve:
    """The FFT-in-theta inverse of the C0 = scale * Id_Lin stiffness."""

    @pytest.mark.parametrize("kind", ["dirichlet", "traction_free"])
    @pytest.mark.parametrize("nr, nt", [(24, 48), (48, 96), (24, 40)])
    def test_matches_superlu(self, nr, nt, kind):
        grid = PolarGrid(16.0, nr, nt)
        prob = VariationalProblem(field=constant_field(ISO.tensor()), outer_kind=kind)
        c0 = np.broadcast_to(1.7 * ID_LIN, grid.qp_points.shape[:-1] + (2, 2, 2, 2))
        reference = ReferenceSystem(prob, grid, c0)
        last = grid.n_r - 2 if kind == "dirichlet" else grid.n_r - 1
        green0 = _comparison_solver(grid, last, 1.7)
        rng = np.random.default_rng(nr + nt)
        for _ in range(3):
            b = rng.normal(size=(last, nt, 2))
            ref = reference.solve(b.ravel())
            assert np.abs(green0(b).ravel() - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSolveAnnulus:
    def test_zero_data_zero_field(self):
        grid = PolarGrid(16.0, 24, 48)
        prob = VariationalProblem(field=constant_field(ISO.tensor()))
        u = solve_annulus(prob, grid)
        assert np.abs(u.values).max() < 1e-14

    def test_kelvin_trace_oracle_with_convergence(self):
        fs = FundamentalSolution.isotropic(ISO)
        x_in = np.array([0.3, 0.2])
        e1 = np.array([1.0, 0.0])

        def exact(p):
            return fs(np.asarray(p) - x_in) @ e1

        errs = []
        for nr, nt in ((32, 64), (64, 128)):
            grid = PolarGrid(64.0, nr, nt)
            prob = VariationalProblem(
                field=constant_field(ISO.tensor()),
                inner_data=ring_data(exact),
                outer_data=outer_ring_data(exact, 64.0),
            )
            u = solve_annulus(prob, grid)
            ex = DiscreteField.sample(grid, exact)
            errs.append(np.abs(u.values - ex.values).max() / np.abs(ex.values).max())
        assert errs[-1] <= 1e-3
        assert 1.7 <= np.log2(errs[0] / errs[1]) <= 2.3

    def test_degiorgi_oracle(self):
        sol, prob = degiorgi_problem(2.0, 64.0)
        grid = PolarGrid(64.0, 64, 128)
        u = solve_annulus(prob, grid)
        exact = DiscreteField.sample(grid, sol.displacement)
        assert relative_l2_error(u, exact) <= 1e-3

    def test_minimization_property(self):
        sol, prob = degiorgi_problem(2.0, 16.0)
        grid = PolarGrid(16.0, 32, 64)
        u = solve_annulus(prob, grid)
        action = prob.field(grid.qp_points)

        def energy(f):
            g = f.gradient_at_qp()
            return float(np.sum(grid.qp_weights * np.einsum("cqmk,cqmkhl,cqhl->cq", g, action, g)))

        e0 = energy(u)
        rng = np.random.default_rng(0)
        for _ in range(5):
            pert = rng.normal(size=u.values.shape) * 0.05
            pert[0] = 0.0
            pert[-1] = 0.0  # keep the comparison field admissible
            assert energy(DiscreteField(grid, u.values + pert)) >= e0 - 1e-12 * abs(e0)

    def test_bounds_violation_detected(self):
        fld = constant_field(ISO.tensor())
        fld.mue = 3.0  # falsified certificate
        prob = VariationalProblem(field=fld)
        with pytest.raises(BoundsViolated):
            solve_annulus(prob, PolarGrid(8.0, 16, 32))

    def test_force_support_enforced(self):
        prob = VariationalProblem(
            field=constant_field(ISO.tensor()),
            force=lambda p: np.ones(np.asarray(p).shape),
        )
        for solve in (solve_annulus, contraction_solve):
            with pytest.raises(ValueError, match="r_max / 2"):
                solve(prob, PolarGrid(8.0, 16, 32))

    @pytest.mark.parametrize("data, match", [
        ({"outer_data": lambda th: np.stack([np.cos(th), np.sin(th)])},
         r"outer boundary data must have shape .* got \(2, 32\)"),
        ({"inner_data": lambda th: np.full((th.size, 2), np.nan)},
         "inner boundary data must be finite"),
        ({"outer_data": np.full((32, 2), np.inf)}, "outer boundary data must be finite"),
    ], ids=["transposed-callable", "nan-callable", "inf-array"])
    def test_boundary_data_validated(self, data, match):
        """Callable data are checked like array data: a (2, n_theta) result is
        not reshaped into a scrambled ring, and non-finite data are a
        ValueError naming the ring, not a diverged solve."""
        prob = VariationalProblem(field=constant_field(ISO.tensor()), **data)
        for solve in (solve_annulus, contraction_solve):
            with pytest.raises(ValueError, match=match):
                solve(prob, PolarGrid(8.0, 16, 32))

    def test_singular_system_diverges(self, annulus_calls):
        """Both solve paths: a zero material is rotation-equivariant (Fourier
        path); one that is zero on a quadrant only is not, and the free DOFs
        inside that quadrant have no stiffness (conjugate-gradient path,
        which would converge there and return a wrong field)."""
        stiffness_builds = annulus_calls("_cartesian_stencil")

        def zero(p):
            return np.zeros(np.asarray(p).shape[:-1] + (2, 2, 2, 2))

        def zero_quadrant(p):
            p = np.asarray(p)
            keep = ~((p[..., 0] > 0) & (p[..., 1] > 0))
            return keep[..., None, None, None, None] * ISO.tensor().c

        def data(th):
            return np.stack([np.cos(th), 0 * th], -1)

        for action, n_builds, message in ((zero, 0, "angular mode"),
                                          (zero_quadrant, 1, "196 of 896 free DOFs")):
            stiffness_builds.clear()
            fld = ElasticityField(action=action, mu0=1.0, mue=1.0)
            prob = VariationalProblem(field=fld, outer_data=data)
            with pytest.raises(SolverDiverged, match=message):
                solve_annulus(prob, PolarGrid(8.0, 16, 32), check_bounds=False)
            assert len(stiffness_builds) == n_builds


def radial_scalar_field():
    return scalar_field(
        lambda p: 1.5 + 0.5 * np.tanh(np.linalg.norm(p, axis=-1) - 4.0), 1.0, 2.0, name="radial"
    )


def perturbed_counterexample(grid):
    """The Lin counter-example tensor scaled by 1 + 1e-9 in one theta-column
    of the grid's cells: a material that is not rotation-equivariant."""
    base = degiorgi_tensor(2.0, "lin")
    lo, hi = grid.thetas[5], grid.thetas[6]

    def perturbed(p):
        a = base.action(p)
        th = np.mod(np.arctan2(p[..., 1], p[..., 0]), 2 * np.pi)
        a[(th > lo) & (th < hi)] *= 1.0 + 1e-9
        return a

    return ElasticityField(action=perturbed, mu0=base.mu0, mue=base.mue, name="perturbed")


class TestFourierSolve:
    """solve_annulus on rotation-equivariant materials: one real FFT in theta
    and a 2x2 block-tridiagonal sweep per angular mode, against SuperLU on
    the assembled reduced system."""

    MATERIALS = {
        "degiorgi-sym": lambda: degiorgi_tensor(2.0),
        "degiorgi-lin": lambda: degiorgi_tensor(2.0, "lin"),
        "isotropic": lambda: constant_field(ISO.tensor()),
        "restricted": lambda: restricted_tensor(6.0, 2.0, 8.0),
        "radial-scalar": radial_scalar_field,
    }

    @pytest.mark.parametrize("material", sorted(MATERIALS))
    @pytest.mark.parametrize("kind", ["dirichlet", "traction_free"])
    @pytest.mark.parametrize("nr, nt", [(24, 48), (48, 96), (24, 40)])
    def test_matches_superlu(self, nr, nt, kind, material, annulus_calls):
        stiffness_builds = annulus_calls("_cartesian_stencil")
        grid = PolarGrid(16.0, nr, nt)
        rng = np.random.default_rng(nr + nt)
        prob = VariationalProblem(
            field=self.MATERIALS[material](),
            inner_data=rng.normal(size=(nt, 2)),
            outer_kind=kind,
            outer_data=rng.normal(size=(nt, 2)),
            force=bump_force(rng.normal(size=4), 16.0),
        )
        u = solve_annulus(prob, grid, check_bounds=False)
        assert stiffness_builds == []

        ref = ReferenceSystem(prob, grid).nodal()
        assert np.abs(u.flat() - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_path_choice(self, annulus_calls):
        """Equivariant materials never build the Cartesian stiffness; a
        theta-dependent one, or the counter-example perturbed in one
        theta-column of cells by 1e-9, builds it exactly once, for conjugate
        gradients."""
        stiffness_builds = annulus_calls("_cartesian_stencil")
        grid = PolarGrid(16.0, 24, 48)
        cases = [(f(), 0) for f in TestFourierSolve.MATERIALS.values()]
        cases += [
            (random_scalar_field(1.0, 2.0, np.random.default_rng(3)), 1),
            (perturbed_counterexample(grid), 1),
        ]
        for fld, n_builds in cases:
            stiffness_builds.clear()
            assert _rotation_equivariant(grid, fld(grid.qp_points)) == (n_builds == 0)
            prob = VariationalProblem(field=fld, force=bump_force([1.0, 0.5, -0.3, 0.2], 16.0))
            solve_annulus(prob, grid, check_bounds=False)
            assert len(stiffness_builds) == n_builds, fld.name


def table_field(rng):
    """A tabulated scalar stiffness with 100 samples in [1, 1.5] on r < 16."""
    n = 100
    return tabulated_scalar_field(rng.uniform(1.0, 16.0, n), rng.uniform(0.0, 2 * np.pi, n),
                                  rng.uniform(1.0, 1.5, n))


class TestConjugateGradients:
    """solve_annulus on materials that depend on theta: conjugate gradients on
    the stiffness stencil, preconditioned by the Fourier solve of the
    theta-averaged material, against SuperLU on the assembled reduced system."""

    MATERIALS = {
        "random-scalar": lambda grid, rng: random_scalar_field(1.0, 2.0, rng),
        "table": lambda grid, rng: table_field(rng),
        "perturbed": lambda grid, rng: perturbed_counterexample(grid),
    }

    @pytest.mark.parametrize("material", sorted(MATERIALS))
    @pytest.mark.parametrize("kind", ["dirichlet", "traction_free"])
    @pytest.mark.parametrize("nr, nt", [(24, 48), (48, 96)])
    def test_matches_superlu(self, nr, nt, kind, material, annulus_calls):
        stiffness_builds = annulus_calls("_cartesian_stencil")
        grid = PolarGrid(16.0, nr, nt)
        rng = np.random.default_rng(nr + nt)
        prob = VariationalProblem(
            field=self.MATERIALS[material](grid, rng),
            inner_data=rng.normal(size=(nt, 2)),
            outer_kind=kind,
            outer_data=rng.normal(size=(nt, 2)),
            force=bump_force(rng.normal(size=4), 16.0),
        )
        u = solve_annulus(prob, grid, check_bounds=False)
        assert len(stiffness_builds) == 1

        ref = ReferenceSystem(prob, grid).nodal()
        assert np.abs(u.flat() - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_iteration_cap_diverges(self, monkeypatch):
        grid = PolarGrid(16.0, 24, 48)
        prob = VariationalProblem(field=random_scalar_field(1.0, 2.0, np.random.default_rng(3)),
                                  force=bump_force([1.0, 0.5, -0.3, 0.2], 16.0))
        monkeypatch.setattr(annulus, "_PCG_MAX_ITER", 3)
        with pytest.raises(SolverDiverged, match="in 3 steps"):
            solve_annulus(prob, grid, check_bounds=False)

    def test_indefinite_material_breaks_down(self):
        """Positive stiffness diagonals pass the singular guard, but coupling
        d_1 u_1 to d_2 u_2 by 3 makes the material indefinite."""

        def action(p):
            c = ID_LIN.copy()
            c[0, 0, 1, 1] = c[1, 1, 0, 0] = 3.0
            th = np.arctan2(p[..., 1], p[..., 0])
            return (1.5 + 0.5 * np.cos(th))[..., None, None, None, None] * c

        prob = VariationalProblem(field=ElasticityField(action=action, mu0=1.0, mue=1.0),
                                  force=bump_force([1.0, 0.5, -0.3, 0.2], 16.0))
        with pytest.raises(SolverDiverged, match="broke down"):
            solve_annulus(prob, PolarGrid(16.0, 24, 48), check_bounds=False)


class TestEnergyProfiles:
    def test_zero_field(self):
        grid = PolarGrid(8.0, 16, 32)
        prof = energy_profiles(DiscreteField.zeros(grid))
        assert prof.total == 0.0
        assert np.abs(prof.G).max() == 0.0 and np.abs(prof.Q).max() == 0.0

    def test_partition_identity(self):
        grid = PolarGrid(64.0, 48, 96)
        dec = closed_form(CounterexampleParams(2.0, 0.0, 1.0))
        prof = energy_profiles(DiscreteField.sample(grid, dec.displacement))
        assert np.abs(prof.G + prof.Q - prof.total).max() < 1e-12 * prof.total
        assert np.all(np.diff(prof.G) >= -1e-15)
        assert np.all(np.diff(prof.Q) <= 1e-15)

    def test_tail_matches_radial_oracle(self):
        """Q(R) ~ R^(-2 eps) for the decaying branch, against exact quadrature."""
        xi = 2.0
        eps = epsilon(xi)
        grid = PolarGrid(64.0, 128, 256)
        dec = closed_form(CounterexampleParams(xi, 0.0, 1.0))
        prof = energy_profiles(DiscreteField.sample(grid, dec.displacement))
        for R in (4.0, 8.0, 16.0):
            k = grid.nearest_ring(R)
            Rk = grid.radii[k]
            q_oracle = (
                2 * np.pi * ((1 + eps**2) + (1 - eps) ** 2)
                * (Rk ** (-2 * eps) - 64.0 ** (-2 * eps)) / (2 * eps)
            )
            assert abs(prof.Q[k] - q_oracle) <= 0.01 * q_oracle

    def test_exterior_variant_ratio_bounded(self):
        """Decaying fields also satisfy the boundary-free exterior bound
        int_{r>2R} |grad u|^2 <= c R^-2 int_{T_R} |u|^2 with stable c."""
        dec, _ = degiorgi_problem(2.0, 64.0, coef=(0.0, 1.0))
        grid = PolarGrid(64.0, 96, 192)
        u = DiscreteField.sample(grid, dec.displacement)
        g = u.gradient_at_qp()
        grad_sq = np.sum(g * g, axis=(-2, -1))
        vals_sq = np.sum(u.values_at_qp() ** 2, axis=-1)
        ring_grad = (np.sum(grad_sq * grid.qp_weights, axis=-1)
                     .reshape(grid.n_r - 1, grid.n_theta).sum(axis=1))
        ring_vals = (np.sum(vals_sq * grid.qp_weights, axis=-1)
                     .reshape(grid.n_r - 1, grid.n_theta).sum(axis=1))
        ratios = []
        for R in (4.0, 8.0, 16.0):
            kR = grid.nearest_ring(R)
            k2R = grid.nearest_ring(2.0 * R)
            lhs = ring_grad[k2R:].sum()
            rhs = ring_vals[kR:k2R].sum() / grid.radii[kR] ** 2
            ratios.append(lhs / rhs)
        assert max(ratios) / min(ratios) < 2.0


class TestGrowthMonotonicity:
    def test_decaying_branch_tail_holds(self):
        xi = 2.0
        gam = gamma_exponent(1.0, 1.0 + 4.0 / xi**2)
        grid = PolarGrid(64.0, 128, 256)
        dec = closed_form(CounterexampleParams(xi, 0.0, 1.0))
        rep = growth_monotonicity_check(energy_profiles(DiscreteField.sample(grid, dec.displacement)), gam)
        assert rep.worst_q_violation <= 0.01

    def test_vanishing_branch_interior_holds(self):
        xi = 2.0
        gam = gamma_exponent(1.0, 1.0 + 4.0 / xi**2)
        grid = PolarGrid(64.0, 128, 256)
        grow = closed_form(CounterexampleParams(xi, 1.0, -1.0))
        rep = growth_monotonicity_check(energy_profiles(DiscreteField.sample(grid, grow.displacement)), gam)
        assert rep.worst_g_violation <= 0.01

    def test_decaying_branch_interior_fails(self):
        """The interior monotonicity provably fails for the decaying branch
        (its hypothesis class excludes it); the report must expose that."""
        xi = 2.0
        gam = gamma_exponent(1.0, 1.0 + 4.0 / xi**2)
        grid = PolarGrid(64.0, 128, 256)
        dec = closed_form(CounterexampleParams(xi, 0.0, 1.0))
        rep = growth_monotonicity_check(energy_profiles(DiscreteField.sample(grid, dec.displacement)), gam)
        assert rep.worst_g_violation > 0.05

    def test_constant_field_degenerate(self):
        grid = PolarGrid(8.0, 16, 32)
        rep = growth_monotonicity_check(
            energy_profiles(DiscreteField(grid, np.ones((16, 32, 2)))), 0.2
        )
        assert rep.degenerate

    def test_random_isotropic_growth(self):
        """Zero inner data, random outer data: interior growth at rate gamma."""
        gam = gamma_exponent(*ISO.tensor().bounds)
        rng = np.random.default_rng(4)
        grid = PolarGrid(64.0, 48, 96)
        for _ in range(3):
            coef = rng.normal(size=(3, 4))

            def outer(th):
                u = np.zeros((th.size, 2))
                for k in range(3):
                    u[:, 0] += coef[k, 0] * np.cos((k + 1) * th) + coef[k, 1] * np.sin((k + 1) * th)
                    u[:, 1] += coef[k, 2] * np.cos((k + 1) * th) + coef[k, 3] * np.sin((k + 1) * th)
                return u

            prob = VariationalProblem(field=constant_field(ISO.tensor()), outer_data=outer)
            u = solve_annulus(prob, grid)
            rep = growth_monotonicity_check(energy_profiles(u), gam)
            assert rep.worst_g_violation <= 0.01


class TestEnergyIdentity:
    def test_zero_field(self):
        grid = PolarGrid(16.0, 24, 48)
        prob = VariationalProblem(field=constant_field(ISO.tensor()))
        u = solve_annulus(prob, grid)
        assert energy_identity_residual(u, prob, 8.0) < 1e-10

    def test_degiorgi_residual_and_order(self):
        xi = 2.0
        dec = closed_form(CounterexampleParams(xi, 0.0, 1.0))
        prob = VariationalProblem(field=degiorgi_tensor(xi), inner_data=ring_data(dec.displacement))
        res = []
        for nr, nt in ((64, 128), (128, 256)):
            grid = PolarGrid(64.0, nr, nt)
            u = DiscreteField.sample(grid, dec.displacement)
            res.append(energy_identity_residual(u, prob, 16.0))
        assert res[0] <= 0.01
        assert np.log2(res[0] / res[1]) > 1.5

    def test_kelvin_solution_residual(self):
        fs = FundamentalSolution.isotropic(ISO)

        def exact(p):
            return fs(np.asarray(p) - np.array([0.3, 0.2])) @ np.array([1.0, 0.0])

        grid = PolarGrid(64.0, 128, 256)
        prob = VariationalProblem(
            field=constant_field(ISO.tensor()),
            inner_data=ring_data(exact),
            outer_data=outer_ring_data(exact, 64.0),
        )
        u = solve_annulus(prob, grid)
        assert energy_identity_residual(u, prob, 16.0) <= 0.01

    def test_radius_below_first_ring(self):
        grid = PolarGrid(16.0, 24, 48)
        prob = VariationalProblem(field=constant_field(ISO.tensor()))
        with pytest.raises(RadiusOutOfGrid):
            energy_identity_residual(DiscreteField.zeros(grid), prob, 1.0)


class TestNetTraction:
    def test_decaying_branch_vanishes(self):
        dec, prob = degiorgi_problem(2.0, 64.0, coef=(0.0, 1.0))
        grid = PolarGrid(64.0, 96, 192)
        u = DiscreteField.sample(grid, dec.displacement)
        t = net_traction_discrete(u, prob)
        scale = np.abs(u.values).max()
        assert np.abs(t).max() <= 1e-6 * scale

    def test_flux_conserved_between_radii(self):
        dec, prob = degiorgi_problem(2.0, 64.0, coef=(0.0, 1.0))
        grid = PolarGrid(64.0, 96, 192)
        u = DiscreteField.sample(grid, dec.displacement)
        t1 = net_traction_discrete(u, prob, radius=4.0)
        t2 = net_traction_discrete(u, prob, radius=16.0)
        assert np.abs(t1 - t2).max() <= 1e-6 * max(np.abs(u.values).max(), 1.0)

    def test_growing_branch_nets_zero_by_symmetry(self):
        """Angular symmetry nets the energy-infinite branch to zero as well:
        net traction alone does not separate the two radial branches."""
        from stokes_lab.annulus import _ring_traction_data

        grow, prob = degiorgi_problem(2.0, 64.0, coef=(1.0, 0.0))
        grid = PolarGrid(64.0, 96, 192)
        u = DiscreteField.sample(grid, grow.displacement)
        t = net_traction_discrete(u, prob)
        assert np.abs(t).max() <= 1e-10 * np.abs(u.values).max()
        # the pointwise radial traction is nonetheless far from zero
        _, _, stress = _ring_traction_data(u, prob, 0)
        assert np.abs(stress).max() > 0.1

    def test_log_field_cross_module(self):
        """The log-growing obstruction field carries its density total as flux."""
        from stokes_lab import bem
        from stokes_lab.curves import BoundaryCurve

        curve = BoundaryCurve.circle(1.0, n=256)
        op = bem.assemble_single_layer(curve, ISO)
        basis = bem.equilibrium_basis(op)
        h = bem.m_space_representative(op, basis.psi[0])

        # sample on an annulus held off the body (layer evaluation is
        # singular on the curve itself)
        grid = PolarGrid(64.0, 96, 192, r_min=1.5)
        u = DiscreteField.sample(grid, h)
        prob = VariationalProblem(field=constant_field(ISO.tensor()))
        t = net_traction_discrete(u, prob, radius=8.0)
        expect = h.net_traction
        assert np.abs(t - expect).max() <= 0.02 * np.linalg.norm(expect)


class TestDecayFit:
    @pytest.mark.parametrize("xi", [1.0, 2.0, 4.0])
    def test_degiorgi_exponent(self, xi):
        grid = PolarGrid(128.0, 128, 256)
        dec = closed_form(CounterexampleParams(xi, 0.0, 1.0))
        fit = decay_exponent_fit(DiscreteField.sample(grid, dec.displacement))
        assert abs(fit.alpha - epsilon(xi)) <= 0.02
        assert not fit.poor_fit

    def test_exact_power_law(self):
        grid = PolarGrid(128.0, 96, 192)
        kappa = np.array([3.0, -1.0])

        def f(p):
            r2 = np.sum(np.asarray(p) ** 2, axis=-1)
            return kappa + np.asarray(p) / r2[..., None]

        fit = decay_exponent_fit(DiscreteField.sample(grid, f))
        assert abs(fit.alpha - 1.0) <= 0.01
        assert np.abs(fit.u0 - kappa).max() <= 1e-3

    def test_poor_fit_flagged(self):
        grid = PolarGrid(128.0, 96, 192)
        rng = np.random.default_rng(0)

        def noisy(p):
            r = np.linalg.norm(np.asarray(p), axis=-1)
            wiggle = 1.0 + 0.9 * np.sin(3 * np.log(r))
            return (r**-0.5 * wiggle)[..., None] * np.stack(
                [np.ones_like(r), np.zeros_like(r)], axis=-1
            )

        fit = decay_exponent_fit(DiscreteField.sample(grid, noisy))
        assert fit.poor_fit

    def test_needs_five_radii(self):
        grid = PolarGrid(16.0, 32, 64)
        with pytest.raises(ValueError):
            decay_exponent_fit(DiscreteField(grid, np.ones((32, 64, 2))))

    def test_regular_at_infinity_upgrades_decay(self):
        """With an isotropic far field and a compactly supported perturbation
        near the hole, the fitted decay exponent climbs to ~1 (alpha >= 0.9).

        The inner data is projected off the rigid rotation: that zero-energy
        mode grows linearly, costs the truncated traction-free problem
        nothing, and is excluded from the finite-Dirichlet-integral class the
        decay statement lives in."""
        iso = ISO.tensor()

        def action(p):
            pts = np.asarray(p, dtype=float)
            r = np.linalg.norm(pts, axis=-1)
            e = pts / r[..., None]
            g = np.where(r < 4.0, np.cos(np.pi * (r - 1.0) / 6.0) ** 2, 0.0)
            p4 = np.einsum("...i,...j,...h,...k->...ijhk", e, e, e, e)
            return iso.c + 4.0 * g[..., None, None, None, None] * p4

        fld = ElasticityField(action=action, mu0=2.0, mue=8.0, c0=iso,
                              regular_at_infinity=True)
        assert np.abs(fld.check_limit_along_ray([1.0, 1.0], [5.0, 50.0])).max() < 1e-14

        rng = np.random.default_rng(1)
        grid = PolarGrid(128.0, 128, 256)
        coef = rng.normal(size=(3, 4))

        def inner(th):
            u = np.zeros((th.size, 2))
            for k in range(3):
                u[:, 0] += coef[k, 0] * np.cos((k + 1) * th) + coef[k, 1] * np.sin((k + 1) * th)
                u[:, 1] += coef[k, 2] * np.cos((k + 1) * th) + coef[k, 3] * np.sin((k + 1) * th)
            et = np.stack([-np.sin(th), np.cos(th)], axis=-1)
            return u - np.mean(np.sum(u * et, axis=-1)) * et

        prob = VariationalProblem(field=fld, inner_data=inner, outer_kind="traction_free")
        fit = decay_exponent_fit(solve_annulus(prob, grid))
        assert fit.alpha >= 0.9
        assert not fit.poor_fit

    def test_rotation_mode_grows_without_projection(self):
        """The same problem with a rotational datum component exhibits the
        linearly growing zero-energy mode; documents why the class matters."""
        grid = PolarGrid(64.0, 64, 128)
        prob = VariationalProblem(
            field=constant_field(ISO.tensor()),
            inner_data=lambda th: np.stack([-np.sin(th), np.cos(th)], axis=-1),
            outer_kind="traction_free",
        )
        u = solve_annulus(prob, grid)
        k1, k2 = grid.nearest_ring(4.0), grid.nearest_ring(32.0)
        m1 = u.max_over_ring(k1, offset=np.zeros(2))
        m2 = u.max_over_ring(k2, offset=np.zeros(2))
        ratio = (m2 / m1) / (grid.radii[k2] / grid.radii[k1])
        assert abs(ratio - 1.0) < 0.05  # amplitude ~ r: the rigid rotation


def smooth_force(rmax):
    def force(p):
        pts = np.asarray(p, dtype=float)
        r = np.linalg.norm(pts, axis=-1)
        th = np.arctan2(pts[..., 1], pts[..., 0])
        bump = np.exp(-((r - 5.0) / 2.0) ** 2) * (r < rmax / 2)
        return np.stack([bump * np.cos(3 * th), bump], axis=-1)

    return force


class TestContraction:
    def test_identity_contrast_one_step(self):
        grid = PolarGrid(32.0, 32, 64)
        fld = scalar_field(lambda p: np.full(p.shape[:-1], 2.0), 2.0, 2.0)
        prob = VariationalProblem(field=fld, force=smooth_force(32.0))
        u, rep = contraction_solve(prob, grid)
        assert rep.converged
        assert rep.n_contraction_steps == 1
        assert rep.factors[0] < 1e-10

    def test_degiorgi_low_contrast(self):
        xi = 6.0
        fld = restricted_tensor(xi, 2.0, 16.0)
        grid = PolarGrid(64.0, 48, 96)
        prob = VariationalProblem(field=fld, force=smooth_force(64.0))
        u_fix, rep = contraction_solve(prob, grid)
        assert rep.converged
        assert rep.worst_factor <= 0.35
        u_dir = solve_annulus(prob, grid, check_bounds=False)
        agree = np.abs(u_fix.values - u_dir.values).max() / np.abs(u_dir.values).max()
        assert agree <= 1e-4

    def test_random_smooth_contrast(self):
        fld = random_scalar_field(1.0, 1.2, np.random.default_rng(5))
        grid = PolarGrid(32.0, 32, 64)
        prob = VariationalProblem(field=fld, force=smooth_force(32.0))
        u, rep = contraction_solve(prob, grid)
        assert rep.converged
        assert rep.worst_factor <= 0.2 / 1.2 * 1.1 + 1e-12
        mid = rep.factors[1:-1]
        if mid.size >= 4:
            assert np.var(mid) <= 0.2 * np.mean(mid) ** 2

    def test_factors_stay_contractive_off_q_two(self):
        """The desk-scale factors remain below 1 for q near 2 on both sides;
        their relation to the exact operator norm is only observed, not
        proven, away from q = 2."""
        fld = restricted_tensor(6.0, 2.0, 16.0)
        grid = PolarGrid(32.0, 32, 64)
        prob = VariationalProblem(field=fld, force=smooth_force(32.0))
        for q in (1.5, 2.0, 3.0):
            _, rep = contraction_solve(prob, grid, q=q)
            assert rep.converged
            assert rep.worst_factor < 0.5, q

    def test_not_contracting_detected(self):
        """An indefinite material (certificate violated) must trip the guard."""
        fld = scalar_field(  # negative stiffness outside r = 4
            lambda p: np.where(np.linalg.norm(p, axis=-1) < 4.0, 1.0, -1.0), 0.1, 1.0
        )
        grid = PolarGrid(16.0, 24, 48)
        prob = VariationalProblem(field=fld, force=smooth_force(16.0))
        with pytest.raises(NotContracting):
            contraction_solve(prob, grid)

    def test_grad_norm_matches_cartesian_quadrature(self):
        grid = PolarGrid(16.0, 24, 48)
        values = np.random.default_rng(2).normal(size=(grid.n_r, grid.n_theta, 2))
        g = DiscreteField(grid, values).gradient_at_qp()
        mag = np.sqrt(np.sum(g * g, axis=(-2, -1)))
        for q in (1.5, 2.0, 3.0):
            ref = np.sum(grid.qp_weights * mag**q) ** (1.0 / q)
            assert abs(_grad_q_norm(grid, values.ravel(), q) - ref) <= 1e-13 * ref, q

    def test_factors_match_superlu_recursive_loop(self):
        """Acceptance 8's random material: the factors equal those of a
        fixed-point loop on SuperLU of the assembled C0 matrix that carries
        its residual, at every iteration."""
        grid = PolarGrid(64.0, 48, 96)
        rng = np.random.default_rng(17)
        fld = random_scalar_field(1.0, 1.25, rng)
        prob = VariationalProblem(field=fld, force=bump_force(rng.normal(size=4), 64.0))
        _, rep = contraction_solve(prob, grid)
        assert rep.converged

        heterogeneous = ReferenceSystem(prob, grid)
        c0 = np.broadcast_to(1.25 * ID_LIN, grid.qp_points.shape[:-1] + (2, 2, 2, 2))
        comparison = ReferenceSystem(prob, grid, c0)
        res = heterogeneous.rhs
        norms = []
        for _ in range(rep.n_iter):
            inc = comparison.solve(res)
            res = res - heterogeneous.K_ff @ inc
            full = np.zeros(2 * grid.n_nodes)
            full[heterogeneous.free] = inc
            g = DiscreteField(grid, full.reshape(grid.n_r, grid.n_theta, 2)).gradient_at_qp()
            norms.append(np.sqrt(np.sum(grid.qp_weights * np.sum(g * g, axis=(-2, -1)))))
        ref = np.asarray(norms[1:]) / np.asarray(norms[:-1])
        assert rep.factors.shape == ref.shape
        assert np.all(np.abs(rep.factors - ref) <= 1e-6 * ref)
