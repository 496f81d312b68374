import dataclasses

import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import (
    ReferenceSystem,
    cell_nodes,
    closed_form_audit,
    degiorgi_problem,
    fourier_ring_data,
    kelvin_field,
)

from stokes_lab import annulus
from stokes_lab.annulus import (
    VariationalProblem,
    _block_thomas_factor,
    _block_thomas_solve,
    _cell_matrices,
    _force_vector,
    _fourier_inverse,
    _identity_stencil,
    _polar_frame,
    _polar_stencil,
    _ring_at,
    _rotations,
    _shape_products,
    _solve,
    _Stiffness,
    _stiffness_apply,
    _to_cartesian,
    _to_polar,
    bump_force,
    contraction_solve,
    decay_exponent_fit,
    energy_identity_residual,
    energy_profiles,
    growth_monotonicity_check,
    net_traction_discrete,
    oracle_ladder,
    solve_annulus,
)
from stokes_lab.degiorgi import (
    ClosedFormSolution,
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
from stokes_lab.polar import (
    DiscreteField,
    PolarGrid,
    corners,
    relative_l2_error,
    scatter_corners,
)
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


def random_problem(field, grid, kind, rng):
    """The problem on the material field with random data on both rings (the
    outer ones unread when traction-free) and a random bump force."""
    return VariationalProblem(field=field, inner_data=rng.normal(size=(grid.n_theta, 2)),
                              outer_kind=kind, outer_data=rng.normal(size=(grid.n_theta, 2)),
                              force=bump_force(rng.normal(size=4), grid.r_max))


def solve_unchecked(prob, grid):
    """solve_annulus without its spot-check of the declared bounds, for the
    materials that break them on purpose."""
    stiffness = _Stiffness(prob, grid)
    return stiffness.field(_solve(stiffness))


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
        assert np.isclose(g.n_theta * g.qp_weights.sum(), np.pi * (16.0**2 - 1.0), rtol=1e-12)

    def test_column_zero_shape_gradients_slice_the_whole_grid(self):
        """Theta-column 0's shape gradients, made without the whole grid's,
        are bit for bit the whole grid's in theta-column 0."""
        for g in (PolarGrid(16.0, 24, 48), PolarGrid(64.0, 128, 256)):
            assert np.array_equal(g.shape_gradients(1)[:, 0], g.shape_gradients(g.n_theta)[:, 0])

    def test_gauss_points_of_a_slice_are_the_whole_grid_slice(self):
        """Gauss points made for a slice of rings and of theta-columns, or for
        an index array of columns wrapping past n_theta - 1, are bit for bit
        that slice of the whole grid's; the spot-check sample is every k-th
        of the whole grid's in (ring, column, point) order."""
        for g in (PolarGrid(16.0, 24, 48), PolarGrid(64.0, 128, 256)):
            whole = g.gauss_points()
            assert whole.shape == (g.n_r - 1, g.n_theta, 4, 2)
            for rings in (slice(None), slice(0, 1), slice(3, 11), slice(g.n_r - 3, None)):
                for cols in (slice(None), slice(5, 13), np.arange(-1, 8) % g.n_theta):
                    assert np.array_equal(g.gauss_points(rings, cols), whole[rings][:, cols])
            flat = whole.reshape(-1, 2)
            for count in (1, 257, flat.shape[0] + 1):
                assert np.array_equal(g.qp_sample(count), flat[::max(flat.shape[0] // count, 1)])

    def test_node_points_of_a_ring_are_the_whole_grid_slice(self):
        """Node points made for one ring (first, last or a middle one) or a
        slice of rings are bit for bit that part of the whole grid's."""
        for g in (PolarGrid(16.0, 24, 48), PolarGrid(64.0, 128, 256)):
            whole = g.node_points()
            assert whole.shape == (g.n_r, g.n_theta, 2)
            for rings in (0, -1, g.n_r // 2, slice(3, 11)):
                assert np.array_equal(g.node_points(rings), whole[rings])

    @pytest.mark.parametrize("nt", [8, 40])
    def test_corner_gather_and_scatter(self, nt):
        """corners gathers nodal values as a node-id table of the cells'
        corners, (i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1) wrapping
        from theta-column n_theta - 1 to column 0, does; scatter_corners is
        its adjoint."""
        grid = PolarGrid(4.0, 12, nt)
        i, j = np.meshgrid(np.arange(grid.n_r - 1), np.arange(nt), indexing="ij")
        ids = np.stack([i * nt + j, (i + 1) * nt + j,
                        (i + 1) * nt + (j + 1) % nt, i * nt + (j + 1) % nt], axis=-1)
        assert np.array_equal(cell_nodes(grid), ids)
        rng = np.random.default_rng(nt)
        u = rng.normal(size=(grid.n_r, nt, 2))
        c = rng.normal(size=(grid.n_r - 1, nt, 4, 2))
        assert np.array_equal(corners(u), u.reshape(-1, 2)[ids])
        scale = np.vdot(np.abs(corners(u)), np.abs(c))
        assert abs(np.vdot(corners(u), c) - np.vdot(u, scatter_corners(c))) <= 1e-14 * scale

    @pytest.mark.parametrize("nt", [8, 40])
    def test_force_vector_matches_node_id_scatter(self, nt):
        """The load vector against the per-cell element loads summed into the
        flat ring-major DOFs through a node-id table by np.add.at."""
        grid = PolarGrid(16.0, 24, nt)
        force = bump_force([1.0, 0.5, -0.3, 0.2], 16.0)
        f_qp = force(grid.gauss_points()).reshape(-1, 4, 2)
        w = np.repeat(grid.qp_weights, nt, axis=0)
        fe = np.einsum("cq,qa,cqm->cam", w, grid.qp_shapes, f_qp)
        ref = np.zeros(2 * grid.n_r * nt)
        np.add.at(ref, (2 * cell_nodes(grid).reshape(-1, 4, 1) + np.arange(2)).ravel(), fe.ravel())
        b = _force_vector(grid, force)
        assert b.shape == (grid.n_r, nt, 2)
        assert np.abs(b.ravel() - ref).max() <= 1e-15 * np.abs(ref).max()

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


def stencil_columns(S):
    return S.shape[-1]


class TestAssembly:
    def test_matches_cellwise_reference(self):
        """The polar stencil of the material, applied to every unit vector,
        against P^T K P: K the per-cell, per-Gauss-point sum of
        w d_k N_a C_mkhl d_l N_b in Cartesian components, P the block
        diagonal of the rotations R(theta_j) of the nodes.  The equivariant
        materials give one column, the theta-dependent ones n_theta; at
        n_theta = 40 and 48 the last block of theta-columns is partial and
        wraps to column 0, and the counter-example perturbed in a late
        theta-column of cells is built again from block 0."""
        for nt in (16, 40, 48):
            grid = PolarGrid(2.0, 8, nt)
            P = block_diag(*np.tile(_rotations(grid.thetas), (grid.n_r, 1, 1)))
            n_nodes = grid.n_r * grid.n_theta
            grad = grid.shape_gradients(grid.n_theta).reshape(-1, 4, 4, 2)
            weights = np.repeat(grid.qp_weights, nt, axis=0)
            materials = {
                "degiorgi-sym": (degiorgi_tensor(2.0), 1),
                "degiorgi-lin": (degiorgi_tensor(2.0, action_on="lin"), 1),
                "random-scalar": (random_scalar_field(1.0, 2.0, np.random.default_rng(3)), nt),
                "perturbed": (perturbed_counterexample(grid, nt - 8), nt),
            }
            for name, (fld, n_cols) in materials.items():
                action = fld(grid.gauss_points()).reshape(-1, 4, 2, 2, 2, 2)
                ref = np.zeros((2 * n_nodes, 2 * n_nodes))
                for c, nodes in enumerate(cell_nodes(grid).reshape(-1, 4)):
                    for q in range(weights.shape[1]):
                        ke = weights[c, q] * np.einsum(
                            "ak,mkhl,bl->ambh", grad[c, q], action[c, q], grad[c, q]
                        )
                        for a in range(4):
                            for b in range(4):
                                ref[2 * nodes[a]:2 * nodes[a] + 2,
                                    2 * nodes[b]:2 * nodes[b] + 2] += ke[a, :, b, :]
                polar_ref = P.T @ ref @ P
                S = _polar_stencil(grid, fld)
                assert S.shape[-1] == n_cols, (nt, name)
                units = np.eye(2 * n_nodes).reshape(-1, grid.n_r, grid.n_theta, 2)
                K = np.stack([_stiffness_apply(S, e).ravel() for e in units], axis=1)
                assert np.abs(K - polar_ref).max() <= 1e-14 * np.abs(polar_ref).max(), (nt, name)

    @pytest.mark.parametrize("nt", [40, 44, 48])
    def test_blockwise_frame_matches_whole_grid(self, nt, monkeypatch):
        """_polar_stencil's scan evaluates, rotates and assembles blocks of 8
        theta-columns (the last one partial at n_theta = 44): bit for
        bit the stencil built from the whole grid in one block, for every
        shipped material (those that declare equivariance undeclared, so
        that they are scanned) and for the counter-example perturbed in a
        late theta-column; the equivariant ones keep column 0 only."""
        grid = PolarGrid(16.0, 24, nt)
        rng = np.random.default_rng(5)

        def scanned(fld):
            return dataclasses.replace(fld, equivariant=False)

        materials = {
            "isotropic": scanned(constant_field(ISO.tensor())),
            "degiorgi-sym": scanned(degiorgi_tensor(2.0)),
            "degiorgi-lin": scanned(degiorgi_tensor(2.0, "lin")),
            "restricted": scanned(restricted_tensor(6.0, 2.0, 8.0)),
            "radial-scalar": radial_scalar_field(),
            "random-scalar": random_scalar_field(1.0, 2.0, rng),
            "table": table_field(rng),
            "perturbed": perturbed_counterexample(grid, 36),
        }
        blockwise = {name: _polar_stencil(grid, fld) for name, fld in materials.items()}
        monkeypatch.setattr(annulus, "_FRAME_BLOCK", nt)
        for name, fld in materials.items():
            n_cols = nt if name in ("random-scalar", "table", "perturbed") else 1
            assert blockwise[name].shape == (grid.n_r, 2, 3, 3, 2, n_cols), name
            assert np.array_equal(blockwise[name], _polar_stencil(grid, fld)), name

    DECLARED = {
        "isotropic": lambda: constant_field(ISO),
        "degiorgi-sym": lambda: degiorgi_tensor(2.0),
        "degiorgi-lin": lambda: degiorgi_tensor(2.0, "lin"),
        "restricted": lambda: restricted_tensor(2.0, 2.0, 16.0),
    }

    @pytest.mark.parametrize("nt", [40, 44, 48, 256])
    @pytest.mark.parametrize("material", sorted(DECLARED))
    def test_declared_stencil_matches_scan(self, material, nt):
        """A material declared equivariant is built from column 0 and the
        fence column only: bit for bit the one-column stencil that the
        column-by-column scan finds for the same material undeclared."""
        grid = PolarGrid(16.0, 24, nt)
        fld = self.DECLARED[material]()
        assert fld.equivariant
        declared = _polar_stencil(grid, fld)
        scanned = _polar_stencil(grid, dataclasses.replace(fld, equivariant=False))
        assert declared.shape == scanned.shape == (grid.n_r, 2, 3, 3, 2, 1)
        assert np.array_equal(declared.view(np.uint64), scanned.view(np.uint64))

    @pytest.mark.parametrize("nt", [40, 48])
    def test_false_declaration_is_refused(self, nt):
        """Declared equivariant, the counter-example perturbed in the fence
        column n_theta // 3 + 1 (frames 1e-9 apart) and a cubic constant,
        which every quarter turn leaves as it is, are refused rather than
        built into a wrong stiffness."""
        grid = PolarGrid(16.0, 24, nt)
        cubic = np.zeros((2, 2, 2, 2))
        cubic[0, 0, 0, 0] = cubic[1, 1, 1, 1] = 3.0
        cubic[0, 0, 1, 1] = cubic[1, 1, 0, 0] = 1.0
        cubic[0, 1, 0, 1] = cubic[1, 0, 1, 0] = cubic[0, 1, 1, 0] = cubic[1, 0, 0, 1] = 0.5
        for fld in (perturbed_counterexample(grid, nt // 3 + 1), constant_field(cubic)):
            with pytest.raises(ValueError, match="declared equivariant"):
                _polar_stencil(grid, dataclasses.replace(fld, equivariant=True))

    @pytest.mark.parametrize("material", sorted(DECLARED))
    def test_declared_build_evaluates_few_columns(self, material):
        """The declared build evaluates the material at most at the Gauss
        points of three theta-columns of cells, of the 256 the scan reads."""
        grid = PolarGrid(64.0, 128, 256)
        fld = self.DECLARED[material]()
        points = []

        def counted(p):
            points.append(p[..., 0].size)
            return fld.action(p)

        _polar_stencil(grid, dataclasses.replace(fld, action=counted))
        assert 0 < sum(points) <= 3 * (grid.n_r - 1) * len(grid.qp_shapes)

    def test_late_theta_dependence(self, annulus_calls):
        """The counter-example perturbed in theta-column 40 of 48 matches every
        block but the last to column 0: the solve builds its stencil once,
        with n_theta columns, and that stencil acts as the cellwise Cartesian
        matrix rotated to the nodes' polar frames."""
        stiffness_builds = annulus_calls("_polar_stencil", lambda S: S)
        grid = PolarGrid(16.0, 24, 48)
        prob = VariationalProblem(field=perturbed_counterexample(grid, 40),
                                  force=bump_force([1.0, 0.5, -0.3, 0.2], 16.0))
        solve_annulus(prob, grid)
        assert [call[:2] for call in stiffness_builds] == [(24, 48)]
        S = stiffness_builds[0][2]
        assert S.shape[-1] == 48

        K = ReferenceSystem(prob, grid).K
        R = _rotations(grid.thetas)
        rng = np.random.default_rng(40)
        for _ in range(4):
            x = rng.normal(size=(grid.n_r, grid.n_theta, 2))
            ref = _to_polar(R, (K @ _to_cartesian(R, x).ravel()).reshape(x.shape))
            assert np.abs(_stiffness_apply(S, x) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_theta_dependent_build_holds_little_beyond_its_stencil(self):
        """Built one block of theta-columns at a time from Gauss points made
        per block, a theta-dependent stencil at n_theta = 256 peaks below
        1.4 times its own size (tracemalloc, from a new grid)."""
        import tracemalloc

        grid = PolarGrid(64.0, 128, 256)
        fld = random_scalar_field(1.0, 2.0, np.random.default_rng(3))
        tracemalloc.start()
        try:
            S = _polar_stencil(grid, fld)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert S.shape[-1] == 256
        assert peak <= 1.4 * S.nbytes, f"{peak / S.nbytes:.2f} times the stencil"

    @pytest.mark.parametrize("kind", ["dirichlet", "traction_free"])
    def test_reduced_system_matches_mask_formula(self, kind):
        """The polar stencil rows of the free rings and the polar right-hand
        side held by _Stiffness give the K_ff x and rhs of the boolean-mask
        selection on the scattered Cartesian matrix written out here, rotated
        node by node, for a theta-dependent material with inner data, outer
        data and a force."""
        grid = PolarGrid(16.0, 24, 48)
        rng = np.random.default_rng(11)
        prob = random_problem(random_scalar_field(1.0, 2.0, rng), grid, kind, rng)
        stiffness = _Stiffness(prob, grid)
        K_f, rhs, last = stiffness.K_f, stiffness.rhs, stiffness.last
        u = stiffness.field(np.zeros_like(rhs)).values
        R = _rotations(grid.thetas)

        n_nodes = grid.n_r * grid.n_theta
        fixed = np.zeros(2 * n_nodes, dtype=bool)
        ref_vals = np.zeros(2 * n_nodes)
        rings = [(0, prob.inner_data)]
        if kind == "dirichlet":
            rings.append((grid.n_r - 1, prob.outer_data))
        for ring, data in rings:
            ids = ring * grid.n_theta + np.arange(grid.n_theta)
            fixed[2 * ids] = fixed[2 * ids + 1] = True
            ref_vals[2 * ids] = data[:, 0]
            ref_vals[2 * ids + 1] = data[:, 1]
        ref = ReferenceSystem(prob, grid)
        K_mask = ref.K[~fixed]
        load = _force_vector(grid, prob.force).ravel()
        ref_rhs = load[~fixed] - K_mask[:, fixed] @ ref_vals[fixed]
        x = rng.normal(size=rhs.shape)
        ref_Kx = _to_polar(R, (K_mask[:, ~fixed] @ _to_cartesian(R, x).ravel()).reshape(x.shape))
        ref_rhs = _to_polar(R, ref_rhs.reshape(x.shape))

        assert np.array_equal(np.arange(2 * n_nodes)[ref.free], np.nonzero(~fixed)[0])
        assert last == (grid.n_r - 2 if kind == "dirichlet" else grid.n_r - 1)
        assert np.array_equal(u.ravel(), ref_vals)
        assert np.abs(rhs - ref_rhs).max() <= 1e-13 * np.abs(ref_rhs).max()
        Kx = _stiffness_apply(K_f, x)
        assert np.abs(Kx - ref_Kx).max() <= 1e-13 * np.abs(ref_Kx).max()

    @pytest.mark.parametrize("material", ["random-scalar", "degiorgi"])
    def test_chunked_apply_matches_one_chunk(self, material, monkeypatch):
        """With a copy budget of 7 rings, the 24 rings of a stencil apply in
        chunks of 7, 7, 7 and 3: bit for bit the one-chunk product, for a
        theta-dependent stencil and a one-column one, on every ring and on
        the rows of the free rings."""
        grid = PolarGrid(16.0, 24, 48)
        fld = {"random-scalar": random_scalar_field(1.0, 2.0, np.random.default_rng(4)),
               "degiorgi": degiorgi_tensor(2.0)}[material]
        S = _polar_stencil(grid, fld)
        x = np.random.default_rng(8).normal(size=(grid.n_r, grid.n_theta, 2))
        whole, free = _stiffness_apply(S, x), _stiffness_apply(S[1:-1], x[1:-1])
        ring_bytes = 18 * grid.n_theta * x.itemsize
        assert annulus._APPLY_COPY_BYTES >= grid.n_r * ring_bytes  # one chunk above
        monkeypatch.setattr(annulus, "_APPLY_COPY_BYTES", 7 * ring_bytes + ring_bytes // 2)
        assert np.array_equal(_stiffness_apply(S, x), whole)
        assert np.array_equal(_stiffness_apply(S[1:-1], x[1:-1]), free)

    @staticmethod
    def textbook_polar_matrices(grid, fld):
        """(n_r - 1, n_theta, 4, 2, 4, 2) element matrices of every cell in
        its column's polar frame: the material rotated by R(theta_j) index
        by index, then the sum over q, k, l of w_q d_k N_a C_mkhl d_l N_b
        with column 0's shape gradients."""
        R = _rotations(grid.thetas)
        C = np.einsum("jxm,jyk,ijqxyzw,jzh,jwl->ijqmkhl", R, R, fld(grid.gauss_points()), R, R)
        g = grid.shape_gradients(1)[:, 0]
        return np.einsum("iq,iqak,ijqmkhl,iqbl->ijambh", grid.qp_weights, g, C, g)

    @pytest.mark.parametrize("material", ["random-scalar", "degiorgi"])
    def test_ring_product_matches_textbook_sum(self, material):
        """The element matrices of one batched product per ring of the polar
        frame with column 0's shape products equal the textbook sum to 1e-14
        of the largest entry; with one entry of the shape products perturbed
        they do not."""
        grid = PolarGrid(4.0, 12, 32)
        fld = {"random-scalar": random_scalar_field(1.0, 2.0, np.random.default_rng(4)),
               "degiorgi": degiorgi_tensor(2.0)}[material]
        ref = self.textbook_polar_matrices(grid, fld).reshape(grid.n_r - 1, grid.n_theta, 8, 8)
        frame = _polar_frame(fld(grid.gauss_points()), grid.thetas)
        P = _shape_products(grid)
        tol = 1e-14 * np.abs(ref).max()
        assert np.abs(_cell_matrices(P, frame) - ref).max() <= tol
        P[5, 4, 9] *= 1.0 + 1e-9                      # ring 5, q = 1, k = l = 0, corners (2, 1)
        assert np.abs(_cell_matrices(P, frame) - ref).max() > tol


class TestComparisonSolve:
    """The FFT-in-theta inverse of the C0 = scale * Id_Lin stiffness, in
    polar components."""

    @pytest.mark.parametrize("nr, nt", [(24, 48), (40, 72)])
    def test_identity_stencil_is_polar_stencil(self, nr, nt):
        """Built directly from scale * Id_Lin, the comparison stencil equals,
        bit for bit, the stencil _polar_stencil finds for the constant field
        scale * Id_Lin, whose every column frame is the constant itself."""
        grid = PolarGrid(16.0, nr, nt)

        def c0(p):
            return np.broadcast_to(1.7 * ID_LIN, np.asarray(p).shape[:-1] + (2, 2, 2, 2))

        S = _identity_stencil(grid, 1.7)
        assert S.shape == (nr, 2, 3, 3, 2, 1)
        assert np.array_equal(S, _polar_stencil(grid, ElasticityField(c0, 1.7, 1.7)))

    @pytest.mark.parametrize("kind", ["dirichlet", "traction_free"])
    @pytest.mark.parametrize("nr, nt", [(24, 48), (48, 96), (24, 40)])
    def test_matches_superlu(self, nr, nt, kind):
        grid = PolarGrid(16.0, nr, nt)
        prob = VariationalProblem(field=constant_field(ISO.tensor()), outer_kind=kind)
        c0 = np.broadcast_to(1.7 * ID_LIN, grid.gauss_points().shape[:-1] + (2, 2, 2, 2))
        reference = ReferenceSystem(prob, grid, c0)
        last = grid.n_r - 2 if kind == "dirichlet" else grid.n_r - 1
        green0 = _fourier_inverse(_identity_stencil(grid, 1.7)[1:last + 1], nt)
        R = _rotations(grid.thetas)
        rng = np.random.default_rng(nr + nt)
        for _ in range(3):
            b = rng.normal(size=(last, nt, 2))
            ref = reference.solve(b.ravel())
            x = _to_cartesian(R, green0(_to_polar(R, b)))
            assert np.abs(x.ravel() - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSolveAnnulus:
    def test_zero_data_zero_field(self):
        grid = PolarGrid(16.0, 24, 48)
        prob = VariationalProblem(field=constant_field(ISO.tensor()))
        u = solve_annulus(prob, grid)
        assert np.abs(u.values).max() < 1e-14

    @staticmethod
    def traced_peak(prob, grid):
        """The tracemalloc peak of solve_annulus on the problem and a new grid."""
        import tracemalloc

        tracemalloc.start()
        try:
            solve_annulus(prob, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_theta_dependent_solve_holds_little_beyond_its_stencil(self):
        """A theta-dependent solve at 128x256 peaks at most 2.05 times its
        stencil's bytes: beyond the stencil it holds the Fourier factors,
        the iteration vectors and one block of work, never a whole-grid
        array of Gauss points."""
        grid = PolarGrid(64.0, 128, 256)
        prob = VariationalProblem(field=random_scalar_field(1, 2, np.random.default_rng(3)),
                                  force=bump_force((1, 0.5, 0.25, 0.1), 64))
        stencil_bytes = grid.n_r * 36 * grid.n_theta * 8
        peak = self.traced_peak(prob, grid)
        assert peak <= 2.05 * stencil_bytes, f"{peak / stencil_bytes:.2f} times the stencil"

    def test_circulant_solve_holds_few_nodal_arrays(self):
        """The counter-example's solve at 128x256, the closed form on the
        outer ring, peaks at most 18 times one (n_r, n_theta, 2) nodal array."""
        _, prob = degiorgi_problem(2.0)
        grid = PolarGrid(64.0, 128, 256)
        nodal_bytes = grid.n_r * grid.n_theta * 2 * 8
        peak = self.traced_peak(prob, grid)
        assert peak <= 18 * nodal_bytes, f"{peak / nodal_bytes:.1f} nodal arrays"

    def test_kelvin_trace_oracle_with_convergence(self):
        exact = kelvin_field((0.3, 0.2))
        errs = []
        for nr, nt in ((32, 64), (64, 128)):
            grid = PolarGrid(64.0, nr, nt)
            prob = VariationalProblem(
                field=constant_field(ISO.tensor()),
                inner_data=exact,
                outer_data=exact,
            )
            u = solve_annulus(prob, grid)
            ex = DiscreteField.sample(grid, exact)
            errs.append(np.abs(u.values - ex.values).max() / np.abs(ex.values).max())
        assert errs[-1] <= 1e-3
        assert 1.7 <= np.log2(errs[0] / errs[1]) <= 2.3

    def test_degiorgi_oracle(self, annulus_calls):
        """The growth branch through oracle_ladder: one solve_annulus per
        grid, coarse to fine, looked up as a module global (where a tracer
        wraps it); the finest grid's solve and sample are kept."""
        solves = annulus_calls("solve_annulus")
        sol, prob = degiorgi_problem(2.0)
        grids = [PolarGrid(64.0, 32, 64), PolarGrid(64.0, 64, 128)]
        ladder = oracle_ladder(prob, sol.displacement, grids)
        assert solves == [(32, 64), (64, 128)]
        assert ladder.solution.grid is grids[-1] and ladder.exact.grid is grids[-1]
        assert ladder.orders.tolist() == [np.log2(ladder.errors[0] / ladder.errors[1])]
        assert ladder.errors[-1] <= 1e-3

    def test_minimization_property(self):
        sol, prob = degiorgi_problem(2.0)
        grid = PolarGrid(16.0, 32, 64)
        u = solve_annulus(prob, grid)
        action = prob.field(grid.gauss_points())

        def energy(f):
            g = f.gradient_at_qp()
            dens = np.einsum("ijqmk,ijqmkhl,ijqhl->ijq", g, action, g)
            return float(np.sum(grid.qp_weights[:, None] * dens))

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
        ({"outer_data": lambda p: p.T},
         r"outer boundary data must have shape .* got \(2, 32\)"),
        ({"inner_data": lambda p: np.full(p.shape, np.nan)},
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

    def test_ring_data_are_functions_of_points(self):
        """A callable ring datum is handed the ring's node points,
        grid.node_points(ring), and an exact field's displacement posed as
        it is gives, bit for bit, the solve of its values at r_max (cos, sin)
        of the grid's angles."""
        grid = PolarGrid(16.0, 24, 48)
        sol, prob = degiorgi_problem(2.0)
        th = grid.thetas
        values = sol.displacement(np.stack([16.0 * np.cos(th), 16.0 * np.sin(th)], axis=-1))
        by_points = solve_annulus(prob, grid)
        by_array = solve_annulus(VariationalProblem(field=prob.field, outer_data=values), grid)
        assert np.array_equal(by_points.values, by_array.values)

        seen = []

        def record(points):
            seen.append(points.copy())
            return np.zeros_like(points)

        solve_annulus(VariationalProblem(field=prob.field, inner_data=record, outer_data=record), grid)
        nodes = grid.node_points()
        assert len(seen) == 2
        assert np.array_equal(seen[0], nodes[0]) and np.array_equal(seen[1], nodes[-1])

    def test_singular_system_diverges(self, annulus_calls):
        """Both solve paths: a zero material is rotation-equivariant (one
        stencil column, Fourier path); one that is zero on a quadrant only is
        not, and the free DOFs inside that quadrant have no stiffness
        (conjugate-gradient path, which would converge there and return a
        wrong field)."""
        stiffness_builds = annulus_calls("_polar_stencil", stencil_columns)

        def zero(p):
            return np.zeros(np.asarray(p).shape[:-1] + (2, 2, 2, 2))

        def zero_quadrant(p):
            p = np.asarray(p)
            keep = ~((p[..., 0] > 0) & (p[..., 1] > 0))
            return keep[..., None, None, None, None] * ISO.tensor().c

        grid = PolarGrid(8.0, 16, 32)
        data = np.stack([np.cos(grid.thetas), 0 * grid.thetas], -1)

        for action, n_cols, message in ((zero, 1, "angular mode is singular"),
                                         (zero_quadrant, 32, "196 of 896 free DOFs")):
            stiffness_builds.clear()
            fld = ElasticityField(action=action, mu0=1.0, mue=1.0)
            prob = VariationalProblem(field=fld, outer_data=data)
            with pytest.raises(SolverDiverged, match=message):
                solve_unchecked(prob, grid)
            assert stiffness_builds == [(16, 32, n_cols)]


def restricted_radial_field(xi, lo, hi):
    """The exact radial displacement f(r) e_r on restricted_tensor(xi, lo, hi)
    with f = 1/r beyond hi.  Both sides of a jump of the material carry the
    radial stress mue f', so f and f' are continuous there; f is a r + b / r
    outside [lo, hi], where the material is mue Id_Lin, and c r^eps + d r^-eps
    inside it, eps = epsilon(xi)."""
    eps = epsilon(xi)

    def jet(p, r):
        """(f, f') at r of f = r^p."""
        return np.array([r**p, p * r ** (p - 1.0)])

    c, d = np.linalg.solve(np.column_stack([jet(eps, hi), jet(-eps, hi)]), jet(-1.0, hi))
    a, b = np.linalg.solve(np.column_stack([jet(1.0, lo), jet(-1.0, lo)]),
                           c * jet(eps, lo) + d * jet(-eps, lo))

    def displacement(points):
        pts = np.asarray(points, dtype=float)
        r = np.linalg.norm(pts, axis=-1)
        f = np.where(r < lo, a * r + b / r, np.where(r > hi, 1.0 / r, c * r**eps + d * r**-eps))
        return (f / r)[..., None] * pts

    return displacement


class TestRestrictedTensorOracle:
    @pytest.mark.parametrize("lo_exponent, on_rings", [(1 / 4, True), (25 / 96, False)])
    def test_restricted_tensor_order(self, lo_exponent, on_rings):
        """Second order on restricted_tensor(2, lo, 8) with both jumps of the
        material on ring radii of every grid (64^(k/32) at 33 rings); with lo
        = 64^(25/96), on no ring, the jump caps the order (1.43 and 0.77)."""
        lo, hi = 64.0**lo_exponent, 8.0
        exact = restricted_radial_field(2.0, lo, hi)
        prob = VariationalProblem(field=restricted_tensor(2.0, lo, hi),
                                  inner_data=exact, outer_data=exact)
        grids = [PolarGrid(64.0, nr, nt) for nr, nt in ((33, 64), (65, 128), (129, 256))]
        ladder = oracle_ladder(prob, exact, grids)
        assert all(abs(ladder.orders - 2.0) <= 0.3) == on_rings
        if on_rings:
            assert ladder.errors[-1] <= 5e-5


def radial_scalar_field():
    return scalar_field(
        lambda p: 1.5 + 0.5 * np.tanh(np.linalg.norm(p, axis=-1) - 4.0), 1.0, 2.0
    )


def perturbed_counterexample(grid, column=5):
    """The Lin counter-example tensor scaled by 1 + 1e-9 in one theta-column
    of the grid's cells: a material that is not rotation-equivariant."""
    base = degiorgi_tensor(2.0, "lin")
    lo, hi = grid.thetas[column], grid.thetas[column + 1]

    def perturbed(p):
        a = base.action(p)
        th = np.mod(np.arctan2(p[..., 1], p[..., 0]), 2 * np.pi)
        a[(th > lo) & (th < hi)] *= 1.0 + 1e-9
        return a

    return ElasticityField(action=perturbed, mu0=base.mu0, mue=base.mue)


def reference_sweep(factors, F):
    """The block-Thomas solve as a plain loop: z = D^-1 F, then z_i -=
    m0 * z_{i-1}[0] + m1 * z_{i-1}[1] forward and the same with W back."""
    Dinv, W, M = factors
    z = Dinv[:, :, 0] * F[:, None, 0] + Dinv[:, :, 1] * F[:, None, 1]
    for (m0, m1), prev, cur in zip(M, z, z[1:]):
        cur -= m0 * prev[0] + m1 * prev[1]
    for (w0, w1), nxt, cur in zip(W[::-1], z[::-1], z[-2::-1]):
        cur -= w0 * nxt[0] + w1 * nxt[1]
    return z


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
        stiffness_builds = annulus_calls("_polar_stencil", stencil_columns)
        grid = PolarGrid(16.0, nr, nt)
        rng = np.random.default_rng(nr + nt)
        prob = random_problem(self.MATERIALS[material](), grid, kind, rng)
        u = solve_annulus(prob, grid)
        assert stiffness_builds == [(nr, nt, 1)]

        ref = ReferenceSystem(prob, grid).nodal()
        assert np.abs(u.values.ravel() - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_block_thomas_matches_dense_solve(self):
        """The column-first block-Thomas sweep solves the block-tridiagonal
        system of the angular modes 0, 1 and n_theta / 2 of a one-column
        stencil's free rings as numpy.linalg.solve does on the assembled
        dense matrix of each mode.  The factors are written over the blocks
        handed in, so the dense matrices are built from copies."""
        grid = PolarGrid(4.0, 12, 24)
        S = _polar_stencil(grid, degiorgi_tensor(2.0))[1:grid.n_r - 1, ..., 0]
        n = S.shape[0]
        modes = [0, 1, grid.n_theta // 2]
        phi = 2.0 * np.pi * np.asarray(modes) / grid.n_theta
        phase = np.exp(1j * np.outer([-1.0, 0.0, 1.0], phi))
        # blocks (ring, row m, column h, mode) coupling ring i to ring i + o - 1
        blocks = [np.einsum("imdh,dk->imhk", S[:, :, o], phase) for o in range(3)]
        rng = np.random.default_rng(8)
        F = rng.normal(size=(n, 2, 3)) + 1j * rng.normal(size=(n, 2, 3))
        given = (blocks[1], blocks[2][:-1], blocks[0][1:])
        blocks = [b.copy() for b in blocks]
        factors = _block_thomas_factor(*given)
        assert all(np.shares_memory(f, g) for f, g in zip(factors, given))
        z = _block_thomas_solve(factors, F)
        for k in range(3):
            dense = np.zeros((2 * n, 2 * n), dtype=complex)
            for i in range(n):
                for o in range(3):
                    if 0 <= i + o - 1 < n:
                        dense[2 * i:2 * i + 2, 2 * (i + o - 1):2 * (i + o)] = blocks[o][i, :, :, k]
            ref = np.linalg.solve(dense, F[..., k].ravel())
            assert np.abs(z[..., k].ravel() - ref).max() <= 1e-12 * np.abs(ref).max(), modes[k]

    @pytest.mark.parametrize("m", [3, 129])
    @pytest.mark.parametrize("n", [1, 2, 3, 126])
    def test_sweep_steps_match_reference_bit_for_bit(self, n, m):
        """The three-call ring steps of _block_thomas_solve give, bit for bit,
        what the plain loop reference_sweep gives on the same factors, for n
        free rings (1: no ring step at all) and m angular modes.  The bits
        are compared, so a zero of the other sign would count; mode 0's
        blocks and right-hand side are real, as the symbols and rffts of
        real data are, so its imaginary parts are zeros."""
        rng = np.random.default_rng(n * m)

        def blocks(k):
            b = rng.normal(size=(k, 2, 2, m)) + 1j * rng.normal(size=(k, 2, 2, m))
            b[..., 0] = b[..., 0].real
            return b

        A = blocks(n)
        A[:, [0, 1], [0, 1]] += 4.0
        factors = _block_thomas_factor(A, blocks(n - 1), blocks(n - 1))
        F = rng.normal(size=(n, 2, m)) + 1j * rng.normal(size=(n, 2, m))
        F[..., 0] = F[..., 0].real
        expected = reference_sweep(factors, F)
        z = _block_thomas_solve(factors, F)
        assert np.array_equal(z.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("material", ["degiorgi-sym", "random-scalar"])
    def test_one_free_ring_matches_superlu(self, material):
        """A 3-ring grid with a Dirichlet outer ring has one free ring, so the
        Fourier solve's sweeps make no ring step: the direct solve (an
        equivariant material) and the preconditioned one (a theta-dependent
        material) still agree with SuperLU."""
        grid = PolarGrid(1.4, 3, 16)
        rng = np.random.default_rng(3)
        fld = (degiorgi_tensor(2.0) if material == "degiorgi-sym"
               else random_scalar_field(1.0, 2.0, rng))
        prob = VariationalProblem(field=fld, inner_data=rng.normal(size=(16, 2)),
                                  outer_data=rng.normal(size=(16, 2)))
        u = solve_annulus(prob, grid)
        ref = ReferenceSystem(prob, grid).nodal()
        assert np.abs(u.values.ravel() - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_path_choice(self, annulus_calls):
        """Every solve builds one polar stencil: one column for the
        equivariant materials, n_theta columns (conjugate gradients) for a
        theta-dependent one or for the counter-example perturbed in one
        theta-column of cells by 1e-9."""
        stiffness_builds = annulus_calls("_polar_stencil", stencil_columns)
        grid = PolarGrid(16.0, 24, 48)
        cases = [(label, f(), 1) for label, f in TestFourierSolve.MATERIALS.items()]
        cases += [
            ("random-scalar", random_scalar_field(1.0, 2.0, np.random.default_rng(3)), 48),
            ("perturbed", perturbed_counterexample(grid), 48),
        ]
        for label, fld, n_cols in cases:
            stiffness_builds.clear()
            prob = VariationalProblem(field=fld, force=bump_force([1.0, 0.5, -0.3, 0.2], 16.0))
            solve_unchecked(prob, grid)
            assert stiffness_builds == [(24, 48, n_cols)], label


def table_field(rng):
    """A tabulated scalar stiffness with 100 samples in [1, 1.5] on r < 16."""
    n = 100
    return tabulated_scalar_field(rng.uniform(1.0, 16.0, n), rng.uniform(0.0, 2 * np.pi, n),
                                  rng.uniform(1.0, 1.5, n))


class TestConjugateGradients:
    """solve_annulus on materials that depend on theta: conjugate gradients on
    the polar stiffness stencil, preconditioned by the Fourier solve of its
    theta-mean, against SuperLU on the assembled reduced system."""

    MATERIALS = {
        "random-scalar": lambda grid, rng: random_scalar_field(1.0, 2.0, rng),
        "table": lambda grid, rng: table_field(rng),
        "perturbed": lambda grid, rng: perturbed_counterexample(grid),
    }

    @pytest.mark.parametrize("material", sorted(MATERIALS))
    @pytest.mark.parametrize("kind", ["dirichlet", "traction_free"])
    @pytest.mark.parametrize("nr, nt", [(24, 48), (48, 96)])
    def test_matches_superlu(self, nr, nt, kind, material, annulus_calls):
        stiffness_builds = annulus_calls("_polar_stencil", stencil_columns)
        grid = PolarGrid(16.0, nr, nt)
        rng = np.random.default_rng(nr + nt)
        prob = random_problem(self.MATERIALS[material](grid, rng), grid, kind, rng)
        u = (solve_unchecked if material == "perturbed" else solve_annulus)(prob, grid)
        assert stiffness_builds == [(nr, nt, nt)]

        ref = ReferenceSystem(prob, grid).nodal()
        assert np.abs(u.values.ravel() - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_iteration_cap_diverges(self, monkeypatch):
        grid = PolarGrid(16.0, 24, 48)
        prob = VariationalProblem(field=random_scalar_field(1.0, 2.0, np.random.default_rng(3)),
                                  force=bump_force([1.0, 0.5, -0.3, 0.2], 16.0))
        monkeypatch.setattr(annulus, "_PCG_MAX_ITER", 3)
        with pytest.raises(SolverDiverged, match="in 3 steps"):
            solve_annulus(prob, grid)

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
            solve_unchecked(prob, PolarGrid(16.0, 24, 48))


class TestEnergyProfiles:
    def test_zero_field(self):
        grid = PolarGrid(8.0, 16, 32)
        prof = energy_profiles(DiscreteField.sample(grid, np.zeros_like))
        assert prof.total == 0.0
        assert np.abs(prof.G).max() == 0.0 and np.abs(prof.Q).max() == 0.0

    def test_partition_identity(self):
        grid = PolarGrid(64.0, 48, 96)
        dec = ClosedFormSolution(2.0, 0.0, 1.0)
        prof = energy_profiles(DiscreteField.sample(grid, dec.displacement))
        assert np.abs(prof.G + prof.Q - prof.total).max() < 1e-12 * prof.total
        assert np.all(np.diff(prof.G) >= -1e-15)
        assert np.all(np.diff(prof.Q) <= 1e-15)

    def test_tail_matches_radial_oracle(self):
        """Q(R) ~ R^(-2 eps) for the decaying branch, against exact quadrature."""
        xi = 2.0
        eps = epsilon(xi)
        grid = PolarGrid(64.0, 128, 256)
        dec = ClosedFormSolution(xi, 0.0, 1.0)
        prof = energy_profiles(DiscreteField.sample(grid, dec.displacement))
        for R in (4.0, 8.0, 16.0):
            k = _ring_at(grid.radii, R)
            Rk = grid.radii[k]
            q_oracle = (
                2 * np.pi * ((1 + eps**2) + (1 - eps) ** 2)
                * (Rk ** (-2 * eps) - 64.0 ** (-2 * eps)) / (2 * eps)
            )
            assert abs(prof.Q[k] - q_oracle) <= 0.01 * q_oracle

    def test_exterior_variant_ratio_bounded(self):
        """Decaying fields also satisfy the boundary-free exterior bound
        int_{r>2R} |grad u|^2 <= c R^-2 int_{T_R} |u|^2 with stable c."""
        dec, _ = degiorgi_problem(2.0, coef=(0.0, 1.0))
        grid = PolarGrid(64.0, 96, 192)
        u = DiscreteField.sample(grid, dec.displacement)
        g = u.gradient_at_qp()
        grad_sq = np.sum(g * g, axis=(-2, -1))
        vals_sq = np.sum(u.values_at_qp() ** 2, axis=-1)
        ring_grad = np.sum(grad_sq * grid.qp_weights[:, None], axis=(1, 2))
        ring_vals = np.sum(vals_sq * grid.qp_weights[:, None], axis=(1, 2))
        ratios = []
        for R in (4.0, 8.0, 16.0):
            kR = _ring_at(grid.radii, R)
            k2R = _ring_at(grid.radii, 2.0 * R)
            lhs = ring_grad[k2R:].sum()
            rhs = ring_vals[kR:k2R].sum() / grid.radii[kR] ** 2
            ratios.append(lhs / rhs)
        assert max(ratios) / min(ratios) < 2.0


class TestGrowthMonotonicity:
    def test_decaying_branch_tail_holds(self):
        assert closed_form_audit(PolarGrid(64.0, 128, 256), (0.0, 1.0)).worst_q_violation <= 0.01

    def test_vanishing_branch_interior_holds(self):
        assert closed_form_audit(PolarGrid(64.0, 128, 256), (1.0, -1.0)).worst_g_violation <= 0.01

    def test_decaying_branch_interior_fails(self):
        """The interior monotonicity provably fails for the decaying branch
        (its hypothesis class excludes it); the report must expose that."""
        assert closed_form_audit(PolarGrid(64.0, 128, 256), (0.0, 1.0)).worst_g_violation > 0.05

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
            outer = fourier_ring_data(rng.normal(size=(3, 4)), grid.thetas)
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
        dec, prob = degiorgi_problem(2.0, coef=(0.0, 1.0))
        res = []
        for nr, nt in ((64, 128), (128, 256)):
            grid = PolarGrid(64.0, nr, nt)
            u = DiscreteField.sample(grid, dec.displacement)
            res.append(energy_identity_residual(u, prob, 16.0))
        assert res[0] <= 0.01
        assert np.log2(res[0] / res[1]) > 1.5

    def test_radius_below_first_ring(self):
        grid = PolarGrid(16.0, 24, 48)
        prob = VariationalProblem(field=constant_field(ISO.tensor()))
        with pytest.raises(RadiusOutOfGrid):
            energy_identity_residual(DiscreteField.sample(grid, np.zeros_like), prob, 1.0)

    @pytest.mark.parametrize("radius", [1e6, 0.5])
    def test_radius_outside_grid(self, radius):
        """A radius beyond r_max or below r_min raises, rather than reading
        the residual at the nearest (boundary) ring."""
        grid = PolarGrid(16.0, 32, 64)
        prob = VariationalProblem(field=constant_field(ISO.tensor()))
        with pytest.raises(RadiusOutOfGrid):
            energy_identity_residual(DiscreteField.sample(grid, np.zeros_like), prob, radius)


class TestRingBlocks:
    """The whole-grid Gauss-point diagnostics run one block of rings of cells
    at a time and read bit for bit what their whole-grid formulas, kept
    here, read."""

    # (grid, cells per block or None for the default): n_r = 3 in one block
    # and in blocks of one ring; 19 rings in blocks of 3 (a partial last
    # block) and 21 (whole blocks); 127 and 128 rings at the default
    CASES = [
        ((1.4, 3, 16), None),
        ((1.4, 3, 16), 16),
        ((16.0, 20, 32), 3 * 32),
        ((16.0, 22, 32), 3 * 32),
        ((64.0, 128, 256), None),
        ((64.0, 129, 256), None),
    ]

    @staticmethod
    def field(grid, seed=0):
        """The decaying counter-example branch plus noise: a field with
        every ring and theta-column different."""
        dec = ClosedFormSolution(2.0, 0.0, 1.0)
        noise = 1e-3 * np.random.default_rng(seed).normal(size=(grid.n_r, grid.n_theta, 2))
        return DiscreteField(grid, DiscreteField.sample(grid, dec.displacement).values + noise)

    @staticmethod
    def whole_grid_gradient(u):
        u_cells = np.swapaxes(corners(u.values), -1, -2)
        return u_cells[:, :, None] @ u.grid.shape_gradients(u.grid.n_theta)

    @staticmethod
    def whole_grid_ring_sums(grid, qp_values):
        return np.sum(qp_values * grid.qp_weights[:, None], axis=-1).sum(axis=1)

    @pytest.fixture(params=CASES, ids=lambda c: f"{c[0][1]}x{c[0][2]}-{c[1]}")
    def grid(self, request, monkeypatch):
        from stokes_lab import polar

        shape, cells = request.param
        if cells is not None:
            monkeypatch.setattr(polar, "_RING_BLOCK_CELLS", cells)
        grid = PolarGrid(*shape)
        blocks = grid.ring_blocks()
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == grid.n_r - 1
        return grid

    def test_gradient_of_a_block_is_the_whole_grid_slice(self, grid):
        u = self.field(grid)
        whole = self.whole_grid_gradient(u)
        for rings in grid.ring_blocks():
            assert np.array_equal(u.gradient_at_qp(rings), whole[rings])
            assert np.array_equal(u.values_at_qp(rings), (grid.qp_shapes @ corners(u.values))[rings])

    def test_energy_profiles(self, grid):
        u = self.field(grid)
        g = self.whole_grid_gradient(u)
        div = g[..., 0, 0] + g[..., 1, 1]
        ring = self.whole_grid_ring_sums(grid, np.sum(g * g, axis=(-2, -1)) + div * div)
        G = np.concatenate([[0.0], np.cumsum(ring)])
        prof = energy_profiles(u)
        assert np.array_equal(prof.G, G) and np.array_equal(prof.Q, G[-1] - G)

    def test_relative_l2_error(self, grid):
        u, exact = self.field(grid, 1), self.field(grid, 2)
        w = grid.qp_weights[:, None]
        diff = corners(u.values - exact.values)
        num = float(np.sum(w * np.sum((grid.qp_shapes @ diff) ** 2, axis=-1)))
        den = float(np.sum(w * np.sum((grid.qp_shapes @ corners(exact.values)) ** 2, axis=-1)))
        assert relative_l2_error(u, exact) == float(np.sqrt(num / max(den, 1e-300)))

    @pytest.mark.parametrize("material", ["degiorgi", "random"])
    def test_energy_identity_residual(self, grid, material):
        fld = (degiorgi_tensor(2.0) if material == "degiorgi"
               else random_scalar_field(1.0, 2.0, np.random.default_rng(3)))
        prob = VariationalProblem(field=fld)
        u = self.field(grid)
        g = self.whole_grid_gradient(u)
        dens = np.einsum("...mk,...mkhl,...hl->...", g, fld(grid.gauss_points()), g)
        ring_e = self.whole_grid_ring_sums(grid, dens)
        for kR in sorted({1, (grid.n_r - 1) // 2, grid.n_r - 2, grid.n_r - 1} - {0}):
            energy = float(ring_e[:kR].sum())
            work = 0.0
            for ring, sign in ((0, -1.0), (kR, +1.0)):
                s_u = annulus._ring_traction(u, prob, ring, sign)
                r = grid.radii[ring]
                work += r * grid.dtheta * float(np.einsum("nm,nm->", u.values[ring], s_u))
            expected = abs(energy - work) / max(abs(energy), 1e-300)
            assert energy_identity_residual(u, prob, grid.radii[kR]) == expected

    def test_energy_profiles_memory_is_one_block(self):
        """energy_profiles at 256x512 holds one block's temporaries beyond
        its input: 2.7 MB traced here, about the same at every size, where
        the whole-grid form held 75 MB (302 MB at 512x1024)."""
        import tracemalloc

        grid = PolarGrid(64.0, 256, 512)
        u = self.field(grid)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            energy_profiles(u)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.0e6, f"energy_profiles peaked {peak / 1e6:.2f} MB above its input"


class TestNetTraction:
    def test_decaying_branch_vanishes(self):
        dec, prob = degiorgi_problem(2.0, coef=(0.0, 1.0))
        grid = PolarGrid(64.0, 96, 192)
        u = DiscreteField.sample(grid, dec.displacement)
        t = net_traction_discrete(u, prob)
        scale = np.abs(u.values).max()
        assert np.abs(t).max() <= 1e-6 * scale

    def test_flux_conserved_between_radii(self):
        dec, prob = degiorgi_problem(2.0, coef=(0.0, 1.0))
        grid = PolarGrid(64.0, 96, 192)
        u = DiscreteField.sample(grid, dec.displacement)
        t1 = net_traction_discrete(u, prob, radius=4.0)
        t2 = net_traction_discrete(u, prob, radius=16.0)
        assert np.abs(t1 - t2).max() <= 1e-6 * max(np.abs(u.values).max(), 1.0)

    @pytest.mark.parametrize("radius", [0.01, 1e3])
    def test_radius_outside_grid(self, radius):
        grid = PolarGrid(16.0, 32, 64)
        prob = VariationalProblem(field=constant_field(ISO.tensor()))
        with pytest.raises(RadiusOutOfGrid):
            net_traction_discrete(DiscreteField.sample(grid, np.zeros_like), prob, radius=radius)

    def test_growing_branch_nets_zero_by_symmetry(self):
        """Angular symmetry nets the energy-infinite branch to zero as well:
        net traction alone does not separate the two radial branches."""
        from stokes_lab.annulus import _ring_traction

        grow, prob = degiorgi_problem(2.0, coef=(1.0, 0.0))
        grid = PolarGrid(64.0, 96, 192)
        u = DiscreteField.sample(grid, grow.displacement)
        t = net_traction_discrete(u, prob)
        assert np.abs(t).max() <= 1e-10 * np.abs(u.values).max()
        # the pointwise radial traction is nonetheless far from zero
        assert np.abs(_ring_traction(u, prob, 0, -1.0)).max() > 0.1

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
        u = DiscreteField.sample(grid, lambda p: bem.evaluate(h, p))
        prob = VariationalProblem(field=constant_field(ISO.tensor()))
        t = net_traction_discrete(u, prob, radius=8.0)
        expect = h.total_density
        assert np.abs(t - expect).max() <= 0.02 * np.linalg.norm(expect)


class TestDecayFit:
    @pytest.mark.parametrize("xi", [1.0, 2.0, 4.0])
    def test_degiorgi_exponent(self, xi):
        grid = PolarGrid(128.0, 128, 256)
        dec = ClosedFormSolution(xi, 0.0, 1.0)
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

    def test_default_ladder_skips_rungs_inside_the_hole(self):
        """On a grid starting beyond r = 2 the default ladder's lower rungs
        are skipped, not refused as out of the grid."""
        grid = PolarGrid(256.0, 64, 64, r_min=3.0)
        u = DiscreteField.sample(grid, lambda p: p / np.sum(p * p, axis=-1)[..., None])
        fit = decay_exponent_fit(u)
        assert abs(fit.alpha - 1.0) < 0.02 and fit.radii[0] > 3.0

    def test_explicit_radius_outside_grid(self):
        """Explicit fitting radii beyond r_max raise instead of collapsing
        onto the last ring."""
        grid = PolarGrid(16.0, 32, 64)
        u = DiscreteField.sample(grid, lambda p: np.linalg.norm(p, axis=-1)[..., None] ** -1.0
                                 * np.array([1.0, 0.0]))
        radii = [2.0, 3.0, 4.0, 6.0, 8.0, 32.0]
        assert decay_exponent_fit(u, radii=radii[:-1]).alpha > 0.9
        with pytest.raises(RadiusOutOfGrid):
            decay_exponent_fit(u, radii=radii)

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

        fld = ElasticityField(action=action, mu0=2.0, mue=8.0)
        # isotropic beyond r = 4: the action along a ray equals iso
        ray = np.outer([5.0, 50.0], [1.0, 1.0]) / np.sqrt(2.0)
        assert np.abs(fld(ray) - iso.c).max() < 1e-14

        rng = np.random.default_rng(1)
        grid = PolarGrid(128.0, 128, 256)
        th = grid.thetas
        u = fourier_ring_data(rng.normal(size=(3, 4)), th)
        et = np.stack([-np.sin(th), np.cos(th)], axis=-1)
        inner = u - np.mean(np.sum(u * et, axis=-1)) * et
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
            inner_data=lambda p: np.stack([-p[:, 1], p[:, 0]], axis=-1),
            outer_kind="traction_free",
        )
        u = solve_annulus(prob, grid)
        k1, k2 = _ring_at(grid.radii, 4.0), _ring_at(grid.radii, 32.0)
        m1, m2 = np.linalg.norm(u.values[[k1, k2]], axis=-1).max(axis=-1)
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
        u_dir = solve_annulus(prob, grid)
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

    @pytest.mark.parametrize("material, n_cols", [
        (lambda: restricted_tensor(6.0, 2.0, 8.0), 1),
        (lambda: random_scalar_field(1.0, 2.0, np.random.default_rng(5)), 48),
    ], ids=["fourier", "conjugate-gradients"])
    def test_direct_agreement_matches_solve_annulus(self, material, n_cols, annulus_calls):
        """The report's agreement with the direct solve equals, bit for bit,
        the agreement with an independent solve_annulus of the same problem,
        on both solve paths."""
        stiffness_builds = annulus_calls("_polar_stencil", stencil_columns)
        comparison_builds = annulus_calls("_identity_stencil", stencil_columns)
        grid = PolarGrid(16.0, 24, 48)
        prob = VariationalProblem(field=material(), force=bump_force([1.0, 0.5, -0.3, 0.2], 16.0))
        u_fix, rep = contraction_solve(prob, grid)
        u_dir = solve_annulus(prob, grid)
        assert stiffness_builds == [(24, 48, n_cols), (24, 48, n_cols)]
        assert comparison_builds == [(24, 48, 1)]
        agree = np.abs(u_fix.values - u_dir.values).max() / max(np.abs(u_dir.values).max(), 1e-300)
        assert rep.converged
        assert rep.direct_agreement == agree
        assert 0.0 < agree <= 1e-4

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
        """The measure of an increment, sqrt(x^T K0 x / scale) with the polar
        stencil K0 of scale * Id_Lin, is the Gauss-rule L^2 norm of the
        Cartesian gradient of the field with polar components x on the free
        rings and zero on the Dirichlet rings, for both outer conditions."""
        grid = PolarGrid(16.0, 24, 48)
        rng = np.random.default_rng(2)
        for last in (grid.n_r - 2, grid.n_r - 1):          # Dirichlet, traction-free
            x = rng.normal(size=(last, grid.n_theta, 2))
            K0_f = _identity_stencil(grid, 1.7)[1:last + 1]
            norm = np.sqrt(np.vdot(x, _stiffness_apply(K0_f, x)) / 1.7)
            values = np.zeros((grid.n_r, grid.n_theta, 2))
            values[1:last + 1] = _to_cartesian(_rotations(grid.thetas), x)
            g = DiscreteField(grid, values).gradient_at_qp()
            ref = np.sqrt(np.sum(grid.qp_weights[:, None] * np.sum(g * g, axis=(-2, -1))))
            assert abs(norm - ref) <= 1e-13 * ref, last

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
        c0 = np.broadcast_to(1.25 * ID_LIN, grid.gauss_points().shape[:-1] + (2, 2, 2, 2))
        comparison = ReferenceSystem(prob, grid, c0)
        res = heterogeneous.rhs
        norms = []
        for _ in range(rep.n_iter):
            inc = comparison.solve(res)
            res = res - heterogeneous.K_ff @ inc
            full = np.zeros(2 * grid.n_r * grid.n_theta)
            full[heterogeneous.free] = inc
            g = DiscreteField(grid, full.reshape(grid.n_r, grid.n_theta, 2)).gradient_at_qp()
            norms.append(np.sqrt(np.sum(grid.qp_weights[:, None] * np.sum(g * g, axis=(-2, -1)))))
        ref = np.asarray(norms[1:]) / np.asarray(norms[:-1])
        assert rep.factors.shape == ref.shape
        assert np.all(np.abs(rep.factors - ref) <= 1e-6 * ref)
