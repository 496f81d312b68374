import functools

import numpy as np
import pytest

_ACCEPTANCE_LINES = []


def record_criterion(number: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    line = f"ACCEPTANCE {number:2d}: {tag} - {description}{suffix}"
    _ACCEPTANCE_LINES.append((number, line))
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def annulus_calls(monkeypatch):
    """annulus_calls(name, result=None): the grids (n_r, n_theta) of the
    calls that stokes_lab.annulus makes from now on to its function `name`,
    which takes a grid, in call order; each followed by result(returned
    value) when result is given."""
    from stokes_lab import annulus

    def count(name, result=None):
        calls = []
        real = getattr(annulus, name)

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            grid = next(a for a in args if isinstance(a, annulus.PolarGrid))
            calls.append((grid.n_r, grid.n_theta) + (() if result is None else (result(out),)))
            return out

        monkeypatch.setattr(annulus, name, counting)
        return calls

    return count


def random_spd_tensor(seed):
    """Major-symmetric positive tensor from the seeded SPD Voigt matrix
    a a^T + 3 I, a a standard normal 3x3 draw."""
    from stokes_lab.tensors import _VOIGT, ElasticityTensor

    a = np.random.default_rng(seed).normal(size=(3, 3))
    m = a @ a.T + 3.0 * np.eye(3)
    return ElasticityTensor(np.einsum("aij,ab,bhk->ijhk", _VOIGT, m, _VOIGT))


def shear_unstable_tensor():
    """Components of the isotropic form with mu = 1 and lambda = -3: the
    acoustic tensor I - 2 b x b has eigenvalues 1 and -1 at every direction
    b, so the strong-ellipticity margin is -1."""
    from stokes_lab.tensors import ElasticityTensor

    d = np.eye(2)
    return ElasticityTensor(np.einsum("ih,jk->ijhk", d, d) + np.einsum("ik,jh->ijhk", d, d)
                            - 3.0 * np.einsum("ij,hk->ijhk", d, d))


def degiorgi_problem(xi, coef=(1.0, -1.0)):
    """The closed-form field ClosedFormSolution(xi, *coef) and the problem on
    degiorgi_tensor(xi) posed with its values on both rings, but zero on the
    inner ring for the growth branch (1, -1): it vanishes at r = 1, where its
    closed form reads up to 1.1e-16 at the nodes."""
    from stokes_lab.annulus import VariationalProblem
    from stokes_lab.degiorgi import ClosedFormSolution, degiorgi_tensor

    sol = ClosedFormSolution(xi, *coef)
    prob = VariationalProblem(
        field=degiorgi_tensor(xi),
        inner_data=sol.displacement if coef != (1.0, -1.0) else None,
        outer_data=sol.displacement,
    )
    return sol, prob


def closed_form_audit(grid, coef):
    """growth_monotonicity_check of ClosedFormSolution(2, *coef) sampled on
    the grid, at the rate gamma of its material's bounds (1, 1 + 4/2^2)."""
    from stokes_lab.annulus import energy_profiles, growth_monotonicity_check
    from stokes_lab.degiorgi import ClosedFormSolution
    from stokes_lab.polar import DiscreteField
    from stokes_lab.tensors import gamma_exponent

    u = DiscreteField.sample(grid, ClosedFormSolution(2.0, *coef).displacement)
    return growth_monotonicity_check(energy_profiles(u), gamma_exponent(1.0, 2.0))


def kelvin_field(source):
    """The displacement U(x - source) e_1 of a point force e_1 at source in
    the isotropic material with moduli (1, 1), a function of points x."""
    from stokes_lab.kelvin import FundamentalSolution
    from stokes_lab.tensors import IsotropicModuli

    fs = FundamentalSolution.isotropic(IsotropicModuli(1.0, 1.0))
    return lambda p: fs(np.asarray(p) - np.asarray(source)) @ np.array([1.0, 0.0])


def fourier_ring_data(coef, th) -> np.ndarray:
    """Ring data (th.size, 2) at the angles th: harmonics 1..len(coef), the
    coefficients coef[k] of cos and sin in u1, then in u2."""
    u = np.zeros((th.size, 2))
    for k in range(len(coef)):
        u[:, 0] += coef[k, 0] * np.cos((k + 1) * th) + coef[k, 1] * np.sin((k + 1) * th)
        u[:, 1] += coef[k, 2] * np.cos((k + 1) * th) + coef[k, 3] * np.sin((k + 1) * th)
    return u


def cell_nodes(grid) -> np.ndarray:
    """(n_r - 1, n_theta, 4) ring-major ids i * n_theta + j of the corner
    nodes of every cell."""
    from stokes_lab.polar import CORNER_ANGLE, CORNER_RING

    i, j = np.meshgrid(np.arange(grid.n_r - 1), np.arange(grid.n_theta), indexing="ij")
    return np.stack([(i + di) * grid.n_theta + (j + dj) % grid.n_theta
                     for di, dj in zip(CORNER_RING, CORNER_ANGLE)], axis=-1)


def element_matrices(grid, action) -> np.ndarray:
    """(n_r - 1, n_theta, 8, 8) Cartesian element matrices of every cell,
    rows and columns (corner a, component m): the textbook sum over the
    Gauss points q and k, l of w_q d_k N_a C_mkhl d_l N_b, for the material
    components action (n_r - 1, n_theta, nq, 2, 2, 2, 2)."""
    g = grid.shape_gradients(grid.n_theta)
    ke = np.einsum("iq,ijqak,ijqmkhl,ijqbl->ijambh", grid.qp_weights, g, action, g)
    return ke.reshape(ke.shape[:2] + (8, 8))


class ReferenceSystem:
    """The discrete annulus problem assembled the textbook way: the element
    matrices (element_matrices) scattered into one scipy.sparse matrix K over a node numbering
    of its own (node (i, j) is i * n_theta + j, ring-major, the cells'
    corners from CORNER_RING and CORNER_ANGLE), the free DOFs (the rings
    between the Dirichlet rings, as one slice `free` of the flat DOFs)
    selected from it, and a SuperLU solve, factored on first use.  The
    stencil solvers are tested against it, and it shares no code with the
    stencil builder.

    vals holds the flat nodal values carrying the Dirichlet data, K_ff the
    free-DOF stiffness and rhs = b_f - K_fd u_d."""

    def __init__(self, problem, grid, action=None):
        import scipy.sparse as sp

        from stokes_lab.annulus import _force_vector

        if action is None:
            action = problem.field(grid.gauss_points())
        ke = element_matrices(grid, action)
        dofs = (2 * cell_nodes(grid)[..., None] + np.arange(2)).reshape(-1, 8)
        rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
        ndof = 2 * grid.n_r * grid.n_theta
        self.K = sp.csr_matrix((ke.ravel(), (rows.ravel(), cols.ravel())), shape=(ndof, ndof))

        u = np.zeros((grid.n_r, grid.n_theta, 2))
        u[0] = problem.boundary_values(grid, "inner")
        last = grid.n_r - 1
        if problem.outer_kind == "dirichlet":
            u[-1] = problem.boundary_values(grid, "outer")
            last -= 1
        self.vals = u.reshape(-1)
        self.free = slice(2 * grid.n_theta, 2 * grid.n_theta * (last + 1))
        K_f = self.K[self.free]
        self.rhs = _force_vector(grid, problem.force).ravel()[self.free] - K_f @ self.vals
        self.K_ff = K_f[:, self.free].tocsc()

    @functools.cached_property
    def _lu(self):
        import scipy.sparse.linalg as spla

        return spla.factorized(self.K_ff)

    def solve(self, rhs=None) -> np.ndarray:
        """K_ff^-1 rhs, by default for the problem's own right-hand side."""
        return self._lu(self.rhs if rhs is None else rhs)

    def nodal(self) -> np.ndarray:
        """The flat nodal values of the problem's solution."""
        u = self.vals.copy()
        u[self.free] = self.solve()
        return u
