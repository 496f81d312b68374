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
    """annulus_calls(name): the grids (n_r, n_theta) of the calls that
    stokes_lab.annulus makes from now on to its builder `name`, whose first
    argument is the grid, in call order."""
    from stokes_lab import annulus

    def count(name):
        calls = []
        real = getattr(annulus, name)

        def counting(grid, *args, **kwargs):
            calls.append((grid.n_r, grid.n_theta))
            return real(grid, *args, **kwargs)

        monkeypatch.setattr(annulus, name, counting)
        return calls

    return count


class ReferenceSystem:
    """The discrete annulus problem assembled the textbook way: the element
    matrices scattered into one scipy.sparse matrix K, the free DOFs (the
    rings between the Dirichlet rings, as one slice `free` of the flat
    ring-major DOFs) selected from it, and a SuperLU solve, factored on
    first use.  The stencil solvers are tested against it.

    vals holds the flat nodal values carrying the Dirichlet data, K_ff the
    free-DOF stiffness and rhs = b_f - K_fd u_d."""

    def __init__(self, problem, grid, action=None):
        import scipy.sparse as sp

        from stokes_lab.annulus import _element_matrices, _force_vector

        if action is None:
            action = problem.field(grid.qp_points)
        ke = _element_matrices(grid.qp_shape_gradients, grid.qp_weights, action)
        dofs = (2 * grid.cells[:, :, None] + np.arange(2)).reshape(-1, 8)
        rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
        ndof = 2 * grid.n_nodes
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
        self.rhs = _force_vector(grid, problem.force)[self.free] - K_f @ self.vals
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
