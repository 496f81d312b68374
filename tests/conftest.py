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
def sparse_lu_calls(monkeypatch):
    """Shapes of the matrices that stokes_lab.annulus hands to SuperLU from
    now on, in call order."""
    from stokes_lab import annulus

    calls = []
    real_sparse_lu = annulus._sparse_lu

    def counting(K):
        calls.append(K.shape)
        return real_sparse_lu(K)

    monkeypatch.setattr(annulus, "_sparse_lu", counting)
    return calls
