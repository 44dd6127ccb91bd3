import pytest

from cyclocode.codes import GenMatrix


@pytest.fixture
def row_reductions(monkeypatch):
    """A list that grows by one per rref of a matrix not already canonical:
    the row reductions that the test makes after asking for it."""
    reduced, rref = [], GenMatrix.rref

    def counted(m):
        if not m.canonical:
            reduced.append(m)
        return rref(m)

    monkeypatch.setattr(GenMatrix, "rref", counted)
    return reduced
