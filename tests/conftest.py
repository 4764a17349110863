import pytest

from superbethe import graded


def _flipped_permutation(sig):
    """P built with the row parity in place of the column parity."""
    acc = graded.GradedOperator(sig, 2)
    for i in range(1, 4):
        for j in range(1, 4):
            term = graded.koszul_tensor(graded.GradedOperator.unit(sig, i, j), graded.GradedOperator.unit(sig, j, i))
            acc = acc.add(term.scale(-1) if sig.par(i) else term)
    return acc


@pytest.fixture
def flipped_koszul(monkeypatch):
    """Make r_matrix, and so every R factor, use the wrong Koszul sign."""
    monkeypatch.setattr(graded, "super_permutation", _flipped_permutation)
