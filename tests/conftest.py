import sys
from collections import Counter
from fractions import Fraction

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


_FRACTION_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__floordiv__",
    "__rfloordiv__",
    "__mod__",
    "__neg__",
    "__pow__",
)


@pytest.fixture
def fraction_ops(monkeypatch):
    """Counts the Fraction operations of the program: every arithmetic
    operator call, and every Fraction built outside the fractions module."""
    count = Counter()
    for name in _FRACTION_OPS:
        honest = getattr(Fraction, name)

        def op(*args, _name=name, _honest=honest):
            count[_name] += 1
            return _honest(*args)

        monkeypatch.setattr(Fraction, name, op)
    honest_new = Fraction.__new__

    def new(cls, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") != "fractions":
            count["__new__"] += 1
        return honest_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", new)
    return count
