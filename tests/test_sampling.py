import random
from fractions import Fraction

from hypothesis import given, strategies as st

from superbethe.rational import ONE
from superbethe.sampling import ParameterSampler

from oracles import generic_draws


@given(
    seed=st.integers(0, 10**6),
    c=st.sampled_from((1, Fraction(3, 2), Fraction(-2, 7))),
    n=st.integers(1, 4),
    near=st.lists(st.sampled_from((0, 1, -1)), max_size=3),
    ints=st.lists(st.integers(-64, 64), max_size=3),
    fractions=st.lists(st.fractions(-4, 4, max_denominator=64), max_size=3),
)
def test_generic_returns_the_oracles_draws(seed, c, n, near, ints, fractions):
    """The int-pair genericity test keeps exactly the candidates the
    rational one keeps, with the same RNG calls. near puts values at 0 and
    +-c from the first candidate into avoid, so each of the three tests
    rejects a draw."""
    rng = random.Random(seed)
    first = Fraction(rng.randint(-64, 64), rng.randint(1, 64))
    avoid = (*(first + k * c for k in near), *ints, *fractions)
    smp, rng = ParameterSampler(seed, c), random.Random(seed)
    drawn = smp.generic(n, avoid)
    assert drawn == generic_draws(rng, ONE * c, n, avoid)
    # the generator stays in step: a second call draws the same again
    assert smp.generic(2, drawn) == generic_draws(rng, ONE * c, 2, drawn)
