"""Independent oracles shared by the test modules.

T(u) as the embedded product of its factors, for checking the column walk
of monodromy.py; it shares no sign with the walk and, unlike the walk,
evaluates at eps-shifted points too.

The partition coefficients of the Bethe-vector builders as the closed
formulas read, evaluated by the scalar functions g, f, h, izergin and
prod_pairs one pair at a time (over EpsScalar at an eps-shifted point, then
taken to the limit), for checking bethe._partition_terms, which computes
them from integer pair tables.
"""

from itertools import combinations
from math import comb, gcd, prod

from superbethe import bethe, gl12
from superbethe.graded import GL21, GradedOperator, embed, r_matrix
from superbethe.rational import rat
from superbethe.scalars import eps_limit, f, g, h, izergin, prod_pairs


def embedded_product(sig, c, length, factors, u):
    """T(u) as the ordered product of its factors, each placed on the full
    space by embed (R_{0k} from r_matrix, so from koszul_tensor): a second
    construction, sharing no sign with the walk's swap_sign."""
    arity = length + 1
    acc = None
    for kind, *payload in factors:
        if kind == "diag":
            op = embed(GradedOperator.diagonal(sig, tuple(payload[0])), (1,), arity)
        else:
            site, xi = payload
            op = embed(r_matrix(u, xi, sig, c), (1, 1 + site), arity)
        acc = op if acc is None else acc.compose(op)
    return acc if acc is not None else GradedOperator.identity(sig, arity)


def bethe_weight(u1, u2, v1, v2, c):
    """K(vI|uI) f(uI,uII) g(vII,vI)."""
    return izergin(v1, u1, c) * prod_pairs(f, u1, u2, c) * prod_pairs(g, v2, v1, c)


def tilde_weight(u1, u2, v1, v2, c):
    """g(uI,vI) f(vI,vII) g(uII,uI) h(vI,vI)."""
    return prod_pairs(g, u1, v1, c) * prod_pairs(f, v1, v2, c) * prod_pairs(g, u2, u1, c) * prod_pairs(h, v1, v1, c)


# each tabulated weight of the package and its formula
WEIGHTS = {bethe._bethe_weight: bethe_weight, gl12._tilde_weight: tilde_weight}


def coefficient(model, u1, u2, v1, v2, vs, us, formula):
    """formula(u1, u2, v1, v2, c) / (lam2(u2) lam2(vs) f(vs,us)), f(us,vs) on
    gl(1|2), at eps = 0."""
    c = model.c
    lam2 = lambda xs: prod((model.lam(2, x) for x in xs), start=rat(1))
    base = prod_pairs(f, vs, us, c) if model.sig == GL21 else prod_pairs(f, us, vs, c)
    return eps_limit(formula(u1, u2, v1, v2, c) / (lam2(u2) * lam2(vs) * base))


def assert_coefficients_match(model, us, vs):
    """Every term of _partition_terms, under both weights, is the lowest-terms
    n/d of the formula's coefficient, one term per split."""
    us, vs = tuple(us), tuple(vs)
    xs = us + vs
    iu, iv = range(len(us)), range(len(us), len(xs))
    want_count = sum(comb(len(us), n) * comb(len(vs), n) for n in range(min(len(us), len(vs)) + 1))
    for weight, formula in WEIGHTS.items():
        _, terms = bethe._partition_terms(model, us, vs, weight)
        assert len(terms) == want_count
        splits = set()
        for n, d, (u2, v2, v1) in terms:
            u1 = tuple(k for k in iu if k not in u2)
            assert set(v1) | set(v2) == set(iv) and len(u1) == len(v1)
            splits.add((u1, v1))
            pick = lambda idx: tuple(xs[k] for k in idx)
            want = coefficient(model, pick(u1), pick(u2), pick(v1), pick(v2), vs, us, formula)
            assert d > 0 and gcd(n, d) == 1, (n, d)
            assert rat(n, d) == want, (formula.__name__, pick(u1), pick(v1), rat(n, d), want)
        assert len(splits) == want_count


def assert_izergin_matches(table, xs, c, n):
    """Every K_n(vs|us) the table gives, vs and us n-subsets of disjoint
    halves of xs, equals scalars.izergin."""
    half = len(xs) // 2
    for iv in combinations(range(half), n):
        for iu in combinations(range(half, len(xs)), n):
            num, den = table.izergin(iv, iu)
            want = izergin(tuple(xs[k] for k in iv), tuple(xs[k] for k in iu), c)
            assert rat(num, den) == want, (iv, iu)
