"""Independent oracles shared by the test modules.

T(u) as the embedded product of its factors, for checking the column walk
of monodromy.py; it shares no sign with the walk. The RTT residual as the
rational formula with every factor placed by embed, for checking the
packed entry products of monodromy.check_rtt, and insert_identity, an even
operator lifted by one identity factor, whose sign is the sign of T(u) x I
that check_rtt's plan reads in closed form; perturb_at corrupts one entry
of T at one point. Both exchange residuals as the rational formulas, composing the rational
entries of T(u) and T(v), for checking the packed columns of
monodromy.check_supercommutator, and the Yang-Baxter residual with every
cleared R factor placed by embed, for checking the expansion of
graded.check_ybe. The symmetrized product of odd entries as one operator,
normalized by h one pair at a time, for checking the walked blocks of
bethe.py.

The partition coefficients of the Bethe-vector builders as the closed
formulas read, evaluated by the scalar functions g, f, h and izergin and
their set product prod_pairs one pair at a time, for checking
bethe._partition_terms, which computes them from integer pair tables.
Every shorthand coefficient the same way, at every split of a base
Binding's sets, for checking the plans of notation.compile_plan, which read
that Binding's one pair table at the split's index tuples. The sampler's
genericity test by rational subtraction, for checking
ParameterSampler.generic, which tests the cleared int pairs. One packed
operator applied to a sparse column at a time (packed_product), for
checking graded.packed_products, which applies nine in one pass. A
composite whose stated vacuum eigenvalues are negated (NegatedComposite),
the control that the composite's eigenvalues are checked and not fitted.

The value at a coincidence u = v as a limit by interpolation (ROADMAP
Finding I, interpolated_limit): a builder or a scalar function at
v = u + t for rational t != 0, times its pole polynomial D(t) = t^z E(t),
is a polynomial P, and the value at t = 0 is P^(z)(0) / (z! E(0)). It
shares nothing with the cleared nested walk (bethe.nested_vector) or with
the pole rule of the pair tables (scalars.PairTable), which evaluate the
same points directly.
"""

from functools import cache
from itertools import combinations, count, islice, product
from math import comb, gcd, prod

from superbethe import bethe, gl12, monodromy
from superbethe.actions import action_binding, load_formula_table
from superbethe.composite import CompositeModel, SplitChain, load_class_table, ratio_funcs
from superbethe.errors import DivisionByZero
from superbethe.graded import GL21, GradedOperator, GradedVector, clear_denominators, embed, parity_table, r_matrix
from superbethe.monodromy import ChainModel, ChainSpec, extract_entries
from superbethe.notation import (
    Binding,
    Call,
    Div,
    Lit,
    Mul,
    Neg,
    Pow,
    compile_plan,
    enumerate_partitions,
    plan_value,
    print_expr,
)
from superbethe.rational import ONE, rat
from superbethe.sampling import ParameterSampler
from superbethe.scalars import f, g, h, is_zero, izergin, ratio


def generic_draws(rng, c, n, avoid=()):
    """ParameterSampler.generic as a test on rationals: each candidate of
    the random.Random rng is built as p/q and kept iff its difference from
    every avoided or kept value, by rational subtraction, misses 0, c and
    -c; the sampler tests the same on the cleared int pairs."""
    out = []
    while len(out) < n:
        x = rat(rng.randint(-64, 64), rng.randint(1, 64))
        diffs = [x - y for y in (*avoid, *out)]
        if not any(is_zero(d) or is_zero(d - c) or is_zero(d + c) for d in diffs):
            out.append(x)
    return tuple(out)


def prod_pairs(fn, left, right, c):
    """prod over l in left, r in right of fn(l, r, c); empty product is 1."""
    acc = ONE
    for l in left:
        for r in right:
            acc = acc * fn(l, r, c)
    return acc


def packed_product(packed, column):
    """sum_k column[k] * packed[k] as one int: the operator whose columns
    are packed ({k: packed column}) applied to the sparse column {k: value},
    one operator at a time, for checking graded.packed_products, which
    forms nine such products in one pass."""
    out = 0
    for k, x in column.items():
        out += x * packed[k]
    return out


def insert_identity(op: GradedOperator, position: int) -> GradedOperator:
    """An even operator with an identity factor inserted at the (1-based)
    tensor position `position`, equal to embedding op on the other positions.

    For an even op (every entry keeps the total parity) embed's sign, the
    parity of the inserted digit d times the number of parity-changing
    factors to its right, reduces to (-1)^{[d] (par(row prefix) +
    par(col prefix))}, the prefixes being the digits left of the inserted
    one; at position 1 there is no sign at all. So each entry is copied
    three times with its index widened by one digit."""
    sig = op.sig
    low = 3 ** (op.arity + 1 - position)  # place value of the inserted digit
    high = 3 * low
    pre = parity_table(sig, position - 1)
    cols = {}
    for c, colmap in op.cols.items():
        ch, cl = divmod(c, low)
        pc = pre[ch]
        even, odd = {}, {}
        for r, v in colmap.items():
            rh, rl = divmod(r, low)
            key = rh * high + rl
            even[key] = v
            odd[key] = -v if pre[rh] ^ pc else v
        base = ch * high + cl
        for d in range(3):
            off = d * low
            cols[base + off] = {k + off: v for k, v in (odd if sig.parity[d] else even).items()}
    return GradedOperator.from_pruned(sig, op.arity + 1, cols)


def embedded_product(sig, c, length, factors, u):
    """T(u) as the ordered product of its factors, each placed on the full
    space by embed (R_{0k} from r_matrix, so from koszul_tensor): a second
    construction, sharing no sign with the walk's swap_sign."""
    arity = length + 1
    acc = None
    for kind, *payload in factors:
        if kind == "diag":
            op = embed(GradedOperator(sig, 1, {k: {k: d} for k, d in enumerate(payload[0])}), (1,), arity)
        else:
            site, xi = payload
            op = embed(r_matrix(u, xi, sig, c), (1, 1 + site), arity)
        acc = op if acc is None else acc.compose(op)
    return acc if acc is not None else GradedOperator.identity(sig, arity)


def embedded_monodromy(model, u):
    return embedded_product(model.sig, model.c, model.arity, model.factors, u)


def rtt_reference(model, u, v, build=None):
    """The rational RTT residual, every factor placed by embed; T(u) from
    build (default: the embedded factor product)."""
    build = build or embedded_monodromy
    n = model.arity + 2
    chain_pos = tuple(range(3, n + 1))
    a = embed(build(model, u), (1,) + chain_pos, n)
    b = embed(build(model, v), (2,) + chain_pos, n)
    r = embed(r_matrix(u, v, model.sig, model.c), (1, 2), n)
    return r.compose(a).compose(b).sub(b.compose(a).compose(r))


def rational_entries(model, u):
    """The nine rational entries of T(u), split off Model.monodromy_op."""
    return extract_entries(model.monodromy_op(u), model.sig, model.arity)


def supercommutator_reference(model, i, j, k, l, u, v, tu, tv):
    """Both exchange residuals of the tuple (i, j, k, l) as the rational
    formulas read, every product a compose of the rational entries tu and
    tv of T(u) and T(v)."""
    p = model.sig.par
    gv = g(u, v, model.c)
    lhs = tu[i, j].compose(tv[k, l])
    swapped = tv[k, l].compose(tu[i, j])
    lhs = lhs.add(swapped) if (p(i) ^ p(j)) and (p(k) ^ p(l)) else lhs.sub(swapped)
    s1 = (p(i) & p(j)) ^ (p(i) & p(l)) ^ (p(j) & p(l))
    rhs1 = tu[i, l].compose(tv[k, j]).sub(tv[i, l].compose(tu[k, j])).scale(-gv if s1 else gv)
    s2 = (p(i) & p(k)) ^ (p(i) & p(l)) ^ (p(k) & p(l))
    rhs2 = tu[k, j].compose(tv[i, l]).sub(tv[k, j].compose(tu[i, l])).scale(gv if s2 else -gv)
    return lhs.sub(rhs1), lhs.sub(rhs2)


def all_supercommutators(model, u, v):
    """{(i, j, k, l): (program residuals, reference residuals)} for all 81
    tuples, the reference on the rational entries of Model.monodromy_op."""
    tu, tv = rational_entries(model, u), rational_entries(model, v)
    return {
        t: (monodromy.check_supercommutator(model, *t, u, v), supercommutator_reference(model, *t, u, v, tu, tv))
        for t in product(range(1, 4), repeat=4)
    }


def ybe_reference(u, v, w, sig, c):
    """The Yang-Baxter residual with every cleared R factor placed by embed
    and the two triple products composed, scaled back by the product of the
    factors' scales; R from r_matrix, so from the super_permutation in
    force."""
    n12, r12 = clear_denominators(r_matrix(u, v, sig, c))
    n13, r13 = clear_denominators(r_matrix(u, w, sig, c))
    n23, r23 = clear_denominators(r_matrix(v, w, sig, c))
    r12, r13, r23 = embed(r12, (1, 2), 3), embed(r13, (1, 3), 3), embed(r23, (2, 3), 3)
    residual = r12.compose(r13).compose(r23).sub(r23.compose(r13).compose(r12))
    return residual.scale(rat(1, n12 * n13 * n23))


def perturb_at(monkeypatch, point, delta=1):
    """Add delta to the first stored entry of every N*T(point) built from now
    on (so delta/N to that entry of T(point))."""
    honest = monodromy.build_cleared_product

    def perturbed(sig, c, length, factors, x):
        n, op = honest(sig, c, length, factors, x)
        if x != point:
            return n, op
        cols = {col: dict(colmap) for col, colmap in op.cols.items()}
        col = min(cols)
        row = min(cols[col])
        cols[col][row] += delta
        return n, GradedOperator(op.sig, op.arity, cols)

    monkeypatch.setattr(monodromy, "build_cleared_product", perturbed)


class NegatedComposite(CompositeModel):
    """A composite that states -lam_i(u), the parts' product negated, while
    its T(u) is the honest one: its T_ii eigenvalue axioms and its
    factorizations must fail."""

    def lam_pair(self, i, u):
        num, den = super().lam_pair(i, u)
        return -num, den


# element -> (i, j) for the symmetrized odd products; tilde names belong to
# the gl(1|2) instance
SYM_ELEMENTS = {
    w: (int(w[-2]), int(w[-1])) for w in ("T13", "T23", "T31", "T32", "T~12", "T~13", "T~21", "T~31")
}


def _h_normalizer(params, c, creation, acc=ONE):
    """acc times the normalizer prod_{j<k} h(x_k, x_j) of creation type, or
    prod_{j<k} h(x_j, x_k) of annihilation type."""
    for j, k in combinations(range(len(params)), 2):
        acc = acc * (h(params[k], params[j], c) if creation else h(params[j], params[k], c))
    if is_zero(acc):
        raise DivisionByZero("h-pole in symmetrized product (u_k - u_j = -c)")
    return acc


def sym_odd_product(model, which, params) -> GradedOperator:
    """The symmetrized product of odd entries as a single operator;
    creation-type for an entry above the diagonal."""
    i, j = SYM_ELEMENTS[which]
    if not params:
        return GradedOperator.identity(model.sig, model.arity)
    acc = model.T(i, j, params[0])
    for x in params[1:]:
        acc = acc.compose(model.T(i, j, x))
    return acc.scale(1 / _h_normalizer(params, model.c, i < j))


def bethe_weight(u1, u2, v1, v2, c):
    """K(vI|uI) f(uI,uII) g(vII,vI)."""
    return izergin(v1, u1, c) * prod_pairs(f, u1, u2, c) * prod_pairs(g, v2, v1, c)


def tilde_weight(u1, u2, v1, v2, c):
    """g(uI,vI) f(vI,vII) g(uII,uI) h(vI,vI)."""
    return prod_pairs(g, u1, v1, c) * prod_pairs(f, v1, v2, c) * prod_pairs(g, u2, u1, c) * prod_pairs(h, v1, v1, c)


# each tabulated weight of the package and its formula
WEIGHTS = {bethe.BETHE_WEIGHT: bethe_weight, gl12.TILDE_WEIGHT: tilde_weight}


def coefficient(model, u1, u2, v1, v2, vs, us, formula):
    """formula(u1, u2, v1, v2, c) / (lam2(u2) lam2(vs) f(vs,us)), f(us,vs) on
    gl(1|2)."""
    c = model.c
    lam2 = lambda xs: prod((model.lam(2, x) for x in xs), start=rat(1))
    base = prod_pairs(f, vs, us, c) if model.sig == GL21 else prod_pairs(f, us, vs, c)
    return formula(u1, u2, v1, v2, c) / (lam2(u2) * lam2(vs) * base)


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


_PAIR_FUNCTIONS = {"g": g, "f": f, "h": h}


def shorthand_value(node, sets, c, funcs):
    """A shorthand coefficient at the parameter sets, one pair at a time
    through g, f, h, izergin and prod_pairs."""
    if isinstance(node, Lit):
        return rat(node.value)
    if isinstance(node, Neg):
        return -shorthand_value(node.arg, sets, c, funcs)
    if isinstance(node, Pow):
        return prod((shorthand_value(node.base, sets, c, funcs) for _ in range(node.exponent)), start=ONE)
    if isinstance(node, Mul):
        return shorthand_value(node.left, sets, c, funcs) * shorthand_value(node.right, sets, c, funcs)
    if isinstance(node, Div):
        return shorthand_value(node.left, sets, c, funcs) / shorthand_value(node.right, sets, c, funcs)
    assert isinstance(node, Call), node
    args = [sets[name] for name in node.args]
    if node.name == "K":
        return izergin(*args, c)
    if node.name in _PAIR_FUNCTIONS:
        return prod_pairs(_PAIR_FUNCTIONS[node.name], *args, c)
    return prod((funcs[node.name](x) for x in args[0]), start=ONE)


def outcome(value):
    """value() or the type of the arithmetic error it raises."""
    try:
        return value()
    except ArithmeticError as err:
        return type(err)


def assert_shorthand_matches(terms, base):
    """Every coefficient of the compiled terms, at every split of base's
    sets by their partitions, as the term's plan (notation.compile_plan)
    gives it and taken through ratio, equals shorthand_value at the
    split's parameters, or both raise the same error; the plan holds
    exactly those splits, in enumeration order. Returns the outcomes."""
    outcomes = []
    for specs, coeff, _ in terms:
        split_sets = [base.sets]
        for spec in specs:
            split_sets = [{**sets, **split} for sets in split_sets for split in enumerate_partitions(spec, sets[spec.source])]
        names, plan = compile_plan(coeff, base.layout, specs)
        assert [dict(zip(names, parts)) for parts, _ in plan] == split_sets, print_expr(coeff)
        for sets, (_, reads) in zip(split_sets, plan):
            params = {name: tuple(base.values[k] for k in ks) for name, ks in sets.items()}
            got = outcome(lambda: rat(*ratio(*plan_value(reads, base.table, base.unary))))
            want = outcome(lambda: rat(shorthand_value(coeff, params, base.c, base.funcs)))
            assert got == want, (print_expr(coeff), params, got, want)
            outcomes.append(got)
    return outcomes


# a chain for the action table and a split for the composite classes, with
# c, twists and lam2 all non-integral
ORACLE_C = rat(3, 2)
ORACLE_CHAIN = ChainSpec(2, (0, rat(1, 3)), (2, rat(2, 3), -3), GL21, ORACLE_C)
ORACLE_SPLIT = SplitChain(
    ChainSpec(1, (0,), (2, rat(2, 3), -3), GL21, ORACLE_C),
    ChainSpec(1, (rat(1, 3),), (rat(1, 2), 1, 5), GL21, ORACLE_C),
)


def packaged_bases(a, b, seed):
    """(compiled terms, base binding) for every entry of the packaged action
    table and class table, at a ubar and vbar of sizes a, b and a z drawn
    from seed."""
    ps = ParameterSampler(seed, ORACLE_C).generic(a + b + 1, avoid=(0, rat(1, 3)))
    us, vs, z = ps[:a], ps[a : a + b], ps[-1]
    action_base = action_binding(ChainModel(ORACLE_CHAIN), us, vs, z)
    funcs = ratio_funcs(ChainModel(ORACLE_SPLIT.part1), ChainModel(ORACLE_SPLIT.part2))
    class_base = Binding({"ubar": tuple(us), "vbar": tuple(vs), "z": (z,)}, c=ORACLE_C, funcs=funcs)
    return [(terms, action_base) for terms in load_formula_table().values()] + [
        (terms, class_base) for terms in load_class_table().values()
    ]


@cache
def _interpolation_weights(nodes, z, at):
    """Rows of Lagrange weights over nodes: for k <= z the coefficients of
    t^k of the basis polynomials L_i, and last their values at the extra
    point at."""
    rows = []
    for i, ti in enumerate(nodes):
        others = nodes[:i] + nodes[i + 1 :]
        poly = [rat(1)]  # prod (t - t_j), lowest degree first
        for tj in others:
            poly = [(poly[k - 1] if k else 0) - tj * (poly[k] if k < len(poly) else 0) for k in range(len(poly) + 1)]
        scale = prod((ti - tj for tj in others), start=rat(1))
        rows.append([poly[k] / scale for k in range(z + 1)] + [prod((at - tj for tj in others), start=rat(1)) / scale])
    return tuple(zip(*rows))


def _entries(x):
    """x as {key: rational}: a graded vector's entries, a scalar at key 0."""
    return dict(x.entries) if isinstance(x, GradedVector) else {0: rat(x)}


def _combination(weights, points):
    """sum of w * x over weights and points, x an entry dict."""
    out = {}
    for w, x in zip(weights, points):
        for key, v in x.items():
            out[key] = out.get(key, 0) + w * v
    return {key: v for key, v in out.items() if v}


def interpolated_limit(value, roots):
    """The value at t = 0 of value(t), a rational or a graded vector whose
    entries are rational functions of t (ROADMAP Finding I). roots are the
    roots of its pole polynomial D(t) = prod (t - r), with multiplicity, z
    of them 0, so D = t^z E with E(0) != 0: value has no pole off them, and
    P = D * value is a polynomial of degree at most deg D, as where value
    is bounded at infinity. P is read at deg D + 1 rational t off the
    roots, interpolated, and checked at one t more, which fails loudly
    where deg P exceeds deg D; the value at 0 is
    P^(z)(0) / (z! E(0)), the coefficient of t^z of P over E(0). A pole at
    0, a nonzero coefficient of t^k in P for some k < z, raises
    DivisionByZero, as the program does at a pole."""
    roots = tuple(rat(r) for r in roots)
    z = roots.count(0)
    grid = (t for t in (rat(k, 3) for k in count(1)) if t not in roots)
    *nodes, at = islice(grid, len(roots) + 2)
    pole = lambda t: prod((t - r for r in roots), start=rat(1))
    first = value(nodes[0])
    samples = [(pole(t), _entries(x)) for t, x in zip(nodes, (first, *map(value, nodes[1:])))]
    samples = [{key: d * v for key, v in x.items()} for d, x in samples]
    *coefficients, check = (_combination(w, samples) for w in _interpolation_weights(tuple(nodes), z, at))
    d = pole(at)
    assert check == {key: d * v for key, v in _entries(value(at)).items()}, "P has a degree above the nodes"
    if any(coefficients[:z]):
        raise DivisionByZero("a pole at t = 0 in an interpolated value")
    e0 = prod((-r for r in roots if r), start=rat(1))
    limit = {key: v / e0 for key, v in coefficients[z].items()}
    if isinstance(first, GradedVector):
        return type(first)(first.sig, first.arity, limit)
    return limit.get(0, rat(0))


def coincidence_roots(model, us, vs, steps):
    """The roots of the pole polynomial of a Bethe vector (B, C, B~ or C~)
    of model at (us, vs(t)), vs(t) = vs + t * steps: for every moving v, the
    t at which it meets an inhomogeneity (a pole of T(v)), at which its
    difference from a u is 0 (K or g(uI,vI)) or -c on gl(2|1), c on
    gl(1|2) (1/f(vs,us), resp. 1/f(us,vs)), and at which its difference
    from another v is 0, c or -c (g or f of two vs, an h-normalizer)."""
    c, shift = model.c, -model.c if model.sig == GL21 else model.c
    moving = [(v, 0, (0, shift)) for v in us] + [(v, s, (0, c, -c)) for v, s in zip(vs, steps)]
    roots = []
    for k, (x, s, _) in enumerate(moving):
        if not s:
            continue
        roots += [(xi - x) / s for part in model.parts for xi in part.xi]
        for j, (y, r, gaps) in enumerate(moving):
            if j != k and (j < k or not r) and s != r:
                roots += [(d - (x - y)) / (s - r) for d in gaps]
    return roots


def vector_at_coincidence(build, model, us, vs, steps):
    """build(model, us, vs) at a coincidence, vs + t * steps at t = 0 for
    steps of ints, 0 at a fixed v, by interpolated_limit: build is called
    at t != 0 only, where no u equals a v."""
    us, vs = tuple(us), tuple(vs)
    moved = lambda t: tuple(v + s * t for v, s in zip(vs, steps))
    return interpolated_limit(lambda t: build(model, us, moved(t)), coincidence_roots(model, us, vs, steps))
