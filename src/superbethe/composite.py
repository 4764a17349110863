"""Composite chains: split realizations, bilinear factorizations, and the
replay of the creation-operator action decomposition.

A SplitChain glues two sub-chains; the total monodromy is the auxiliary-space
matrix product of the part monodromies, realized as the factor sequence
(twist2, part-2 R's, twist1, part-1 R's). compose_monodromy independently
re-assembles every total entry as the coproduct sum of separately built
partial entries placed with graded embeddings, which must agree exactly.

Juxtapositions of partial vectors follow the graded product: a part-2 ket
written before a part-1 ket (or a part-1 bra before a part-2 bra) picks up
(-1)^{p1 p2} relative to the plain tensor, with parities read off the actual
support. The factor-exchange identity g(vI,vII) B2 B1 = g(vII,vI) B1 B2 pins
this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bethe import (
    build_dual_vector,
    build_vector,
    build_vector_limit,
    separate_collision,
)
from .errors import SignatureMismatch
from .graded import DualGradedVector, GradedVector, embed, vector_tensor
from .monodromy import ChainModel, ChainSpec, Model, Monodromy
from .notation import Binding, PartSpec, PartitionSpec, enumerate_partitions, parse
from .rational import rat
from .scalars import eps_limit, f, g, h, is_zero, prod_pairs, three_term_witness


@dataclass(frozen=True)
class SplitChain:
    part1: ChainSpec
    part2: ChainSpec

    def __post_init__(self):
        if self.part1.sig != self.part2.sig:
            raise SignatureMismatch("split parts must share the signature")
        if not is_zero(self.part1.c - self.part2.c):
            raise ValueError("split parts must share the constant c")
        for x1 in self.part1.xi:
            for x2 in self.part2.xi:
                if is_zero(x1 - x2):
                    raise ValueError("inhomogeneity sets of the parts must be disjoint")


class CompositeModel(Model):
    """Total realization of a split chain; part 1 occupies the first factors.

    lambda_sign scales every total vacuum eigenvalue (+1 plain product, -1 the
    alternative normalization probed for the gl(1|2) composite convention).
    """

    def __init__(self, split: SplitChain, lambda_sign=1):
        super().__init__()
        self.split = split
        self.part1 = ChainModel(split.part1)
        self.part2 = ChainModel(split.part2)
        self.sig = split.part1.sig
        self.c = split.part1.c
        self.arity = split.part1.length + split.part2.length
        self.lambda_sign = lambda_sign

    def factor_sequence(self):
        l1 = self.split.part1.length
        fs = [("diag", tuple(self.split.part2.twist))]
        for site in range(self.arity, l1, -1):
            fs.append(("site", site, self.split.part2.xi[site - l1 - 1]))
        fs.append(("diag", tuple(self.split.part1.twist)))
        for site in range(l1, 0, -1):
            fs.append(("site", site, self.split.part1.xi[site - 1]))
        return fs

    def lam(self, i, u):
        return self.lambda_sign * self.part1.lam(i, u) * self.part2.lam(i, u)


def coproduct_entries(total: CompositeModel, u) -> Monodromy:
    """T_ij(u) = sum_k T^(1)_kj(u) T^(2)_ik(u) with graded embeddings, summed
    over the parts' scaled entries, so its scale is N_1 N_2."""
    l1, l = total.part1.arity, total.arity
    pos1 = tuple(range(1, l1 + 1))
    pos2 = tuple(range(l1 + 1, l + 1))
    m1 = total.part1.monodromy(u)
    m2 = total.part2.monodromy(u)
    out = {}
    for i in range(1, 4):
        for j in range(1, 4):
            acc = None
            for k in range(1, 4):
                term = embed(m1.scaled[k, j], pos1, l).compose(embed(m2.scaled[i, k], pos2, l))
                acc = term if acc is None else acc.add(term)
            out[(i, j)] = acc
    return Monodromy(total.sig, total.arity, u, m1.scale * m2.scale, out)


def compose_monodromy(split: SplitChain, u):
    """Coproduct-composed monodromy plus its residual against the direct build.

    The sides carry the scales N_1 N_2 (composed) and N_total (direct); each
    residual is (N_total composed - N_1 N_2 direct) / (N_1 N_2 N_total)."""
    total = CompositeModel(split)
    direct = total.monodromy(u)
    composed = coproduct_entries(total, u)
    back = rat(1, composed.scale * direct.scale)
    residuals = {
        ij: op.scale(direct.scale).sub(direct.scaled[ij].scale(composed.scale)).scale(back)
        for ij, op in composed.scaled.items()
    }
    return composed, residuals


# ---------------------------------------------------------------------------
# graded juxtaposition of partial vectors
# ---------------------------------------------------------------------------


def _homogeneous_parity(vec):
    p = vec.support_parity()
    if p == "mixed":
        raise ValueError("partial vector is not parity-homogeneous")
    return p


def compose_ket(v1: GradedVector, v2: GradedVector, part2_written_first: bool) -> GradedVector:
    t = vector_tensor(v1, v2)
    if part2_written_first and _homogeneous_parity(v1) == 1 and _homogeneous_parity(v2) == 1:
        t = t.scale(-1)
    return t


def compose_bra(c1: DualGradedVector, c2: DualGradedVector, part1_written_first: bool) -> DualGradedVector:
    t = vector_tensor(c1, c2)
    if part1_written_first and _homogeneous_parity(c1) == 1 and _homogeneous_parity(c2) == 1:
        t = t.scale(-1)
    return t


# ---------------------------------------------------------------------------
# bilinear partition sums over the two parts
# ---------------------------------------------------------------------------

KET_COEFF = "r1_2(uI)*r3_1(vII)*f(uII,uI)*g(vI,vII)/f(vII,uI)"
BRA_COEFF = "r1_1(uII)*r3_2(vI)*f(uI,uII)*g(vII,vI)/f(vI,uII)"

_SPLIT_U = PartitionSpec("u", (PartSpec("uI"), PartSpec("uII")))
_SPLIT_V = PartitionSpec("v", (PartSpec("vI"), PartSpec("vII")))


def ratio_funcs(m1, m2):
    return {
        "r1_1": lambda x: m1.r(1, x),
        "r3_1": lambda x: m1.r(3, x),
        "r1_2": lambda x: m2.r(1, x),
        "r3_2": lambda x: m2.r(3, x),
    }


class PartialCache:
    """Memo for partial Bethe vectors keyed by (part, parameter tuples)."""

    def __init__(self, builder):
        self.builder = builder
        self.store = {}

    def get(self, tag, model, us, vs):
        key = (tag, tuple(us), tuple(vs))
        vec = self.store.get(key)
        if vec is None:
            vec = self.builder(model, us, vs)
            self.store[key] = vec
        return vec


def bilinear_sum(
    m1,
    m2,
    us,
    vs,
    *,
    coeff=KET_COEFF,
    builder=build_vector,
    dual=False,
    part2_written_first=True,
    part1_written_first=False,
    extra_funcs=None,
    cache=None,
):
    """Sum over all two-part splits of us and vs of coeff x (partial vectors).

    The default coefficient and ket order realize the gl(2|1) composite
    expansion; the dual and gl(1|2) variants pass their own coefficient
    strings, builders and written orders.
    """
    ast = parse(coeff) if isinstance(coeff, str) else coeff
    funcs = ratio_funcs(m1, m2)
    if extra_funcs:
        funcs.update(extra_funcs)
    base = Binding({}, c=m1.c, funcs=funcs)
    cache = cache if cache is not None else PartialCache(builder)
    cls = DualGradedVector if dual else GradedVector
    acc = cls(m1.sig, m1.arity + m2.arity)
    for bu in enumerate_partitions(_SPLIT_U, us, base):
        for bv in enumerate_partitions(_SPLIT_V, vs, bu):
            coef = eval_coeff(ast, bv)
            p1 = cache.get(1, m1, bv.sets["uI"], bv.sets["vI"])
            p2 = cache.get(2, m2, bv.sets["uII"], bv.sets["vII"])
            if dual:
                term = compose_bra(p1, p2, part1_written_first)
            else:
                term = compose_ket(p1, p2, part2_written_first)
            acc = acc.add(term.scale(coef))
    return acc


def eval_coeff(ast, binding):
    from .notation import eval_expr

    return eval_expr(ast, binding)


def bilinear_term_report(m1, m2, us, vs, *, coeff=KET_COEFF, builder=build_vector, part2_written_first=True):
    """Per-partition debugging records: the sets, the coefficient, and the
    L1 norm of the scaled term (all serialized as "p/q" strings)."""
    from .rational import rat_to_str

    ast = parse(coeff) if isinstance(coeff, str) else coeff
    base = Binding({}, c=m1.c, funcs=ratio_funcs(m1, m2))
    cache = PartialCache(builder)
    records = []
    for bu in enumerate_partitions(_SPLIT_U, us, base):
        for bv in enumerate_partitions(_SPLIT_V, vs, bu):
            coef = eval_coeff(ast, bv)
            p1 = cache.get(1, m1, bv.sets["uI"], bv.sets["vI"])
            p2 = cache.get(2, m2, bv.sets["uII"], bv.sets["vII"])
            term = compose_ket(p1, p2, part2_written_first).scale(coef)
            norm = 0
            for val in term.entries.values():
                norm = norm + abs(val)
            records.append(
                {
                    "partition": {name: [rat_to_str(x) for x in bv.sets[name]] for name in ("uI", "uII", "vI", "vII")},
                    "coefficient": rat_to_str(coef),
                    "term_l1_norm": rat_to_str(norm),
                    "support_size": len(term.entries),
                }
            )
    return records


def bilinear_sum_limit(m1, m2, us, vs, **kw):
    """bilinear_sum at a single coincident u/v pair, via the exact eps-limit."""
    us, vs, shifted = separate_collision(us, vs)
    vec = bilinear_sum(m1, m2, us, vs, **kw)
    if shifted:
        vec = vec.map_values(eps_limit)
    return vec


def check_bethe_factorization(split: SplitChain, us, vs, total=None):
    """Total Bethe vector minus its bilinear combination of partial vectors."""
    total = total or CompositeModel(split)
    lhs = build_vector(total, us, vs)
    rhs = bilinear_sum(total.part1, total.part2, us, vs)
    return lhs.sub(rhs)


def check_dual_bethe_factorization(split: SplitChain, us, vs, total=None):
    total = total or CompositeModel(split)
    lhs = build_dual_vector(total, us, vs)
    rhs = bilinear_sum(
        total.part1,
        total.part2,
        us,
        vs,
        coeff=BRA_COEFF,
        builder=build_dual_vector,
        dual=True,
        part1_written_first=True,
    )
    return lhs.sub(rhs)


def check_factor_exchange(split: SplitChain, us1, vs1, us2, vs2):
    """g(vI,vII) B2 B1 - g(vII,vI) B1 B2 on given partial parameter sets."""
    m1 = ChainModel(split.part1)
    m2 = ChainModel(split.part2)
    c = m1.c
    b1 = build_vector(m1, us1, vs1)
    b2 = build_vector(m2, us2, vs2)
    lhs = compose_ket(b1, b2, True).scale(prod_pairs(g, vs1, vs2, c))
    rhs = compose_ket(b1, b2, False).scale(prod_pairs(g, vs2, vs1, c))
    return lhs.sub(rhs)


# ---------------------------------------------------------------------------
# recursion in the number of v-parameters
# ---------------------------------------------------------------------------


def check_recursion(model, us, vs, z):
    """T23(z)/(lam2(z) h(vs,z)) B(us;vs) minus its two-term expansion."""
    us, vs = tuple(us), tuple(vs)
    c = model.c
    norm = 1 / (model.lam(2, z) * prod_pairs(h, vs, (z,), c))
    lhs = model.apply_T(2, 3, z, build_vector(model, us, vs)).scale(norm)
    rhs = build_vector(model, us, (z,) + vs).scale(prod_pairs(f, (z,), us, c))
    for k in range(len(us)):
        u0 = us[k]
        rest = us[:k] + us[k + 1 :]
        coef = g(u0, z, c) * prod_pairs(f, (u0,), rest, c) * norm
        rhs = rhs.add(model.apply_T(1, 3, z, build_vector(model, rest, vs)).scale(coef))
    return lhs.sub(rhs)


def check_composite_creation_actions(split: SplitChain, us, vs, z, total=None):
    """Residuals of the two creation-entry actions on composite-sum vectors."""
    us, vs = tuple(us), tuple(vs)
    total = total or CompositeModel(split)
    m1, m2 = total.part1, total.part2
    c = total.c
    norm = 1 / (total.lam(2, z) * prod_pairs(h, vs, (z,), c))
    cal_b = bilinear_sum(m1, m2, us, vs)

    lhs13 = total.apply_T(1, 3, z, cal_b).scale(norm)
    rhs13 = bilinear_sum_limit(m1, m2, (z,) + us, (z,) + vs)
    res13 = lhs13.sub(rhs13)

    lhs23 = total.apply_T(2, 3, z, cal_b).scale(norm)
    rhs23 = bilinear_sum(m1, m2, us, (z,) + vs).scale(prod_pairs(f, (z,), us, c))
    for k in range(len(us)):
        u0 = us[k]
        rest = us[:k] + us[k + 1 :]
        coef = g(u0, z, c) * prod_pairs(f, (u0,), rest, c)
        rhs23 = rhs23.add(bilinear_sum_limit(m1, m2, (z,) + rest, (z,) + vs).scale(coef))
    res23 = lhs23.sub(rhs23)
    return res13, res23


# ---------------------------------------------------------------------------
# replay of the creation-action decomposition (partition classes A / C)
# ---------------------------------------------------------------------------

_PREFIX = "r1_2(uI)*r3_1(vII)*f(uII,uI)*g(vI,vII)/f(vII,uI)"

# every entry: (inner splits, coefficient, part-2 args, part-1 args)
# set names: outer parts uI/uII, vI/vII; inner singleton ui/vi with rest uii/vii;
# z is the one-element set holding the operator argument.
_A_TERMS = {
    "A1": (
        (),
        "r1_2(z)*r1_2(uI)*r3_1(vII)*f(uII,z)*f(uII,uI)*g(vI,vII)*g(z,vII)/(f(vII,uI)*f(vII,z))",
        ("uII", "vII"),
        (("z", "uI"), ("z", "vI")),
    ),
    "A2": (
        (),
        "r1_2(uI)*r3_1(z)*r3_1(vII)*f(uII,uI)*g(vI,z)*g(vI,vII)/f(vII,uI)",
        (("z", "uII"), ("z", "vII")),
        ("uI", "vI"),
    ),
    "A3": (
        (),
        "r1_2(uI)*r3_1(vII)*f(z,uI)*f(uII,uI)*g(z,vII)*g(vI,vII)/f(vII,uI)",
        (("z", "uII"), "vII"),
        ("uI", ("z", "vI")),
    ),
}

_C_TERMS = {
    "C11": ((), _PREFIX + "*r1_2(z)*f(uII,z)*g(z,vII)/f(vII,z)", ("uII", "vII"), (("z", "uI"), ("z", "vI"))),
    "C12": (
        (("uII", "ui", "uii"),),
        _PREFIX + "*r1_2(ui)*f(uii,ui)*g(z,ui)*g(z,vII)/f(vII,ui)",
        (("z", "uii"), "vII"),
        (("z", "uI"), ("z", "vI")),
    ),
    "C13": (
        (("uII", "ui", "uii"), ("vII", "vi", "vii")),
        _PREFIX + "*r1_2(ui)*f(uii,ui)*g(vi,z)*g(vi,vii)/(f(vii,ui)*h(vi,z)*h(vi,ui))",
        (("z", "uii"), ("z", "vii")),
        (("z", "uI"), ("z", "vI")),
    ),
    "C21": ((), _PREFIX + "*g(z,vII)*f(z,uI)", (("z", "uII"), "vII"), ("uI", ("z", "vI"))),
    "C22": (
        (("uI", "ui", "uii"),),
        _PREFIX + "*g(z,vII)*g(ui,z)*f(ui,uii)",
        (("z", "uII"), "vII"),
        (("z", "uii"), ("z", "vI")),
    ),
    "C23": (
        (("vII", "vi", "vii"),),
        _PREFIX + "*g(vi,z)*g(vi,vii)*f(z,uI)/h(vi,z)",
        (("z", "uII"), ("z", "vii")),
        ("uI", ("z", "vI")),
    ),
    "C24": (
        (("vII", "vi", "vii"), ("uI", "ui", "uii")),
        _PREFIX + "*g(vi,z)*g(vi,vii)*g(ui,z)*f(ui,uii)/h(vi,z)",
        (("z", "uII"), ("z", "vii")),
        (("z", "uii"), ("z", "vI")),
    ),
    "C31": ((), _PREFIX + "*r3_1(z)*g(vI,z)", (("z", "uII"), ("z", "vII")), ("uI", "vI")),
    "C32": (
        (("vI", "vi", "vii"),),
        _PREFIX + "*r3_1(vi)*f(z,uI)*g(z,vi)*g(vii,vi)/(h(vi,z)*f(vi,uI))",
        (("z", "uII"), ("z", "vII")),
        ("uI", ("z", "vii")),
    ),
    "C33": (
        (("uI", "ui", "uii"), ("vI", "vi", "vii")),
        _PREFIX + "*r3_1(vi)*g(ui,z)*f(ui,uii)*g(z,vi)*g(vii,vi)/(h(vi,ui)*f(vi,z)*f(vi,uii))",
        (("z", "uII"), ("z", "vII")),
        (("z", "uii"), ("z", "vii")),
    ),
}


def _resolve_args(binding, spec):
    def one(entry):
        if isinstance(entry, tuple):
            out = ()
            for name in entry:
                out = out + binding.sets[name]
            return out
        return binding.sets[entry]

    return one(spec[0]), one(spec[1])


def _term_sum(name, table, m1, m2, us, vs, z, cache):
    inners, coeff, args2, args1 = table[name]
    ast = parse(coeff)
    base = Binding({"z": (z,)}, c=m1.c, funcs=ratio_funcs(m1, m2))
    acc = GradedVector(m1.sig, m1.arity + m2.arity)
    for bu in enumerate_partitions(_SPLIT_U, us, base):
        for bv in enumerate_partitions(_SPLIT_V, vs, bu):
            bindings = [bv]
            for source, single, rest in inners:
                spec = PartitionSpec(source, (PartSpec(single, 1), PartSpec(rest)))
                bindings = [nb for b in bindings for nb in enumerate_partitions(spec, b.sets[source], b)]
            for b in bindings:
                coef = eval_coeff(ast, b)
                u2, v2 = _resolve_args(b, args2)
                u1, v1 = _resolve_args(b, args1)
                p2 = cache.get(2, m2, u2, v2)
                p1 = cache.get(1, m1, u1, v1)
                acc = acc.add(compose_ket(p1, p2, True).scale(coef))
    return acc


def action_decomposition_report(split: SplitChain, us, vs, z):
    """Replays the partition-class decomposition of the odd-creation action.

    Returns named residual vectors/scalars; every one must be zero:
    the three target classes reassemble the extended composite vector, the
    coproduct classes reassemble the direct operator action, the mixed
    classes cancel pairwise and by the three-term g-identity. That identity
    is witnessed at (ui, vi, z) with ui, vi the first of us and vs, the
    points whose C13, C24 and C33 terms it cancels; with us or vs empty
    those classes have no terms and the witness is 0.
    """
    us, vs = tuple(us), tuple(vs)
    total = CompositeModel(split)
    m1, m2 = total.part1, total.part2
    c = total.c
    cache = PartialCache(build_vector_limit)

    a = {name: _term_sum(name, _A_TERMS, m1, m2, us, vs, z, cache) for name in _A_TERMS}
    cterms = {name: _term_sum(name, _C_TERMS, m1, m2, us, vs, z, cache) for name in _C_TERMS}

    a_sum = a["A1"].add(a["A2"]).add(a["A3"])
    c_sum = GradedVector(total.sig, total.arity)
    for vec in cterms.values():
        c_sum = c_sum.add(vec)

    norm = 1 / (total.lam(2, z) * prod_pairs(h, vs, (z,), c))
    direct = total.apply_T(1, 3, z, bilinear_sum(m1, m2, us, vs)).scale(norm)
    extended = bilinear_sum_limit(m1, m2, (z,) + us, (z,) + vs)

    report = {
        "class_sum_vs_extended_vector": a_sum.sub(extended),
        "class_sum_vs_coproduct_sum": a_sum.sub(c_sum),
        "coproduct_sum_vs_direct_action": c_sum.sub(direct),
        "cancellation_c23_c32": cterms["C23"].add(cterms["C32"]),
        "cancellation_c13_c24_c33": cterms["C13"].add(cterms["C24"]).add(cterms["C33"]),
        "cancellation_c12_c22": cterms["C12"].add(cterms["C22"]),
        "match_c11_a1": cterms["C11"].sub(a["A1"]),
        "match_c21_a3": cterms["C21"].sub(a["A3"]),
        "match_c31_a2": cterms["C31"].sub(a["A2"]),
        "g_identity_witness": three_term_witness(us[0], vs[0], z, c) if us and vs else 0,
    }
    return report
