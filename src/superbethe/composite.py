"""Composite chains: split realizations, bilinear factorizations, and the
replay of the creation-operator action decomposition.

A SplitChain glues two sub-chains; its total, a CompositeModel, is the one
monodromy.Model over the parts (part1, part2): the auxiliary-space matrix
product of the part monodromies, realized as the factor tuple (twist2,
part-2 R's, twist1, part-1 R's), with each lam_i the product of the parts'
lam_i (Izergin-Korepin), which the suites check against the total's own
T(u) with the vacuum axioms (monodromy.vacuum_residuals).
compose_monodromy independently re-assembles every total entry as the
coproduct sum of graded tensor products of separately built partial
entries, which must agree exactly.

Juxtapositions of partial vectors follow the graded product: a part-2 ket
written before a part-1 ket picks up (-1)^{p1 p2} relative to the plain
tensor, with parities read off the actual support. The factor-exchange
identity g(vI,vII) B2 B1 = g(vII,vI) B1 B2 pins this convention. By the
mirror rule of bethe.py a bra is its ket read from the other side, so a
part-1 bra written before a part-2 bra picks up the same sign.

Every coefficient here is shorthand evaluated by notation: KET_COEFF and
BRA_COEFF, EXCHANGE_COEFFS, RECURSION_COEFFS and the packaged partition
classes; the creation actions on composite sums are actions.action_rhs with
the composite sum as target builder.

Most splits of a composite sum pair a partial vector with one that is zero
by weight: B_{a,b} on L fundamental sites vanishes unless b <= a <= L
(Model.weight_space_nonempty). Every target here goes through the one gate,
bethe.weight_gated: on the parts m1 and m2 for bilinear_sum and the replay's
classes, on the chain for check_recursion, on the total for the creation
actions. notation.partition_sum skips such a split whole, with no
coefficient read and no partial built, so a dead split neither costs nor
raises; the total vector and the live splits still do.

Every composite check (and gl12's) takes a SplitChain, which gets a fresh
CompositeModel, or a suite's CompositeModel, and gets its total one way,
through composite_model. A suite builds its model once per split: its
checks share its point records, walk data, skeleton, tries and coefficient
lists, which B and C share too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, partial
from importlib import resources

from .actions import action_binding, action_norm, action_rhs
from .bethe import (
    PartialCache,
    build_dual_vector,
    build_vector,
    build_vector_limit,
    separate_collision,
    weight_gated,
)
from .errors import SignatureMismatch
from .graded import DualGradedVector, GradedVector, koszul_tensor, linear_combination, vector_tensor
from .monodromy import ChainModel, ChainSpec, Model, Monodromy
from .notation import Binding, PartSpec, PartitionSpec, compile_table, compile_terms, evaluate, partition_sum
from .rational import rat
from .scalars import EpsScalar, eps_limit, is_zero, three_term_witness


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
    """Total realization of a split chain, the Model over (part1, part2);
    part 1 occupies the first sites, and part1 and part2 are the parts'
    ChainModels."""

    def __init__(self, split: SplitChain):
        super().__init__((split.part1, split.part2))
        self.split = split
        self.part1, self.part2 = ChainModel(split.part1), ChainModel(split.part2)


def composite_model(split) -> CompositeModel:
    """The total of a factorization check: a fresh CompositeModel of a
    SplitChain, or split itself if it is a CompositeModel."""
    return split if isinstance(split, CompositeModel) else CompositeModel(split)


def coproduct_entries(total: CompositeModel, u) -> Monodromy:
    """T_ij(u) = sum_k T^(1)_kj(u) T^(2)_ik(u) over the parts' scaled
    entries, so its scale is N_1 N_2. Part 1 occupies the first factors, so
    each term, the product (A x I)(I x B) of the graded embeddings, is the
    graded tensor product koszul_tensor(A, B)."""
    m1 = total.part1.monodromy(u)
    m2 = total.part2.monodromy(u)
    out = {
        (i, j): linear_combination([(1, koszul_tensor(m1.scaled[k, j], m2.scaled[i, k])) for k in range(1, 4)])
        for i in range(1, 4)
        for j in range(1, 4)
    }
    return Monodromy(m1.scale * m2.scale, out)


def compose_monodromy(split, u):
    """Coproduct-composed monodromy plus its residual against the direct
    build; split a SplitChain or its CompositeModel (composite_model).

    The sides carry the scales N_1 N_2 (composed) and N_total (direct); each
    residual is (N_total composed - N_1 N_2 direct) / (N_1 N_2 N_total), one
    linear combination, scaled back only when nonzero."""
    total = composite_model(split)
    direct = total.monodromy(u)
    composed = coproduct_entries(total, u)
    back = rat(1, composed.scale * direct.scale)
    residuals = {}
    for ij, op in composed.scaled.items():
        res = linear_combination([(direct.scale, op), (-composed.scale, direct.scaled[ij])])
        residuals[ij] = res if res.is_zero() else res.scale(back)
    return composed, residuals


# ---------------------------------------------------------------------------
# graded juxtaposition of partial vectors
# ---------------------------------------------------------------------------


def _homogeneous_parity(vec):
    p = vec.support_parity()
    if p == "mixed":
        raise ValueError("partial vector is not parity-homogeneous")
    return p


def compose_ket(x1: GradedVector, x2: GradedVector, reordered: bool) -> GradedVector:
    """Part-1 x1 juxtaposed with part-2 x2, kets and bras alike: the plain
    tensor, times -1 when both are odd and they are written reordered (part
    2 first for kets, part 1 first for bras)."""
    t = vector_tensor(x1, x2)
    if reordered and _homogeneous_parity(x1) == 1 and _homogeneous_parity(x2) == 1:
        t = t.scale(-1)
    return t


# ---------------------------------------------------------------------------
# bilinear partition sums over the two parts
# ---------------------------------------------------------------------------

KET_COEFF = "r1_2(uI)*r3_1(vII)*f(uII,uI)*g(vI,vII)/f(vII,uI)"
BRA_COEFF = "r1_1(uII)*r3_2(vI)*f(uI,uII)*g(vII,vI)/f(vI,uII)"

# every composite sum runs over the free splits of ubar and vbar into the
# parts' parameters
_FREE_SPLITS = (
    PartitionSpec("ubar", (PartSpec("uI"), PartSpec("uII"))),
    PartitionSpec("vbar", (PartSpec("vI"), PartSpec("vII"))),
)


# the vacuum ratios of the parts: r{i}_{p} is r_i of part p
_RATIOS = ("r1_1", "r3_1", "r1_2", "r3_2")


def ratio_funcs(m1, m2):
    return {name: partial(model.r, int(name[1])) for name, model in zip(_RATIOS, (m1, m1, m2, m2))}


@cache
def _bilinear_terms(coeff):
    raw = [{"partitions": [], "coefficient": coeff, "target": [["uI", "vI"], ["uII", "vII"]]}]
    return compile_terms(raw, ("ubar", "vbar"), _RATIOS, _FREE_SPLITS, juxtaposed=True)


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
):
    """Sum over all two-part splits of us and vs of coeff x (partial vectors).

    The default coefficient and ket order realize the gl(2|1) composite
    expansion; the dual and gl(1|2) variants pass their own coefficient
    strings, builders and written orders (part2_written_first for kets,
    part1_written_first for bras).
    """
    reordered = part1_written_first if dual else part2_written_first
    base = Binding({"ubar": tuple(us), "vbar": tuple(vs)}, c=m1.c, funcs=ratio_funcs(m1, m2))
    # each split has its own (uI, vI) and (uII, vII): no partial recurs
    juxtaposed = lambda args, _: compose_ket(builder(m1, *args[:2]), builder(m2, *args[2:]), reordered)
    target = weight_gated(juxtaposed, m1, m2)
    acc = (DualGradedVector if dual else GradedVector)(m1.sig, m1.arity + m2.arity)
    return partition_sum(_bilinear_terms(coeff), base, target, acc)


def bilinear_sum_limit(m1, m2, us, vs, builder=build_vector, **kw):
    """bilinear_sum at a single coincident u/v pair: its coefficients are
    read at the eps-separated parameters (bethe.separate_collision), as
    their exact eps-limits, and its partial vectors at eps = 0 by
    build_vector_limit, so a partial that holds the pair is a nested
    vector."""
    us, shifted, _ = separate_collision(us, vs)

    def at_zero(model, us, vs):
        return build_vector_limit(model, us, tuple(eps_limit(v) if isinstance(v, EpsScalar) else v for v in vs), builder)

    return bilinear_sum(m1, m2, us, shifted, builder=at_zero, **kw)


def factorization_residual(total, us, vs, builder, **kw):
    """The total vector builder(total, us, vs) minus its bilinear combination
    of partial vectors of the same family; kw as for bilinear_sum."""
    lhs = builder(total, us, vs)
    return lhs.sub(bilinear_sum(total.part1, total.part2, us, vs, builder=builder, **kw))


def check_bethe_factorization(split, us, vs):
    """Total Bethe vector minus its bilinear combination of partial vectors;
    split a SplitChain or its CompositeModel (composite_model)."""
    return factorization_residual(composite_model(split), us, vs, build_vector)


def check_dual_bethe_factorization(split, us, vs):
    return factorization_residual(
        composite_model(split), us, vs, build_dual_vector, coeff=BRA_COEFF, dual=True, part1_written_first=True
    )


# the coefficients of B2 B1 and of B1 B2 in the factor exchange
EXCHANGE_COEFFS = ("g(vI,vII)", "g(vII,vI)")


def check_factor_exchange(split, us1, vs1, us2, vs2):
    """g(vI,vII) B2 B1 - g(vII,vI) B1 B2 on given partial parameter sets;
    split a SplitChain or its CompositeModel (composite_model)."""
    total = composite_model(split)
    b1 = build_vector(total.part1, us1, vs1)
    b2 = build_vector(total.part2, us2, vs2)
    sets = Binding({"vI": tuple(vs1), "vII": tuple(vs2)}, c=total.c)
    left, right = (evaluate(coeff, sets) for coeff in EXCHANGE_COEFFS)
    return compose_ket(b1, b2, True).scale(left).sub(compose_ket(b1, b2, False).scale(right))


# ---------------------------------------------------------------------------
# recursion in the number of v-parameters
# ---------------------------------------------------------------------------


# the coefficients of B(ubar; {z, vbar}) and, summed over u0 in ubar, of
# T13(z)/(lam2(z) h(vbar,z)) B(ubar0; vbar), ubar0 = ubar minus u0
RECURSION_COEFFS = ("f(z,ubar)", "g(u0,z)*f(u0,ubar0)")


@cache
def _recursion_terms(coeff):
    raw = [{"partitions": [["ubar", "u0", "ubar0"]], "coefficient": coeff, "target": ["ubar0", "vbar"]}]
    return compile_terms(raw, ("ubar", "vbar", "z"), ())


def check_recursion(model, us, vs, z):
    """T23(z)/(lam2(z) h(vs,z)) B(us;vs) minus its two-term expansion; the
    sum over u0 is one vector, so T13(z) is applied once."""
    us, vs = tuple(us), tuple(vs)
    base = Binding({"ubar": us, "vbar": vs, "z": (z,)}, c=model.c)
    norm = action_norm(model, vs, z, base)
    lhs = model.apply_T(2, 3, z, build_vector(model, us, vs), norm)
    rhs = build_vector(model, us, (z,) + vs).scale(evaluate(RECURSION_COEFFS[0], base))
    target = weight_gated(lambda args, _: build_vector(model, *args), model)
    summed = partition_sum(_recursion_terms(RECURSION_COEFFS[1]), base, target, GradedVector(model.sig, model.arity))
    return lhs.sub(rhs).sub(model.apply_T(1, 3, z, summed, norm))


def check_composite_creation_actions(split, us, vs, z):
    """Residuals of the two creation-entry actions on composite-sum vectors:
    the packaged table's T13 and T23 rows with composite sums as targets;
    split a SplitChain or its CompositeModel (composite_model)."""
    us, vs = tuple(us), tuple(vs)
    total = composite_model(split)
    m1, m2 = total.part1, total.part2
    base = action_binding(total, us, vs, z)
    norm = action_norm(total, vs, z, base)
    cal_b = bilinear_sum(m1, m2, us, vs)
    composite_sum = lambda _, us, vs: bilinear_sum_limit(m1, m2, us, vs)
    return tuple(
        total.apply_T(i, 3, z, cal_b, norm).sub(action_rhs(total, f"T{i}3", us, vs, z, builder=composite_sum, base=base))
        for i in (1, 2)
    )


# ---------------------------------------------------------------------------
# replay of the creation-action decomposition (partition classes A / C)
# ---------------------------------------------------------------------------

@cache
def load_class_table() -> dict:
    """The packaged partition classes A1..A3, C11..C33, compiled."""
    return _compile_classes(json.loads(resources.files("superbethe").joinpath("data/composite_classes.json").read_text()))


def _compile_classes(raw) -> dict:
    return compile_table(raw, ("ubar", "vbar", "z"), _RATIOS, _FREE_SPLITS, juxtaposed=True)


# the residuals of action_decomposition_report, in report order
REPLAY_CHECKS = (
    "class_sum_vs_extended_vector",
    "class_sum_vs_coproduct_sum",
    "coproduct_sum_vs_direct_action",
    "cancellation_c23_c32",
    "cancellation_c13_c24_c33",
    "cancellation_c12_c22",
    "match_c11_a1",
    "match_c21_a3",
    "match_c31_a2",
    "g_identity_witness",
)


def action_decomposition_report(split, us, vs, z):
    """Replays the partition-class decomposition of the odd-creation action
    on split, a SplitChain or its CompositeModel (composite_model).

    Returns the residual vectors/scalars named by REPLAY_CHECKS; every one
    must be zero:
    the three target classes reassemble the extended composite vector, the
    coproduct classes reassemble the direct operator action, the mixed
    classes cancel pairwise and by the three-term g-identity. That identity
    is witnessed at (ui, vi, z) with ui, vi the first of us and vs, the
    points whose C13, C24 and C33 terms it cancels; with us or vs empty
    those classes have no terms and the witness is 0.
    """
    us, vs = tuple(us), tuple(vs)
    total = composite_model(split)
    m1, m2 = total.part1, total.part2
    c = total.c
    base = Binding({"ubar": us, "vbar": vs, "z": (z,)}, c=c, funcs=ratio_funcs(m1, m2))
    partials = PartialCache(build_vector_limit)
    compose = lambda args, keys: compose_ket(
        partials.get(1, m1, *args[:2], key=keys[:2]), partials.get(2, m2, *args[2:], key=keys[2:]), True
    )
    target = weight_gated(compose, m1, m2)
    zero = GradedVector(total.sig, total.arity)
    cls = {name: partition_sum(terms, base, target, zero) for name, terms in load_class_table().items()}

    a_sum = cls["A1"].add(cls["A2"]).add(cls["A3"])
    c_sum = zero
    for name, vec in cls.items():
        if name.startswith("C"):
            c_sum = c_sum.add(vec)

    norm = action_norm(total, vs, z, base)
    direct = total.apply_T(1, 3, z, bilinear_sum(m1, m2, us, vs), norm)
    extended = bilinear_sum_limit(m1, m2, (z,) + us, (z,) + vs)

    residuals = (
        a_sum.sub(extended),
        a_sum.sub(c_sum),
        c_sum.sub(direct),
        cls["C23"].add(cls["C32"]),
        cls["C13"].add(cls["C24"]).add(cls["C33"]),
        cls["C12"].add(cls["C22"]),
        cls["C11"].sub(cls["A1"]),
        cls["C21"].sub(cls["A3"]),
        cls["C31"].sub(cls["A2"]),
        three_term_witness(us[0], vs[0], z, c) if us and vs else 0,
    )
    return dict(zip(REPLAY_CHECKS, residuals))
