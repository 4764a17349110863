"""The gl(1|2) instance: tilde Bethe vectors and composite factorizations.

Reuses the graded/monodromy machinery generically over the signature; only
the formula table differs. The tilde vectors read

  (-1)^a sum  g(uI,vI) f(vI,vII) g(uII,uI) h(vI,vI)
              / (lam2(uII) lam2(vs) f(us,vs))
              x T13sym(vI) T23(vII) T12sym(uII) . Omega

over splits with #uI = #vI (note f(us,vs) with the u-family first, and the
within-set product h(vI,vI) over ordered pairs j != k). Here T12 and T13 are
the odd entries and carry creation-type symmetrization; T23 is even. The dual
uses prefactor (-1)^{a(a-1)/2} and the annihilation-type mirror.

The composite normalization sign for the total vacuum eigenvalues is not
assumed: resolve_sign probes the primal factorization under both choices and
reports the unique one that holds.
"""

from __future__ import annotations

from itertools import combinations

from .bethe import _apply_sym, _apply_sym_dual, _partition_terms
from .composite import CompositeModel, SplitChain, bilinear_sum
from .graded import GL12, GL21, DualGradedVector, GradedVector
from .rational import ONE
from .scalars import f, g, h, prod_pairs


class AmbiguousConvention(RuntimeError):
    """Neither or both composite normalization signs satisfy the factorization."""


def gradation_relation_holds() -> bool:
    """[i] on gl(2|1) equals [4-i] on gl(1|2) plus one, mod 2, for i=1,2,3."""
    return all(GL21.par(i) == (GL12.par(4 - i) + 1) % 2 for i in (1, 2, 3))


def _guard_gl12(model):
    if model.sig != GL12:
        raise ValueError(f"tilde constructors are the gl(1|2) form, got {model.sig.name}")


def _self_h_product(xs, c):
    acc = ONE
    for j, k in combinations(range(len(xs)), 2):
        acc = acc * h(xs[j], xs[k], c) * h(xs[k], xs[j], c)
    return acc


def _tilde_weight(u1, u2, v1, v2, c):
    return prod_pairs(g, u1, v1, c) * prod_pairs(f, v1, v2, c) * prod_pairs(g, u2, u1, c) * _self_h_product(v1, c)


def build_tilde_vector(model, us, vs) -> GradedVector:
    """B~_{a,b}(us; vs) on a gl(1|2) realization."""
    _guard_gl12(model)
    acc = GradedVector(model.sig, model.arity)
    omega = model.omega()
    for coef, _u1, u2, v1, v2 in _partition_terms(model, us, vs, _tilde_weight):
        vec = _apply_sym(model, 1, 2, True, u2, omega)
        for v in reversed(v2):
            vec = model.apply_T(2, 3, v, vec)
        vec = _apply_sym(model, 1, 3, True, v1, vec)
        acc = acc.add(vec.scale(coef))
    if len(us) % 2:
        acc = acc.scale(-1)
    return acc


def build_tilde_dual_vector(model, us, vs) -> DualGradedVector:
    """C~_{a,b}(us; vs), built leftward from the dual reference state."""
    _guard_gl12(model)
    a = len(us)
    acc = DualGradedVector(model.sig, model.arity)
    for coef, _u1, u2, v1, v2 in _partition_terms(model, us, vs, _tilde_weight):
        dual = _apply_sym_dual(model, 2, 1, False, u2, model.omega_dual())
        for v in v2:
            dual = model.apply_T_dual(3, 2, v, dual)
        dual = _apply_sym_dual(model, 3, 1, False, v1, dual)
        acc = acc.add(dual.scale(coef))
    if (a * (a - 1) // 2) % 2:
        acc = acc.scale(-1)
    return acc


TILDE_KET_COEFF = "r3_1(vII)*r1_2(uI)*f(vI,vII)*g(uII,uI)/f(uI,vII)"
TILDE_BRA_COEFF = "r3_2(vI)*r1_1(uII)*f(vII,vI)*g(uI,uII)/f(uII,vI)"


def check_tilde_factorization(split: SplitChain, us, vs, sign=1, total=None):
    """Total tilde vector (under the given normalization sign) minus its
    bilinear combination of partial tilde vectors, written part 1 first."""
    total = total or CompositeModel(split, lambda_sign=sign)
    lhs = build_tilde_vector(total, us, vs)
    rhs = bilinear_sum(
        total.part1,
        total.part2,
        us,
        vs,
        coeff=TILDE_KET_COEFF,
        builder=build_tilde_vector,
        part2_written_first=False,
    )
    return lhs.sub(rhs)


def check_tilde_dual_factorization(split: SplitChain, us, vs, sign=1, total=None):
    total = total or CompositeModel(split, lambda_sign=sign)
    lhs = build_tilde_dual_vector(total, us, vs)
    rhs = bilinear_sum(
        total.part1,
        total.part2,
        us,
        vs,
        coeff=TILDE_BRA_COEFF,
        builder=build_tilde_dual_vector,
        dual=True,
        part1_written_first=False,
    )
    return lhs.sub(rhs)


def resolve_sign(split: SplitChain, us, vs) -> int:
    """The unique total-normalization sign under which the factorization
    holds at the probe parameters; raises AmbiguousConvention otherwise."""
    outcomes = {}
    for sign in (1, -1):
        outcomes[sign] = check_tilde_factorization(split, us, vs, sign=sign).is_zero()
    return _sign_from_outcomes(outcomes)


def _sign_from_outcomes(outcomes: dict) -> int:
    winners = [s for s, ok in outcomes.items() if ok]
    if len(winners) != 1:
        raise AmbiguousConvention(f"factorization holds for signs {winners}")
    return winners[0]
