"""The gl(1|2) instance: tilde Bethe vectors and composite factorizations.

Reuses the graded/monodromy machinery generically over the signature; only
the weight and the gradation differ. The tilde vectors read

  (-1)^a sum  g(uI,vI) f(vI,vII) g(uII,uI) h(vI,vI)
              / (lam2(uII) lam2(vs) f(us,vs))
              x T13sym(vI) T23(vII) T12sym(uII) . Omega

over splits with #uI = #vI (note f(us,vs) with the u-family first, and the
within-set product h(vI,vI), whose diagonal h(x,x) is 1). This is the plan
of the gl(2|1) vectors evaluated by bethe.build_family: on gl(1|2) T12 and
T13 are the odd entries and get the symmetrization, T23 is even. The dual
is the same mirror as on gl(2|1), whose sign (-1)^{m(m-1)/2} counts m = a
odd factors here. The weight is the shorthand TILDE_WEIGHT, read like the
gl(2|1) weight off its compiled plan as one product over the (num, den)
int pairs of the family's scalars.PairTable, and build_family divides it
by the tabulated f(us,vs) once per term.

The composite's vacuum eigenvalues are not fitted: each is the product of
its parts' (Model.lam_pair), and the gl12 suite checks that against the
composite's own T(u) with the vacuum axioms before it runs the tilde
factorizations on that one model. The factorization checks take a
SplitChain or its CompositeModel (composite.composite_model).

resolve_sign and the checks' sign argument are kept for the benchmark
(bench/workloads.py calls them, bench/tracer.py wraps resolve_sign by
name) until a benchmark change drops them: resolve_sign derives the sign
from the vacuum axioms and is always 1, and sign accepts only 1.
"""

from __future__ import annotations

from .bethe import _guard, build_family, nested_vector
from .composite import composite_model, factorization_residual
from .graded import GL12, DualGradedVector, GradedVector
from .monodromy import vacuum_residuals

TILDE_WEIGHT = "g(uI,vI)*f(vI,vII)*g(uII,uI)*h(vI,vI)"


def build_tilde_vector(model, us, vs, nested=False) -> GradedVector:
    """B~_{a,b}(us; vs) on a gl(1|2) realization; with nested, by
    bethe.nested_vector."""
    _guard(model, GL12)
    if nested:
        return nested_vector(model, us, vs)
    vec = build_family(model, us, vs, TILDE_WEIGHT, dual=False)
    return vec.scale(-1) if len(us) % 2 else vec


def build_tilde_dual_vector(model, us, vs, nested=False) -> DualGradedVector:
    """C~_{a,b}(us; vs), the mirror of B~_{a,b}(us; vs) without its (-1)^a;
    with nested, by bethe.nested_vector."""
    _guard(model, GL12)
    return nested_vector(model, us, vs, dual=True) if nested else build_family(model, us, vs, TILDE_WEIGHT, dual=True)


TILDE_KET_COEFF = "r3_1(vII)*r1_2(uI)*f(vI,vII)*g(uII,uI)/f(uI,vII)"
TILDE_BRA_COEFF = "r3_2(vI)*r1_1(uII)*f(vII,vI)*g(uI,uII)/f(uII,vI)"


def _total(split, sign):
    """composite_model(split); sign, the benchmark's argument, must be 1."""
    if sign != 1:
        raise ValueError(f"the composite's vacuum eigenvalues are its parts' products, with sign 1, not {sign}")
    return composite_model(split)


def check_tilde_factorization(split, us, vs, sign=1):
    """Total tilde vector minus its bilinear combination of partial tilde
    vectors, written part 1 first; split a SplitChain or its CompositeModel
    (composite_model)."""
    return factorization_residual(
        _total(split, sign), us, vs, build_tilde_vector, coeff=TILDE_KET_COEFF, part2_written_first=False
    )


def check_tilde_dual_factorization(split, us, vs, sign=1):
    return factorization_residual(
        _total(split, sign), us, vs, build_tilde_dual_vector, coeff=TILDE_BRA_COEFF, dual=True, part1_written_first=False
    )


def resolve_sign(split, us, vs) -> int:
    """1, the sign of the composite's vacuum eigenvalues, derived and not
    fitted: the vacuum axioms of split's composite (a SplitChain or its
    CompositeModel) hold at every point of us and vs, else ValueError."""
    total = composite_model(split)
    if not all(ok for u in (*us, *vs) for _, ok in vacuum_residuals(total, u)):
        raise ValueError("the composite's vacuum axioms fail")
    return 1
