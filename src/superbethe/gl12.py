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

The composite normalization sign for the total vacuum eigenvalues is not
assumed: resolve_sign probes the primal factorization under both choices and
reports the unique one that holds. The tilde factorization checks and
resolve_sign take a SplitChain, or the CompositeModels of that split built
with each lambda_sign (composite.composite_model): the gl12 suite builds the
two once, probes with both and runs its campaigns on the resolved sign's.
"""

from __future__ import annotations

from .bethe import _guard, build_family
from .composite import composite_model, factorization_residual
from .graded import GL12, DualGradedVector, GradedVector


class AmbiguousConvention(RuntimeError):
    """Neither or both composite normalization signs satisfy the factorization."""


TILDE_WEIGHT = "g(uI,vI)*f(vI,vII)*g(uII,uI)*h(vI,vI)"


def build_tilde_vector(model, us, vs) -> GradedVector:
    """B~_{a,b}(us; vs) on a gl(1|2) realization."""
    _guard(model, GL12)
    vec = build_family(model, us, vs, TILDE_WEIGHT, dual=False)
    return vec.scale(-1) if len(us) % 2 else vec


def build_tilde_dual_vector(model, us, vs) -> DualGradedVector:
    """C~_{a,b}(us; vs), the mirror of B~_{a,b}(us; vs) without its (-1)^a."""
    _guard(model, GL12)
    return build_family(model, us, vs, TILDE_WEIGHT, dual=True)


TILDE_KET_COEFF = "r3_1(vII)*r1_2(uI)*f(vI,vII)*g(uII,uI)/f(uI,vII)"
TILDE_BRA_COEFF = "r3_2(vI)*r1_1(uII)*f(vII,vI)*g(uI,uII)/f(uII,vI)"


def check_tilde_factorization(split, us, vs, sign=1):
    """Total tilde vector (under the given normalization sign) minus its
    bilinear combination of partial tilde vectors, written part 1 first;
    split a SplitChain or its CompositeModel of that sign (composite_model)."""
    total = composite_model(split, sign)
    return factorization_residual(
        total, us, vs, build_tilde_vector, coeff=TILDE_KET_COEFF, part2_written_first=False
    )


def check_tilde_dual_factorization(split, us, vs, sign=1):
    total = composite_model(split, sign)
    return factorization_residual(
        total, us, vs, build_tilde_dual_vector, coeff=TILDE_BRA_COEFF, dual=True, part1_written_first=False
    )


def resolve_sign(split, us, vs) -> int:
    """The unique total-normalization sign under which the factorization
    holds at the probe parameters; raises AmbiguousConvention otherwise.
    split is a SplitChain, or {sign: its CompositeModel of that
    lambda_sign} for both signs (composite_model), which a caller probing
    many points builds once."""
    models = split if isinstance(split, dict) else dict.fromkeys((1, -1), split)
    return _sign_from_outcomes({sign: check_tilde_factorization(models[sign], us, vs, sign=sign).is_zero() for sign in (1, -1)})


def _sign_from_outcomes(outcomes: dict) -> int:
    winners = [s for s, ok in outcomes.items() if ok]
    if len(winners) != 1:
        raise AmbiguousConvention(f"factorization holds for signs {winners}")
    return winners[0]
