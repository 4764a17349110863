"""Bethe vectors and dual Bethe vectors on a chain realization.

The vectors are explicit partition sums over two families of spectral
parameters us (size a) and vs (size b): for each n <= min(a,b) and each
choice of n-element subsets uI, vI,

    K_n(vI|uI) f(uI,uII) g(vII,vI) / (lam2(uII) lam2(vs) f(vs,us))
        x  T13sym(vI) T23sym(vII) T12(uII) . Omega

with symmetrized products of the odd entries and the plain ordered product of
the (mutually commuting) even T12 factors. Dual vectors mirror this from the
left with prefactor (-1)^{(b^2-b)/2} and annihilation-type symmetrization.

Coincident parameters across the two families (forced by the action
formulas, e.g. {z,us};{z,vs}) are handled by eps-separation: the colliding
v-side entry is shifted by the formal infinitesimal, the whole vector is
computed over EpsScalar, and the exact limit is taken entrywise at the end.
Only a single collision is supported; larger overlaps are refused.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DivisionByZero
from .graded import GL21, DualGradedVector, GradedOperator, GradedVector
from .rational import ONE
from .scalars import EPS, eps_limit, f, g, h, is_zero, izergin, prod_pairs

# element -> (i, j, creation?) for the symmetrized odd products; tilde names
# belong to the gl(1|2) instance
SYM_ELEMENTS = {
    "T13": (1, 3, True),
    "T23": (2, 3, True),
    "T31": (3, 1, False),
    "T32": (3, 2, False),
    "T~12": (1, 2, True),
    "T~13": (1, 3, True),
    "T~21": (2, 1, False),
    "T~31": (3, 1, False),
}


def _h_normalizer(params, c, creation):
    acc = ONE
    for j, k in combinations(range(len(params)), 2):
        acc = acc * (h(params[k], params[j], c) if creation else h(params[j], params[k], c))
    if is_zero(acc):
        raise DivisionByZero("h-pole in symmetrized product (u_k - u_j = -c)")
    return acc


def sym_odd_product(model, which, params) -> GradedOperator:
    """The symmetrized product of odd entries as a single operator."""
    i, j, creation = SYM_ELEMENTS[which]
    if not params:
        return GradedOperator.identity(model.sig, model.arity)
    acc = model.T(i, j, params[0])
    for x in params[1:]:
        acc = acc.compose(model.T(i, j, x))
    return acc.scale(1 / _h_normalizer(params, model.c, creation))


def _apply_sym(model, i, j, creation, params, vec):
    for x in reversed(params):
        vec = model.apply_T(i, j, x, vec)
    if len(params) > 1:
        vec = vec.scale(1 / _h_normalizer(params, model.c, creation))
    return vec


def _apply_sym_dual(model, i, j, creation, params, dual):
    for x in params:
        dual = model.apply_T_dual(i, j, x, dual)
    if len(params) > 1:
        dual = dual.scale(1 / _h_normalizer(params, model.c, creation))
    return dual


def _require_distinct(name, xs):
    for i, j in combinations(range(len(xs)), 2):
        if is_zero(xs[i] - xs[j]):
            raise ValueError(f"coincident parameters within {name}: {xs[i]!r}")


def _split(xs, picked):
    chosen = tuple(xs[i] for i in picked)
    rest = tuple(xs[i] for i in range(len(xs)) if i not in picked)
    return chosen, rest


def _guard_gl21(model):
    if model.sig != GL21:
        raise ValueError(f"this constructor is the gl(2|1) form, got {model.sig.name}")


def _partition_terms(model, us, vs, weight):
    """Partition scaffolding shared by the Bethe, dual and tilde vectors: every
    split us = u1+u2, vs = v1+v2 with #u1 = #v1, and its coefficient
    weight(u1, u2, v1, v2, c) / (lam2(u2) lam2(vs) f(vs,us)), with f(us,vs)
    in place of f(vs,us) on gl(1|2)."""
    us, vs = tuple(us), tuple(vs)
    _require_distinct("us", us)
    _require_distinct("vs", vs)
    c = model.c
    lam2 = lambda xs: _prod(model.lam(2, x) for x in xs)
    names, left, right = ("vs,us", vs, us) if model.sig == GL21 else ("us,vs", us, vs)
    base = lam2(vs) * prod_pairs(f, left, right, c)
    if is_zero(base):
        raise DivisionByZero(f"f({names}) vanishes (a pair at difference -c); parameters not generic")
    for n in range(min(len(us), len(vs)) + 1):
        for iu in combinations(range(len(us)), n):
            u1, u2 = _split(us, iu)
            for iv in combinations(range(len(vs)), n):
                v1, v2 = _split(vs, iv)
                yield weight(u1, u2, v1, v2, c) / (lam2(u2) * base), u1, u2, v1, v2


def _bethe_weight(u1, u2, v1, v2, c):
    return izergin(v1, u1, c) * prod_pairs(f, u1, u2, c) * prod_pairs(g, v2, v1, c)


def _prod(xs):
    acc = ONE
    for x in xs:
        acc = acc * x
    return acc


def build_vector(model, us, vs) -> GradedVector:
    """B_{a,b}(us; vs) on the given chain realization."""
    _guard_gl21(model)
    omega = model.omega()
    acc = GradedVector(model.sig, model.arity)
    for coef, _u1, u2, v1, v2 in _partition_terms(model, us, vs, _bethe_weight):
        vec = omega
        for u in reversed(u2):
            vec = model.apply_T(1, 2, u, vec)
        vec = _apply_sym(model, 2, 3, True, v2, vec)
        vec = _apply_sym(model, 1, 3, True, v1, vec)
        acc = acc.add(vec.scale(coef))
    return acc


def build_dual_vector(model, us, vs) -> DualGradedVector:
    """C_{a,b}(us; vs), built leftward from the dual reference state."""
    _guard_gl21(model)
    b = len(vs)
    acc = DualGradedVector(model.sig, model.arity)
    for coef, _u1, u2, v1, v2 in _partition_terms(model, us, vs, _bethe_weight):
        dual = model.omega_dual()
        for u in u2:
            dual = model.apply_T_dual(2, 1, u, dual)
        dual = _apply_sym_dual(model, 3, 2, False, v2, dual)
        dual = _apply_sym_dual(model, 3, 1, False, v1, dual)
        acc = acc.add(dual.scale(coef))
    if (b * b - b) // 2 % 2:
        acc = acc.scale(-1)
    return acc


# ---------------------------------------------------------------------------
# coincident parameters
# ---------------------------------------------------------------------------


def separate_collision(us, vs):
    """Shift the (single) shared parameter on the v side by eps.

    Returns (us, vs', shifted?) where vs' is vs with the colliding entry
    replaced by entry + eps. Refuses overlaps of size >= 2: the machinery
    carries one infinitesimal only.
    """
    us, vs = tuple(us), tuple(vs)
    hits = [(i, j) for i, u in enumerate(us) for j, v in enumerate(vs) if is_zero(u - v)]
    if not hits:
        return us, vs, False
    if len(hits) > 1:
        raise ValueError(f"{len(hits)} coincident u/v pairs; only one collision is supported")
    _, j = hits[0]
    vs = vs[:j] + (vs[j] + EPS,) + vs[j + 1 :]
    return us, vs, True


def build_vector_limit(model, us, vs, builder=build_vector):
    """Vector at possibly coincident us/vs via the exact eps -> 0 limit."""
    us, vs, shifted = separate_collision(us, vs)
    vec = builder(model, us, vs)
    if shifted:
        vec = vec.map_values(eps_limit)
    return vec


def build_dual_vector_limit(model, us, vs):
    return build_vector_limit(model, us, vs, builder=build_dual_vector)


class PartialCache:
    """Memo for partial Bethe vectors keyed by (tag, parameter tuples)."""

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


# ---------------------------------------------------------------------------
# gradation and serialization
# ---------------------------------------------------------------------------


def grading_of(vec, vacuous=None):
    """Support parity: 0, 1, "mixed", or the vacuous default for zero vectors."""
    p = vec.support_parity()
    return vacuous if p is None else p


def vector_to_json(vec) -> dict:
    from .graded import decode
    from .rational import rat_to_str

    out = {}
    for key in sorted(vec.entries):
        digits = "".join(str(d) for d in decode(key, vec.arity))
        out[digits] = rat_to_str(vec.entries[key])
    return out


def vector_from_json(sig, arity, data) -> GradedVector:
    from .graded import encode
    from .rational import rat_from_str

    entries = {}
    for digits, val in data.items():
        if len(digits) != arity or any(ch not in "123" for ch in digits):
            raise ValueError(f"bad basis multi-index {digits!r}")
        entries[encode(tuple(int(ch) for ch in digits))] = rat_from_str(val)
    return GradedVector(sig, arity, entries)
