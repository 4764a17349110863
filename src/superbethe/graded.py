"""Z2-graded sparse linear algebra on tensor powers of C^{2|1} / C^{1|2}.

Basis multi-indices over {1,2,3} are encoded as base-3 integers (first tensor
factor most significant, so integer order == lexicographic order); parities
are cached per (signature, arity). Here Koszul signs enter in two places:

* koszul_tensor, whose entrywise sign (-1)^{(par(rB)+par(cB)) * par(cA)}
  reproduces the matrix-unit product rule
  (E_ij x E_kl)(E_mn x E_pq) = (-1)^{([k]+[l])([m]+[n])} E_ij E_mn x E_kl E_pq
  verbatim (pinned by an exhaustive unit test), and

* embed, which places an operator on a subset of tensor factors: each
  parity-changing block picks up the parity of the identity-factor column
  digits to its left.

monodromy.py carries three more, none shared with these: swap_sign, the
sign of P_{0k} in the walk of T(u); extraction_sign, one constant per
entry T_ij read off the auxiliary matrix units; and the signs e and e' of
T(u) x I in the RTT plan (_rtt_plan), which also reads the extraction
signs. Everything else is plain sparse matrix algebra; once an operator
is materialized the signs are inside it. Every operator sum (add, sub, R(u,v),
the Yang-Baxter and coproduct residuals) is one linear_combination, with
no intermediate operator.

There are two multiplication kernels. column_product multiplies dict
columns, for composition and application. The packed kernel serves
operators that map each weight space of weight_spaces into a single one,
as the entries T_ab(u) do: over a space of S keys a column {key: x} is
one int with x in the slot of its key (pack, slot_shifts),
packed_products applies nine packed operators to one sparse column in one
pass over its entries, and unpack reads a column back in balanced base
2^W. With every |x| below 2^(W-1) (slot_width) a packed column is 0
exactly when the column is. The RTT pass of monodromy.py, which serves
RTT and the exchange relations alike, multiplies the nine entries of T(u)
by each column of an entry of T(v) through it, and the other way round.

The operator identities (Yang-Baxter, unitarity, and in monodromy.py and
composite.py RTT, the exchange relations and the coproduct) are homogeneous
in their factors, so they run on integer operators: every embed, compose,
packed product and sum multiplies Python ints, and the residual is scaled
back by the product of the scales, which makes it equal to the residual of
the rational formula. The Yang-Baxter residual is a fixed combination of
four products of permutations (check_ybe) and the unitarity residual a
multiple of P^2 - I (check_unitarity), all composed once per P.

Vectors are stored fraction-free, as in bareiss_det (Bareiss, Math. Comp.
22, 1968): a GradedVector holds num, {key: int} with no zero, over one
positive int den. The constructor clears rational entries once, and
from_ints adopts ints as they are. scale, add, sub, vector_tensor and ==
work on the ints: the lcm of two denominators, their product, a
cross-multiplied comparison. entries, {key: num/den}, is a read-only view
for printing and serializing, built on its first read, and num itself at
den 1. Entries that are not all rational (EpsScalars, which only the
materialized test oracles build) are kept as given over den 1, and the
same arithmetic runs on them. accumulate folds every vector sum, add and
sub as well as the partition sums: it adds n/d times an int vector to one
int dict over one denominator.

Only the kernels that the benchmark's workloads run hot are hand-tuned.
In a warm round at seed 1 (verify-full, operator-identities,
bethe-vectors) packed_products runs 6,150, 10,794 and 0 times, one pass
with nine unrolled accumulators each; accumulate 2,541, 60 and 2,331,
rescaling only when a denominator does not divide the running one;
linear_combination 58, 152 and 0 (R(u,v), the Yang-Baxter and coproduct
sums) and koszul_tensor 27, 108 and 0 (the coproduct's entry products),
each writing its output entries in place in one pass. apply_dual runs in
no round; it keeps its loop as the tests' oracle of T(u) on bras, which
apply it to every basis bra. The rest is written plainly: column_product
(0, 180 and 0, all from the benchmark's own unitarity compose, plus 558
once per process for the Yang-Baxter permutation products),
DualGradedVector.pair and clear_denominators, which only the tests call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import gcd, lcm
from operator import lshift

from .errors import ArityMismatch, SignatureMismatch
from .rational import is_rational, rat
from .scalars import as_pair
from .scalars import g as g_fn


@dataclass(frozen=True)
class Signature:
    """Parity table of the superalgebra instance; indices run over 1..3."""

    name: str
    parity: tuple

    def par(self, i: int) -> int:
        return self.parity[i - 1]


GL21 = Signature("gl(2|1)", (0, 0, 1))
GL12 = Signature("gl(1|2)", (0, 1, 1))

SIGNATURES = {s.name: s for s in (GL21, GL12)}


@cache
def parity_table(sig: Signature, arity: int):
    if arity == 0:
        return [0]
    prev = parity_table(sig, arity - 1)
    return [prev[k // 3] ^ sig.parity[k % 3] for k in range(3 ** arity)]


def encode(digits) -> int:
    key = 0
    for d in digits:
        key = key * 3 + (d - 1)
    return key


def decode(key: int, arity: int):
    out = [0] * arity
    for i in range(arity - 1, -1, -1):
        key, r = divmod(key, 3)
        out[i] = r + 1
    return tuple(out)


def digit_string(key: int, arity: int) -> str:
    """The multi-index of key as digits over {1,2,3}, the text of every
    printed or serialized basis index."""
    return "".join(map(str, decode(key, arity)))


def _check_pair(a, b):
    if a.sig is not b.sig and a.sig != b.sig:
        raise SignatureMismatch(f"{a.sig.name} vs {b.sig.name}")
    if a.arity != b.arity:
        raise ArityMismatch(f"arity {a.arity} vs {b.arity}")


def _scan(parities):
    seen = set(parities)
    if not seen:
        return None
    if seen == {0}:
        return 0
    if seen == {1}:
        return 1
    return "mixed"


def _over(x, den):
    """x / den for a numerator x of a vector and its positive int den: a
    rational for an int x, x itself for den 1."""
    if den == 1:
        return x
    return rat(x, den) if type(x) is int else x / den


class GradedVector:
    """A sparse vector as int numerators over one positive int denominator:
    num {key: n}, no n zero, and den, the vector being num / den. entries,
    the vector's values {key: n/den}, is a read-only view built on its first
    read; at den 1 it is num itself."""

    __slots__ = ("sig", "arity", "num", "den", "_entries")

    def __init__(self, sig, arity, entries=None):
        """entries, {key: value}, is cleared once: rational values become
        num over the lcm of their denominators. Values that are not all
        rational (EpsScalars) are kept as given over den 1, and the
        arithmetic on them stays generic. An int dict is kept, not copied,
        unless it holds a zero, which a copy drops: every producer hands
        over a fresh dict and does not change it afterwards."""
        entries = {} if entries is None else entries
        num = entries if all(entries.values()) else {k: v for k, v in entries.items() if v}
        den = 1
        if not {*map(type, num.values())} <= {int} and all(map(is_rational, num.values())):
            den = lcm(*(x.denominator for x in num.values()))
            num = {k: x.numerator * (den // x.denominator) for k, x in num.items()}
        self._adopt(sig, arity, num, den)

    def _adopt(self, sig, arity, num, den):
        self.sig, self.arity, self.num, self.den, self._entries = sig, arity, num, den, None

    @classmethod
    def from_ints(cls, sig, arity, num, den=1):
        """The vector num / den, adopting num {key: int} as it is but for
        its zeros, which a copy drops, and for the sign of a negative den,
        which moves into num; den is a nonzero int."""
        if not all(num.values()):
            num = {k: x for k, x in num.items() if x}
        if den < 0:
            num, den = {k: -x for k, x in num.items()}, -den
        vec = cls.__new__(cls)
        vec._adopt(sig, arity, num, den)
        return vec

    @property
    def entries(self):
        if self.den == 1:
            return self.num
        if self._entries is None:
            den = self.den
            self._entries = {k: _over(x, den) for k, x in self.num.items()}
        return self._entries

    @classmethod
    def basis(cls, sig, digits):
        return cls.from_ints(sig, len(digits), {encode(digits): 1})

    def scale(self, c, d=1):
        """(c/d) times the vector, d a nonzero int: on the numerators for a
        rational c, else on the entries."""
        if not is_rational(c):
            vec = type(self)(self.sig, self.arity, {k: c * v for k, v in self.entries.items()})
            return vec if d == 1 else vec.scale(1, d)
        n, cd = as_pair(c)
        return type(self).from_ints(self.sig, self.arity, {k: n * x for k, x in self.num.items()}, self.den * cd * d)

    def add(self, other):
        return self._merge(other, False)

    def sub(self, other):
        # not add(other.scale(-1)): that builds a negated copy of other
        # beside both operands and the result
        return self._merge(other, True)

    def _merge(self, other, negate):
        """self + other (self - other with negate), folded by accumulate."""
        _check_pair(self, other)
        out = dict(self.num)
        den = accumulate(out, self.den, -1 if negate else 1, other.den, other.num)
        return type(self).from_ints(self.sig, self.arity, out, den)

    def is_zero(self):
        return not self.num

    def first_nonzero(self):
        """The least-key entry as "[digits]=value", or None when zero."""
        key = min(self.num, default=None)
        return None if key is None else f"[{digit_string(key, self.arity)}]={_over(self.num[key], self.den)}"

    def support_parity(self):
        tab = parity_table(self.sig, self.arity)
        return _scan([tab[k] for k in self.num])

    def __eq__(self, other):
        """Equal values: the numerators cross-multiplied by the other's
        denominator agree key by key."""
        if not (isinstance(other, type(self)) and self.sig == other.sig and self.arity == other.arity):
            return False
        a, b, da, db = self.num, other.num, self.den, other.den
        if da == db:
            return a == b
        return a.keys() == b.keys() and all(x * db == b[k] * da for k, x in a.items())

    def __repr__(self):
        items = ", ".join(f"{digit_string(k, self.arity)}: {v}" for k, v in sorted(self.entries.items()))
        return f"<{type(self).__name__} {self.sig.name} arity={self.arity} {{{items}}}>"


class DualGradedVector(GradedVector):
    """Same sparse storage, acting on kets from the left."""

    __slots__ = ()

    def pair(self, vec: GradedVector):
        _check_pair(self, vec)
        num = vec.num
        return _over(sum(x * num[k] for k, x in self.num.items() if k in num), self.den * vec.den)


def accumulate(acc, den, n, d, num):
    """Add (n/d) * num to acc, for ints n and d != 0 and a dict num: acc
    holds den times a sum, den > 0. Returns the new den, the lcm of den and
    d taken in lowest terms, so acc is rescaled only when d does not divide
    den; an entry that cancels stays in acc as 0. The one accumulator of
    every vector sum (GradedVector.add and sub, bethe.build_family,
    notation.partition_sum)."""
    if not n:
        return den
    k = gcd(n, d) if d > 0 else -gcd(n, d)
    n, d = n // k, d // k
    if den % d:
        grown = lcm(den, d)
        up = grown // den
        for key in acc:
            acc[key] *= up
        den = grown
    n *= den // d
    for key, x in num.items():
        acc[key] = acc.get(key, 0) + n * x
    return den


def column_product(cols, column):
    """sum_k column[k] * cols[k]: the operator with columns cols {k: {row:
    value}} applied to the sparse column {k: value}, as {row: value} with no
    zero entry. Composition and application multiply through here."""
    out = {}
    for k, x in column.items():
        for r, av in cols.get(k, {}).items():
            out[r] = out.get(r, 0) + av * x
    return {r: s for r, s in out.items() if s}


# ---------------------------------------------------------------------------
# packed columns: the second kernel
# ---------------------------------------------------------------------------


@cache
def weight_spaces(arity):
    """{(count of digit 1, count of digit 2): keys}: the keys of the given
    arity grouped by their digit counts (the gl(2|1) weight), each group in
    increasing key order and the groups in the order of their least keys.
    An operator that conserves the digit counts, such as T(u), R(u,v) and
    the identity and their tensor products, is block-diagonal over these
    groups, and an entry T_ab(u) maps the group of weight n to that of
    n + e_b - e_a."""
    groups = {}
    for key in range(3**arity):
        digits = decode(key, arity)
        groups.setdefault((digits.count(1), digits.count(2)), []).append(key)
    return {weight: tuple(keys) for weight, keys in groups.items()}


def slot_width(bound):
    """The slot width W for packed columns whose entries x all have
    |x| <= bound: bound < 2^(W-1), so unpack reads every entry back."""
    return bound.bit_length() + 1


def slot_shifts(keys, width):
    """{key: width*i} for the i-th of keys: the bit offset of each key's
    slot in a packed column over keys."""
    return {key: width * i for i, key in enumerate(keys)}


def pack(column, shifts):
    """The sparse column {key: value} as one int, sum_k value_k 2^shifts[k]
    (Kronecker substitution)."""
    return sum(map(lshift, column.values(), map(shifts.__getitem__, column)))


def packed_products(rows, column):
    """The nine ints sum_k column[k] * rows[k][i], i = 0..8: nine operators,
    operator i with packed column k rows[k][i], applied to the one sparse
    column {k: value} in one pass over its entries. Packing is Z-linear, so
    product i is the packed image of operator i times the column. Nine
    unrolled accumulators: on columns of a few entries they beat a loop per
    operator and sum over map."""
    p0 = p1 = p2 = p3 = p4 = p5 = p6 = p7 = p8 = 0
    for k, x in column.items():
        r0, r1, r2, r3, r4, r5, r6, r7, r8 = rows[k]
        p0 += x * r0
        p1 += x * r1
        p2 += x * r2
        p3 += x * r3
        p4 += x * r4
        p5 += x * r5
        p6 += x * r6
        p7 += x * r7
        p8 += x * r8
    return p0, p1, p2, p3, p4, p5, p6, p7, p8


def unpack(x, keys, width):
    """The column {key: value}, no zero entry, that packs to x in slots of
    the given width over keys, read in balanced base 2^width. It is exact
    when every entry has |value| < 2^(width-1); then x is 0 only for the
    zero column, since the highest nonzero slot outweighs all below it."""
    full = 1 << width
    half, mask = full >> 1, full - 1
    out = {}
    for key in keys:
        if not x:
            break
        d = x & mask
        x >>= width
        if d >= half:
            d -= full
            x += 1
        if d:
            out[key] = d
    return out


def vector_tensor(x: GradedVector, y: GradedVector):
    """x (x) y, of x's type: the products of the numerators over the
    product of the denominators."""
    if x.sig != y.sig:
        raise SignatureMismatch(f"{x.sig.name} vs {y.sig.name}")
    shift = 3 ** y.arity
    out = {}
    ynum = y.num.items()
    for kx, vx in x.num.items():
        base = kx * shift
        for ky, vy in ynum:
            out[base + ky] = vx * vy
    return type(x).from_ints(x.sig, x.arity + y.arity, out, x.den * y.den)


class GradedOperator:
    __slots__ = ("sig", "arity", "cols")

    def __init__(self, sig, arity, cols=None):
        self.sig = sig
        self.arity = arity
        self.cols = {}
        for c, colmap in (cols or {}).items():
            pruned = {r: v for r, v in colmap.items() if v}
            if pruned:
                self.cols[c] = pruned

    @classmethod
    def from_pruned(cls, sig, arity, cols):
        """Adopt cols as they are: the caller guarantees that no column is
        empty and no entry is zero, so the per-column prune is skipped."""
        op = cls.__new__(cls)
        op.sig = sig
        op.arity = arity
        op.cols = cols
        return op

    @classmethod
    def identity(cls, sig, arity):
        return cls(sig, arity, {k: {k: 1} for k in range(3 ** arity)})

    @classmethod
    def unit(cls, sig, i, j):
        """Matrix unit E_ij on one factor."""
        return cls(sig, 1, {j - 1: {i - 1: 1}})

    def entry(self, row, col):
        return self.cols.get(col, {}).get(row, 0)

    def nnz(self):
        return sum(len(c) for c in self.cols.values())

    def is_zero(self):
        return not self.cols

    def first_nonzero(self):
        """The entry of least column, and least row in it, as
        "[row digits,column digits]=value", or None when zero."""
        if not self.cols:
            return None
        col = min(self.cols)
        row = min(self.cols[col])
        return f"[{digit_string(row, self.arity)},{digit_string(col, self.arity)}]={self.cols[col][row]}"

    def scale(self, c):
        if not c:
            return GradedOperator(self.sig, self.arity)
        return GradedOperator.from_pruned(
            self.sig,
            self.arity,
            {col: {r: c * v for r, v in colmap.items()} for col, colmap in self.cols.items()},
        )

    def add(self, other):
        return linear_combination([(1, self), (1, other)])

    def sub(self, other):
        return linear_combination([(1, self), (-1, other)])

    def compose(self, other):
        """self after other (matrix product self . other)."""
        _check_pair(self, other)
        mycols = self.cols
        out = {}
        for c, colmap in other.cols.items():
            acc = column_product(mycols, colmap)
            if acc:
                out[c] = acc
        return GradedOperator.from_pruned(self.sig, self.arity, out)

    def apply(self, vec: GradedVector) -> GradedVector:
        _check_pair(self, vec)
        out = GradedVector(self.sig, self.arity, column_product(self.cols, vec.num))
        return out if vec.den == 1 else out.scale(1, vec.den)

    def apply_dual(self, dual: DualGradedVector) -> DualGradedVector:
        """Right action dual . self."""
        _check_pair(self, dual)
        dentries = dual.num
        out = {}
        for c, colmap in self.cols.items():
            acc = 0
            for r, av in colmap.items():
                x = dentries.get(r)
                if x is not None:
                    acc = acc + x * av
            if acc:
                out[c] = acc
        out = DualGradedVector(self.sig, self.arity, out)
        return out if dual.den == 1 else out.scale(1, dual.den)

    def support_parity(self):
        tab = parity_table(self.sig, self.arity)
        return _scan([tab[r] ^ tab[c] for c, m in self.cols.items() for r in m])

    def __eq__(self, other):
        return (
            isinstance(other, GradedOperator)
            and self.sig == other.sig
            and self.arity == other.arity
            and self.cols == other.cols
        )

    def __repr__(self):
        return f"<GradedOperator {self.sig.name} arity={self.arity} nnz={self.nnz()}>"


def linear_combination(terms) -> GradedOperator:
    """sum of coef * op over the (coef, op) pairs, in one pass over the
    operands' entries."""
    first = terms[0][1]
    out = {}
    for coef, op in terms:
        _check_pair(first, op)
        if not coef:
            continue
        for c, colmap in op.cols.items():
            dest = out.get(c)
            if dest is None:
                out[c] = {r: coef * v for r, v in colmap.items()}
                continue
            for r, v in colmap.items():
                s = dest.get(r, 0) + coef * v
                if s:
                    dest[r] = s
                elif r in dest:
                    del dest[r]
    return GradedOperator.from_pruned(first.sig, first.arity, {c: m for c, m in out.items() if m})


def koszul_tensor(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    if a.sig != b.sig:
        raise SignatureMismatch(f"{a.sig.name} vs {b.sig.name}")
    sig = a.sig
    par_a = parity_table(sig, a.arity)
    par_b = parity_table(sig, b.arity)
    shift = 3 ** b.arity
    cols = {}
    for ca, colA in a.cols.items():
        pca = par_a[ca]
        for cb, colB in b.cols.items():
            pcb = par_b[cb]
            dest = cols.setdefault(ca * shift + cb, {})
            for ra, va in colA.items():
                base = ra * shift
                for rb, vb in colB.items():
                    val = va * vb
                    if pca and (par_b[rb] ^ pcb):
                        val = -val
                    dest[base + rb] = val
    return GradedOperator.from_pruned(sig, a.arity + b.arity, cols)


def clear_denominators(op: GradedOperator):
    """(n, n*op), n the positive lcm of the entry denominators, so that n*op
    has plain int entries. Entries may be int or Fraction."""
    n = lcm(*(v.denominator for colmap in op.cols.values() for v in colmap.values()))
    cols = {
        c: {r: v.numerator * (n // v.denominator) for r, v in colmap.items()}
        for c, colmap in op.cols.items()
    }
    return n, GradedOperator.from_pruned(op.sig, op.arity, cols)


def embed(a: GradedOperator, positions, arity: int) -> GradedOperator:
    """Place operator a on the given (1-based, increasing) tensor factors."""
    m = a.arity
    positions = tuple(positions)
    if len(positions) != m or any(p < 1 or p > arity for p in positions) or list(positions) != sorted(set(positions)):
        raise ArityMismatch(f"bad embedding positions {positions} for arity {m} into {arity}")
    sig = a.sig
    par = sig.parity
    id_pos = [p for p in range(1, arity + 1) if p not in set(positions)]
    place = [3 ** (arity - p) for p in range(1, arity + 1)]
    id_before = []  # per embedded factor, how many identity factors sit to its left
    for p in positions:
        id_before.append(sum(1 for q in id_pos if q < p))
    par_a = parity_table(sig, m)

    cols = {}
    rest_digits = list(product((0, 1, 2), repeat=len(id_pos)))
    for ca, colA in a.cols.items():
        cdig = decode(ca, m)
        base_c = sum((cdig[k] - 1) * place[positions[k] - 1] for k in range(m))
        for ra, va in colA.items():
            rdig = decode(ra, m)
            odd_ks = [k for k in range(m) if (par[rdig[k] - 1] ^ par[cdig[k] - 1])]
            base_r = sum((rdig[k] - 1) * place[positions[k] - 1] for k in range(m))
            for rest in rest_digits:
                add = 0
                cum = [0] * (len(rest) + 1)
                for i, d in enumerate(rest):
                    add += d * place[id_pos[i] - 1]
                    cum[i + 1] = cum[i] ^ par[d]
                sgn = 0
                for k in odd_ks:
                    sgn ^= cum[id_before[k]]
                val = -va if sgn else va
                cols.setdefault(base_c + add, {})[base_r + add] = val
    return GradedOperator.from_pruned(sig, arity, cols)


# ---------------------------------------------------------------------------
# R-matrix machinery
# ---------------------------------------------------------------------------


@cache
def super_permutation(sig: Signature) -> GradedOperator:
    """P = sum_ij (-1)^{[j]} E_ij x E_ji on two factors.

    Built once per signature; the shared operator is never mutated (every
    GradedOperator method returns a new one)."""
    acc = GradedOperator(sig, 2)
    for i in range(1, 4):
        for j in range(1, 4):
            term = koszul_tensor(GradedOperator.unit(sig, i, j), GradedOperator.unit(sig, j, i))
            acc = acc.add(term.scale(-1) if sig.par(j) else term)
    return acc


def r_matrix(u, v, sig: Signature, c) -> GradedOperator:
    # super_permutation is looked up as a module global on every call, so a
    # replacement of it (a flipped-sign negative control) takes effect here
    return linear_combination([(1, GradedOperator.identity(sig, 2)), (g_fn(u, v, c), super_permutation(sig))])


def check_ybe(u, v, w, sig: Signature, c) -> GradedOperator:
    """R12(u,v) R13(u,w) R23(v,w) - R23(v,w) R13(u,w) R12(u,v) on three factors.

    With g = gn/gd at each pair, gd R = gd I + gn P. Expanding both products
    by distributivity, the terms with fewer than two P factors cancel, and
    the cleared residual is exactly

        n12 n13 d23 [P12,P13] + n12 n23 d13 [P12,P23] + n13 n23 d12 [P13,P23]
          + n12 n13 n23 (P12 P13 P23 - P23 P13 P12),

    [X,Y] = XY - YX, scaled back by 1/(d12 d13 d23). The four operators are
    fixed (_permutation_products), so a check is one linear combination of
    them."""
    (n12, d12), (n13, d13), (n23, d23) = (as_pair(g_fn(x, y, c)) for x, y in ((u, v), (u, w), (v, w)))
    coefs = (n12 * n13 * d23, n12 * n23 * d13, n13 * n23 * d12, n12 * n13 * n23)
    return linear_combination(list(zip(coefs, _permutation_products(sig)[:4]))).scale(rat(1, d12 * d13 * d23))


def _permutation_products(sig):
    """[P12,P13], [P12,P23], [P13,P23] and P12 P13 P23 - P23 P13 P12 on
    three factors, and P^2 - I on two, for the P super_permutation gives:
    it is looked up as a module global on every call, so a replacement of
    it (a flipped-sign negative control) takes effect here, and the
    products are cached on its entries."""
    return _products_of(sig, tuple((col, tuple(sorted(m.items()))) for col, m in sorted(super_permutation(sig).cols.items())))


@cache
def _products_of(sig, entries):
    """The products of _permutation_products for the permutation with the
    given entries, ((col, ((row, value), ...)), ...)."""
    p = GradedOperator(sig, 2, {col: dict(rows) for col, rows in entries})
    p12, p13, p23 = (embed(p, positions, 3) for positions in ((1, 2), (1, 3), (2, 3)))
    bracket = lambda x, y: x.compose(y).sub(y.compose(x))
    triple = p12.compose(p13).compose(p23).sub(p23.compose(p13).compose(p12))
    return bracket(p12, p13), bracket(p12, p23), bracket(p13, p23), triple, p.compose(p).sub(GradedOperator.identity(sig, 2))


def check_unitarity(u, v, sig: Signature, c) -> GradedOperator:
    """R(u,v) R(v,u) - (1 - g(u,v)^2) I on two factors.

    g(v,u) = -g(u,v), so R(u,v) R(v,u) = (I + gP)(I - gP) = I - g^2 P^2 and
    the residual is exactly -g^2 (P^2 - I), P^2 - I cached with the
    Yang-Baxter products (_permutation_products). The flipped-Koszul
    control does not reach it: the flipped P still squares to I (ROADMAP,
    Finding D)."""
    return _permutation_products(sig)[4].scale(-g_fn(u, v, c) ** 2)
