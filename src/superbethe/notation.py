"""Shorthand coefficient expressions over named parameter sets.

A tiny recursive-descent grammar mirrors the product shorthand used for the
identity coefficients: calls g/f/h(A,B) expand to pairwise products over the
bound sets, unary vacuum-ratio functions (r1, r3, part-tagged variants) expand
to one-set products, K(A|B) is the domain-wall partition function, and '*',
'/', unary '-', integer literals and '(expr)^n' compose them. Singletons are
one-element sets; there is no scalar/set overloading.

One evaluator serves every coefficient: a chain of '*' and '/' is one
scalars.PairTable.product of (num, den) pairs, read from one PairTable per
base binding (eval_expr) or per Bethe-vector parameter family (weight_product).

Also hosts the one engine behind every shorthand summation: a PartitionSpec
names the disjoint parts of a source set with fixed or free cardinalities, and
enumerate_partitions yields one Binding per admissible assignment, in
lexicographic order of element indices. compile_terms turns the JSON term
shape of the formula tables into (partitions, coefficient AST, target)
triples, and partition_sum evaluates a list of them against a target vector
function, each coefficient taken through scalars.ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .errors import SchemaError
from .rational import ONE, rat
from .scalars import PairTable, as_pair, ratio


class ExprSyntaxError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset  # 1-based position in the source text


class UnboundName(KeyError):
    pass


class UnsatisfiableSpec(ValueError):
    pass


# --- AST ----------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple  # set names; K uses exactly (vset, uset)


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


# --- parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, expected):
        raise ExprSyntaxError(f"expected {expected}", self.pos + 1)

    def peek(self):
        """The next character after whitespace; "" at the end."""
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1
        return self.text[self.pos : self.pos + 1]

    def take(self, ch):
        if self.peek() != ch:
            self.error(repr(ch))
        self.pos += 1

    def scan(self, accepts, expected):
        """The longest nonempty run of characters that accepts takes."""
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and accepts(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            self.error(expected)
        return self.text[start : self.pos]

    def name(self):
        return self.scan(lambda ch: ch.isalnum() or ch == "_", "identifier")

    def integer(self):
        return int(self.scan(str.isdigit, "integer"))

    def expr(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = Mul if self.text[self.pos] == "*" else Div
            self.pos += 1
            node = op(node, self.factor())
        return node

    def factor(self):
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return Neg(self.factor())
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.take(")")
            if self.peek() == "^":
                self.pos += 1
                return Pow(inner, self.integer())
            return inner
        if ch.isdigit():
            return Lit(self.integer())
        ident = self.name()
        self.take("(")
        if ident == "K":
            vset = self.name()
            self.take("|")
            uset = self.name()
            self.take(")")
            return Call("K", (vset, uset))
        args = [self.name()]
        while self.peek() == ",":
            self.pos += 1
            args.append(self.name())
        self.take(")")
        return Call(ident, tuple(args))


def parse(text: str):
    p = _Parser(text)
    node = p.expr()
    if p.peek():
        p.error("end of input")
    return node


def print_expr(node) -> str:
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Call):
        return f"{node.name}({('|' if node.name == 'K' else ',').join(node.args)})"
    if isinstance(node, Neg):
        return f"-{print_expr(node.arg)}"
    if isinstance(node, Pow):
        return f"({print_expr(node.base)})^{node.exponent}"
    if isinstance(node, (Mul, Div)):
        right = print_expr(node.right)
        if isinstance(node.right, (Mul, Div)):
            right = f"({right})"
        return print_expr(node.left) + ("*" if isinstance(node, Mul) else "/") + right
    raise TypeError(f"not an expression node: {node!r}")


# --- bindings and evaluation ------------------------------------------------

_PAIR = ("g", "f", "h")  # the PairTable tables of the pair functions


class Scope:
    """The distinct parameter values of a base binding, their index and
    PairTable, and the unary functions' values at them, each computed once
    as (num, den); every binding derived by with_sets shares them."""

    def __init__(self, sets, c, funcs):
        self.values = tuple(dict.fromkeys(x for xs in sets.values() for x in xs))
        self.index = {x: k for k, x in enumerate(self.values)}
        self.table, self.funcs, self.cache = PairTable(self.values, c), funcs, {}

    def unary(self, name, ks):
        if name not in self.funcs:
            raise UnboundName(name)
        for k in ks:
            if (name, k) not in self.cache:
                self.cache[name, k] = as_pair(self.funcs[name](self.values[k]))
        return [self.cache[name, k] for k in ks]


@dataclass(frozen=True)
class Binding:
    """Named parameter sets plus the ambient constant and ratio functions,
    and the Scope that with_sets hands on."""

    sets: dict
    c: object = ONE
    funcs: dict = field(default_factory=dict)
    scope: Scope = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.scope is None:
            object.__setattr__(self, "scope", Scope(self.sets, self.c, self.funcs))

    def with_sets(self, more):
        clash = set(self.sets) & set(more)
        if clash:
            raise ValueError(f"names bound twice: {sorted(clash)}")
        merged = dict(self.sets)
        merged.update({k: tuple(v) for k, v in more.items()})
        shared = all(x in self.scope.index for xs in more.values() for x in xs)
        return Binding(merged, self.c, self.funcs, self.scope if shared else None)

    def resolve(self, name):
        try:
            return self.sets[name]
        except KeyError:
            raise UnboundName(name) from None


def _factors(node, table, sets, unary, inverted=False):
    """The (num, den) factors whose product is node, each inverted if
    inverted: the entries of table for g, f and h, table.izergin for K,
    unary(name, indices) for a unary function; sets(name) is a set's index
    tuple in table."""
    kind = type(node)
    if kind is Mul or kind is Div:
        left = _factors(node.left, table, sets, unary, inverted)
        return left + _factors(node.right, table, sets, unary, inverted ^ (kind is Div))
    if kind is Neg:
        return [(-1, 1)] + _factors(node.arg, table, sets, unary, inverted)
    if kind is Pow:
        return _factors(node.base, table, sets, unary, inverted) * node.exponent
    if kind is Lit:
        pairs = [(node.value, 1)]
    elif kind is not Call:
        raise TypeError(f"not an expression node: {node!r}")
    elif node.name == "K":
        pairs = [table.izergin(sets(node.args[0]), sets(node.args[1]))]
    elif node.name in _PAIR:
        if len(node.args) != 2:
            raise ValueError(f"{node.name} takes two set arguments")
        pairs = table.cross(getattr(table, node.name), sets(node.args[0]), sets(node.args[1]))
    else:
        pairs = unary(node.name, sets(node.args[0]))
        if len(node.args) != 1:
            raise ValueError(f"{node.name} takes one set argument")
    return [(d, n) for n, d in pairs] if inverted else pairs


def eval_expr(node, binding: Binding):
    """node at binding as (num, den): one PairTable.product of the entries
    of the scope's table, the unary values and the literals it names."""
    scope = binding.scope
    sets = lambda name: [scope.index[x] for x in binding.resolve(name)]
    return PairTable.product(_factors(node, scope.table, sets, scope.unary))


def evaluate(text: str, binding: Binding):
    """text at binding as one rational; at an eps-shifted binding, its
    eps-limit (PoleAtZero or PrecisionExhausted if it has none)."""
    return rat(*ratio(*eval_expr(parse(text), binding)))


def weight_product(node, t, uI, uII, vI, vII):
    """A Bethe-vector weight, which reads no unary function, over the
    PairTable t, with uI, uII, vI and vII index tuples into it, as (num, den)."""
    return PairTable.product(_factors(node, t, {"uI": uI, "uII": uII, "vI": vI, "vII": vII}.__getitem__, None))


# --- partition enumeration ---------------------------------------------------

@dataclass(frozen=True)
class PartSpec:
    name: str
    size: object = None  # int for a fixed cardinality, None for free


@dataclass(frozen=True)
class PartitionSpec:
    source: str
    parts: tuple


def _size_vectors(parts, total):
    if len({p.name for p in parts}) != len(parts):
        raise UnsatisfiableSpec(f"duplicate part names in {parts}")
    if any(p.size is not None and p.size < 0 for p in parts):
        raise UnsatisfiableSpec(f"negative part size in {parts}")
    # a free part takes any size; no size vector is a sum over no partition
    ranges = [range(total + 1) if p.size is None else (p.size,) for p in parts]
    return [sizes for sizes in product(*ranges) if sum(sizes) == total]


def _assignments(universe, sizes):
    """Every split of universe into parts of the given sizes, lexicographic
    by element position, part by part."""
    if not sizes:
        yield []
        return
    for chosen in combinations(range(len(universe)), sizes[0]):
        rest = [x for i, x in enumerate(universe) if i not in chosen]
        for tail in _assignments(rest, sizes[1:]):
            yield [tuple(universe[i] for i in chosen)] + tail


def enumerate_partitions(spec: PartitionSpec, universe, base: Binding = None):
    """All admissible splits of universe into spec.parts, one Binding each."""
    base = base if base is not None else Binding({})
    names, universe = [p.name for p in spec.parts], tuple(universe)
    return [
        base.with_sets(dict(zip(names, split)))
        for sizes in _size_vectors(tuple(spec.parts), len(universe))
        for split in _assignments(universe, sizes)
    ]


# --- partition sums ------------------------------------------------------------


def compile_terms(raw, names, funcs, prefix=(), juxtaposed=False, pointer=""):
    """Check and compile JSON terms {"partitions": [[source, single..., rest]],
    "coefficient": text, "target": ...} into (specs, AST, target) triples.

    names are the sets the base binding holds and funcs its unary function
    names; every term sums over the specs in prefix before its own
    partitions. A target is [u, v], or [[u1, v1], [u2, v2]] if juxtaposed,
    each argument a set name or a list of names to join. Every name a term
    reads must be bound by then; a violation raises SchemaError with the
    JSON pointer below pointer.
    """
    if not isinstance(raw, list):
        raise SchemaError("terms must be a list", pointer or "/")
    compiled = []
    for k, term in enumerate(raw):
        at = f"{pointer}/{k}"
        missing = [key for key in ("partitions", "coefficient", "target") if not isinstance(term, dict) or key not in term]
        if missing:
            raise SchemaError(f"a term needs {', '.join(missing)}", at)
        bound = set(names).union(*({p.name for p in spec.parts} for spec in prefix))
        specs = list(prefix)
        if not isinstance(term["partitions"], list):
            raise SchemaError("partitions must be a list", at + "/partitions")
        for i, entry in enumerate(term["partitions"]):
            where = f"{at}/partitions/{i}"
            if not isinstance(entry, list) or len(entry) < 3 or not all(isinstance(x, str) for x in entry):
                raise SchemaError("a partition is [source, single..., rest]", where)
            source, *singles, rest = entry
            if source not in bound:
                raise SchemaError(f"set {source!r} is not bound", where + "/0")
            for j, name in enumerate(entry[1:], 1):
                if name in bound:
                    raise SchemaError(f"set {name!r} is bound twice", f"{where}/{j}")
                bound.add(name)
            specs.append(PartitionSpec(source, tuple(PartSpec(s, 1) for s in singles) + (PartSpec(rest),)))
        coeff = _checked_coefficient(term["coefficient"], bound, funcs, at + "/coefficient")
        target = _checked_target(term["target"], bound, at + "/target", juxtaposed)
        compiled.append((tuple(specs), coeff, target))
    return tuple(compiled)


def _checked_target(raw, bound, at, juxtaposed):
    if not isinstance(raw, list) or len(raw) != 2:
        raise SchemaError("a target is a pair", at)
    if juxtaposed:
        return tuple(_checked_target(x, bound, f"{at}/{i}", False) for i, x in enumerate(raw))
    out = []
    for i, arg in enumerate(raw):
        names = [arg] if isinstance(arg, str) else arg
        if not isinstance(names, list) or not names:
            raise SchemaError("an argument is a set name or a list of them", f"{at}/{i}")
        for j, name in enumerate(names):
            if not isinstance(name, str) or name not in bound:
                raise SchemaError(f"set {name!r} is not bound", f"{at}/{i}" + ("" if isinstance(arg, str) else f"/{j}"))
        out.append(arg if isinstance(arg, str) else tuple(arg))
    return tuple(out)


def _checked_coefficient(text, bound, funcs, at):
    if not isinstance(text, str):
        raise SchemaError("a coefficient is an expression string", at)
    try:
        ast = parse(text)
    except ExprSyntaxError as err:
        raise SchemaError(f"{err} in {text!r}", at) from None
    for call in _calls(ast):
        arity = 2 if call.name in _PAIR or call.name == "K" else 1 if call.name in funcs else None
        if arity is None:
            raise SchemaError(f"unknown function {call.name!r}", at)
        if len(call.args) != arity:
            raise SchemaError(f"{call.name} takes {arity} set argument(s)", at)
        for name in call.args:
            if name not in bound:
                raise SchemaError(f"set {name!r} is not bound", at)
    return ast


def _calls(node):
    if isinstance(node, Call):
        yield node
    elif isinstance(node, (Neg, Pow)):
        yield from _calls(node.arg if isinstance(node, Neg) else node.base)
    elif isinstance(node, (Mul, Div)):
        yield from _calls(node.left)
        yield from _calls(node.right)


def concat(binding, spec):
    """The parameters a target argument names: one set, or several joined."""
    if isinstance(spec, tuple):
        return sum((binding.sets[name] for name in spec), ())
    return binding.sets[spec]


def partition_sum(terms, base, target, acc):
    """acc plus, over every compiled term and every partition of base's sets
    the term names, coefficient x target(binding, term target)."""
    for parts, coeff, term_target in terms:
        bindings = [base]
        for spec in parts:
            bindings = [nb for b in bindings for nb in enumerate_partitions(spec, b.sets[spec.source], b)]
        for b in bindings:
            coef = rat(*ratio(*eval_expr(coeff, b)))
            acc = acc.add(target(b, term_target).scale(coef))
    return acc
