"""Shorthand coefficient expressions over named parameter sets.

A tiny recursive-descent grammar mirrors the product shorthand used for the
identity coefficients: calls g/f/h(A,B) expand to pairwise products over the
bound sets, unary vacuum-ratio functions (r1, r3, part-tagged variants) expand
to one-set products, K(A|B) is the domain-wall partition function, and '*',
'/', unary '-', integer literals and '(expr)^n' compose them. Singletons are
one-element sets; there is no scalar/set overloading.

Also hosts the one engine behind every shorthand summation: a PartitionSpec
names the disjoint parts of a source set with fixed or free cardinalities, and
enumerate_partitions yields one Binding per admissible assignment, in
lexicographic order of element indices. compile_terms turns the JSON term
shape of the formula tables into (partitions, coefficient AST, target)
triples, and partition_sum evaluates a list of them against a target vector
function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .errors import SchemaError
from .rational import ONE
from .scalars import izergin, prod_pairs, prod_unary
from . import scalars


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

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.error(repr(ch))
        self.pos += 1

    def name(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            self.error("identifier")
        return self.text[start:self.pos]

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("integer")
        return int(self.text[start:self.pos])

    def expr(self):
        node = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                node = Mul(node, self.factor())
            elif ch == "/":
                self.pos += 1
                node = Div(node, self.factor())
            else:
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
    p.skip_ws()
    if p.pos != len(text):
        p.error("end of input")
    return node


def print_expr(node) -> str:
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Call):
        if node.name == "K":
            return f"K({node.args[0]}|{node.args[1]})"
        return f"{node.name}({','.join(node.args)})"
    if isinstance(node, Neg):
        return f"-{print_expr(node.arg)}"
    if isinstance(node, Pow):
        return f"({print_expr(node.base)})^{node.exponent}"
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        left = print_expr(node.left)
        right = print_expr(node.right)
        if isinstance(node.right, (Mul, Div)):
            right = f"({right})"
        return f"{left}{op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


# --- bindings and evaluation ------------------------------------------------

@dataclass(frozen=True)
class Binding:
    """Named parameter sets plus the ambient constant and ratio functions."""

    sets: dict
    c: object = ONE
    funcs: dict = field(default_factory=dict)

    def with_sets(self, more):
        clash = set(self.sets) & set(more)
        if clash:
            raise ValueError(f"names bound twice: {sorted(clash)}")
        merged = dict(self.sets)
        merged.update({k: tuple(v) for k, v in more.items()})
        return Binding(merged, self.c, self.funcs)

    def resolve(self, name):
        try:
            return self.sets[name]
        except KeyError:
            raise UnboundName(name) from None


_PAIR = {"g": scalars.g, "f": scalars.f, "h": scalars.h}


def eval_expr(node, binding: Binding):
    if isinstance(node, Lit):
        return ONE * node.value
    if isinstance(node, Neg):
        return -eval_expr(node.arg, binding)
    if isinstance(node, Pow):
        base = eval_expr(node.base, binding)
        acc = ONE
        for _ in range(node.exponent):
            acc = acc * base
        return acc
    if isinstance(node, Mul):
        return eval_expr(node.left, binding) * eval_expr(node.right, binding)
    if isinstance(node, Div):
        return eval_expr(node.left, binding) / eval_expr(node.right, binding)
    if isinstance(node, Call):
        if node.name == "K":
            vs = binding.resolve(node.args[0])
            us = binding.resolve(node.args[1])
            return izergin(vs, us, binding.c)
        if node.name in _PAIR:
            if len(node.args) != 2:
                raise ValueError(f"{node.name} takes two set arguments")
            left = binding.resolve(node.args[0])
            right = binding.resolve(node.args[1])
            return prod_pairs(_PAIR[node.name], left, right, binding.c)
        if node.name in binding.funcs:
            if len(node.args) != 1:
                raise ValueError(f"{node.name} takes one set argument")
            return prod_unary(binding.funcs[node.name], binding.resolve(node.args[0]))
        raise UnboundName(node.name)
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(text: str, binding: Binding):
    return eval_expr(parse(text), binding)


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
    fixed = sum(p.size for p in parts if p.size is not None)
    free_ix = [i for i, p in enumerate(parts) if p.size is None]
    if fixed > total or (not free_ix and fixed != total):
        return []  # summation over an empty family of partitions
    if not free_ix:
        return [tuple(p.size for p in parts)]
    remaining = total - fixed
    out = []
    # every free part but the last takes 0..remaining, the last the rest
    for head in product(range(remaining + 1), repeat=len(free_ix) - 1):
        last = remaining - sum(head)
        if last < 0:
            continue
        sizes = [p.size for p in parts]
        for j, k in zip(free_ix, head + (last,)):
            sizes[j] = k
        out.append(tuple(sizes))
    return out


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
    parts = tuple(spec.parts)
    out = []
    for sizes in _size_vectors(parts, len(universe)):
        for assignment in _assignments(tuple(universe), sizes):
            out.append(base.with_sets({p.name: vals for p, vals in zip(parts, assignment)}))
    return out


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
        out = ()
        for name in spec:
            out = out + binding.sets[name]
        return out
    return binding.sets[spec]


def partition_sum(terms, base, target, acc):
    """acc plus, over every compiled term and every partition of base's sets
    the term names, coefficient x target(binding, term target)."""
    for parts, coeff, term_target in terms:
        bindings = [base]
        for spec in parts:
            bindings = [nb for b in bindings for nb in enumerate_partitions(spec, b.sets[spec.source], b)]
        for b in bindings:
            coef = eval_expr(coeff, b)
            if isinstance(coef, scalars.EpsScalar):
                coef = scalars.eps_limit(coef)
            acc = acc.add(target(b, term_target).scale(coef))
    return acc
