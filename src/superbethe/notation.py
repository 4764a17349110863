"""Shorthand coefficient expressions over named parameter sets.

A tiny recursive-descent grammar mirrors the product shorthand used for the
identity coefficients: calls g/f/h(A,B) expand to pairwise products over the
bound sets, unary vacuum-ratio functions (r1, r3, part-tagged variants) expand
to one-set products, K(A|B) is the domain-wall partition function, and '*',
'/', unary '-', integer literals and '(expr)^n' compose them. Singletons are
one-element sets; there is no scalar/set overloading.

A Binding holds every parameter once: its distinct values, their PairTable
and each named set as a tuple of indices into them, its layout. A
PartitionSpec names the disjoint parts of a source set with fixed or free
cardinalities; enumerate_partitions gives each admissible split as a dict of
part name to tuple, in lexicographic order of element positions, through
splits, the one split enumerator.

There is one evaluator. compile_plan compiles an AST for a layout and the
partition specs of a sum, once per AST, layout and specs (the key holds
names and index tuples, never a value): for every split, the table entries,
K blocks, unary reads and folded literals its coefficient reads. plan_value
multiplies one split's reads with one PairTable.product. partition_sum,
eval_expr (compile, then evaluate) and the Bethe-vector builders
(bethe._weight_plan) all read coefficients this way, so no AST is
interpreted per split; evaluate, a coefficient's text at a Binding, is
eval_expr times its extras.

compile_table compiles every table of terms the package ships (the action
formulas, the composite partition classes): one object of named term
lists, each through compile_terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

from .errors import SchemaError
from .graded import _check_pair, accumulate
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


@cache
def parse(text: str):
    """text as an AST, parsed once per distinct text."""
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


class _Sets(dict):
    """A Binding's sets by name; an unbound name raises UnboundName."""

    def __missing__(self, name):
        raise UnboundName(name)


class Binding:
    """Named parameter sets, the ambient constant c and the unary functions,
    built once per base: the distinct parameter values and their PairTable,
    each set as a tuple of indices into them, and the unary functions'
    values, each computed once as (num, den). A partition sum's splits are
    index tuples into one Binding."""

    def __init__(self, sets, c=ONE, funcs=None):
        index = {}  # as_pair(value) -> (its index, the value first seen)
        self.sets = _Sets((name, tuple(index.setdefault(as_pair(x), (len(index), x))[0] for x in xs)) for name, xs in sets.items())
        self.values, self.c, self.funcs = tuple(x for _, x in index.values()), c, funcs or {}
        self.layout = tuple(self.sets.items())
        self.table, self.cache = PairTable(self.values, c), {}

    def unary(self, name, ks):
        if name not in self.funcs:
            raise UnboundName(name)
        for k in ks:
            if (name, k) not in self.cache:
                self.cache[name, k] = as_pair(self.funcs[name](self.values[k]))
        return [self.cache[name, k] for k in ks]


def _flatten(node, inverted):
    """node as a flat list of (leaf, inverted) pairs, a leaf a Lit or a Call,
    whose product, each inverted leaf taken as its reciprocal, is node."""
    kind = type(node)
    if kind is Mul or kind is Div:
        return _flatten(node.left, inverted) + _flatten(node.right, inverted ^ (kind is Div))
    if kind is Neg:
        return [(Lit(-1), False)] + _flatten(node.arg, inverted)
    if kind is Pow:
        return _flatten(node.base, inverted) * node.exponent
    if kind is not Call and kind is not Lit:
        raise TypeError(f"not an expression node: {node!r}")
    return [(node, inverted)]


@cache
def compile_plan(node, layout, specs=()):
    """node compiled for a set layout, a tuple of (name, index tuple) pairs,
    at every split of it by the partition specs, taken in turn as
    enumerate_partitions splits them: (names, splits), names the layout's
    set names and then the specs' part names, and splits one (sets, reads)
    per split in that order, sets the split's index tuples in the order of
    names and reads what node reads there (_reads). Compiled once per AST,
    layout and specs, like parse and splits; the key holds set names and
    index tuples, never a parameter value, so every base of the same shape
    shares the plan."""
    split_sets = [_Sets(layout)]
    for spec in specs:
        split_sets = [_Sets({**sets, **split}) for sets in split_sets for split in enumerate_partitions(spec, sets[spec.source])]
    names = tuple(name for name, _ in layout) + tuple(part.name for spec in specs for part in spec.parts)
    leaves = _flatten(node, False)
    return names, tuple((tuple(sets[name] for name in names), _reads(leaves, sets)) for sets in split_sets)


def _reads(leaves, sets):
    """What the leaves read at one split, as (literal, up, down, blocks,
    unaries): literal the product of the literals as (num, den), or None
    for (1, 1); up and down the reads of the g, f and h tables in the
    numerator and in the denominator, flat as t, i, j, t, i, j, ...
    (t = 0, 1, 2), which a plan stores more compactly than one tuple per
    read; blocks the K reads (vs, us, inverted) and unaries the unary reads
    (name, indices, inverted, arity). A pair function is refused for its
    arity before its sets are looked up."""
    num = den = 1
    up, down, blocks, unaries = [], [], [], []
    for leaf, inverted in leaves:
        if type(leaf) is Lit:
            num, den = (num, den * leaf.value) if inverted else (num * leaf.value, den)
        elif leaf.name == "K":
            blocks.append((sets[leaf.args[0]], sets[leaf.args[1]], inverted))
        elif leaf.name in _PAIR:
            if len(leaf.args) != 2:
                raise ValueError(f"{leaf.name} takes two set arguments")
            t = _PAIR.index(leaf.name)
            (down if inverted else up).extend(x for i in sets[leaf.args[0]] for j in sets[leaf.args[1]] for x in (t, i, j))
        else:
            unaries.append((leaf.name, sets[leaf.args[0]], inverted, len(leaf.args)))
    return (num, den) if (num, den) != (1, 1) else None, tuple(up), tuple(down), tuple(blocks), tuple(unaries)


def plan_value(reads, table, unary=None, extra=()):
    """One split of a plan as (num, den): the entries of table its reads
    name, table.izergin for K, unary(name, indices) for a unary function
    (refused for its arity once its name is bound), its literals and the
    pairs in extra, multiplied by one PairTable.product."""
    literal, up, down, blocks, unaries = reads
    rows, up, down = (table.g, table.f, table.h), iter(up), iter(down)
    pairs = [rows[t][i][j] for t, i, j in zip(up, up, up)]
    pairs += [rows[t][i][j][::-1] for t, i, j in zip(down, down, down)]
    for vs, us, inverted in blocks:
        k = table.izergin(vs, us)
        pairs.append(k[::-1] if inverted else k)
    for name, ks, inverted, arity in unaries:
        values = unary(name, ks)
        if arity != 1:
            raise ValueError(f"{name} takes one set argument")
        pairs += [x[::-1] for x in values] if inverted else values
    if literal:
        pairs.append(literal)
    pairs += extra
    return PairTable.product(pairs)


def eval_expr(node, table, sets, unary=None):
    """node as (num, den) at the sets given, which map a set name to its
    index tuple in table: its compile_plan for that layout, evaluated by
    plan_value, the one evaluator."""
    _, ((_, reads),) = compile_plan(node, tuple(sets.items()))
    return plan_value(reads, table, unary)


def evaluate(text: str, binding: Binding, extra=()):
    """text at binding, times the (num, den) pairs in extra, as one
    rational (eval_expr times extra). At a binding whose sets share a
    value, a g or f of it with itself is a pole: its reciprocal reads 0,
    and a pole left in the final denominator raises DivisionByZero
    (scalars.PairTable)."""
    value = eval_expr(parse(text), binding.table, binding.sets, binding.unary)
    return rat(*ratio(*PairTable.product([value, *extra])))


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


@cache
def splits(universe: tuple, sizes: tuple):
    """Every split of universe, distinct elements, into parts of the given
    sizes, which sum to its length, as tuples of parts: lexicographic by
    element position, part by part. Computed once per universe and sizes;
    the universes are index tuples, which recur."""
    out = [((), universe)]  # (parts so far, rest)
    for size in sizes[:-1]:
        out = [(parts + (chosen,), tuple(x for x in rest if x not in chosen)) for parts, rest in out for chosen in combinations(rest, size)]
    return tuple(parts + (rest,) for parts, rest in out) if sizes else ((),)


def enumerate_partitions(spec: PartitionSpec, universe):
    """All admissible splits of universe into spec.parts, one dict of part
    name to tuple each."""
    names, universe = [p.name for p in spec.parts], tuple(universe)
    return [
        dict(zip(names, split))
        for sizes in _size_vectors(tuple(spec.parts), len(universe))
        for split in splits(universe, sizes)
    ]


# --- partition sums ------------------------------------------------------------


def compile_terms(raw, names, funcs, prefix=(), juxtaposed=False, pointer=""):
    """Check and compile JSON terms {"partitions": [[source, single..., rest]],
    "coefficient": text, "target": ...} into (specs, AST, target) triples.

    names are the sets the base binding holds and funcs its unary function
    names; every term sums over the specs in prefix before its own
    partitions. A target is [u, v], or [[u1, v1], [u2, v2]] if juxtaposed,
    each argument a set name or a list of names to join, and compiles to
    the tuple of its arguments' name tuples, (u1, v1, u2, v2) if
    juxtaposed. Every name a term
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


def compile_table(raw, names, funcs, prefix=(), juxtaposed=False):
    """A JSON object {name: terms} compiled as {name: compile_terms(terms,
    ...)}, each under the pointer /name; keys starting with "_" are
    comments and skipped."""
    if not isinstance(raw, dict):
        raise SchemaError("a formula table is an object", "/")
    return {name: compile_terms(terms, names, funcs, prefix, juxtaposed, "/" + name) for name, terms in raw.items() if not name.startswith("_")}


def _checked_target(raw, bound, at, juxtaposed):
    if not isinstance(raw, list) or len(raw) != 2:
        raise SchemaError("a target is a pair", at)
    if juxtaposed:
        return sum((_checked_target(x, bound, f"{at}/{i}", False) for i, x in enumerate(raw)), ())
    out = []
    for i, arg in enumerate(raw):
        names = [arg] if isinstance(arg, str) else arg
        if not isinstance(names, list) or not names:
            raise SchemaError("an argument is a set name or a list of them", f"{at}/{i}")
        for j, name in enumerate(names):
            if not isinstance(name, str) or name not in bound:
                raise SchemaError(f"set {name!r} is not bound", f"{at}/{i}" + ("" if isinstance(arg, str) else f"/{j}"))
        out.append(tuple(names))
    return tuple(out)


def _checked_coefficient(text, bound, funcs, at):
    if not isinstance(text, str):
        raise SchemaError("a coefficient is an expression string", at)
    try:
        ast = parse(text)
    except ExprSyntaxError as err:
        raise SchemaError(f"{err} in {text!r}", at) from None
    for leaf, _ in _flatten(ast, False):
        if type(leaf) is Lit:
            continue
        arity = 2 if leaf.name in _PAIR or leaf.name == "K" else 1 if leaf.name in funcs else None
        if arity is None:
            raise SchemaError(f"unknown function {leaf.name!r}", at)
        if len(leaf.args) != arity:
            raise SchemaError(f"{leaf.name} takes {arity} set argument(s)", at)
        for name in leaf.args:
            if name not in bound:
                raise SchemaError(f"set {name!r} is not bound", at)
    return ast


def partition_sum(terms, base, target, acc):
    """acc plus, over every compiled term and every split of base's sets by
    the term's partitions, coefficient x target(args, keys): keys are the
    index tuples into base of the term's target arguments, a juxtaposed
    target's four in a row, and args their parameter tuples. A Binding
    holds each value once, so equal keys within one base are equal
    arguments.

    The target is asked first. It returns None for a term whose vector is
    zero by weight (bethe.weight_gated, on Model.weight_space_nonempty), and
    that term is skipped whole: its coefficient is not read, so it neither
    costs nor raises. None means zero by weight, never zero by value: a
    live term whose vector comes out 0 still has its coefficient read, so
    a pole there still raises.

    A live term's coefficient is read off the term's compile_plan as (n, d)
    ints in lowest terms, at a base whose sets share a value too: a plain
    evaluation there (scalars.PairTable: 1/f(z,z) reads 0, and a pole left
    in the final denominator raises DivisionByZero). Its target
    is a vector of acc's signature and arity, num over den, and every live
    term is folded into one int dict over one denominator
    (graded.accumulate), which becomes the vector returned, of acc's type."""
    values = base.values
    total, den = dict(acc.num), acc.den
    for parts, coeff, arguments in terms:
        names, splits = compile_plan(coeff, base.layout, parts)
        where = [[names.index(name) for name in argument] for argument in arguments]
        for sets, reads in splits:
            keys = tuple(tuple(k for at in argument for k in sets[at]) for argument in where)
            vec = target([tuple(values[k] for k in key) for key in keys], keys)
            if vec is None:
                continue
            n, d = ratio(*plan_value(reads, base.table, base.unary))
            _check_pair(acc, vec)
            den = accumulate(total, den, n, d * vec.den, vec.num)
    return type(acc).from_ints(acc.sig, acc.arity, total, den)
