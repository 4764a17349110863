"""The benchmark's workloads, driven through superbethe's public API.

A workload is prepared once per process from the seed: ``prepare`` imports
the program and builds every input (config, chain specs, parameter draws,
formula table) and stops where the first check would start, which is what
``setup_s`` times. It then runs in whole rounds. Every round performs the same
checks on the same inputs with fresh program objects, so no monodromy or
vector cache survives from one round to the next, and ``verify`` follows
each round with the negative controls and the independent references, which
are not timed.

Workloads (see README.md for the make-up of each):

* verify-full: the ten suites of the full config, one ``run_suites`` call
  per suite;
* operator-identities: RTT, the 81 exchange relations, vacuum axioms, YBE,
  unitarity and the composite coproduct, plain rationals only, L up to 5;
* bethe-vectors: Bethe, dual and tilde vectors, the seven actions (with
  eps-limits), the recursion, the bilinear factorizations, the composite
  creation actions and the proof replay.
"""

from __future__ import annotations

import importlib
import random
from math import gcd
import sys
from pathlib import Path
from types import SimpleNamespace

import controls
import references as ref

CONFIG = Path(__file__).resolve().parent / "configs" / "full.json"
MODULES = ("rational", "scalars", "graded", "monodromy", "bethe", "gl12", "composite", "actions", "notation", "cli")


def import_program():
    """Import superbethe; every call site goes through these module objects,
    so wrappers installed by the tracer are seen."""
    return SimpleNamespace(**{m: importlib.import_module("superbethe." + m) for m in MODULES})


def is_exact_zero(residual):
    if hasattr(residual, "is_zero"):
        return residual.is_zero()
    if isinstance(residual, dict):
        return all(is_exact_zero(r) for r in residual.values())
    if isinstance(residual, (list, tuple)):
        return all(is_exact_zero(r) for r in residual)
    return residual == 0


class Recorder:
    """Runs checks, times them and keeps the tally of one round.

    An operation *fails* when it raises; it is *wrong* when it completes with
    the wrong outcome: a nonzero residual for a check, a zero residual for a
    negative control, a mismatch for a reference comparison.
    """

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.check_s = []
        self.check_raw_s = []
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.suite_s = {}

    def _attempt(self, name, thunk, ok):
        self.attempted += 1
        try:
            outcome = thunk()
        except Exception as exc:  # one broken check must not end the run
            self.failed += 1
            print(f"error in {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        if not ok(outcome):
            self.wrong.append(name)

    def check(self, name, thunk):
        """A timed check: its residual must be exactly zero."""
        t0, r0 = self.clock.now(), self.clock.raw()
        if self.tracer is None:
            self._attempt(name, thunk, is_exact_zero)
        else:
            with self.tracer.span("bench.check", "bench"):
                self._attempt(name, thunk, is_exact_zero)
        self.check_s.append(self.clock.now() - t0)
        self.check_raw_s.append(self.clock.raw() - r0)

    def record(self, name, seconds, raw_seconds, is_zero):
        """A check run and judged by the program itself (verify-full)."""
        self.attempted += 1
        self.check_s.append(seconds)
        self.check_raw_s.append(raw_seconds)
        if not is_zero:
            self.wrong.append(name)

    def control(self, name, thunk):
        self._attempt(name, thunk, lambda residual: not is_exact_zero(residual))

    def reference(self, name, thunk):
        """thunk returns (program value, reference value); they must be equal."""
        self._attempt(name, thunk, lambda pair: pair[0] == pair[1])


class Draws:
    """Seeded rationals p/q in lowest terms, 7 <= |p| <= 48, 7 <= q <= 24,
    made by the benchmark so that the program receives only the generated
    inputs. Every draw has a numerator and a denominator of 3 to 6 bits: the
    cost of exact arithmetic grows with their sizes, so draws of one size
    keep the cost of a check from depending on the seed. Generic sets keep
    every difference among themselves and against ``avoid`` away from 0 and
    +-c, the poles of g, f, h and of the symmetrized products."""

    def __init__(self, seed, stream, rat, c=1):
        self.rng = random.Random(f"{seed}:{stream}")
        self.rat = rat
        self.c = c

    def rational(self):
        while True:
            p, q = self.rng.choice((-1, 1)) * self.rng.randint(7, 48), self.rng.randint(7, 24)
            if gcd(p, q) == 1:
                return self.rat(p, q)

    def twist(self):
        return (self.rational(), self.rational(), self.rational())

    def generic(self, n, avoid=()):
        out = []
        while len(out) < n:
            x = self.rational()
            if all(x - y not in (0, self.c, -self.c) for y in tuple(avoid) + tuple(out)):
                out.append(x)
        return tuple(out)


def _vector_entries(vec):
    return {k: ref.frac(v) for k, v in vec.entries.items()}


def _operator_entries(op):
    return {(r, c): ref.frac(v) for c, col in op.cols.items() for r, v in col.items()}


def reference_monodromy(rec, sb, label, spec, u):
    """Every entry of T_ij(u) for L <= 2 against the dense rebuild."""

    def compare():
        model = sb.monodromy.ChainModel(spec)
        prog = {(i, j): _operator_entries(model.T(i, j, u)) for i in range(1, 4) for j in range(1, 4)}
        dense = ref.dense_entries(spec.sig.parity, ref.frac(spec.c), [ref.frac(x) for x in spec.xi],
                                  [ref.frac(d) for d in spec.twist], ref.frac(u))
        return prog, dense

    rec.reference(f"{label} T(u) against the dense rebuild", compare)


def reference_vacuum(rec, sb, label, spec, u):
    """T_ii(u) Omega = lambda_i Omega with the closed-form eigenvalues."""

    def compare():
        model = sb.monodromy.ChainModel(spec)
        omega = model.omega()
        prog = [_vector_entries(model.T(i, i, u).apply(omega)) for i in (1, 2, 3)]
        lams = ref.vacuum_eigenvalues(ref.frac(spec.c), [ref.frac(x) for x in spec.xi],
                                      [ref.frac(d) for d in spec.twist], ref.frac(u))
        return prog, [{0: lam} for lam in lams]

    rec.reference(f"{label} vacuum eigenvalues against closed forms", compare)


def reference_izergin(rec, sb, vs, us, c):
    def compare():
        prog = ref.frac(sb.scalars.izergin(vs, us, c))
        return prog, ref.izergin([ref.frac(v) for v in vs], [ref.frac(u) for u in us], ref.frac(c))

    rec.reference(f"izergin K{len(vs)} against the Leibniz determinant", compare)


def reference_creation(rec, sb, label, spec, u, v):
    """B(u;) = T12(u) Omega / d2 and B(;v) = T23(v) Omega / d2 against the
    dense T(u): the first column of the dense blocks."""

    def compare():
        model = sb.monodromy.ChainModel(spec)
        prog = [_vector_entries(sb.bethe.build_vector(model, (u,), ())),
                _vector_entries(sb.bethe.build_vector(model, (), (v,)))]
        c, xi, twist = ref.frac(spec.c), [ref.frac(x) for x in spec.xi], [ref.frac(d) for d in spec.twist]
        want = []
        for (i, j), x in (((1, 2), u), ((2, 3), v)):
            block = ref.dense_entries(spec.sig.parity, c, xi, twist, ref.frac(x))[(i, j)]
            want.append({r: val / twist[1] for (r, col), val in block.items() if col == 0})
        return prog, want

    rec.reference(f"{label} B(u;) and B(;v) against the dense T(u)", compare)


# ---------------------------------------------------------------------------


class VerifyFull:
    """The shipped full config (a copy in configs/), seed from the command line."""

    name = "verify-full"

    def prepare(self, seed):
        self.sb = sb = import_program()
        self.cfg = sb.cli.load_config(str(CONFIG))
        self.cfg.seed = seed
        sb.actions.load_formula_table(self.cfg.action_formula_file)
        draws = Draws(seed, self.name, sb.rational.rat)
        self.ref_points = [draws.generic(1, avoid=ch.xi)[0] for ch in self.cfg.chains]
        self.izergin_args = [_halves(draws.generic(2 * n)) for n in (1, 2, 3)]

    def run_round(self, rec):
        """One run_suites call per suite, each timed from outside. A check's
        time runs from the end of the previous check (or the start of its
        suite) to its own end, so work done between checks is counted."""
        cli = self.sb.cli
        orig_check = cli._Runner.check
        last = {}

        def mark():
            last["now"], last["raw"] = rec.clock.now(), rec.clock.raw()

        def timed_check(runner, *args, **kwargs):
            orig_check(runner, *args, **kwargs)
            now, raw = rec.clock.now(), rec.clock.raw()
            record = runner.report.records[-1]
            rec.record(f"{record.suite} :: {record.name}", now - last["now"], raw - last["raw"],
                       record.residual_is_zero)
            last["now"], last["raw"] = now, raw

        cli._Runner.check = timed_check
        try:
            for suite in self.cfg.suites:
                mark()
                t0 = last["now"]
                if rec.tracer is None:
                    self._suite(rec, suite)
                else:
                    with rec.tracer.span(f"cli.suite.{suite}", "cli"):
                        self._suite(rec, suite)
                rec.suite_s[suite] = rec.clock.now() - t0
        finally:
            cli._Runner.check = orig_check

    def _suite(self, rec, suite):
        try:
            self.sb.cli.run_suites(self.cfg, only={suite})
        except Exception as exc:  # a suite that raises loses its remaining checks
            rec.attempted += 1
            rec.failed += 1
            print(f"error in suite {suite}: {type(exc).__name__}: {exc}", file=sys.stderr)

    def verify(self, rec):
        sb = self.sb
        controls.run_shared(rec, sb)
        self._cli_controls(rec)
        for k, (spec, u) in enumerate(zip(self.cfg.chains, self.ref_points)):
            label = f"chain {k} ({spec.sig.name}, L={spec.length})"
            reference_vacuum(rec, sb, label, spec, u)
            if spec.length <= 2:
                reference_monodromy(rec, sb, label, spec, u)
        for vs, us in self.izergin_args:
            reference_izergin(rec, sb, vs, us, self.cfg.c)

    def _cli_controls(self, rec):
        """The two table-level controls, run through the CLI's own runner on a
        fixed config (fixed seed, so the outcome never depends on --seed)."""
        cli = self.sb.cli
        path = controls.perturbed_table_path()
        fixed = {"seed": 1729, "max_a": 0, "max_b": 0,
                 "chains": [{"L": 1, "xi": ["0"], "twist": ["2", "1", "-3"]}]}

        def perturbed():
            cfg = cli.parse_config(dict(fixed, suites=["actions"], action_formula_file=str(path)))
            records = cli.run_suites(cfg).records
            return [0 if r.residual_is_zero else 1 for r in records if f" {controls.PERTURBED_ELEMENT} " in r.name]

        def flipped():
            cfg = cli.parse_config(dict(fixed, suites=["ybe"]))
            with controls.koszul_flipped(self.sb.graded):
                records = cli.run_suites(cfg).records
            # every Yang-Baxter record must fail: report the least failure
            return min(0 if r.residual_is_zero else 1 for r in records if "Yang-Baxter" in r.name)

        rec.control(f"verify actions suite with a perturbed {controls.PERTURBED_ELEMENT} coefficient", perturbed)
        rec.control("verify ybe suite with flipped Koszul sign", flipped)


class OperatorIdentities:
    """Operator-level identities on chains of both signatures, L = 1..5."""

    name = "operator-identities"
    RTT_LENGTHS = {"gl(2|1)": (1, 2, 3, 4, 5), "gl(1|2)": (1, 2, 3, 4)}
    EXCHANGE_LENGTHS = (1, 2, 3)
    EXCHANGE_DRAWS = 3
    YBE_DRAWS = 10

    def prepare(self, seed):
        self.sb = sb = import_program()
        rat = sb.rational.rat
        self.c = c = rat(1)
        draws = Draws(seed, self.name, rat)
        self.chains = {}
        self.points = {}
        for sig in (sb.graded.GL21, sb.graded.GL12):
            for length in range(1, 6):
                xi = draws.generic(length)
                spec = sb.monodromy.ChainSpec(length, xi, draws.twist(), sig, c)
                self.chains[sig.name, length] = spec
                # (u, v) for RTT, w for the vacuum, then EXCHANGE_DRAWS pairs
                # for the exchange relations: many draws, so that the short
                # checks that set p50 and p90 do not hinge on one draw
                self.points[sig.name, length] = draws.generic(3 + 2 * self.EXCHANGE_DRAWS, avoid=xi)
        self.ybe = {sig.name: [draws.generic(3) for _ in range(self.YBE_DRAWS)] for sig in (sb.graded.GL21, sb.graded.GL12)}
        self.splits = []
        for sig in (sb.graded.GL21, sb.graded.GL12):
            xi = draws.generic(4)
            part1 = sb.monodromy.ChainSpec(2, xi[:2], draws.twist(), sig, c)
            part2 = sb.monodromy.ChainSpec(2, xi[2:], draws.twist(), sig, c)
            self.splits.append((sb.composite.SplitChain(part1, part2), draws.generic(2, avoid=xi)))

    def run_round(self, rec):
        sb = self.sb
        mono, graded = sb.monodromy, sb.graded
        models = {key: mono.ChainModel(spec) for key, spec in self.chains.items()}
        for (sig_name, length), model in models.items():
            u, v, w, *pairs = self.points[sig_name, length]
            label = f"{sig_name} L={length}"
            if length in self.RTT_LENGTHS[sig_name]:
                rec.check(f"{label} RTT", lambda m=model, u=u, v=v: mono.check_rtt(m, u, v))
            if length in self.EXCHANGE_LENGTHS:
                for x, y in zip(pairs[::2], pairs[1::2]):
                    for i, j, k, l in _tuples():
                        rec.check(
                            f"{label} exchange ({i}{j},{k}{l}) both forms",
                            lambda m=model, t=(i, j, k, l), x=x, y=y: mono.check_supercommutator(m, *t, x, y),
                        )
            rec.check(
                f"{label} vacuum axioms",
                lambda m=model, w=w: [name for name, ok in mono.vacuum_residuals(m, w) if not ok],
            )
        c = self.c
        for sig in (graded.GL21, graded.GL12):
            for u, v, w in self.ybe[sig.name]:
                rec.check(f"{sig.name} Yang-Baxter", lambda sig=sig, u=u, v=v, w=w: graded.check_ybe(u, v, w, sig, c))
                rec.check(f"{sig.name} unitarity", lambda sig=sig, u=u, v=v: _unitarity(sb, sig, u, v, c))
        for split, pts in self.splits:
            for u in pts:
                rec.check(
                    f"{split.part1.sig.name} 2+2 coproduct",
                    lambda split=split, u=u: sb.composite.compose_monodromy(split, u)[1],
                )

    def verify(self, rec):
        sb = self.sb
        controls.run_shared(rec, sb)
        for (sig_name, length), spec in self.chains.items():
            u, v, w, *_ = self.points[sig_name, length]
            label = f"{sig_name} L={length}"
            reference_vacuum(rec, sb, label, spec, w)
            if length <= 2:
                reference_monodromy(rec, sb, label, spec, u)


def _tuples():
    r = range(1, 4)
    return [(i, j, k, l) for i in r for j in r for k in r for l in r]


def _halves(values):
    n = len(values) // 2
    return values[:n], values[n:]


def _unitarity(sb, sig, u, v, c):
    graded = sb.graded
    gv = sb.scalars.g(u, v, c)
    lhs = graded.r_matrix(u, v, sig, c).compose(graded.r_matrix(v, u, sig, c))
    return lhs.sub(graded.GradedOperator.identity(sig, 2).scale(1 - gv * gv))


class BetheVectors:
    """Bethe vectors and the identities built on them.

    Every group of checks draws its own chains (inhomogeneities and twist),
    not only its own spectral parameters: the cost of exact arithmetic
    depends on the sizes of the rationals, so spreading each workload's
    checks over many chains keeps one unlucky draw from moving p50 or p90.
    """

    name = "bethe-vectors"
    GRID = [(a, b) for a in range(3) for b in range(3)]
    VECTOR_CHAINS = 3  # chains per (signature, L), each with the whole grid
    ACTION_GRID = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2))
    FACTOR_GRID = ((1, 1), (2, 1), (1, 2), (2, 2))
    REPLAY_GRID = ((1, 1), (2, 1))  # (a,b) of the extended vector

    def prepare(self, seed):
        self.sb = sb = import_program()
        rat = sb.rational.rat
        self.c = c = rat(1)
        self.table = sb.actions.load_formula_table()
        draws = Draws(seed, self.name, rat)
        gl21, gl12 = sb.graded.GL21, sb.graded.GL12

        def chain(sig, length):
            return sb.monodromy.ChainSpec(length, draws.generic(length), draws.twist(), sig, c)

        def split(sig):
            xi = draws.generic(4)
            return sb.composite.SplitChain(
                sb.monodromy.ChainSpec(2, xi[:2], draws.twist(), sig, c),
                sb.monodromy.ChainSpec(2, xi[2:], draws.twist(), sig, c),
            )

        def xi_of(split):
            return tuple(split.part1.xi) + tuple(split.part2.xi)

        self.vector_cases = []
        for sig in (gl21, gl12):
            for length in (2, 3, 4):
                for _ in range(self.VECTOR_CHAINS):
                    spec = chain(sig, length)
                    for a, b in self.GRID:
                        p = draws.generic(a + b, avoid=spec.xi)
                        self.vector_cases.append((spec, p[:a], p[a:]))
        self.action_cases = []
        for length, grid, elements in (
            (2, self.ACTION_GRID, sb.actions.ELEMENTS),
            (3, ((1, 1),), sb.actions.ELEMENTS),
            (4, ((1, 1),), ("T13",)),
        ):
            for a, b in grid:
                spec = chain(gl21, length)
                p = draws.generic(a + b + 1, avoid=spec.xi)
                self.action_cases.append((spec, elements, p[:a], p[a : a + b], p[-1]))
        self.recursion_cases = []
        for length in (2, 3):
            for a, b in self.GRID:
                if b:
                    spec = chain(gl21, length)
                    p = draws.generic(a + b, avoid=spec.xi)  # a u's, b - 1 v's, z
                    self.recursion_cases.append((spec, p[:a], p[a : a + b - 1], p[-1]))
        self.factor_cases = []
        for sig in (gl21, gl12):
            for a, b in self.FACTOR_GRID:
                s = split(sig)
                p = draws.generic(a + b, avoid=xi_of(s))
                self.factor_cases.append((s, p[:a], p[a:]))
        self.sign_split = split(gl12)
        self.sign_probe = draws.generic(2, avoid=xi_of(self.sign_split))
        self.composite_split = s = split(gl21)
        self.creation_args = draws.generic(3, avoid=xi_of(s))
        self.replay_args = [draws.generic(a - 1 + b - 1 + 1, avoid=xi_of(s)) for a, b in self.REPLAY_GRID]
        self.ref_chain = chain(gl21, 2)
        self.ref_points = draws.generic(2, avoid=self.ref_chain.xi)
        self.izergin_args = [_halves(draws.generic(2 * n)) for n in (1, 2, 3)]

    def run_round(self, rec):
        sb = self.sb
        bethe, gl12, composite, actions = sb.bethe, sb.gl12, sb.composite, sb.actions
        models = {}

        def model_of(spec):
            if id(spec) not in models:
                models[id(spec)] = sb.monodromy.ChainModel(spec)
            return models[id(spec)]

        # the odd creation entries are T13, T23 on gl(2|1) and T12, T13 on
        # gl(1|2), so the vectors have parity b resp. a mod 2
        builders = {
            "gl(2|1)": (("B", lambda: bethe.build_vector), ("C", lambda: bethe.build_dual_vector)),
            "gl(1|2)": (("B~", lambda: gl12.build_tilde_vector), ("C~", lambda: gl12.build_tilde_dual_vector)),
        }
        for spec, us, vs in self.vector_cases:
            sig_name = spec.sig.name
            parity = (len(vs) if sig_name == "gl(2|1)" else len(us)) % 2
            for kind, builder in builders[sig_name]:
                rec.check(
                    f"{kind}({len(us)},{len(vs)}) L={spec.length} symmetry and grading",
                    lambda m=model_of(spec), f=builder, us=us, vs=vs, p=parity: _symmetry_and_grading(bethe, f(), m, us, vs, p),
                )
        for spec, elements, us, vs, z in self.action_cases:
            for el in elements:
                rec.check(
                    f"{el} action ({len(us)},{len(vs)}) L={spec.length}",
                    lambda m=model_of(spec), el=el, us=us, vs=vs, z=z: actions.action_check(m, el, us, vs, z, table=self.table),
                )
        for spec, us, vs, z in self.recursion_cases:
            rec.check(
                f"recursion ({len(us)},{len(vs) + 1}) L={spec.length}",
                lambda m=model_of(spec), us=us, vs=vs, z=z: composite.check_recursion(m, us, vs, z),
            )
        sign = {}

        def resolve():
            u, v = self.sign_probe
            sign["value"] = gl12.resolve_sign(self.sign_split, (u,), (v,))
            return 0

        rec.check("gl(1|2) composite normalization sign", resolve)
        for s, us, vs in self.factor_cases:
            ab = f"({len(us)},{len(vs)})"
            if s.part1.sig.name == "gl(2|1)":
                rec.check(f"bilinear factorization {ab}", lambda s=s, us=us, vs=vs: composite.check_bethe_factorization(s, us, vs))
                rec.check(f"dual bilinear factorization {ab}", lambda s=s, us=us, vs=vs: composite.check_dual_bethe_factorization(s, us, vs))
            else:
                sg = sign.get("value", 1)
                rec.check(f"tilde factorization {ab}", lambda s=s, us=us, vs=vs: gl12.check_tilde_factorization(s, us, vs, sign=sg))
                rec.check(f"tilde dual factorization {ab}", lambda s=s, us=us, vs=vs: gl12.check_tilde_dual_factorization(s, us, vs, sign=sg))
        split21 = self.composite_split
        u, v, z = self.creation_args
        rec.check("composite creation actions (1,1)", lambda: composite.check_composite_creation_actions(split21, (u,), (v,), z))
        for (a, b), p in zip(self.REPLAY_GRID, self.replay_args):
            us, vs, z = p[: a - 1], p[a - 1 : a + b - 2], p[-1]
            rec.check(f"proof replay ({a},{b})", lambda us=us, vs=vs, z=z: composite.action_decomposition_report(split21, us, vs, z))

    def verify(self, rec):
        sb = self.sb
        controls.run_shared(rec, sb)
        reference_creation(rec, sb, "gl(2|1) L=2", self.ref_chain, *self.ref_points)
        for vs, us in self.izergin_args:
            reference_izergin(rec, sb, vs, us, self.c)


def _symmetry_and_grading(bethe, build, model, us, vs, parity):
    """The vector is symmetric in us and in vs, and its support has the given
    parity (a zero vector counts as any)."""
    vec = build(model, us, vs)
    swapped = build(model, tuple(reversed(us)), tuple(reversed(vs)))
    return vec.sub(swapped), 0 if bethe.grading_of(vec, parity) == parity else 1


WORKLOADS = {w.name: w for w in (VerifyFull, OperatorIdentities, BetheVectors)}
