"""Configuration-driven verification runner and CLI.

Subcommands:
  verify --config CFG [--suite NAME]... [--seed N] [--max-a N] [--max-b N]
         [--report OUT]
  bethe eval --config CFG [--u P/Q]... [--v P/Q]...
  report --config CFG --out OUT

Configs and reports are JSON; rationals travel as "p/q" strings (a report
parameter holding several as comma-joined "p/q") and basis multi-indices as
digit strings over {1,2,3}. Exit status is 0 iff every executed check
produced an exactly-zero residual, which makes the binary a CI regression
gate for the whole identity suite; it is 1 otherwise, and 2 for a malformed
config, reported as one line naming its JSON pointer. --suite may name only
suites the config enables.

Each suite is a generator of (name, parameters, thunk) triples; one loop in
_Runner.run gives it a seeded sampler and records every check it yields.
A thunk returns its residual as one of:
  a rational or int scalar, which is its own sample;
  a GradedVector, DualGradedVector or GradedOperator, sampled by its first
    nonzero entry (first_nonzero);
  a tuple of residuals, sampled by its first nonzero member;
  a string naming a failure the check has already located (the vacuum
    axioms, the exchange tuples), or 0 when there is none.
_witness reads each kind as None when it is exactly zero, else its sample;
a record's residual_is_zero and residual_sample ("0" when zero) both come
from that one value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import permutations, product

from . import __version__
from .actions import ELEMENTS, action_check, action_norm, load_formula_table
from .bethe import (
    build_dual_vector,
    build_vector,
    build_vector_limit,
    grading_of,
    vector_to_json,
)
from .composite import (
    REPLAY_CHECKS,
    CompositeModel,
    SplitChain,
    action_decomposition_report,
    check_bethe_factorization,
    check_composite_creation_actions,
    check_dual_bethe_factorization,
    check_factor_exchange,
    check_recursion,
    compose_monodromy,
)
from .errors import DivisionByZero, PoleAtZero, PrecisionExhausted, SchemaError
from .gl12 import AmbiguousConvention
from .gl12 import (
    build_tilde_vector,
    check_tilde_dual_factorization,
    check_tilde_factorization,
    resolve_sign,
)
from .graded import SIGNATURES, GradedOperator, GradedVector, check_unitarity, check_ybe
from .monodromy import ChainModel, ChainSpec, check_rtt, check_supercommutator, vacuum_residuals
from .notation import Binding, evaluate
from .rational import BACKEND, rat_from_str
from .sampling import ParameterSampler
from .scalars import f, g, h, is_zero, izergin, three_term_witness

SUITES = (
    "scalar",
    "ybe",
    "rtt",
    "commutator",
    "bethe",
    "actions",
    "recursion",
    "composite",
    "proof-replay",
    "gl12",
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    c: object
    chains: list
    suites: tuple
    seed: int = 1729
    campaigns: int = 3
    max_a: int = 2
    max_b: int = 2
    split: tuple = None
    us: tuple = None
    vs: tuple = None
    action_formula_file: str = None


def _rat_at(value, pointer):
    try:
        return rat_from_str(value) if isinstance(value, str) else rat_from_str(str(value))
    except (ValueError, TypeError):
        raise SchemaError(f"not a rational: {value!r}", pointer) from None


def _is_int(value):
    """A JSON integer: not a float, a string or a bool (which Python counts as an int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_at(raw, key, default):
    value = raw.get(key, default)
    if not _is_int(value):
        raise SchemaError(f"not an integer: {value!r}", f"/{key}")
    return value


def _list_at(obj, key, default, pointer):
    value = obj.get(key, default)
    if not isinstance(value, list):
        raise SchemaError(f"{key} must be a list, not {value!r}", pointer)
    return value


def _rats_at(obj, key, default, pointer):
    """The list obj[key] (default if absent) as a tuple of rationals, each
    element's pointer under pointer."""
    return tuple(_rat_at(x, f"{pointer}/{i}") for i, x in enumerate(_list_at(obj, key, default, pointer)))


def _signature_at(obj, key, default, pointer):
    name = obj.get(key, default)
    if not isinstance(name, str) or name not in SIGNATURES:
        raise SchemaError(f"unknown signature {name!r}", pointer)
    return name


def _count_at(raw, key, default):
    """A non-negative integer: a negative bound or count would empty the
    grid it sizes and let the run report all green."""
    value = _int_at(raw, key, default)
    if value < 0:
        raise SchemaError(f"{key}={value} is negative", f"/{key}")
    return value


_CONFIG_KEYS = (
    "c", "signature", "seed", "campaigns", "max_a", "max_b", "max_L",
    "chains", "split", "u", "v", "suites", "action_formula_file",
)
_CHAIN_KEYS = ("L", "xi", "twist", "signature")


def _reject_unknown_keys(obj, allowed, base):
    """A misspelt key would otherwise fall back to its default silently."""
    for key in obj:
        if key not in allowed:
            escaped = key.replace("~", "~0").replace("/", "~1")
            raise SchemaError(f"unknown key {key!r} (allowed: {', '.join(allowed)})", f"{base}/{escaped}")


def load_config(path, overrides=None) -> RunConfig:
    """Parse the config file; overrides (top-level keys, such as the
    command line's max_a) replace the file's values before any check."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"invalid JSON: {e}", "/") from None
    if overrides and isinstance(raw, dict):
        raw = dict(raw, **overrides)
    return parse_config(raw)


def parse_config(raw) -> RunConfig:
    if not isinstance(raw, dict):
        raise SchemaError("config must be an object", "/")
    _reject_unknown_keys(raw, _CONFIG_KEYS, "")
    c = _rat_at(raw.get("c", "1"), "/c")
    if is_zero(c):
        raise SchemaError("c must be nonzero", "/c")
    default_sig = _signature_at(raw, "signature", "gl(2|1)", "/signature")

    max_len = _count_at(raw, "max_L", 4)
    chains = []
    for idx, ch in enumerate(_list_at(raw, "chains", [], "/chains")):
        base = f"/chains/{idx}"
        if not isinstance(ch, dict) or "L" not in ch:
            raise SchemaError("chain needs an integer L", base)
        _reject_unknown_keys(ch, _CHAIN_KEYS, base)
        length = ch["L"]
        if not _is_int(length) or length < 0 or length > max_len:
            raise SchemaError(f"L={length!r} outside 0..{max_len}", base + "/L")
        xi = _rats_at(ch, "xi", [str(k) for k in range(length)], base + "/xi")
        if len(xi) != length:
            raise SchemaError(f"need {length} inhomogeneities", base + "/xi")
        if len(set(xi)) != length:
            raise SchemaError("inhomogeneities must be pairwise distinct", base + "/xi")
        twist = _rats_at(ch, "twist", ["1", "1", "1"], base + "/twist")
        if len(twist) != 3:
            raise SchemaError("twist needs three entries", base + "/twist")
        if any(is_zero(d) for d in twist):
            raise SchemaError("twist entries must be nonzero", base + "/twist")
        sig_name = _signature_at(ch, "signature", default_sig, base + "/signature")
        chains.append(ChainSpec(length, xi, twist, SIGNATURES[sig_name], c))

    suites_raw = _list_at(raw, "suites", list(SUITES), "/suites")
    for i, s in enumerate(suites_raw):
        if s not in SUITES:
            raise SchemaError(f"unknown suite {s!r}", f"/suites/{i}")

    split = raw.get("split")
    if split is not None:
        if (
            not isinstance(split, list)
            or len(split) != 2
            or any(not _is_int(i) or i < 0 or i >= len(chains) for i in split)
        ):
            raise SchemaError("split must be two valid chain indices", "/split")
        try:
            SplitChain(chains[split[0]], chains[split[1]])
        except ValueError as err:  # SignatureMismatch is one
            raise SchemaError(str(err), "/split") from None
        split = tuple(split)

    campaigns = _count_at(raw, "campaigns", 3)
    formula_file = raw.get("action_formula_file")
    if formula_file is not None:
        if not isinstance(formula_file, str) or not os.path.isfile(formula_file):
            raise SchemaError(f"action formula file not found: {formula_file!r}", "/action_formula_file")
        try:
            load_formula_table(formula_file)
        except SchemaError as err:
            raise SchemaError(f"formula table {formula_file}, at {err.pointer}: {err.message}", "/action_formula_file") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise SchemaError(f"formula table {formula_file}: {err}", "/action_formula_file") from None
    us, vs = (_rats_at(raw, key, None, f"/{key}") if key in raw else None for key in ("u", "v"))
    _check_fixed_parameters(us or (), vs or (), chains, c)

    return RunConfig(
        c=c,
        chains=chains,
        suites=tuple(suites_raw),
        seed=_int_at(raw, "seed", 1729),
        campaigns=campaigns,
        max_a=_count_at(raw, "max_a", 2),
        max_b=_count_at(raw, "max_b", 2),
        split=split,
        us=us,
        vs=vs,
        action_formula_file=formula_file,
    )


def _check_fixed_parameters(us, vs, chains, c):
    """Fixed u and v must miss the poles the suites divide by: an
    inhomogeneity, a repeat, u = v (g), two v's at distance c (the symmetrized
    odd products), and v - u = -c on gl(2|1) (f(vs,us)). On gl(1|2) the u's
    are odd as well, and the pair pole is u - v = -c (f(us,vs))."""
    sigs = {ch.sig.name for ch in chains}
    xis = [x for ch in chains for x in ch.xi]
    for key, xs in (("u", us), ("v", vs)):
        within = (0, c, -c) if key == "v" or "gl(1|2)" in sigs else (0,)
        for i, x in enumerate(xs):
            if any(is_zero(x - xi) for xi in xis):
                raise SchemaError(f"{key} = {x} is an inhomogeneity of a chain", f"/{key}/{i}")
            for y in xs[:i]:
                if any(is_zero(x - y - d) for d in within):
                    raise SchemaError(f"{key} = {x} and {key} = {y} differ by {x - y}, a pole", f"/{key}/{i}")
    across = (0,) + ((-c,) if "gl(2|1)" in sigs else ()) + ((c,) if "gl(1|2)" in sigs else ())
    for j, v in enumerate(vs):
        for u in us:
            if any(is_zero(v - u - d) for d in across):
                raise SchemaError(f"v = {v} and u = {u} differ by {v - u}, a pole", f"/v/{j}")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass
class CheckRecord:
    suite: str
    name: str
    parameters: dict
    residual_is_zero: bool
    residual_sample: str
    runtime: float


@dataclass
class Report:
    records: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    sign_convention: int = None

    def all_zero(self):
        return all(r.residual_is_zero for r in self.records)

    def to_json(self):
        return {
            "environment": self.environment,
            "sign_convention": self.sign_convention,
            "checks": [asdict(r) for r in self.records],
        }


def emit_report(report: Report, path):
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _witness(residual):
    """None for an exactly-zero residual, else where it is not zero: a
    tuple's first nonzero member's witness, a graded object's first nonzero
    entry, a scalar itself, or a failure string the check has located."""
    if isinstance(residual, tuple):
        return next((w for w in map(_witness, residual) if w is not None), None)
    if isinstance(residual, (GradedVector, GradedOperator)):
        return residual.first_nonzero()
    return None if is_zero(residual) else str(residual)


class _Runner:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.report = Report(
            environment={
                "python": sys.version.split()[0],
                "rational_backend": BACKEND,
                "package_version": __version__,
                "seed": cfg.seed,
            }
        )

    def check(self, suite, name, parameters, thunk):
        """Run thunk, timed, and record its residual. The parameters are
        serialized after thunk returns, so a thunk may fill in a parameter
        it computes."""
        t0 = time.perf_counter()
        residual = thunk()
        dt = time.perf_counter() - t0
        witness = _witness(residual)
        self.report.records.append(
            CheckRecord(
                suite,
                name,
                {k: ",".join(map(str, v)) if isinstance(v, tuple) else str(v) for k, v in parameters.items()},
                witness is None,
                "0" if witness is None else witness,
                round(dt, 6),
            )
        )

    def run(self, only=None):
        """Each suite is a generator of (name, parameters, thunk) drawing from
        its own sampler. A check runs before its suite resumes, so thunks may
        close over loop variables and a suite may read what a check computed."""
        for suite in self.cfg.suites:
            if only and suite not in only:
                continue
            smp = ParameterSampler(f"{self.cfg.seed}:{suite}", self.cfg.c)
            for name, parameters, thunk in getattr(self, "suite_" + suite.replace("-", "_"))(smp):
                self.check(suite, name, parameters, thunk)
        return self.report

    # -- shared draws -------------------------------------------------------------

    def models(self, sig_name=None, max_len=None):
        """(index, chain, model) for every chain, or for the chains of one
        signature with at most max_len sites, numbered within that selection."""
        chains = self.cfg.chains
        if sig_name is not None:
            chains = [ch for ch in chains if ch.sig.name == sig_name and ch.length <= max_len]
        return ((ci, chain, ChainModel(chain)) for ci, chain in enumerate(chains))

    def split_of(self, suite, sig_name):
        """The configured split, else the first pair of sig_name chains with
        disjoint xi, and the inhomogeneities of both parts."""
        cfg = self.cfg
        if cfg.split is not None and cfg.chains[cfg.split[0]].sig.name == sig_name:
            split = SplitChain(cfg.chains[cfg.split[0]], cfg.chains[cfg.split[1]])
        else:
            for part1, part2 in permutations([ch for ch in cfg.chains if ch.sig.name == sig_name], 2):
                try:
                    split = SplitChain(part1, part2)
                    break
                except ValueError:
                    pass
            else:
                raise SchemaError(f"{suite} suite needs two {sig_name} chains with disjoint xi", "/chains")
        return split, tuple(split.part1.xi) + tuple(split.part2.xi)

    def params(self, smp, a, b, avoid=(), z=False):
        """a u's and b v's, the configured ones if there are enough, else
        drawn; with z, also an operator argument drawn away from all of them."""
        cfg = self.cfg
        if cfg.us is not None and len(cfg.us) >= a and cfg.vs is not None and len(cfg.vs) >= b:
            us, vs = cfg.us[:a], cfg.vs[:b]
        else:
            drawn = smp.generic(a + b, avoid=avoid)
            us, vs = drawn[:a], drawn[a:]
        return (us, vs, smp.generic_one(avoid=tuple(avoid) + us + vs)) if z else (us, vs)

    def ab_grid(self):
        return product(range(self.cfg.max_a + 1), range(self.cfg.max_b + 1))

    def factorizations(self, smp, xi, prefix, primal, dual):
        """The primal and the dual factorization check, called as
        check(us, vs), on every campaign over ab_grid()."""
        for k in range(self.cfg.campaigns):
            for a, b in self.ab_grid():
                us, vs = self.params(smp, a, b, avoid=xi)
                for kind, check in (("", primal), ("dual ", dual)):
                    name = f"{prefix}{kind}bilinear factorization (a,b)=({a},{b}) campaign {k}"
                    yield name, {"u": us, "v": vs}, partial(check, us, vs)

    # -- suites ---------------------------------------------------------------

    def suite_scalar(self, smp):
        c = self.cfg.c
        # K as the runs read it, PairTable.izergin through the shorthand
        K = lambda vs, us, c: evaluate("K(vI|uI)", Binding({"vI": tuple(vs), "uI": tuple(us)}, c=c))
        for k in range(10):
            v, u = smp.generic(2)
            yield f"izergin K1 equals g (draw {k})", {"v": v, "u": u}, lambda: K((v,), (u,), c) - g(v, u, c)
        yield (
            "izergin K2 frozen value",
            {"v": "5,6", "u": "1,2", "c": 1},
            lambda: K((5, 6), (1, 2), 1) - rat_from_str("1/6"),
        )
        vs = smp.generic(3)
        us = smp.generic(3, avoid=vs)

        def invariance():
            base = izergin(vs, us, c)
            return tuple(K(pv, pu, c) - base for pv in permutations(vs) for pu in permutations(us))

        yield "izergin permutation invariance n=3", {"v": vs, "u": us}, invariance
        for k in range(5):
            u, v, z = smp.generic(3)
            yield f"three-term identity (draw {k})", {"u": u, "v": v, "z": z}, lambda: three_term_witness(u, v, z, c)
            yield (
                f"g antisymmetry, f=1+g, h g=f (draw {k})",
                {"u": u, "v": v},
                lambda: (g(u, v, c) + g(v, u, c))
                + (f(u, v, c) - 1 - g(u, v, c))
                + (h(u, v, c) * g(u, v, c) - f(u, v, c)),
            )

    def suite_ybe(self, smp):
        c = self.cfg.c
        for sig_name, sig in SIGNATURES.items():
            smp = ParameterSampler(f"{self.cfg.seed}:ybe:{sig_name}", c)
            for k in range(20):
                u, v, w = smp.generic(3)
                yield f"{sig_name} Yang-Baxter (draw {k})", {"u": u, "v": v, "w": w}, lambda: check_ybe(u, v, w, sig, c)
                yield f"{sig_name} unitarity (draw {k})", {"u": u, "v": v}, lambda: check_unitarity(u, v, sig, c)

    def suite_rtt(self, smp):
        for ci, chain, model in self.models():
            for k in range(self.cfg.campaigns):
                u, v = smp.generic(2, avoid=chain.xi)
                name = f"chain {ci} ({chain.sig.name}, L={chain.length}) RTT (draw {k})"
                yield name, {"u": u, "v": v}, lambda: check_rtt(model, u, v)

    def suite_commutator(self, smp):
        for ci, chain, model in self.models():
            if chain.length != 2:
                continue
            u, v = smp.generic(2, avoid=chain.xi)

            def all_tuples():
                for i, j, k, l in product(range(1, 4), repeat=4):
                    for form, r in enumerate(check_supercommutator(model, i, j, k, l, u, v), 1):
                        witness = r.first_nonzero()
                        if witness is not None:
                            return f"(i,j,k,l)=({i},{j},{k},{l}) form {form}: {witness}"
                return 0

            name = f"chain {ci} ({chain.sig.name}) exchange relations, all 81 tuples, both forms"
            yield name, {"u": u, "v": v}, all_tuples

    def suite_bethe(self, smp):
        for ci, chain, m in self.models():
            for k in range(min(self.cfg.campaigns, 10)):
                u = smp.generic_one(avoid=chain.xi)
                yield (
                    f"chain {ci} ({chain.sig.name}, L={chain.length}) vacuum axioms (draw {k})",
                    {"u": u},
                    lambda: "; ".join(name for name, ok in vacuum_residuals(m, u) if not ok) or 0,
                )
            if chain.sig.name != "gl(2|1)":
                continue
            us, vs, z = self.params(smp, min(2, self.cfg.max_a), min(2, self.cfg.max_b), avoid=chain.xi, z=True)
            parity = len(vs) % 2
            yield (
                f"chain {ci} permutation invariance",
                {"u": us, "v": vs},
                lambda: build_vector(m, us, vs).sub(build_vector(m, us[::-1], vs[::-1])),
            )
            yield (
                f"chain {ci} gradation parity b mod 2",
                {"u": us, "v": vs},
                lambda: 0
                if grading_of(build_vector(m, us, vs), parity) == parity
                and grading_of(build_dual_vector(m, us, vs), parity) == parity
                else 1,
            )
            yield (
                f"chain {ci} coincidence limit equals normalized T13 action",
                {"z": z},
                lambda: build_vector_limit(m, (z,), (z,)).sub(m.apply_T(1, 3, z, m.omega(), action_norm(m, (), z))),
            )

    def suite_actions(self, smp):
        table = load_formula_table(self.cfg.action_formula_file)
        grid = [(a, b) for (a, b) in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)) if a <= self.cfg.max_a and b <= self.cfg.max_b]
        for ci, chain, model in self.models("gl(2|1)", max_len=2):
            for a, b in grid:
                us, vs, z = self.params(smp, a, b, avoid=chain.xi, z=True)
                for el in ELEMENTS:
                    name = f"chain {ci} (L={chain.length}) {el} action at (a,b)=({a},{b})"
                    yield name, {"u": us, "v": vs, "z": z}, lambda: action_check(model, el, us, vs, z, table=table)

    def suite_recursion(self, smp):
        for ci, chain, model in self.models("gl(2|1)", max_len=3):
            for a, b in self.ab_grid():
                if b == 0:
                    continue
                us, vs, z = self.params(smp, a, b - 1, avoid=chain.xi, z=True)
                name = f"chain {ci} (L={chain.length}) recursion at (a,b)=({a},{b})"
                yield name, {"u": us, "v": vs, "z": z}, lambda: check_recursion(model, us, vs, z)

    def suite_composite(self, smp):
        split, xi = self.split_of("composite", "gl(2|1)")
        total = CompositeModel(split)
        u = smp.generic_one(avoid=xi)
        yield (
            "coproduct monodromy equals direct total",
            {"u": u},
            lambda: tuple(compose_monodromy(total, u)[1].values()),
        )
        yield (
            "ratio functions multiply across the split",
            {"u": u},
            lambda: (total.r(1, u) - total.part1.r(1, u) * total.part2.r(1, u))
            + (total.r(3, u) - total.part1.r(3, u) * total.part2.r(3, u)),
        )
        yield from self.factorizations(
            smp, xi, "", partial(check_bethe_factorization, total), partial(check_dual_bethe_factorization, total)
        )
        b = min(1, self.cfg.max_b)
        vs1 = smp.generic(b, avoid=xi)
        vs2 = smp.generic(b, avoid=xi + vs1)
        us1 = smp.generic(1, avoid=xi + vs1 + vs2)
        us2 = smp.generic(1, avoid=xi + vs1 + vs2 + us1)
        exchange = partial(check_factor_exchange, total, us1, vs1, us2, vs2)
        yield "factor exchange identity", {"v1": vs1, "v2": vs2}, exchange
        us, vs, z = self.params(smp, min(1, self.cfg.max_a), min(1, self.cfg.max_b), avoid=xi, z=True)
        yield (
            "creation-entry actions on composite sums",
            {"u": us, "v": vs, "z": z},
            partial(check_composite_creation_actions, total, us, vs, z),
        )

    def suite_proof_replay(self, smp):
        """One check per residual of the replay at (a,b) = (1,1), (2,1),
        (1,2) and (2,2), as max_a and max_b allow; the first one runs it,
        so its record carries the replay's time. Every (a,b) replays on
        one CompositeModel."""
        split, xi = self.split_of("proof-replay", "gl(2|1)")
        total = CompositeModel(split)
        for a, b in ((1, 1), (2, 1), (1, 2), (2, 2)):
            if a - 1 <= self.cfg.max_a and b - 1 <= self.cfg.max_b:
                us, vs, z = self.params(smp, a - 1, b - 1, avoid=xi, z=True)
                residuals = {}

                def residual(name):
                    if not residuals:
                        residuals.update(action_decomposition_report(total, us, vs, z))
                    return residuals[name]

                for name in REPLAY_CHECKS:
                    yield f"(a,b)=({a},{b}) {name}", {"u": us, "v": vs, "z": z}, partial(residual, name)

    def suite_gl12(self, smp):
        split, xi = self.split_of("gl12", "gl(1|2)")
        probes = []
        for _ in range(5):
            us, vs = smp.generic(1, avoid=xi), smp.generic(1, avoid=xi)
            while any(is_zero(u - v) for u in us for v in vs):
                vs = smp.generic(1, avoid=xi + us)
            probes.append((us, vs))
        signs, models = [], {sign: CompositeModel(split, lambda_sign=sign) for sign in (1, -1)}

        def probe_signs():
            signs.extend(resolve_sign(models, us, vs) for us, vs in probes)
            return 0 if len(set(signs)) == 1 else 1

        yield "normalization sign stable across 5 probes", {"signs": signs}, probe_signs
        self.report.sign_convention = signs[0] if len(set(signs)) == 1 else None
        total = models[signs[0]]
        tilde = partial(check_tilde_factorization, total, sign=signs[0])
        tilde_dual = partial(check_tilde_dual_factorization, total, sign=signs[0])
        yield from self.factorizations(smp, xi, "tilde ", tilde, tilde_dual)


def run_suites(cfg: RunConfig, only=None) -> Report:
    return _Runner(cfg).run(only=only)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    overrides = {key: getattr(args, key) for key in ("seed", "max_a", "max_b") if getattr(args, key) is not None}
    cfg = load_config(args.config, overrides)
    only = set(args.suite) if args.suite else None
    if only:
        disabled = only - set(cfg.suites)
        if disabled:
            raise SchemaError(f"--suite names suites the config does not enable: {sorted(disabled)}", "/suites")
    report = run_suites(cfg, only=only)
    for rec in report.records:
        mark = "ok " if rec.residual_is_zero else "FAIL"
        print(f"[{mark}] {rec.suite} :: {rec.name} ({rec.runtime:.3f}s)")
    zeros = sum(r.residual_is_zero for r in report.records)
    print(f"{zeros}/{len(report.records)} checks with exactly-zero residual")
    if report.sign_convention is not None:
        print(f"resolved gl(1|2) composite normalization sign: {report.sign_convention:+d}")
    if args.report:
        emit_report(report, args.report)
        print(f"report written to {args.report}")
    return 0 if report.all_zero() else 1


def _cmd_report(args) -> int:
    cfg = load_config(args.config)
    report = run_suites(cfg)
    emit_report(report, args.out)
    print(f"report written to {args.out}")
    return 0 if report.all_zero() else 1


def _cmd_bethe_eval(args) -> int:
    cfg = load_config(args.config)
    if not cfg.chains:
        raise SchemaError("bethe eval needs a chain", "/chains")
    model = ChainModel(cfg.chains[0])
    us = tuple(rat_from_str(x) for x in args.u or [])
    vs = tuple(rat_from_str(x) for x in args.v or [])
    builder = build_vector if model.sig.name == "gl(2|1)" else build_tilde_vector
    vec = build_vector_limit(model, us, vs, builder=builder)
    print(json.dumps(vector_to_json(vec), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="superbethe",
        description="Check the gl(2|1) and gl(1|2) identities a JSON config enables, with exactly-zero "
        "residuals: verify runs its suites (exit 0 iff every residual is zero), report writes their JSON "
        "report, and bethe eval prints a Bethe vector's sparse entries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites from a config")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--suite", action="append", help="run only this suite (repeatable)")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--max-a", type=int, dest="max_a")
    p_verify.add_argument("--max-b", type=int, dest="max_b")
    p_verify.add_argument("--report", help="also write the JSON report here")
    p_verify.set_defaults(fn=_cmd_verify)

    p_report = sub.add_parser("report", help="run configured suites and write the JSON report")
    p_report.add_argument("--config", required=True)
    p_report.add_argument("--out", required=True)
    p_report.set_defaults(fn=_cmd_report)

    p_bethe = sub.add_parser("bethe", help="Bethe vector utilities")
    bsub = p_bethe.add_subparsers(dest="bethe_command", required=True)
    p_eval = bsub.add_parser("eval", help="print a Bethe vector's sparse entries")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--u", action="append", help="u parameter p/q (repeatable)")
    p_eval.add_argument("--v", action="append", help="v parameter p/q (repeatable)")
    p_eval.set_defaults(fn=_cmd_bethe_eval)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, AmbiguousConvention, DivisionByZero, PoleAtZero, PrecisionExhausted, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
