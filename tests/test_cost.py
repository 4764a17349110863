"""Cost gate: the number of partition-coefficient lists and of EpsScalar
results the vector suites of configs/quick.json compute, the number of
operator compositions its RTT, exchange and Yang-Baxter suites make, the
packed products of its RTT and exchange suites, the embeds and walked
state entries of its RTT, composite and Bethe suites, the Fraction
operations and hashes of its vector suites, and the Fraction operations of
the shorthand coefficients of the action table.

Every count is deterministic and the same on either rational backend, so a
rise shows a regression that wall time is too noisy to show. A change that
lowers a count should lower its pin too.
"""

import os
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from superbethe import bethe, graded, monodromy, scalars
from superbethe.actions import action_binding, load_formula_table
from superbethe.cli import load_config, run_suites
from superbethe.graded import GL21, GradedOperator
from superbethe.monodromy import ChainModel, ChainSpec
from superbethe.notation import Binding, partition_sum
from superbethe.rational import BACKEND, rat
from superbethe.sampling import ParameterSampler
from superbethe.scalars import EPS, EpsScalar, PairTable

QUICK = os.path.join(os.path.dirname(__file__), "..", "configs", "quick.json")

# suite -> (bethe._partition_terms calls, scalars._series calls); a vector
# its weight makes zero computes no coefficient list, and scalars.ratio
# reads an eps-limit off the leading terms, with no series division
PINNED = {
    "bethe": (6, 57),
    "actions": (44, 381),
    "recursion": (9, 0),
    "composite": (52, 142),
}


@pytest.fixture
def counted(monkeypatch):
    count = Counter()
    partition_terms, series = bethe._partition_terms, scalars._series

    def counted_partition_terms(*args):
        count["partition_terms"] += 1
        return partition_terms(*args)

    def counted_series(*args):
        count["eps_results"] += 1
        return series(*args)

    monkeypatch.setattr(bethe, "_partition_terms", counted_partition_terms)
    monkeypatch.setattr(scalars, "_series", counted_series)
    return count


@pytest.mark.parametrize("suite", sorted(PINNED))
def test_vector_suite_cost_does_not_rise(suite, counted):
    report = run_suites(load_config(QUICK), only={suite})
    assert report.records and report.all_zero()
    got = counted["partition_terms"], counted["eps_results"]
    assert got[0] <= PINNED[suite][0] and got[1] <= PINNED[suite][1], (suite, got, PINNED[suite])


# suite -> (Fraction operations, Fraction.__hash__ calls) of one run: an
# EpsScalar keeps its integral coefficients as ints, a Bethe-vector
# build hashes each parameter once, for its point id, and a bilinear sum
# builds its partial vectors without a cache, whose keys would hash them
FRACTION_PINNED = {
    "bethe": (291, 39),
    "actions": (1880, 1023),
    "recursion": (155, 36),
    "composite": (620, 134),
    "gl12": (823, 130),
    "proof-replay": (912, 484),
}


@pytest.mark.skipif(BACKEND != "fractions", reason="counts fractions.Fraction operations")
@pytest.mark.parametrize("suite", sorted(FRACTION_PINNED))
def test_vector_suite_fraction_work_does_not_rise(suite, fraction_ops, monkeypatch):
    hashes = Counter()
    honest = Fraction.__hash__

    def counted_hash(self):
        hashes["hash"] += 1
        return honest(self)

    config = load_config(QUICK)
    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    fraction_ops.clear()
    report = run_suites(config, only={suite})
    assert report.records and report.all_zero()
    got = sum(fraction_ops.values()), hashes["hash"]
    pin = FRACTION_PINNED[suite]
    assert got[0] <= pin[0] and got[1] <= pin[1], (suite, got, pin)


def test_eps_shifted_pair_tables_hold_int_coefficients():
    """At an eps-shifted rational point every entry of a PairTable is an int
    or an EpsScalar whose series coefficients are all ints: clearing the
    point's denominator leaves an integral series, and nothing divides."""
    xs = (rat(7, 2), rat(-5, 3) + EPS, rat(4), rat(1, 6))
    table = PairTable(xs, rat(3, 2))
    shifted = 0
    for entries in (table.g, table.f, table.h):
        for row in entries:
            for pair in row:
                for x in pair:
                    if isinstance(x, EpsScalar):
                        shifted += 1
                        assert all(type(c) is int for c in x.coeffs), x
                    else:
                        assert type(x) is int, x
    assert shifted


# suite -> GradedOperator.compose calls: RTT multiplies the entry products
# of N*T on packed int columns (graded.packed_product) and the exchange
# relations the packed entries of their pair, neither through a compose;
# Yang-Baxter and unitarity read five permutation products (graded.
# _permutation_products), built once per signature, ten composes for the
# Yang-Baxter four and one for P^2 - I, from a cache afterwards (cleared
# here, so the pin counts the cold build)
COMPOSE_PINNED = {
    "rtt": 0,
    "commutator": 0,
    "ybe": 22,
}


@pytest.mark.parametrize("suite", sorted(COMPOSE_PINNED))
def test_operator_suite_compose_calls_do_not_rise(suite, monkeypatch):
    graded._products_of.cache_clear()
    calls = Counter()
    compose = GradedOperator.compose

    def counted_compose(self, other):
        calls["compose"] += 1
        return compose(self, other)

    monkeypatch.setattr(GradedOperator, "compose", counted_compose)
    report = run_suites(load_config(QUICK), only={suite})
    assert report.records and report.all_zero()
    assert calls["compose"] <= COMPOSE_PINNED[suite], (suite, calls["compose"])


# suite -> (graded.embed calls, state entries into and out of
# monodromy._apply_factor): RTT multiplies the entries of N*T(u) and N*T(v)
# as Model.monodromy gives them and the coproduct sums graded tensor
# products, so neither embeds; T(u) is built once per column prefix, a
# vector walk's last factor keeps only the wanted auxiliary digit, the
# vacuum axioms walk Omega and Omega^+ instead of building T(u), each model
# walks a Bethe-vector step sequence once (the walk tries of
# bethe.build_family), and a vector its weight makes zero
# (Model.weight_space_nonempty) is not walked at all
WALK_PINNED = {
    "rtt": (0, 1020),
    "composite": (0, 642),
    "bethe": (0, 251),
    "actions": (0, 690),
    "proof-replay": (0, 129),
    "gl12": (0, 678),
    "recursion": (0, 72),
}


@pytest.mark.parametrize("suite", sorted(WALK_PINNED))
def test_embeds_and_walked_entries_do_not_rise(suite, monkeypatch):
    count = Counter()
    embed, apply_factor = graded.embed, monodromy._apply_factor

    def counted_embed(*args):
        count["embed"] += 1
        return embed(*args)

    def counted_apply_factor(length, weights, state, keep=None):
        out = apply_factor(length, weights, state, keep)
        count["walked"] += len(state) + len(out)
        return out

    for name, module in list(sys.modules.items()):
        if name.startswith("superbethe") and getattr(module, "embed", None) is embed:
            monkeypatch.setattr(module, "embed", counted_embed)
    monkeypatch.setattr(monodromy, "_apply_factor", counted_apply_factor)
    report = run_suites(load_config(QUICK), only={suite})
    assert report.records and report.all_zero()
    got = count["embed"], count["walked"]
    assert got[0] <= WALK_PINNED[suite][0] and got[1] <= WALK_PINNED[suite][1], (suite, got, WALK_PINNED[suite])


# suite -> graded.packed_product calls: the RTT pass computes each of the
# 162 entry products once per column of the chain, and only where its right
# factor's column is nonempty, once per RTT check and once per exchange
# pair for all 81 tuples; nothing else of the suites packs
PACKED_PINNED = {"rtt": 2106, "commutator": 1026}


@pytest.mark.parametrize("suite", sorted(PACKED_PINNED))
def test_packed_products_do_not_rise(suite, monkeypatch):
    calls = Counter()
    honest = monodromy.packed_product

    def counted(packed, column):
        calls["packed_product"] += 1
        return honest(packed, column)

    monkeypatch.setattr(monodromy, "packed_product", counted)
    report = run_suites(load_config(QUICK), only={suite})
    assert report.records and report.all_zero()
    assert calls["packed_product"] <= PACKED_PINNED[suite], (suite, calls["packed_product"])


class _Terms(list):
    """A partition-sum accumulator that keeps each term's coefficient."""

    def add(self, coefficient):
        self.append(coefficient)
        return self


@pytest.mark.skipif(BACKEND != "fractions", reason="counts fractions.Fraction operations")
def test_shorthand_coefficients_multiply_only_ints(fraction_ops):
    """At a rational base every coefficient of the action table is computed
    on ints from one pair table: besides the unary-function values, each
    computed once per parameter, a coefficient costs one Fraction operation,
    the rational its target is scaled by."""
    model = ChainModel(ChainSpec(2, (0, rat(1, 3)), (2, rat(2, 3), -3), GL21, rat(3, 2)))
    ps = ParameterSampler("shorthand-cost", 1).generic(5, avoid=model.spec.xi)
    us, vs, z = ps[:2], ps[2:4], ps[4]
    calls, inside = Counter(), Counter()

    def counted(name, fn):
        def value(x):
            before = sum(fraction_ops.values())
            out = fn(x)
            inside["ops"] += sum(fraction_ops.values()) - before
            calls[name, x] += 1
            return out

        return value

    funcs = action_binding(model, us, vs, z).funcs
    base = Binding({"ubar": us, "vbar": vs, "z": (z,)}, model.c, {name: counted(name, fn) for name, fn in funcs.items()})
    target = lambda args: SimpleNamespace(scale=lambda coefficient: coefficient)
    fraction_ops.clear()
    terms = _Terms()
    for element_terms in load_formula_table().values():
        partition_sum(element_terms, base, target, terms)
    assert len(terms) > 30 and max(calls.values()) == 1
    ops = sum(fraction_ops.values()) - inside["ops"]
    assert ops <= len(terms), (ops, len(terms), fraction_ops)
