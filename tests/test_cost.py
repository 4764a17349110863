"""Cost gate: the number of partition-coefficient lists and of EpsScalar
results the vector suites of configs/quick.json compute, the number of
operator compositions its RTT and exchange suites make, the embeds and
walked state entries of its RTT, composite and Bethe suites, and the
Fraction operations of the shorthand coefficients of the action table.

Every count is deterministic and the same on either rational backend, so a
rise shows a regression that wall time is too noisy to show. A change that
lowers a count should lower its pin too.
"""

import os
import sys
from collections import Counter
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

QUICK = os.path.join(os.path.dirname(__file__), "..", "configs", "quick.json")

# suite -> (bethe._partition_terms calls, scalars._series calls)
PINNED = {
    "bethe": (6, 63),
    "actions": (81, 909),
    "recursion": (12, 0),
    "composite": (86, 550),
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


# suite -> GradedOperator.compose calls: RTT streams its residual without
# one, and the exchange suite composes the 162 entry products of its pair
COMPOSE_PINNED = {
    "rtt": 0,
    "commutator": 162,
}


@pytest.mark.parametrize("suite", sorted(COMPOSE_PINNED))
def test_operator_suite_compose_calls_do_not_rise(suite, monkeypatch):
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
# monodromy._apply_factor): RTT applies R(u,v) by digit arithmetic and the
# coproduct sums graded tensor products, so neither embeds; T(u) is built
# once per column prefix, and a vector walk's last factor keeps only the
# wanted auxiliary digit
WALK_PINNED = {
    "rtt": (0, 1020),
    "composite": (0, 942),
    "bethe": (0, 711),
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
