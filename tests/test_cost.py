"""Cost gate: the number of partition-coefficient lists and of EpsScalar
results the vector suites of configs/quick.json compute, and the number of
operator compositions its RTT and exchange suites make.

Every count is deterministic and the same on either rational backend, so a
rise shows a regression that wall time is too noisy to show. A change that
lowers a count should lower its pin too.
"""

import os
from collections import Counter

import pytest

from superbethe import bethe, scalars
from superbethe.cli import load_config, run_suites
from superbethe.graded import GradedOperator

QUICK = os.path.join(os.path.dirname(__file__), "..", "configs", "quick.json")

# suite -> (bethe._partition_terms calls, scalars._series calls)
PINNED = {
    "bethe": (6, 69),
    "actions": (81, 987),
    "recursion": (12, 0),
    "composite": (86, 615),
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
