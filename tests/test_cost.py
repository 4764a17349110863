"""Cost gate: the number of partition-coefficient lists and of eps-series
results (none) the vector suites of configs/quick.json compute, the number of
operator compositions its RTT, exchange and Yang-Baxter suites make, the
packed products of its RTT and exchange suites, the T(u) builds and the
entries they return in its operator suites, the embeds and walked state
entries of its RTT, composite and Bethe suites, the Fraction
operations and hashes and the Bethe-vector builds of its vector suites,
the composite models its composite and gl12 suites build, the factor
skeletons and per-point factor evaluations of its vector
suites, and the Fraction operations of the shorthand coefficients of the
action table.

Every count is deterministic, so a rise shows a regression that wall time
is too noisy to show. A change that lowers a count should lower its pin too.
"""

import os
import sys
from collections import Counter
from fractions import Fraction

import pytest

from superbethe import bethe, composite, gl12, graded, monodromy, scalars
from superbethe.actions import action_binding, load_formula_table
from superbethe.cli import load_config, run_suites
from superbethe.graded import GL21, GradedOperator, GradedVector
from superbethe.monodromy import ChainModel, ChainSpec
from superbethe.notation import Binding, partition_sum
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler

QUICK = os.path.join(os.path.dirname(__file__), "..", "configs", "quick.json")

# suite -> (bethe._partition_terms calls, scalars._series calls); a vector
# its weight makes zero computes no coefficient list, and a partition-sum
# term whose vector is zero by weight reads no coefficient; the
# factorization checks of a suite share one composite model, so its ket
# and dual checks share its coefficient lists. A coincidence is a plain
# evaluation: a vector at a coincident u/v pair is a nested vector
# (bethe.nested_vector) and a composite sum's coefficient there reads the
# pole table of scalars.PairTable, so no suite builds an eps series
PINNED = {
    "bethe": (3, 0),
    "actions": (29, 0),
    "recursion": (9, 0),
    "composite": (17, 0),
    "gl12": (9, 0),
    "proof-replay": (14, 0),
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
    assert got[0] <= PINNED[suite][0] and got[1] == PINNED[suite][1] == 0, (suite, got, PINNED[suite])


# suite -> (Fraction operations, Fraction.__hash__ calls) of one run: a
# coincidence is evaluated where it is, with no shifted parameter to build
# or hash, a Bethe-vector build keys each parameter's point id by its
# cleared pair, with no hash,
# and reads lam2 from its point's record, computed on ints, lam1 is one
# quotient of ints, and so are the ratio functions r1 and r3 and the
# composite lam (Model.lam_pair) at a rational point, the sampler tests
# genericity on int pairs, a bilinear sum builds the partial vectors of its live
# splits only, one build each, the partial vectors of an action's
# right-hand side and of the replay are cached by their index tuples into
# the sum's one Binding, and a term whose vector is zero by weight reads no
# coefficient (so no ratio function) and builds no partial; vectors are int
# numerators over one int denominator, so their sums, scalings and tensor
# products make no Fraction, and the vacuum axioms scale Omega by the int
# pair of lam_i (Model.lam_pair)
FRACTION_PINNED = {
    "bethe": (18, 0),
    "actions": (142, 0),
    "recursion": (22, 0),
    "composite": (31, 0),
    "gl12": (28, 0),
    "proof-replay": (59, 0),
}


# suite -> CompositeModel constructions of one run: each suite builds one
# per split and hands it to every composite check it runs, its vacuum
# axioms included (composite.composite_model), proof-replay to the replay
# at every (a,b)
COMPOSITE_PINNED = {"composite": 1, "gl12": 1, "proof-replay": 1}


@pytest.mark.parametrize("suite", sorted(COMPOSITE_PINNED))
def test_composite_models_are_built_once_per_suite(suite, monkeypatch):
    built = Counter()
    honest = composite.CompositeModel.__init__

    def counted(self, *args, **kw):
        built["models"] += 1
        honest(self, *args, **kw)

    monkeypatch.setattr(composite.CompositeModel, "__init__", counted)
    report = run_suites(load_config(QUICK), only={suite})
    assert report.records and report.all_zero()
    assert built["models"] <= COMPOSITE_PINNED[suite], (suite, built["models"])


# suite -> bethe.build_family calls of one run, the Bethe, dual and tilde
# vectors it builds: a partition-sum term whose vector is zero by weight
# (Model.weight_space_nonempty, bethe.weight_gated) builds no partial, and
# a vector at a coincident u/v pair is a nested vector
FAMILY_PINNED = {
    "bethe": 12,
    "actions": 143,
    "recursion": 15,
    "composite": 40,
    "gl12": 28,
    "proof-replay": 34,
}


@pytest.mark.parametrize("suite", sorted(FAMILY_PINNED))
def test_vector_builds_do_not_rise(suite, monkeypatch):
    calls = Counter()
    honest = bethe.build_family

    def counted(model, us, vs, *args, **kw):
        calls["build_family"] += 1
        return honest(model, us, vs, *args, **kw)

    monkeypatch.setattr(bethe, "build_family", counted)
    monkeypatch.setattr(gl12, "build_family", counted)
    report = run_suites(load_config(QUICK), only={suite})
    assert report.records and report.all_zero()
    assert calls["build_family"] <= FAMILY_PINNED[suite], (suite, calls["build_family"])


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


# suite -> GradedOperator.compose calls: RTT multiplies the entry products
# of N*T on packed int columns (graded.packed_products) and the exchange
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
# products, so neither embeds; T(u) is built one level of column prefixes
# at a time (monodromy._level_step), with no _apply_factor, so RTT walks
# nothing; a vector walk's last factor keeps only the wanted auxiliary
# digit, the vacuum axioms walk Omega and Omega^+ instead of building
# T(u), each model walks a Bethe-vector step sequence once (the walk tries
# of bethe.build_family), and a vector its weight makes zero
# (Model.weight_space_nonempty) is not walked at all; the vacuum axioms
# walk one column of T(u) on Omega and one row on Omega^+ at a time, six
# walks for twelve entries, and the composite and gl12 suites walk their
# composite's, 60 state entries per point on the quick config's two-site
# composites, at one point and at ten; a nested vector walks its
# auxiliary chain and shares the T_1i(u) steps of the walk trie
WALK_PINNED = {
    "rtt": (0, 0),
    "composite": (0, 270),
    "bethe": (0, 208),
    "actions": (0, 590),
    "proof-replay": (0, 105),
    "gl12": (0, 738),
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


# suite -> (monodromy.build_cleared_product calls, entries they return):
# RTT builds N*T(u) and N*T(v) once per check, the exchange relations once
# per spectral pair for all 81 tuples, and the coproduct the total and its
# two parts once per point; a build stores no zero entry
BUILD_PINNED = {
    "rtt": (10, 270),
    "composite": (3, 105),
    "commutator": (2, 150),
}


@pytest.mark.parametrize("suite", sorted(BUILD_PINNED))
def test_operator_suite_builds_do_not_rise(suite, monkeypatch):
    count = Counter()
    honest = monodromy.build_cleared_product

    def counted(*args):
        scale, op = honest(*args)
        count["builds"] += 1
        count["entries"] += op.nnz()
        return scale, op

    monkeypatch.setattr(monodromy, "build_cleared_product", counted)
    report = run_suites(load_config(QUICK), only={suite})
    assert report.records and report.all_zero()
    got = count["builds"], count["entries"]
    pin = BUILD_PINNED[suite]
    assert got[0] <= pin[0] and got[1] <= pin[1], (suite, got, pin)


# suite -> (factor skeletons built, per-point factor evaluations) of one
# run: a model builds its skeleton on its first walk and evaluates the
# factors of each point it walks once, the vacuum axioms walk their model
# (the composite's at the coproduct's point too), the factorization checks
# of a suite share one composite model, each build_cleared_product call
# (the materialized T(u) of the coproduct) builds one of each, and a nested
# vector walks its auxiliary chain with neither (monodromy.
# cleared_chain_orders)
POINT_PINNED = {
    "bethe": (5, 14),
    "actions": (3, 24),
    "recursion": (3, 9),
    "composite": (6, 24),
    "gl12": (3, 19),
    "proof-replay": (3, 16),
}


@pytest.mark.parametrize("suite", sorted(POINT_PINNED))
def test_per_point_factor_data_is_computed_once(suite, monkeypatch):
    """Every model builds at most one factor skeleton and evaluates each
    point's factors on it at most once, exactly for the points it keeps
    walk data for; every other skeleton is one build_cleared_product
    call's."""
    models, skeletons, evaluations, builds = [], [], Counter(), Counter()
    init, skeleton, point_weights, build = (
        monodromy.Model.__init__,
        monodromy._factor_skeleton,
        monodromy._point_weights,
        monodromy.build_cleared_product,
    )

    def counted_init(self, parts):
        models.append(self)
        init(self, parts)

    def counted_skeleton(*args):
        skeletons.append(skeleton(*args))  # kept alive, so ids stay unique
        return skeletons[-1]

    def counted_point_weights(skel, up, uq):
        evaluations[id(skel), up, uq] += 1
        return point_weights(skel, up, uq)

    def counted_build(*args):
        builds["calls"] += 1
        return build(*args)

    monkeypatch.setattr(monodromy.Model, "__init__", counted_init)
    monkeypatch.setattr(monodromy, "_factor_skeleton", counted_skeleton)
    monkeypatch.setattr(monodromy, "_point_weights", counted_point_weights)
    monkeypatch.setattr(monodromy, "build_cleared_product", counted_build)
    report = run_suites(load_config(QUICK), only={suite})
    assert report.records and report.all_zero()
    walked = [m for m in models if m._skeleton is not None]
    assert len(skeletons) == len(walked) + builds["calls"]
    assert max(evaluations.values()) == 1
    per_skeleton = Counter(skel for skel, _, _ in evaluations.elements())
    assert all(per_skeleton[id(m._skeleton)] == len(m._weights) for m in walked)
    got = len(skeletons), sum(evaluations.values())
    pin = POINT_PINNED[suite]
    assert got[0] <= pin[0] and got[1] <= pin[1], (suite, got, pin)


# suite -> graded.packed_products calls: the RTT pass computes each of the
# 162 entry products once per column of the chain, and only where its right
# factor's column is nonempty, the nine that share that column in one call
# (18 calls per chain column), once per RTT check and once per exchange
# pair for all 81 tuples; nothing else of the suites packs
PACKED_PINNED = {"rtt": 234, "commutator": 114}


@pytest.mark.parametrize("suite", sorted(PACKED_PINNED))
def test_packed_products_do_not_rise(suite, monkeypatch):
    calls = Counter()
    honest = monodromy.packed_products

    def counted(rows, column):
        calls["packed_products"] += 1
        return honest(rows, column)

    monkeypatch.setattr(monodromy, "packed_products", counted)
    report = run_suites(load_config(QUICK), only={suite})
    assert report.records and report.all_zero()
    assert calls["packed_products"] <= PACKED_PINNED[suite], (suite, calls["packed_products"])


def test_shorthand_coefficients_multiply_only_ints(fraction_ops):
    """At a rational base every coefficient of the action table is computed
    on ints from one pair table and enters the sum as ints: besides the
    unary-function values, each computed once per parameter, the sums make
    no Fraction."""
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
    terms = Counter()
    omega = GradedVector.basis(GL21, (1,))

    def target(args, keys):
        terms["terms"] += 1
        return omega

    fraction_ops.clear()
    for element_terms in load_formula_table().values():
        partition_sum(element_terms, base, target, GradedVector(GL21, 1))
    assert terms["terms"] > 30 and max(calls.values()) == 1
    ops = sum(fraction_ops.values()) - inside["ops"]
    assert ops == 0, (ops, terms["terms"], fraction_ops)
