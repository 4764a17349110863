import json
import os
import re
from importlib import resources

import pytest

from superbethe.cli import (
    SchemaError,
    emit_report,
    load_config,
    main,
    parse_config,
    run_suites,
)
from superbethe.bethe import build_vector, vector_to_json
from superbethe.gl12 import build_tilde_vector
from superbethe.graded import GL12, GL21, DualGradedVector, GradedOperator, GradedVector
from superbethe.monodromy import ChainModel, ChainSpec
from superbethe.rational import rat, rat_from_str

from oracles import vector_at_coincidence

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {"suites": ["rtt"], "chains": [{"L": 1, "xi": ["0"]}]}))
    assert cfg.c == 1
    assert cfg.chains[0].twist == (1, 1, 1)
    assert cfg.seed == 1729
    assert cfg.suites == ("rtt",)


def test_schema_error_pointers(tmp_path):
    with pytest.raises(SchemaError) as err:
        parse_config({"chains": [{"L": 2, "xi": ["0", "0"]}]})
    assert err.value.pointer == "/chains/0/xi"
    with pytest.raises(SchemaError) as err:
        parse_config({"c": "0", "chains": []})
    assert err.value.pointer == "/c"
    with pytest.raises(SchemaError) as err:
        parse_config({"chains": [], "suites": ["nope"]})
    assert err.value.pointer == "/suites/0"
    with pytest.raises(SchemaError) as err:
        parse_config({"chains": [{"L": 9, "xi": [str(i) for i in range(9)]}]})
    assert err.value.pointer == "/chains/0/L"
    with pytest.raises(SchemaError) as err:
        parse_config({"chains": [{"L": 1, "xi": ["0"], "twist": ["1", "1"]}]})
    assert err.value.pointer == "/chains/0/twist"
    with pytest.raises(SchemaError) as err:
        parse_config(
            {
                "chains": [
                    {"L": 1, "xi": ["0"]},
                    {"L": 1, "xi": ["1"], "signature": "gl(1|2)"},
                ],
                "split": [0, 1],
            }
        )
    assert err.value.pointer == "/split"


@pytest.mark.parametrize(
    "chains, split",
    [
        ([{"L": 1, "xi": ["0"]}, {"L": 1, "xi": ["0"]}], [0, 1]),
        ([{"L": 1, "xi": ["0"]}, {"L": 1, "xi": ["1"]}], [0, 0]),
    ],
    ids=["shared inhomogeneity", "one chain twice"],
)
def test_split_chains_need_disjoint_inhomogeneities(tmp_path, capsys, chains, split):
    """Caught at parse time, before any suite prints, not when the
    composite suite builds the split."""
    raw = {"suites": ["scalar", "composite"], "chains": chains, "split": split}
    _schema_failure(tmp_path, capsys, raw, "/split")


def test_bethe_eval_worked_example(tmp_path, capsys):
    cfg = write_config(tmp_path, {"suites": [], "chains": [{"L": 1, "xi": ["0"]}]})
    assert main(["bethe", "eval", "--config", cfg, "--u", "3", "--v", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"3": "1/3"}
    assert main(["bethe", "eval", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out) == {"1": "1"}


def _eval_at_coincidences(tmp_path, capsys, sig, points):
    """bethe eval at each (us, vs) of points on an L = 2 chain of the
    signature against the formula builder's limit at vs + t (1, 2),
    t -> 0, read by interpolation; every one is nonzero."""
    chain = {"L": 2, "xi": ["0", "1/2"], "twist": ["2", "3/2", "-3"], "signature": sig.name}
    cfg = write_config(tmp_path, {"suites": [], "chains": [chain]})
    model = ChainModel(ChainSpec(2, (0, rat(1, 2)), (2, rat(3, 2), -3), sig, 1))
    build = build_tilde_vector if sig == GL12 else build_vector
    for us, vs in points:
        assert main(["bethe", "eval", "--config", cfg, *(f"--u={u}" for u in us), *(f"--v={v}" for v in vs)]) == 0
        args = tuple(map(rat_from_str, us)), tuple(map(rat_from_str, vs))
        limit = vector_at_coincidence(build, model, *args, (1, 2)[: len(vs)])
        assert not limit.is_zero()
        assert json.loads(capsys.readouterr().out) == vector_to_json(limit), (us, vs)


def test_bethe_eval_at_a_coincidence_on_a_gl12_chain(tmp_path, capsys):
    """bethe eval at u = v on a gl(1|2) chain prints B~ there, the limit of
    the formula builder, which the nested vector gives directly, at one
    coincidence and at two at once."""
    points = ((("3",), ("3",)), (("3", "5/2"), ("3",)), (("3", "5"), ("3", "5")))
    _eval_at_coincidences(tmp_path, capsys, GL12, points)


def test_bethe_eval_at_two_coincidences(tmp_path, capsys):
    """bethe eval --u 3 --u 5 --v 3 --v 5 on a gl(2|1) chain of L = 2
    prints B_{2,2} at u = v, the nested vector, equal to the formula
    builder's limit there."""
    _eval_at_coincidences(tmp_path, capsys, GL21, ((("3", "5"), ("3", "5")),))


def test_bethe_eval_without_a_chain_names_the_chains(tmp_path, capsys):
    cfg = write_config(tmp_path, {"suites": [], "chains": []})
    assert main(["bethe", "eval", "--config", cfg, "--u", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: bethe eval needs a chain (at /chains)"]


def test_bethe_eval_names_a_coincident_parameter_in_the_wire_format(capsys):
    """The refusal of coincident us gives the value as configs write it, the
    same text every run, and exits 2."""
    quick = os.path.join(os.path.dirname(__file__), "..", "configs", "quick.json")
    assert main(["bethe", "eval", "--config", quick, "--u", "3", "--u", "3", "--v", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: coincident parameters within us: 3"]
    assert main(["bethe", "eval", "--config", quick, "--u", "3", "--v", "5/2", "--v", "5/2"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: coincident parameters within vs: 5/2"]


def test_empty_suites_run(tmp_path, capsys):
    cfg = write_config(tmp_path, {"suites": [], "chains": [{"L": 1, "xi": ["0"]}]})
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "0/0 checks" in out


def test_verify_and_report_roundtrip(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "suites": ["rtt", "bethe"],
            "campaigns": 1,
            "chains": [{"L": 1, "xi": ["0"], "twist": ["2", "1", "3"]}],
        },
    )
    out_path = str(tmp_path / "report.json")
    assert main(["verify", "--config", cfg, "--report", out_path]) == 0
    capsys.readouterr()
    with open(out_path) as fh:
        data = json.load(fh)
    assert data["checks"] and all(c["residual_is_zero"] for c in data["checks"])
    assert data["environment"]["seed"] == 1729


def test_report_subcommand_writes_the_verify_report(tmp_path, capsys):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "quick.json")
    written = {}
    for command, out_flag in (("report", "--out"), ("verify", "--report")):
        out_path = str(tmp_path / f"{command}.json")
        assert main([command, "--config", cfg, out_flag, out_path]) == 0
        with open(out_path) as fh:
            written[command] = json.load(fh)
        for check in written[command]["checks"]:
            check["runtime"] = 0.0
    capsys.readouterr()
    assert written["report"]["checks"] and written["report"] == written["verify"]


def _strip_runtime(report_json):
    for check in report_json["checks"]:
        check.pop("runtime")
    return report_json


def test_determinism_same_seed(tmp_path):
    raw = {
        "suites": ["rtt", "bethe", "composite"],
        "campaigns": 1,
        "max_a": 1,
        "max_b": 1,
        "chains": [
            {"L": 1, "xi": ["0"], "twist": ["2", "1", "3"]},
            {"L": 1, "xi": ["1"], "twist": ["1", "1", "-1"]},
        ],
    }
    cfg = parse_config(raw)
    a = _strip_runtime(run_suites(cfg).to_json())
    b = _strip_runtime(run_suites(parse_config(raw)).to_json())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    raw["seed"] = 5
    c = _strip_runtime(run_suites(parse_config(raw)).to_json())
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_negative_control_config_fails(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "suites": ["actions"],
            "max_a": 1,
            "max_b": 1,
            "chains": [{"L": 1, "xi": ["0"], "twist": ["2", "1", "3"]}],
            "action_formula_file": os.path.join(FIXTURES, "corrupted_action_formulas.json"),
        },
    )
    assert main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_help_lists_the_subcommands_without_developer_notes(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in ("verify", "report", "bethe eval"))
    assert "_Runner" not in out and "_witness" not in out


def test_unknown_suite_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, {"suites": ["rtt"], "chains": [{"L": 1, "xi": ["0"]}]})
    assert main(["verify", "--config", cfg, "--suite", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.rstrip().endswith("(at /suites)")


def test_suite_flag_outside_the_config_suites(tmp_path, capsys):
    cfg = write_config(tmp_path, {"suites": ["bethe"], "chains": [{"L": 1, "xi": ["0"]}]})
    assert main(["verify", "--config", cfg, "--suite", "rtt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.rstrip().endswith("(at /suites)")


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["verify", "--config", str(path)]) == 2
    capsys.readouterr()


def _one_error_line(capsys):
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: "), captured.err
    return captured.out


def test_unreadable_config_exits_2(tmp_path, capsys):
    """A config path that names no file, or a directory, is one error line."""
    assert main(["verify", "--config", str(tmp_path / "nonexistent.json")]) == 2
    assert _one_error_line(capsys) == ""
    assert main(["verify", "--config", str(tmp_path)]) == 2
    assert _one_error_line(capsys) == ""


def test_unwritable_report_exits_2_after_the_run(tmp_path, capsys):
    """A report path in a missing directory is one error line, after the
    whole run, for report --out and verify --report alike."""
    cfg = write_config(tmp_path, {"suites": ["scalar"], "chains": []})
    out_path = str(tmp_path / "missing_dir" / "r.json")
    assert main(["report", "--config", cfg, "--out", out_path]) == 2
    assert _one_error_line(capsys) == ""
    assert main(["verify", "--config", cfg, "--report", out_path]) == 2
    assert "checks with exactly-zero residual" in _one_error_line(capsys)
    assert not os.path.exists(os.path.dirname(out_path))


FULL_REPORT = os.path.join(os.path.dirname(__file__), "data", "full_report.json")


def test_shipped_full_config_runs_green():
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "full.json")
    report = run_suites(load_config(path))
    assert report.records and report.all_zero()
    vacuum = [r.suite for r in report.records if r.name == "composite vacuum axioms"]
    assert vacuum == ["composite", "gl12"]
    # the report bytes, runtime and environment aside, are pinned; the same
    # file must come out on every supported Python
    data = report.to_json()
    del data["environment"]
    for check in data["checks"]:
        check["runtime"] = 0.0
    with open(FULL_REPORT) as fh:
        assert json.dumps(data, indent=2, sort_keys=True) + "\n" == fh.read()


P_Q_LIST = re.compile(r"^(-?\d+(/\d+)?(,-?\d+(/\d+)?)*)?$")


def test_parameters_are_comma_joined_rationals():
    cfg = parse_config({"suites": ["scalar", "recursion"], "campaigns": 1, "chains": [{"L": 1, "xi": ["0"]}]})
    with open(FULL_REPORT) as fh:
        checks = run_suites(cfg).to_json()["checks"] + json.load(fh)["checks"]
    values = [v for check in checks for v in check["parameters"].values()]
    assert any("," in v for v in values) and "" in values
    assert [v for v in values if not P_Q_LIST.match(v)] == []


def test_emit_report_stable_shape(tmp_path):
    cfg = parse_config({"suites": ["scalar"], "chains": []})
    report = run_suites(cfg)
    path = tmp_path / "r.json"
    emit_report(report, str(path))
    data = json.loads(path.read_text())
    assert set(data) == {"checks", "environment"}
    assert all(
        set(c) == {"suite", "name", "parameters", "residual_is_zero", "residual_sample", "runtime"}
        for c in data["checks"]
    )


def test_replay_and_vacuum_records_are_timed(monkeypatch):
    """The replay and the composite vacuum axioms run inside the thunks of
    their records: the first replay record of each (a,b) carries the
    replay's time, and each vacuum record the time of its points' axioms,
    one point in the composite suite and five (u, v) pairs in gl12."""
    import time

    from superbethe import cli

    def slow(fn, delay):
        def wrapper(*args, **kwargs):
            time.sleep(delay)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "action_decomposition_report", slow(cli.action_decomposition_report, 0.05))
    monkeypatch.setattr(cli, "vacuum_residuals", slow(cli.vacuum_residuals, 0.01))
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "quick.json")
    report = run_suites(load_config(path), only={"proof-replay", "composite", "gl12"})
    assert report.all_zero()
    replay = [r for r in report.records if r.suite == "proof-replay"]
    firsts = [r for r in replay if r.name.endswith("class_sum_vs_extended_vector")]
    assert len(firsts) == 4 and all(r.runtime >= 0.05 for r in firsts)
    vacuum = {r.suite: r for r in report.records if r.name == "composite vacuum axioms"}
    assert vacuum["composite"].runtime >= 0.01 and len(vacuum["composite"].parameters["u"].split(",")) == 1
    assert vacuum["gl12"].runtime >= 0.1
    assert [len(vacuum["gl12"].parameters[k].split(",")) for k in ("u", "v")] == [5, 5]


def test_negated_composite_eigenvalues_fail_the_vacuum_records(monkeypatch):
    """With a composite that states its eigenvalues negated in place of the
    suites' model, the composite vacuum axioms record of the composite and
    the gl12 suite fails, naming the T11 ket eigenvalue first."""
    from oracles import NegatedComposite
    from superbethe import cli

    monkeypatch.setattr(cli, "CompositeModel", NegatedComposite)
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "quick.json")
    report = run_suites(load_config(path), only={"composite", "gl12"})
    vacuum = {r.suite: r for r in report.records if r.name == "composite vacuum axioms"}
    assert sorted(vacuum) == ["composite", "gl12"]
    for record in vacuum.values():
        assert not record.residual_is_zero and record.residual_sample.startswith("T11 ket eigenvalue")


def test_vacuum_and_exchange_failures_are_located(monkeypatch):
    from superbethe import cli

    raw = {"campaigns": 1, "max_a": 0, "max_b": 0, "suites": ["commutator", "bethe"],
           "chains": [{"L": 2, "xi": ["0", "1/2"]}]}
    passing = run_suites(parse_config(raw)).records
    vacuum, exchange = cli.vacuum_residuals, cli.check_supercommutator

    def one_bad_axiom(model, u):
        return [(name, ok and name != "T21 annihilates ket") for name, ok in vacuum(model, u)]

    def one_bad_tuple(model, i, j, k, l, u, v):
        r1, r2 = exchange(model, i, j, k, l, u, v)
        return (r1, model.T(1, 3, u)) if (i, j, k, l) == (1, 3, 2, 3) else (r1, r2)

    monkeypatch.setattr(cli, "vacuum_residuals", one_bad_axiom)
    monkeypatch.setattr(cli, "check_supercommutator", one_bad_tuple)
    failing = run_suites(parse_config(raw)).records
    located = {}
    for ok, bad in zip(passing, failing):
        assert ok.residual_is_zero and ok.residual_sample == "0"
        if "vacuum" in ok.name or "exchange" in ok.name:
            assert not bad.residual_is_zero
            located[ok.suite] = bad.residual_sample
    assert located["bethe"] == "T21 annihilates ket"
    sample = cli.ChainModel(parse_config(raw).chains[0]).T(1, 3, rat_from_str(failing[0].parameters["u"])).first_nonzero()
    assert located["commutator"] == f"(i,j,k,l)=(1,3,2,3) form 2: {sample}" and sample != "0"


def _record(residual):
    """(residual_is_zero, residual_sample) of one check returning residual."""
    from superbethe import cli

    runner = cli._Runner(parse_config({"chains": [], "suites": []}))
    runner.check("suite", "check", {}, lambda: residual)
    (record,) = runner.report.records
    return record.residual_is_zero, record.residual_sample


RESIDUAL_KINDS = {
    "zero rational": (rat(0), (True, "0")),
    "nonzero rational": (rat(-3, 7), (False, "-3/7")),
    "int 0": (0, (True, "0")),
    "int 1": (1, (False, "1")),
    "zero vector": (GradedVector(GL21, 2), (True, "0")),
    "vector, least key wins": (GradedVector(GL21, 2, {5: rat(2), 1: rat(-1, 3), 7: rat(4)}), (False, "[12]=-1/3")),
    "dual vector, least key wins": (DualGradedVector(GL21, 2, {8: rat(1, 2), 3: rat(-5)}), (False, "[21]=-5")),
    "zero operator": (GradedOperator(GL21, 2), (True, "0")),
    # the least column wins, then the least row in it
    "operator, least column then row wins": (
        GradedOperator(GL21, 2, {4: {2: rat(5), 0: rat(7, 2)}, 1: {8: rat(-3)}}),
        (False, "[33,12]=-3"),
    ),
    "located failure": ("T21 annihilates ket", (False, "T21 annihilates ket")),
}


@pytest.mark.parametrize("case", sorted(RESIDUAL_KINDS))
def test_each_residual_kind_gives_its_record(case):
    residual, expected = RESIDUAL_KINDS[case]
    assert _record(residual) == expected


def test_several_residuals_report_the_first_nonzero_one(monkeypatch):
    """The coproduct's nine residuals and the two creation actions are one
    check each, whose sample is its first nonzero residual's entry."""
    from superbethe import cli

    zero_op, zero_vec = GradedOperator(GL21, 2), GradedVector(GL21, 2)
    coproduct = {(1, 1): zero_op, (1, 2): GradedOperator(GL21, 2, {3: {5: rat(2, 3)}}),
                 (1, 3): GradedOperator(GL21, 2, {0: {0: rat(9)}})}
    actions = (zero_vec, GradedVector(GL21, 2, {4: rat(1, 2), 2: rat(3)}))
    monkeypatch.setattr(cli, "compose_monodromy", lambda split, u: (None, coproduct))
    monkeypatch.setattr(cli, "check_composite_creation_actions", lambda split, us, vs, z: actions)
    raw = {"campaigns": 1, "max_a": 0, "max_b": 0, "suites": ["composite"],
           "chains": [{"L": 1, "xi": ["0"]}, {"L": 1, "xi": ["1"]}]}
    records = {r.name: (r.residual_is_zero, r.residual_sample) for r in run_suites(parse_config(raw)).records}
    assert records["coproduct monodromy equals direct total"] == (False, "[23,21]=2/3")
    assert records["creation-entry actions on composite sums"] == (False, "[13]=3")
    monkeypatch.setattr(cli, "compose_monodromy", lambda split, u: (None, {(1, 1): zero_op, (1, 2): zero_op}))
    monkeypatch.setattr(cli, "check_composite_creation_actions", lambda split, us, vs, z: (zero_vec, zero_vec))
    records = {r.name: (r.residual_is_zero, r.residual_sample) for r in run_suites(parse_config(raw)).records}
    assert records["coproduct monodromy equals direct total"] == (True, "0")
    assert records["creation-entry actions on composite sums"] == (True, "0")


def _schema_failure(tmp_path, capsys, raw, pointer):
    """The config fails at parse time with pointer, and verify prints one line."""
    with pytest.raises(SchemaError) as err:
        parse_config(raw)
    assert err.value.pointer == pointer
    assert main(["verify", "--config", write_config(tmp_path, raw)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {err.value}"]
    assert captured.err.rstrip().endswith(f"(at {pointer})")


def test_missing_action_formula_file(tmp_path, capsys):
    raw = {
        "suites": ["actions"],
        "chains": [{"L": 1, "xi": ["0"]}],
        "action_formula_file": str(tmp_path / "no_such_table.json"),
    }
    _schema_failure(tmp_path, capsys, raw, "/action_formula_file")


@pytest.mark.parametrize("campaigns", ["abc", -1])
def test_bad_campaigns(tmp_path, capsys, campaigns):
    raw = {"suites": ["rtt"], "campaigns": campaigns, "chains": [{"L": 1, "xi": ["0"]}]}
    _schema_failure(tmp_path, capsys, raw, "/campaigns")


@pytest.mark.parametrize("key", ["max_a", "max_b", "max_L"])
def test_negative_bounds_are_a_schema_error(tmp_path, capsys, key):
    raw = {"suites": ["bethe"], key: -2, "chains": [{"L": 1, "xi": ["0"]}]}
    _schema_failure(tmp_path, capsys, raw, f"/{key}")


@pytest.mark.parametrize("flag,value,pointer", [("--max-a", "-3", "/max_a"), ("--max-b", "-1", "/max_b")])
def test_negative_override_is_a_schema_error(tmp_path, capsys, flag, value, pointer):
    # on its own this config runs green; the override alone must fail it
    path = write_config(tmp_path, {"suites": ["bethe"], "chains": [{"L": 1, "xi": ["0"]}]})
    assert main(["verify", "--config", path, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.rstrip().endswith(f"(at {pointer})")


MALFORMED_CONFIGS = {
    "u not a list": ({"u": 5}, "/u"),
    "v not a list": ({"v": "9"}, "/v"),
    "chains not a list": ({"chains": 5}, "/chains"),
    "xi not a list": ({"chains": [{"L": 1, "xi": 5}]}, "/chains/0/xi"),
    "twist not a list": ({"chains": [{"L": 1, "xi": ["0"], "twist": 5}]}, "/chains/0/twist"),
    "suites not a list": ({"suites": 3}, "/suites"),
    "unhashable signature": ({"signature": ["x"]}, "/signature"),
    "unhashable chain signature": ({"chains": [{"L": 1, "xi": ["0"], "signature": ["x"]}]}, "/chains/0/signature"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_values_are_a_schema_error(tmp_path, capsys, case):
    raw, pointer = MALFORMED_CONFIGS[case]
    _schema_failure(tmp_path, capsys, dict({"suites": ["scalar"]}, **raw), pointer)


NON_INTEGERS = {
    "float max_a": ({"max_a": 2.7}, "/max_a"),
    "integral float max_L": ({"max_L": 4.0}, "/max_L"),
    "bool campaigns": ({"campaigns": True}, "/campaigns"),
    "string seed": ({"seed": "12"}, "/seed"),
    "bool max_b": ({"max_b": False}, "/max_b"),
    "bool L": ({"chains": [{"L": True, "xi": ["0"]}]}, "/chains/0/L"),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGERS))
def test_integer_keys_take_only_integers(tmp_path, capsys, case):
    raw, pointer = NON_INTEGERS[case]
    _schema_failure(tmp_path, capsys, dict({"suites": ["scalar"]}, **raw), pointer)


def test_overrides_go_through_the_config_checks(tmp_path):
    path = write_config(tmp_path, {"suites": ["bethe"], "max_a": 2, "chains": [{"L": 1, "xi": ["0"]}]})
    cfg = load_config(path, {"max_a": 0, "max_b": 1, "seed": 5})
    assert (cfg.max_a, cfg.max_b, cfg.seed) == (0, 1, 5)
    with pytest.raises(SchemaError) as err:
        load_config(path, {"seed": "abc"})
    assert err.value.pointer == "/seed"


UNKNOWN_KEYS = {
    "misspelt top-level key": ({"max-a": 5}, "/max-a"),
    "deleted z": ({"z": "0"}, "/z"),
    "key with a slash": ({"max/a": 5}, "/max~1a"),
    "misspelt chain key": ({"chains": [{"L": 1, "xi": ["0"], "sig": "gl(1|2)"}]}, "/chains/0/sig"),
    "z on a chain": ({"chains": [{"L": 1, "xi": ["1"]}, {"L": 1, "xi": ["0"], "z": "0"}]}, "/chains/1/z"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
def test_unknown_config_keys_are_a_schema_error(tmp_path, capsys, case):
    extra, pointer = UNKNOWN_KEYS[case]
    raw = dict({"suites": ["scalar"], "chains": [{"L": 1, "xi": ["0"]}]}, **extra)
    _schema_failure(tmp_path, capsys, raw, pointer)


def _table_with(edit):
    raw = json.loads(resources.files("superbethe").joinpath("data/action_formulas.json").read_text())
    edit(raw)
    return raw


MALFORMED_TABLES = {
    "unbound set in a coefficient": (lambda t: t["T11"][0].update(coefficient="r1(z)*f(ubarX,z)/h(vbar,z)"), "/T11/0/coefficient"),
    "unbound set in a target": (lambda t: t["T22"][1]["target"][1].__setitem__(1, "vbarX"), "/T22/1/target/1/1"),
    "unknown function": (lambda t: t["T33"][0].update(coefficient="q(z)*g(vbar,z)"), "/T33/0/coefficient"),
    "term without partitions": (lambda t: t["T23"][0].pop("partitions"), "/T23/0"),
    "terms are a string": (lambda t: t.update(T12="T12"), "/T12"),
    "coefficient syntax error": (lambda t: t["T13"][0].update(coefficient="f(z,ubar"), "/T13/0/coefficient"),
    "partition with one name": (lambda t: t["T21"][0]["partitions"].__setitem__(0, ["ubar"]), "/T21/0/partitions/0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_formula_table_is_a_schema_error(tmp_path, capsys, case):
    edit, table_pointer = MALFORMED_TABLES[case]
    table = tmp_path / "table.json"
    table.write_text(json.dumps(_table_with(edit)))
    raw = {"suites": ["actions"], "chains": [{"L": 1, "xi": ["0"]}], "action_formula_file": str(table)}
    _schema_failure(tmp_path, capsys, raw, "/action_formula_file")
    with pytest.raises(SchemaError) as err:
        parse_config(raw)
    assert f"at {table_pointer}:" in str(err.value)


def test_a_coefficient_at_coincident_arguments_exits_2(tmp_path, capsys):
    """A well-formed table whose coefficient reads g at coincident arguments
    loads, and verify stops on it with one error line and no traceback."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps(_table_with(lambda t: t["T11"][0].update(coefficient="g(ubar,ubar)"))))
    raw = {"suites": ["actions"], "max_a": 1, "max_b": 1, "chains": [{"L": 1, "xi": ["0"]}], "action_formula_file": str(table)}
    parse_config(raw)
    assert main(["verify", "--config", write_config(tmp_path, raw)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "coincident" in line


FIXED_PARAMETER_POLES = {
    "u on an inhomogeneity": ({"u": ["1/2"], "v": ["9"]}, "/u/0"),
    "v on an inhomogeneity": ({"u": ["3"], "v": ["5", "0"]}, "/v/1"),
    "v - u = -c": ({"u": ["3", "5"], "v": ["9", "4"]}, "/v/1"),
    "u = v": ({"u": ["3"], "v": ["3"]}, "/v/0"),
    "repeated u": ({"u": ["3", "3"], "v": ["9"]}, "/u/1"),
    "repeated v": ({"u": ["3"], "v": ["9", "9"]}, "/v/1"),
    "two v at distance c": ({"u": ["3"], "v": ["9", "10"]}, "/v/1"),
}


@pytest.mark.parametrize("case", sorted(FIXED_PARAMETER_POLES))
def test_fixed_parameters_on_a_pole(tmp_path, capsys, case):
    fixed, pointer = FIXED_PARAMETER_POLES[case]
    raw = dict(fixed, suites=["bethe"], chains=[{"L": 2, "xi": ["0", "1/2"]}])
    _schema_failure(tmp_path, capsys, raw, pointer)


def test_fixed_parameter_poles_follow_the_signature():
    gl21 = [{"L": 1, "xi": ["0"]}]
    gl12 = [{"L": 1, "xi": ["0"], "signature": "gl(1|2)"}]
    # u - v = -c and two u's at distance c are poles of the tilde vectors only
    for fixed, pointer in (({"u": ["3"], "v": ["4"]}, "/v/0"), ({"u": ["3", "4"], "v": ["9"]}, "/u/1")):
        assert parse_config(dict(fixed, chains=gl21)).us == tuple(rat_from_str(x) for x in fixed["u"])
        with pytest.raises(SchemaError) as err:
            parse_config(dict(fixed, chains=gl12))
        assert err.value.pointer == pointer
    # v - u = -c is the pole of the gl(2|1) vectors only
    assert parse_config({"u": ["4"], "v": ["3"], "chains": gl12}).vs == (3,)
    with pytest.raises(SchemaError):
        parse_config({"u": ["4"], "v": ["3"], "chains": gl21})


def test_a_configured_split_is_the_one_the_split_suites_use():
    """split names the parts in order, which need not be the first pair of
    chains with disjoint xi the runner would pick without it."""
    from superbethe import cli

    chains = [{"L": 1, "xi": ["0"]}, {"L": 1, "xi": ["1"]}, {"L": 2, "xi": ["2", "5/2"], "twist": ["2", "1", "3"]}]
    cfg = parse_config({"chains": chains, "suites": [], "split": [2, 0]})
    split, xi = cli._Runner(cfg).split_of("composite", "gl(2|1)")
    assert (split.part1, split.part2) == (cfg.chains[2], cfg.chains[0])
    assert xi == (2, rat(5, 2), 0)
    default, _ = cli._Runner(parse_config({"chains": chains, "suites": []})).split_of("composite", "gl(2|1)")
    assert (default.part1, default.part2) == (cfg.chains[0], cfg.chains[1])


def test_fixed_parameters_are_the_ones_the_records_name():
    """With u and v fixed in the config, each action and recursion check at
    (a,b) runs at the first a u's and the first b v's (b - 1 for the
    recursion, which adds z) and names them as its parameters."""
    raw = {"chains": [{"L": 2, "xi": ["0", "1/2"]}], "suites": ["actions", "recursion"], "campaigns": 1,
           "max_a": 1, "max_b": 1, "u": ["3", "5"], "v": ["9", "7/2"]}
    report = run_suites(parse_config(raw))
    assert report.all_zero() and {r.suite for r in report.records} == {"actions", "recursion"}
    for record in report.records:
        a, b = map(int, re.search(r"\(a,b\)=\((\d),(\d)\)", record.name).groups())
        b -= record.suite == "recursion"
        assert record.parameters["u"] == ",".join(raw["u"][:a]), record.name
        assert record.parameters["v"] == ",".join(raw["v"][:b]), record.name
