"""Problem file loading, the two diagnosis scenarios, and CSV emission."""
import copy
import json

import numpy as np
import pytest

from fuzzyabduce.abduction import SOLVABLE_POSSIBLY, UNSOLVABLE, abduce_variation
from fuzzyabduce.core import FuzzySet, Universe, complement, compatibility, sample
from fuzzyabduce.inference import Rule
from fuzzyabduce.workbench import (
    AGGREGATION_LABEL,
    CAUSAL_DIAGNOSIS,
    FAULT_COMPONENT,
    Problem,
    ProblemError,
    ScenarioConfig,
    TaskConfig,
    emit_plot_data,
    load_problem,
    render_report,
    report_as_dict,
    run_causal_scenario,
    run_fault_scenario,
    save_problem,
)


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


TWO_POINT = [{"name": "cause", "lo": 0, "hi": 1, "points": 2},
             {"name": "effect", "lo": 0, "hi": 1, "points": 2}]


def minimal_problem(**overrides):
    data = {
        "universes": TWO_POINT,
        "sets": {
            "present": {"universe": "cause", "shape": "samples", "params": [1, 0]},
            "seen": {"universe": "effect", "shape": "samples", "params": [1, 0]},
        },
        "rules": {
            "drives": {"antecedent": "present", "consequent": "seen",
                       "semantics": "variation", "implication": "goedel",
                       "tnorm": "minimum"},
        },
        "observations": {"reading": "seen"},
    }
    data.update(overrides)
    return data


# --- loading -------------------------------------------------------------------

def test_bundled_temperature_example(temperature_path):
    problem = load_problem(temperature_path)
    assert len(problem.universes) == 1
    assert len(problem.sets) == 3
    grid = problem.universes["temperature"].grid
    assert np.array_equal(grid, [0, 50, 100, 150, 200])
    assert np.allclose(problem.sets["low"].mu, [1, 0.8, 0, 0, 0])
    assert problem.task.kind == "abduce"
    assert problem.task.levels == 11


def test_dangling_set_reference(tmp_path):
    data = minimal_problem()
    data["rules"]["drives"]["consequent"] = "ghost"
    with pytest.raises(ProblemError, match="rules.drives.*'ghost'"):
        load_problem(write_problem(tmp_path, data))


def test_semantics_mismatch_is_a_positioned_error(tmp_path):
    data = minimal_problem()
    data["rules"]["drives"]["semantics"] = "certainty"  # goedel is not s-family
    with pytest.raises(ProblemError, match="rules.drives.*s-family"):
        load_problem(write_problem(tmp_path, data))


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"universes": [', encoding="utf-8")
    with pytest.raises(ProblemError, match="line 1"):
        load_problem(str(path))


def test_unknown_universe_in_set(tmp_path):
    data = minimal_problem()
    data["sets"]["present"]["universe"] = "nowhere"
    with pytest.raises(ProblemError, match="sets.present.*'nowhere'"):
        load_problem(write_problem(tmp_path, data))


#: shapes that sample rejects, each as (kind, params, grid of the set's universe,
#: text its message must contain)
BAD_SHAPES = {
    "unknown_kind": ("hexagonal", [0, 1], [0, 1], "unknown shape kind 'hexagonal'"),
    "wrong_arity": ("triangular", [0, 1], [0, 1], "shape 'triangular' takes 3 parameters, got 2"),
    "infinite_knot": ("triangular", [0, float("inf"), 1], [0, 1],
                      "triangular: knots must be finite"),
    "nan_width": ("gaussian", [0, float("nan")], [0, 1],
                  "gaussian: center and width must be finite"),
    "infinite_point": ("singleton", [-float("inf")], [0, 1], "singleton: point must be finite"),
    "nan_degree": ("samples", [0.5, float("nan")], [0, 1],
                   "membership degrees on 'cause' must be finite"),
    "samples_length": ("samples", [0.5], [0, 1],
                       "membership vector has (1,) values for the 2-point universe 'cause'"),
    "one_point_grid": ("trapezoidal", [0, 0, 1, 1], [0],
                       "parametric shapes need at least 2 grid points on 'cause'"),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_load_problem_rejects_a_shape_as_sample_does(tmp_path, case):
    kind, params, grid, text = BAD_SHAPES[case]
    with pytest.raises(ValueError) as direct:
        sample(kind, params, Universe("cause", np.array(grid, dtype=float)))
    assert text in str(direct.value)
    data = minimal_problem(universes=[{"name": "cause", "grid": grid}, TWO_POINT[1]])
    data["sets"]["present"] = {"universe": "cause", "shape": kind, "params": params}
    # json.dumps writes the non-finite floats as Infinity and NaN, which json.load reads
    path = write_problem(tmp_path, data)
    with pytest.raises(ProblemError) as loaded:
        load_problem(path)
    assert str(loaded.value) == f"{path}: sets.present: {direct.value}"


def test_unknown_observation_target(tmp_path):
    data = minimal_problem(observations={"reading": "ghost"})
    with pytest.raises(ProblemError, match="observations.reading"):
        load_problem(write_problem(tmp_path, data))


def test_observation_named_like_a_set_is_rejected(tmp_path):
    # resolve_set would return the observation's target for the name "present"
    path = write_problem(tmp_path, minimal_problem(observations={"present": "seen"}))
    with pytest.raises(ProblemError) as loaded:
        load_problem(path)
    assert str(loaded.value) == f"{path}: observations.present: name is already a set"


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(notes="x"), "top level: unknown field 'notes'"),
    (lambda d: d["universes"].__setitem__(0, {"name": "cause", "grid": [0, 1], "points": 2}),
     "universes[0]: unknown field 'points'"),
    # a universe with a grid takes no lo, hi or points
    (lambda d: d["universes"].__setitem__(0, {"name": "cause", "lo": 0, "hi": 1, "grid": [0]}),
     "universes[0]: unknown field 'lo'"),
    (lambda d: d["sets"]["seen"].update(universes="effect"), "sets.seen: unknown field 'universes'"),
    (lambda d: d["rules"]["drives"].update(tnrom="minimum"), "rules.drives: unknown field 'tnrom'"),
    (lambda d: d.update(task={"rule": "drives", "inptu": "reading"}),
     "task: unknown field 'inptu'"),
    (lambda d: d.update(task={"scenario": {"kind": FAULT_COMPONENT, "rules": ["drives"],
                                           "observation": "reading", "match_treshold": 0.9}}),
     "task.scenario: unknown field 'match_treshold'"),
])
def test_first_unknown_field_of_an_object_is_rejected(tmp_path, edit, message):
    data = copy.deepcopy(minimal_problem())  # its universes list is the shared TWO_POINT
    edit(data)
    path = write_problem(tmp_path, data)
    with pytest.raises(ProblemError) as loaded:
        load_problem(path)
    assert str(loaded.value) == f"{path}: {message}"


@pytest.mark.parametrize("scenario, message", [
    ({"kind": "exorcism", "rules": ["drives"]},
     "kind must be 'fault_component' or 'causal_diagnosis', got 'exorcism'"),
    ({"kind": FAULT_COMPONENT, "rules": []}, "needs at least one rule"),
    ({"kind": FAULT_COMPONENT, "rules": ["drives", "drives"]}, "rule 'drives' is listed twice"),
    ({"kind": FAULT_COMPONENT, "rules": ["drives"], "match_threshold": 1.5},
     "match_threshold must lie in [0, 1], got 1.5"),
], ids=["unknown_kind", "no_rules", "rule_twice", "threshold"])
def test_scenario_validation(tmp_path, scenario, message):
    path = write_problem(tmp_path, minimal_problem(
        task={"scenario": {**scenario, "observation": "reading"}}))
    with pytest.raises(ProblemError) as loaded:
        load_problem(path)
    assert str(loaded.value) == f"{path}: task.scenario: {message}"


#: files load_problem rejects, each as (its content, a JSON object or raw
#: bytes, and the grid_points override)
BAD_FILES = {
    "dangling_consequent": (minimal_problem(rules={"drives": {
        "antecedent": "present", "consequent": "ghost", "semantics": "variation",
        "implication": "goedel", "tnorm": "minimum"}}), None),
    "duplicate_key": (b'{"sets": {}, "sets": {}}', None),
    "top_level_list": (b"[]", None),
    "invalid_json": (b'{"universes": [', None),
    "not_utf8": (b'{"universes": [\xff', None),
    "long_integer": (b'{"universes": [{"points": 1' + b"0" * 4999 + b"}]}", None),
    "grid_too_large": (minimal_problem(), 10 ** 18),
    "empty_scenario_rules": (minimal_problem(task={"scenario": {
        "kind": FAULT_COMPONENT, "rules": [], "observation": "reading"}}), None),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_every_load_error_starts_with_the_path_once(tmp_path, case):
    content, grid_points = BAD_FILES[case]
    path = tmp_path / "problem.json"
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    with pytest.raises(ProblemError) as loaded:
        load_problem(str(path), grid_points)
    message = str(loaded.value)
    assert message.startswith(f"{path}: ") and message.count(str(path)) == 1, message


def test_resolve_set_behaviour(tmp_path):
    problem = load_problem(write_problem(tmp_path, minimal_problem()))
    assert problem.resolve_set("reading") is problem.sets["seen"]
    assert problem.resolve_set("present") is problem.sets["present"]
    with pytest.raises(ProblemError, match="unknown set or observation"):
        problem.resolve_set("nothing")


def test_grid_points_override_spares_explicit_grids(tmp_path):
    data = minimal_problem()
    data["universes"] = [{"name": "cause", "lo": 0, "hi": 1, "points": 2},
                         {"name": "effect", "grid": [0, 0.5, 1]}]
    # parametric shapes resample at any resolution; explicit samples would not
    data["sets"]["present"] = {"universe": "cause", "shape": "trapezoidal",
                               "params": [0, 0, 0.5, 1]}
    data["sets"]["seen"] = {"universe": "effect", "shape": "triangular",
                            "params": [0, 0, 1]}
    path = write_problem(tmp_path, data)
    problem = load_problem(path, grid_points=9)
    assert len(problem.universes["cause"]) == 9
    assert np.array_equal(problem.universes["effect"].grid, [0, 0.5, 1])


def test_save_then_load_is_idempotent(temperature_path, tmp_path):
    problem = load_problem(temperature_path)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_problem(problem, str(first))
    save_problem(load_problem(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()
    reloaded = load_problem(str(second))
    assert reloaded.to_dict() == problem.to_dict()


def test_save_keeps_an_empty_task(tmp_path):
    problem = load_problem(write_problem(tmp_path, minimal_problem(task={})))
    assert problem.task == TaskConfig()
    saved = tmp_path / "saved.json"
    save_problem(problem, str(saved))
    assert json.loads(saved.read_text(encoding="utf-8"))["task"] == {}
    assert load_problem(str(saved)).to_dict() == problem.to_dict()


# --- fault-component scenario ----------------------------------------------------

FAULT_REPORT = (
    "fault-component scenario\n"
    "observation: observed_output\n"
    "match threshold: 0.700000\n"
    "rules ranked by match with the contrary conclusion:\n"
    "  1. psu_ok  compatibility=1.000000  FLAGGED\n"
    "     hypothesis on psu_health: 1.000000, 1.000000, 1.000000, 0.200000, 0.200000\n"
    "     solvability: solvable_possibly\n"
    "     roundtrip: max residual 1.000000, covers=yes, within=no\n"
    "  2. amp_ok  compatibility=0.400000  not flagged\n"
)


def test_bundled_circuit_fault_report(circuit_path):
    problem = load_problem(circuit_path)
    report = run_fault_scenario(problem, problem.task.scenario)
    assert render_report(report) == FAULT_REPORT
    flagged = [e for e in report.entries if e.flagged]
    assert [e.rule for e in flagged] == ["psu_ok"]
    assert report.entries[1].result is None  # below threshold: no abduction run


def test_fault_ranking_matches_per_rule_compatibility(circuit_path):
    problem = load_problem(circuit_path)
    report = run_fault_scenario(problem, problem.task.scenario)
    observed = problem.resolve_set("observed_output")
    for entry in report.entries:
        rule = problem.rules[entry.rule]
        expected = compatibility(observed, complement(rule.consequent))
        assert entry.compatibility == pytest.approx(expected)
    scores = [e.compatibility for e in report.entries]
    assert scores == sorted(scores, reverse=True)


def test_crisp_fault_scenario_recovers_modus_tollens(tmp_path):
    data = minimal_problem()
    data["rules"]["drives"] = {"antecedent": "present", "consequent": "seen",
                               "semantics": "certainty",
                               "implication": "kleene_dienes", "tnorm": "minimum"}
    data["sets"]["anomaly"] = {"universe": "effect", "shape": "samples", "params": [0, 1]}
    problem = load_problem(write_problem(tmp_path, data))
    config = ScenarioConfig(FAULT_COMPONENT, ("drives",), "anomaly", 0.7)
    report = run_fault_scenario(problem, config)
    entry = report.entries[0]
    assert entry.compatibility == 1.0 and entry.flagged
    assert np.array_equal(entry.result.hypothesis.mu, [0, 1])


def test_unremarkable_observation_flags_nothing(circuit_path):
    # the expected conclusion itself never matches its own contrary strongly
    problem = load_problem(circuit_path)
    config = ScenarioConfig(FAULT_COMPONENT, ("psu_ok", "amp_ok"), "v_steady", 0.7)
    report = run_fault_scenario(problem, config)
    assert all(not e.flagged for e in report.entries)
    assert all(e.result is None for e in report.entries)


@pytest.mark.parametrize("threshold", [float("nan"), 2.0, -1.0])
def test_scenario_config_rejects_a_threshold_outside_the_unit_interval(threshold):
    # a config built in code is checked as a loaded one is: a nan threshold
    # would flag no rule and a negative one every rule
    with pytest.raises(ProblemError, match=r"^match_threshold must lie in \[0, 1\]"):
        ScenarioConfig(FAULT_COMPONENT, ("drives",), "reading", threshold)


def test_fault_scenario_rejects_variation_rules(tmp_path):
    problem = load_problem(write_problem(tmp_path, minimal_problem()))
    config = ScenarioConfig(FAULT_COMPONENT, ("drives",), "reading", 0.7)
    with pytest.raises(ProblemError, match="certainty rules"):
        run_fault_scenario(problem, config)


# --- causal-diagnosis scenario ----------------------------------------------------

CAUSAL_REPORT = (
    "causal-diagnosis scenario\n"
    "observation: presenting_fever\n"
    "per-rule contribution bounds:\n"
    "  severe_infection_drives_high_fever (cause universe: infection)\n"
    "     hypothesis on infection: 0.000000, 0.000000, 0.200000, 0.200000, 0.200000\n"
    "     solvability: solvable_possibly\n"
    "     roundtrip: max residual 0.800000, covers=no, within=yes\n"
    "  moderate_infection_drives_mild_fever (cause universe: infection)\n"
    "     hypothesis on infection: 0.000000, 0.200000, 0.400000, 0.200000, 0.000000\n"
    "     solvability: solvable_possibly\n"
    "     roundtrip: max residual 0.800000, covers=no, within=yes\n"
    "  dehydration_drives_mild_fever (cause universe: hydration_deficit)\n"
    "     hypothesis on hydration_deficit: 0.000000, 0.000000, 0.000000, 0.200000, 0.200000\n"
    "     solvability: solvable_possibly\n"
    "     roundtrip: max residual 0.800000, covers=no, within=yes\n"
    "combined per-universe bounds [INVENTED AGGREGATION]:\n"
    "  infection (severe_infection_drives_high_fever & moderate_infection_drives_mild_fever): "
    "0.000000, 0.000000, 0.200000, 0.200000, 0.000000\n"
)


def test_bundled_causal_report(causal_path):
    problem = load_problem(causal_path)
    report = run_causal_scenario(problem, problem.task.scenario)
    assert render_report(report) == CAUSAL_REPORT


def test_combined_bounds_are_pointwise_minima(causal_path):
    problem = load_problem(causal_path)
    report = run_causal_scenario(problem, problem.task.scenario)
    agg = report.aggregates[0]
    assert agg.universe == "infection"
    assert agg.label == AGGREGATION_LABEL
    per_rule = {e.rule: e.result.hypothesis.mu for e in report.entries}
    combined = np.minimum(per_rule["severe_infection_drives_high_fever"],
                          per_rule["moderate_infection_drives_mild_fever"])
    assert np.array_equal(agg.hypothesis.mu, combined)


def test_single_rule_causal_run_delegates(causal_path):
    problem = load_problem(causal_path)
    config = ScenarioConfig(CAUSAL_DIAGNOSIS, ("severe_infection_drives_high_fever",),
                            "presenting_fever")
    report = run_causal_scenario(problem, config)
    assert len(report.entries) == 1 and not report.aggregates
    direct = abduce_variation(problem.rules["severe_infection_drives_high_fever"],
                              problem.resolve_set("presenting_fever"))
    assert np.array_equal(report.entries[0].result.hypothesis.mu, direct.hypothesis.mu)


def test_disjoint_cause_universes_are_not_aggregated(causal_path):
    problem = load_problem(causal_path)
    config = ScenarioConfig(CAUSAL_DIAGNOSIS,
                            ("severe_infection_drives_high_fever",
                             "dehydration_drives_mild_fever"),
                            "presenting_fever")
    report = run_causal_scenario(problem, config)
    assert report.aggregates == []


@pytest.mark.parametrize("second_grid, aggregated", [([0, 2], False), ([0, 1], True)])
def test_cause_universes_of_one_name_aggregate_only_on_one_grid(second_grid, aggregated):
    # a universe is its name and its grid, so bounds on two grids of one name
    # are sets over different points; problem files cannot hold such a pair,
    # so the problem is built in code
    effect = Universe("effect", [0, 1])
    seen = FuzzySet(effect, [1, 0])
    rules = {name: Rule(FuzzySet(Universe("cause", grid), [1, 0]), seen, "variation",
                        "goedel", "minimum")
             for name, grid in (("first", [0, 1]), ("second", second_grid))}
    observed = FuzzySet(effect, [0.4, 0.9])
    problem = Problem(spec={}, universes={}, sets={"observed": observed}, rules=rules,
                      observations={})
    report = run_causal_scenario(
        problem, ScenarioConfig(CAUSAL_DIAGNOSIS, ("first", "second"), "observed"))
    if not aggregated:
        assert report.aggregates == []
        return
    [agg] = report.aggregates
    assert agg.universe == "cause" and agg.rules == ("first", "second")
    assert agg.hypothesis.universe == rules["first"].antecedent.universe
    assert np.array_equal(agg.hypothesis.mu, np.minimum(
        *(e.result.hypothesis.mu for e in report.entries)))


def test_unsolvable_rule_entry_carries_its_witness(tmp_path):
    data = minimal_problem()
    data["sets"]["half"] = {"universe": "cause", "shape": "samples", "params": [0.5, 0.5]}
    data["sets"]["weak"] = {"universe": "effect", "shape": "samples", "params": [0.3, 0.3]}
    data["sets"]["spike"] = {"universe": "effect", "shape": "samples", "params": [0.9, 0.2]}
    data["rules"]["capped"] = {"antecedent": "half", "consequent": "weak",
                               "semantics": "variation", "implication": "goedel",
                               "tnorm": "minimum"}
    problem = load_problem(write_problem(tmp_path, data))
    config = ScenarioConfig(CAUSAL_DIAGNOSIS, ("capped", "drives"), "spike")
    report = run_causal_scenario(problem, config)
    capped = next(e for e in report.entries if e.rule == "capped")
    other = next(e for e in report.entries if e.rule == "drives")
    assert capped.result.solvability.verdict == UNSOLVABLE
    assert capped.result.solvability.witness.required == pytest.approx(0.9)
    assert other.result.solvability.verdict == SOLVABLE_POSSIBLY
    assert "required 0.900000, available 0.300000" in render_report(report)


def test_scenario_rejects_a_config_of_the_other_kind(circuit_path):
    problem = load_problem(circuit_path)
    with pytest.raises(ProblemError, match="causal_diagnosis scenario got config kind "
                                           "'fault_component'"):
        run_causal_scenario(problem, problem.task.scenario)


def test_scenario_rejects_an_unknown_rule(circuit_path):
    problem = load_problem(circuit_path)
    config = ScenarioConfig(FAULT_COMPONENT, ("psu_ok", "fan_ok"), "observed_output")
    with pytest.raises(ProblemError, match="scenario: unknown rule 'fan_ok'"):
        run_fault_scenario(problem, config)


@pytest.mark.parametrize("kind", [FAULT_COMPONENT, CAUSAL_DIAGNOSIS])
def test_scenario_rejects_an_empty_rule_list(kind):
    # a config built in code fails as a loaded one does, before any scenario runs
    with pytest.raises(ProblemError, match="^needs at least one rule$"):
        ScenarioConfig(kind, (), "observed_output")


def test_causal_scenario_rejects_certainty_rules(circuit_path):
    problem = load_problem(circuit_path)
    config = ScenarioConfig(CAUSAL_DIAGNOSIS, ("psu_ok",), "observed_output")
    with pytest.raises(ProblemError, match="variation rules"):
        run_causal_scenario(problem, config)


def test_reports_are_deterministic(circuit_path, causal_path):
    for path, runner in ((circuit_path, run_fault_scenario), (causal_path, run_causal_scenario)):
        a = runner(load_problem(path), load_problem(path).task.scenario)
        b = runner(load_problem(path), load_problem(path).task.scenario)
        assert render_report(a) == render_report(b)
        assert report_as_dict(a) == report_as_dict(b)


def test_report_dict_shape(circuit_path):
    problem = load_problem(circuit_path)
    payload = report_as_dict(run_fault_scenario(problem, problem.task.scenario))
    assert payload["kind"] == FAULT_COMPONENT
    assert payload["match_threshold"] == 0.7
    flagged = payload["entries"][0]
    assert flagged["rule"] == "psu_ok" and flagged["flagged"]
    assert flagged["result"]["scheme"] == "certainty_contraposition"
    assert flagged["result"]["roundtrip"]["covers_observation"] is True
    json.dumps(payload)  # must be serializable as-is


# --- plot data -------------------------------------------------------------------

def test_plot_csv_format(temperature_path, tmp_path):
    problem = load_problem(temperature_path)
    out = tmp_path / "curves.csv"
    emit_plot_data([(name, problem.sets[name]) for name in ("low", "medium", "high")],
                   str(out))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    assert lines[0] == "x,low,medium,high"
    assert lines[1] == "0,1.000000,0.000000,0.000000"
    assert lines[2] == "50,0.800000,0.000000,0.000000"
    assert out.read_text(encoding="utf-8").endswith("\n")


def test_plot_rejects_mixed_universes(tmp_path):
    a = FuzzySet(Universe("a", np.array([0.0, 1.0])), [0, 1])
    b = FuzzySet(Universe("b", np.array([0.0, 1.0])), [0, 1])
    with pytest.raises(ProblemError, match="share a universe"):
        emit_plot_data([("a", a), ("b", b)], str(tmp_path / "x.csv"))


def test_plot_needs_at_least_one_set(tmp_path):
    with pytest.raises(ValueError, match="at least one"):
        emit_plot_data([], str(tmp_path / "x.csv"))
