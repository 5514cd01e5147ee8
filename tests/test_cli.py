"""Command-line behaviour: subcommands, output, exit codes."""
import json
from pathlib import Path

import pytest

from conftest import bundled_problem
from fuzzyabduce.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_unsolvable_problem(tmp_path):
    """A variation rule whose relation tops out at 0.3 facing a demand of 0.9."""
    data = {
        "universes": [{"name": "cause", "lo": 0, "hi": 1, "points": 2},
                      {"name": "effect", "lo": 0, "hi": 1, "points": 2}],
        "sets": {
            "half": {"universe": "cause", "shape": "samples", "params": [0.5, 0.5]},
            "weak": {"universe": "effect", "shape": "samples", "params": [0.3, 0.3]},
            "spike": {"universe": "effect", "shape": "samples", "params": [0.9, 0.2]},
        },
        "rules": {
            "capped": {"antecedent": "half", "consequent": "weak",
                       "semantics": "variation", "implication": "goedel",
                       "tnorm": "minimum"},
        },
        "observations": {"reading": "spike"},
        "task": {"kind": "abduce", "rule": "capped", "input": "reading"},
    }
    path = tmp_path / "unsolvable.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_infer_uses_task_defaults(capsys, temperature_path):
    code, out, err = run(capsys, "infer", "--problem", temperature_path)
    assert code == 0 and err == ""
    assert "rule: heat_persists" in out
    assert "image on temperature: 0.000000, 0.000000, 0.000000, 0.800000, 1.000000" in out


def test_infer_with_explicit_input(capsys, temperature_path):
    code, out, _ = run(capsys, "infer", "--problem", temperature_path, "--input", "medium")
    assert code == 0
    assert "input on temperature: 0.000000, 0.000000, 1.000000, 0.000000, 0.000000" in out


def test_abduce_solvable_roundtrip(capsys, temperature_path):
    code, out, _ = run(capsys, "abduce", "--problem", temperature_path)
    assert code == 0
    assert "scheme: variation_bound" in out
    assert "solvability: solvable_possibly" in out
    assert "hypothesis on temperature: 0.000000, 0.000000, 0.000000, 0.800000, 1.000000" in out
    assert "max residual 0.000000, covers=yes, within=yes" in out


def test_abduce_unsolvable_exits_2(capsys, tmp_path):
    path = write_unsolvable_problem(tmp_path)
    code, out, _ = run(capsys, "abduce", "--problem", path)
    assert code == 2
    assert "solvability: unsolvable (at v=0 required 0.900000, available 0.300000)" in out
    assert "rerun with --bound" in out
    assert "hypothesis on" not in out


def test_abduce_bound_flag_reports_best_candidate(capsys, tmp_path):
    path = write_unsolvable_problem(tmp_path)
    code, out, _ = run(capsys, "abduce", "--problem", path, "--bound")
    assert code == 0
    assert "hypothesis on cause: 0.200000, 0.200000" in out


def test_abduce_json_output(capsys, temperature_path, tmp_path):
    out_path = tmp_path / "result.json"
    code, _, _ = run(capsys, "abduce", "--problem", temperature_path, "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["result"]["scheme"] == "variation_bound"
    assert payload["result"]["hypothesis"]["mu"] == [0, 0, 0, 0.8, 1]


def test_enumerate_lists_solutions(capsys, temperature_path):
    code, out, _ = run(capsys, "enumerate", "--problem", temperature_path)
    assert code == 0
    assert "exact solutions at 11 levels: 9" in out
    assert "greatest solution: 0.000000, 0.000000, 0.000000, 0.800000, 1.000000" in out


def test_enumerate_reports_snapping(capsys, tmp_path):
    data = {
        "universes": [{"name": "u", "lo": 0, "hi": 1, "points": 2},
                      {"name": "v", "lo": 0, "hi": 1, "points": 2}],
        "sets": {
            "a": {"universe": "u", "shape": "samples", "params": [1, 0.4]},
            "b": {"universe": "v", "shape": "samples", "params": [0.8, 0.2]},
            "off": {"universe": "v", "shape": "samples", "params": [0.83, 0.21]},
        },
        "rules": {"r": {"antecedent": "a", "consequent": "b", "semantics": "variation",
                        "implication": "goedel", "tnorm": "minimum"}},
        "observations": {},
        "task": {"rule": "r", "input": "off"},
    }
    path = tmp_path / "offgrid.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run(capsys, "enumerate", "--problem", str(path))
    assert code == 0
    assert "snapped to the 11-level grid (largest shift 0.030000)" in out
    assert "exact solutions at 11 levels: 35" in out


def test_check_ops_reports_zadeh_failure(capsys):
    code, out, _ = run(capsys, "check-ops", "--levels", "11")
    assert code == 0
    assert "PASS zadeh" not in out
    assert "FAIL zadeh contrapositive_symmetry" in out
    assert "PASS kleene_dienes contrapositive_symmetry" in out
    # matched residuated pairs pass their whole battery
    for line in out.splitlines():
        if line.startswith("  FAIL"):
            assert "zadeh" in line
    assert "residuum agreement" in out


def test_scenario_command(capsys, circuit_path, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "scenario", "--problem", circuit_path, "--out", str(out_path))
    assert code == 0
    assert out.startswith("fault-component scenario\n")
    assert "1. psu_ok  compatibility=1.000000  FLAGGED" in out
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["kind"] == "fault_component"


def test_scenario_requires_a_scenario_section(capsys, temperature_path):
    code, _, err = run(capsys, "scenario", "--problem", temperature_path)
    assert code == 1
    assert "no task.scenario" in err


def test_plot_writes_csv(capsys, temperature_path, tmp_path):
    out_path = tmp_path / "curves.csv"
    code, out, _ = run(capsys, "plot", "--problem", temperature_path,
                       "--sets", "low,medium,high", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,low,medium,high"
    assert len(lines) == 6


def test_plot_without_out_is_an_error(capsys, temperature_path):
    code, _, err = run(capsys, "plot", "--problem", temperature_path, "--sets", "low")
    assert code == 1
    assert "plot needs --out" in err


def test_missing_problem_file_exits_1(capsys):
    code, _, err = run(capsys, "infer", "--problem", "/nonexistent/problem.json")
    assert code == 1
    assert err.startswith("error:")


def test_unknown_rule_exits_1(capsys, temperature_path):
    code, _, err = run(capsys, "abduce", "--problem", temperature_path,
                       "--rule", "phantom")
    assert code == 1
    assert "unknown rule 'phantom'" in err


def test_usage_errors_exit_1_not_2(capsys):
    # exit code 2 is reserved for unsolvable abduction instances
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["infer"])  # missing required --problem
    assert exc.value.code == 1


def test_grid_points_flag(capsys, temperature_path):
    code, out, _ = run(capsys, "infer", "--problem", temperature_path,
                       "--grid-points", "9")
    assert code == 0
    # nine columns after the label
    image_line = next(l for l in out.splitlines() if l.startswith("image on"))
    assert image_line.count(",") == 8


@pytest.mark.parametrize("name, entry", [
    ("causal_medical.json", "sets.fever_observed"),
    ("circuit_fault.json", "sets.v_drifting_high"),
])
def test_grid_points_leave_samples_sets_at_their_own_size(capsys, name, entry):
    # a samples set keeps its number of degrees, so it fits only its shipped grid
    code, out, err = run(capsys, "scenario", "--problem", bundled_problem(name),
                         "--grid-points", "9")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {entry}: samples:") and "9-point universe" in err
    assert len(err.splitlines()) == 1


def test_deeply_nested_problem_file_exits_1(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "infer", "--problem", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: JSON nested too deeply to parse\n"


def write_mutated(tmp_path, name, mutate):
    data = json.loads(Path(bundled_problem(name)).read_text(encoding="utf-8"))
    mutate(data)
    path = tmp_path / f"mutated_{name}"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# case -> (bundled problem, mutation, entry the error message must name)
MALFORMED = {
    "levels_null": ("temperature.json", lambda d: d["task"].update(levels=None),
                    "task.levels"),
    "params_number": ("temperature.json", lambda d: d["sets"]["low"].update(params=5),
                      "sets.low"),
    "sets_list": ("temperature.json", lambda d: d.update(sets=list(d["sets"].values())),
                  "sets"),
    "samples_null": ("temperature.json",
                     lambda d: d["sets"]["low"].update(shape="samples", params=[None]),
                     "sets.low"),
    "threshold_null": ("circuit_fault.json",
                       lambda d: d["task"]["scenario"].update(match_threshold=None),
                       "task.scenario.match_threshold"),
    "scenario_rules_string": ("circuit_fault.json",
                              lambda d: d["task"]["scenario"].update(rules="psu_ok"),
                              "task.scenario.rules"),
    "task_rule_list": ("temperature.json", lambda d: d["task"].update(rule=["x"]), "task"),
    "set_universe_list": ("temperature.json",
                          lambda d: d["sets"]["low"].update(universe=["x"]), "sets.low"),
    "antecedent_list": ("temperature.json",
                        lambda d: d["rules"]["heat_persists"].update(antecedent=["x"]),
                        "rules.heat_persists"),
    "levels_fraction": ("temperature.json", lambda d: d["task"].update(levels=2.7),
                        "task.levels"),
    "points_fraction": ("temperature.json", lambda d: d["universes"][0].update(points=4.9),
                        "universes[0].points"),
    # json.dumps writes an infinite float as the JSON extension Infinity
    "points_infinity": ("temperature.json",
                        lambda d: d["universes"][0].update(points=float("inf")),
                        "universes[0].points"),
    "levels_infinity": ("temperature.json", lambda d: d["task"].update(levels=float("inf")),
                        "task.levels"),
    "levels_string": ("temperature.json", lambda d: d["task"].update(levels="11"),
                      "task.levels"),
    "lo_bool": ("temperature.json", lambda d: d["universes"][0].update(lo=True),
                "universes[0].lo"),
    # 8 EB of grid: beyond any address space, so the allocation fails at once
    "points_huge": ("temperature.json", lambda d: d["universes"][0].update(points=10 ** 18),
                    "universes[0]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_problem_exits_1_naming_the_entry(capsys, tmp_path, case):
    name, mutate, entry = MALFORMED[case]
    path = write_mutated(tmp_path, name, mutate)
    command = "scenario" if name == "circuit_fault.json" else "abduce"
    code, _, err = run(capsys, command, "--problem", path)
    assert code == 1
    assert err.startswith(f"error: {entry}"), err


def test_grid_points_too_large_to_allocate_exits_1(capsys, temperature_path):
    code, _, err = run(capsys, "infer", "--problem", temperature_path,
                       "--grid-points", str(10 ** 18))
    assert code == 1
    assert err.startswith("error: universes[0]") and "allocate" in err


def test_grid_points_over_the_fold_limit_exits_1_naming_both_universes(capsys, tmp_path):
    # the observation's seven samples fit only the shipped 7-point grid
    path = write_mutated(tmp_path, "causal_medical.json", lambda d: d["sets"]["fever_observed"]
                         .update(shape="triangular", params=[37, 39.5, 42]))
    # the goedel rules take closed forms at any size; the goguen rule's bound
    # is a fold over 20,000 x 20,000 cells
    code, out, err = run(capsys, "abduce", "--problem", path, "--grid-points", "20000",
                         "--rule", "severe_infection_drives_high_fever",
                         "--observation", "fever_observed", "--bound")
    assert code == 0 and out.startswith("rule: severe_infection_drives_high_fever")
    code, out, err = run(capsys, "scenario", "--problem", path, "--grid-points", "20000")
    assert code == 1 and out == ""
    assert err.startswith("error: the goguen relation from 'infection' (20000 points) "
                          "to 'fever' (20000 points) has 400000000 cells, over the limit")


def test_enumerate_rejects_levels_below_2(capsys, temperature_path):
    code, _, err = run(capsys, "enumerate", "--problem", temperature_path, "--levels", "0")
    assert code == 1
    assert err.startswith("error:") and "at least 2 levels" in err


# 1 followed by 400 zeros: too large for a float, so the candidate limit must
# reject it before the observation is snapped to that many levels
HUGE_LEVELS = 10 ** 400


@pytest.mark.parametrize("source", ["flag", "task"])
def test_enumerate_rejects_levels_too_large_for_a_float(capsys, tmp_path, source):
    if source == "flag":
        argv = ["--problem", bundled_problem("temperature.json"), "--levels", str(HUGE_LEVELS)]
    else:
        argv = ["--problem", write_mutated(tmp_path, "temperature.json",
                                           lambda d: d["task"].update(levels=HUGE_LEVELS))]
    code, out, err = run(capsys, "enumerate", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: search space of") and "exceeds the limit" in err
    assert len(err.splitlines()) == 1


def test_check_ops_rejects_levels_below_2(capsys):
    code, _, err = run(capsys, "check-ops", "--levels", "1")
    assert code == 1
    assert err.startswith("error:") and "at least 2 grid levels" in err


def test_task_levels_below_2_exits_1(capsys, tmp_path):
    path = write_mutated(tmp_path, "temperature.json", lambda d: d["task"].update(levels=1))
    code, _, err = run(capsys, "enumerate", "--problem", path)
    assert code == 1
    assert err.startswith("error: task.levels")
