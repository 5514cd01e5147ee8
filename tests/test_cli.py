"""Command-line behaviour: subcommands, output, exit codes."""
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import fuzzyabduce
from conftest import bundled_problem
from fuzzyabduce.cli import main
from fuzzyabduce.workbench import TaskConfig, load_problem, save_problem

GOLDEN = Path(__file__).parent / "golden"


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
    out_path = tmp_path / "unsolvable_out.json"
    code, out, _ = run(capsys, "abduce", "--problem", path, "--out", str(out_path))
    assert code == 2
    assert "solvability: unsolvable (at v=0 required 0.900000, available 0.300000)" in out
    assert "rerun with --bound" in out
    assert "hypothesis on" not in out
    assert not out_path.exists()


def test_abduce_bound_flag_reports_best_candidate(capsys, tmp_path):
    path = write_unsolvable_problem(tmp_path)
    code, out, _ = run(capsys, "abduce", "--problem", path, "--bound")
    assert code == 0
    assert "hypothesis on cause: 0.200000, 0.200000" in out


def test_abduce_bound_json_output_bytes(capsys, tmp_path):
    """The --out file of an unsolvable instance, witness included, byte for byte."""
    path = write_unsolvable_problem(tmp_path)
    out_path = tmp_path / "bound.json"
    code, _, _ = run(capsys, "abduce", "--problem", path, "--bound", "--out", str(out_path))
    assert code == 0
    cause = {"universe": "cause", "grid": [0.0, 1.0], "mu": [0.2, 0.2]}
    want = {
        "rule": "capped",
        "observation": "reading",
        "result": {
            "scheme": "variation_bound",
            "hypothesis": cause,
            "solvability": {
                "verdict": "unsolvable",
                "witness": {"point": 0.0, "required": 0.9, "available": 0.3},
            },
            "roundtrip": {
                "reproduced": {"universe": "effect", "grid": [0.0, 1.0], "mu": [0.2, 0.2]},
                "max_abs_residual": 0.7,
                "covers_observation": False,
                "within_observation": True,
            },
        },
    }
    assert out_path.read_bytes() == (json.dumps(want, indent=2) + "\n").encode("utf-8")


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


def test_enumerate_lists_the_first_20_solutions_and_counts_the_rest(capsys, tmp_path):
    # the goedel rule of A = [1, 0.4] reaches B' = B from 35 antecedents at 11 levels
    data = {
        "universes": [{"name": "u", "lo": 0, "hi": 1, "points": 2},
                      {"name": "v", "lo": 0, "hi": 1, "points": 2}],
        "sets": {
            "a": {"universe": "u", "shape": "samples", "params": [1, 0.4]},
            "b": {"universe": "v", "shape": "samples", "params": [0.8, 0.2]},
        },
        "rules": {"r": {"antecedent": "a", "consequent": "b", "semantics": "variation",
                        "implication": "goedel", "tnorm": "minimum"}},
        "observations": {},
        "task": {"rule": "r", "input": "b"},
    }
    path, out_path = tmp_path / "many.json", tmp_path / "many_out.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run(capsys, "enumerate", "--problem", str(path), "--out", str(out_path))
    assert code == 0
    written = json.loads(out_path.read_text(encoding="utf-8"))
    solutions, greatest = written["solutions"], written["greatest"]
    lines = out.splitlines()
    assert lines[0] == f"exact solutions at 11 levels: {len(solutions)}"
    assert len(solutions) > 20
    assert lines[1:21] == ["  " + ", ".join(f"{x:.6f}" for x in s) for s in solutions[:20]]
    assert lines[21] == f"  ... and {len(solutions) - 20} more"
    assert greatest == [max(column) for column in zip(*solutions)]
    assert lines[22:] == ["greatest solution: " + ", ".join(f"{x:.6f}" for x in greatest)]


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


def test_plot_without_a_set_name_is_an_error(capsys, temperature_path, tmp_path):
    out_path = tmp_path / "curves.csv"
    code, out, err = run(capsys, "plot", "--problem", temperature_path, "--sets", ",",
                         "--out", str(out_path))
    assert (code, out, err) == (1, "", "error: plot needs at least one set name in --sets\n")
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["infer", "--problem", bundled_problem("temperature.json")],
    ["abduce", "--problem", bundled_problem("temperature.json")],
    ["enumerate", "--problem", bundled_problem("temperature.json")],
    ["check-ops"],
    ["scenario", "--problem", bundled_problem("causal_medical.json")],
    ["plot", "--problem", bundled_problem("temperature.json"), "--sets", "low"],
], ids=lambda argv: argv[0])
def test_unwritable_out_exits_1_with_empty_stdout(capsys, tmp_path, argv):
    # --out names a directory, so writing it fails after the command has run
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


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


@pytest.mark.parametrize("name, message", [
    ("causal_medical.json", "sets.fever_observed: membership vector has (7,) values "
                            "for the 9-point universe 'fever'"),
    ("circuit_fault.json", "sets.v_drifting_high: membership vector has (5,) values "
                           "for the 9-point universe 'output_voltage'"),
])
def test_grid_points_leave_samples_sets_at_their_own_size(capsys, name, message):
    # a samples set keeps its number of degrees, so it fits only its shipped grid
    path = bundled_problem(name)
    code, out, err = run(capsys, "scenario", "--problem", path, "--grid-points", "9")
    assert code == 1 and out == ""
    assert err == f"error: {path}: {message}\n"


def test_deeply_nested_problem_file_exits_1(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "infer", "--problem", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: JSON nested too deeply to parse\n"


def test_non_utf8_problem_file_names_the_file(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"universes": [\xff')
    code, out, err = run(capsys, "infer", "--problem", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: not UTF-8 text: ")
    assert len(err.splitlines()) == 1


def test_problem_without_a_task_section(capsys, tmp_path):
    path = write_mutated(tmp_path, "temperature.json", lambda d: d.pop("task"))
    problem = load_problem(path)
    assert problem.task == TaskConfig()
    save_problem(problem, str(tmp_path / "saved.json"))
    assert "task" not in json.loads((tmp_path / "saved.json").read_text(encoding="utf-8"))
    for command in ("infer", "abduce", "enumerate"):
        code, out, err = run(capsys, command, "--problem", path)
        assert code == 1 and out == ""
        assert err == "error: no rule given on the command line or in the task section\n"
    # with no task.levels, enumerate searches at QuantizedSearch's default of 11 levels
    code, out, _ = run(capsys, "enumerate", "--problem", path,
                       "--rule", "heat_persists", "--observation", "reading")
    assert code == 0
    assert out == (GOLDEN / "enumerate_temperature.stdout").read_text(encoding="utf-8")
    code, out, err = run(capsys, "scenario", "--problem", path)
    assert code == 1 and out == ""
    assert err == "error: the problem file has no task.scenario section\n"


def write_mutated(tmp_path, name, mutate):
    data = json.loads(Path(bundled_problem(name)).read_text(encoding="utf-8"))
    mutate(data)
    path = tmp_path / f"mutated_{name}"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# case -> (bundled problem, mutation, the error message after the file name)
MALFORMED = {
    "levels_null": ("temperature.json", lambda d: d["task"].update(levels=None),
                    "task.levels: must be an integer, got None"),
    "params_number": ("temperature.json", lambda d: d["sets"]["low"].update(params=5),
                      "sets.low.params: must be a list, got 5"),
    "sets_list": ("temperature.json", lambda d: d.update(sets=list(d["sets"].values())),
                  "sets: must be an object, got [{'universe': 'temperature', 'shape': "
                  "'trapezoidal', 'params': [0, 0, 40, 90]}, {'universe': 'temperature', "
                  "'shape': 'triangular', 'params': [50, 100, 150]}, {'universe': "
                  "'temperature', 'shape': 'trapezoidal', 'params': [110, 160, 200, 200]}]"),
    "samples_null": ("temperature.json",
                     lambda d: d["sets"]["low"].update(shape="samples", params=[None]),
                     "sets.low.params[0]: must be a number, got None"),
    "samples_above_one": ("temperature.json",
                          lambda d: d["sets"]["low"].update(shape="samples",
                                                            params=[0, 0.5, 1.5, 0.5, 0]),
                          "sets.low: samples: degrees must lie in [0, 1], got 1.5"),
    "samples_below_zero": ("temperature.json",
                           lambda d: d["sets"]["low"].update(shape="samples",
                                                             params=[-0.5, 0.5, 1.5, 0.5, 0]),
                           "sets.low: samples: degrees must lie in [0, 1], got -0.5"),
    "scenario_rule_twice": ("causal_medical.json",
                            lambda d: d["task"]["scenario"].update(
                                rules=["severe_infection_drives_high_fever"] * 2),
                            "task.scenario: rule 'severe_infection_drives_high_fever' "
                            "is listed twice"),
    "threshold_null": ("circuit_fault.json",
                       lambda d: d["task"]["scenario"].update(match_threshold=None),
                       "task.scenario.match_threshold: must be a finite number, got None"),
    "scenario_rules_string": ("circuit_fault.json",
                              lambda d: d["task"]["scenario"].update(rules="psu_ok"),
                              "task.scenario.rules: must be a list, got 'psu_ok'"),
    "task_rule_list": ("temperature.json", lambda d: d["task"].update(rule=["x"]),
                       "task.rule: must be a string, got ['x']"),
    "set_universe_list": ("temperature.json",
                          lambda d: d["sets"]["low"].update(universe=["x"]),
                          "sets.low.universe: must be a string, got ['x']"),
    "antecedent_list": ("temperature.json",
                        lambda d: d["rules"]["heat_persists"].update(antecedent=["x"]),
                        "rules.heat_persists.antecedent: must be a string, got ['x']"),
    "levels_fraction": ("temperature.json", lambda d: d["task"].update(levels=2.7),
                        "task.levels: must be an integer, got 2.7"),
    "points_fraction": ("temperature.json", lambda d: d["universes"][0].update(points=4.9),
                        "universes[0].points: must be an integer, got 4.9"),
    # json.dumps writes an infinite float as the JSON extension Infinity
    "points_infinity": ("temperature.json",
                        lambda d: d["universes"][0].update(points=float("inf")),
                        "universes[0].points: must be an integer, got inf"),
    "levels_infinity": ("temperature.json", lambda d: d["task"].update(levels=float("inf")),
                        "task.levels: must be an integer, got inf"),
    "levels_string": ("temperature.json", lambda d: d["task"].update(levels="11"),
                      "task.levels: must be an integer, got '11'"),
    "lo_bool": ("temperature.json", lambda d: d["universes"][0].update(lo=True),
                "universes[0].lo: must be a finite number, got True"),
    # resolve_set looks observations up first, so this one would hide the set
    "observation_named_like_a_set": ("temperature.json",
                                     lambda d: d["observations"].update(low="high"),
                                     "observations.low: name is already a set"),
    # each object rejects the first key it does not read, in file order
    "unknown_top_level_field": ("temperature.json", lambda d: d.update(comment="x"),
                                "top level: unknown field 'comment'"),
    "unknown_scenario_field": ("circuit_fault.json",
                               lambda d: d["task"]["scenario"].update(match_treshold=0.99),
                               "task.scenario: unknown field 'match_treshold'"),
    # a universe takes a grid or lo/hi/points, not both
    "universe_grid_and_bounds": ("temperature.json",
                                 lambda d: d["universes"][0].update(grid=[0, 100, 200]),
                                 "universes[0]: unknown field 'lo'"),
    "unknown_set_field": ("temperature.json", lambda d: d["sets"]["low"].update(parms=[0]),
                          "sets.low: unknown field 'parms'"),
    "unknown_rule_field": ("temperature.json",
                           lambda d: d["rules"]["heat_persists"].update(tnrom="minimum"),
                           "rules.heat_persists: unknown field 'tnrom'"),
    "unknown_task_field": ("temperature.json", lambda d: d["task"].update(levles=21),
                           "task: unknown field 'levles'"),
    # 8 EB of grid, rejected by the point limit before any allocation
    "points_huge": ("temperature.json", lambda d: d["universes"][0].update(points=10 ** 18),
                    "universes[0]: universe 'temperature': 1000000000000000000 grid points "
                    "exceed the limit of 10000000, so the grid is not allocated"),
}


@pytest.mark.parametrize("section, entry", [
    ("sets", '"low": {"universe": "temperature", "shape": "singleton", "params": [0]}'),
    ("rules", '"heat_persists": {"antecedent": "low", "consequent": "low", '
              '"semantics": "variation", "implication": "goguen", "tnorm": "product"}'),
])
def test_duplicate_key_exits_1_naming_it(capsys, tmp_path, section, entry):
    # json.load alone would keep the second of the two entries and run on it
    text = Path(bundled_problem("temperature.json")).read_text(encoding="utf-8")
    path = tmp_path / "duplicate.json"
    path.write_text(text.replace(f'"{section}": {{', f'"{section}": {{{entry}, ', 1),
                    encoding="utf-8")
    code, out, err = run(capsys, "infer", "--problem", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: duplicate key {entry.split(':')[0][1:-1]!r}\n"


def test_scenario_rule_on_another_universe_exits_1(capsys, tmp_path):
    path = write_mutated(tmp_path, "circuit_fault.json",
                         lambda d: d["observations"].update(observed_output="psu_nominal"))
    code, out, err = run(capsys, "scenario", "--problem", path)
    assert code == 1 and out == ""
    assert err == ("error: scenario: rule 'psu_ok' concludes on 'output_voltage' "
                   "but the observation lives on 'psu_health'\n")


def test_plot_labels_read_back_as_their_grid_points(capsys, tmp_path):
    # six significant digits would print these 201 points as 101 distinct labels
    def fine_grid(d):
        d["universes"][0].update(lo=1000, hi=1001, points=201)
        d["sets"]["low"].update(params=[1000, 1000, 1000.4, 1000.9])

    path = write_mutated(tmp_path, "temperature.json", fine_grid)
    out = str(tmp_path / "curves.csv")
    assert run(capsys, "plot", "--problem", path, "--sets", "low", "--out", out)[0] == 0
    labels = [line.split(",")[0] for line in Path(out).read_text().splitlines()[1:]]
    grid = load_problem(path).universes["temperature"].grid
    assert [float(x) for x in labels] == grid.tolist()
    assert labels[0] == "1000" and labels[1] == "1000.005" and labels[-1] == "1001"


def test_negative_zero_samples_print_as_zero(capsys, tmp_path):
    def observe_negative_zeros(d):
        d["sets"]["zeros"] = {"universe": "temperature", "shape": "samples",
                              "params": [-0.0, -0.0, 0.0, 0.5, 1.0]}
        d["observations"]["reading"] = "zeros"

    path = write_mutated(tmp_path, "temperature.json", observe_negative_zeros)
    assert "-0.0" in Path(path).read_text(encoding="utf-8")
    code, out, _ = run(capsys, "abduce", "--problem", path, "--bound")
    assert code == 0
    assert "observation on temperature: 0.000000, 0.000000, 0.000000, 0.500000, 1.000000\n" in out
    assert "-0.0" not in out


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_problem_exits_1_naming_the_entry(capsys, tmp_path, case):
    name, mutate, message = MALFORMED[case]
    path = write_mutated(tmp_path, name, mutate)
    command = "abduce" if name == "temperature.json" else "scenario"
    code, out, err = run(capsys, command, "--problem", path)
    assert code == 1 and out == ""
    assert err == f"error: {path}: {message}\n"


def test_grid_points_too_large_to_allocate_exits_1(capsys, temperature_path):
    code, _, err = run(capsys, "infer", "--problem", temperature_path,
                       "--grid-points", str(10 ** 18))
    assert code == 1
    assert err == (f"error: {temperature_path}: universes[0]: universe 'temperature': "
                   f"1000000000000000000 grid points exceed the limit of 10000000, "
                   f"so the grid is not allocated\n")


def test_grid_points_over_the_point_limit_exit_1_before_allocating(capsys, temperature_path):
    # 10^7 + 1 points would be 80 MB per set; the limit is checked before np.linspace
    code, out, err = run(capsys, "infer", "--problem", temperature_path,
                         "--grid-points", str(10 ** 7 + 1))
    assert code == 1 and out == ""
    assert err == (f"error: {temperature_path}: universes[0]: universe 'temperature': "
                   f"10000001 grid points exceed the limit of 10000000, so the grid is "
                   f"not allocated\n")


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


def test_grid_whose_span_overflows_runs_without_warnings(capsys, tmp_path):
    # np.diff of this grid overflows to inf; its points still strictly increase
    path = write_mutated(tmp_path, "temperature.json", lambda d: d.update(
        universes=[{"name": "temperature", "grid": [-1.7e308, 1.7e308]}]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, "abduce", "--problem", path)[::2] == (0, "")
        out = str(tmp_path / "curves.csv")
        assert run(capsys, "plot", "--problem", path, "--sets", "low,high",
                   "--out", out)[::2] == (0, "")


def test_uniform_universe_whose_span_overflows_exits_1_before_allocating(capsys, tmp_path):
    path = write_mutated(tmp_path, "temperature.json",
                         lambda d: d["universes"][0].update(lo=-9e307, hi=9e307))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "abduce", "--problem", path)
    assert code == 1 and out == ""
    assert err == (f"error: {path}: universes[0]: universe 'temperature': span hi - lo "
                   f"overflows, got [-9e+307, 9e+307]\n")


def test_enumerate_rejects_levels_below_2(capsys, temperature_path):
    code, _, err = run(capsys, "enumerate", "--problem", temperature_path, "--levels", "0")
    assert code == 1
    assert err.startswith("error:") and "at least 2 levels" in err


# 1 followed by 400 zeros is too large for a float, so the candidate limit must
# reject it before the observation is snapped to that many levels; at 1,000
# zeros the 5-point search space has more digits than str() of an int allows
HUGE_LEVELS = (10 ** 400, 10 ** 1000)


@pytest.mark.parametrize("source", ["flag", "task"])
def test_enumerate_rejects_levels_too_large_for_a_float(capsys, tmp_path, source):
    for levels in HUGE_LEVELS:
        if source == "flag":
            argv = ["--problem", bundled_problem("temperature.json"), "--levels", str(levels)]
        else:
            argv = ["--problem", write_mutated(tmp_path, "temperature.json",
                                               lambda d: d["task"].update(levels=levels))]
        code, out, err = run(capsys, "enumerate", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: search space of") and "exceeds the limit" in err
        assert len(err.splitlines()) == 1


def test_problem_file_integer_beyond_the_string_limit_exits_1(capsys, tmp_path):
    # json.load would raise a ValueError that names neither the file nor the cause
    text = Path(write_mutated(tmp_path, "temperature.json",
                              lambda d: d["task"].update(levels=7))).read_text(encoding="utf-8")
    assert text.count('"levels": 7') == 1
    path = tmp_path / "long_levels.json"
    path.write_text(text.replace('"levels": 7', '"levels": 1' + "0" * 4999), encoding="utf-8")
    code, out, err = run(capsys, "enumerate", "--problem", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: integer literal of 5000 characters is too long to parse\n"


def test_enumerate_rejects_a_level_table_over_its_cell_limit(capsys, tmp_path):
    # 2 causes x 11 levels x 500,000 effect points is 1.1e7 level-table cells
    data = json.loads(Path(write_unsolvable_problem(tmp_path)).read_text(encoding="utf-8"))
    data["universes"][1]["points"] = 500_000
    data["sets"]["weak"] = {"universe": "effect", "shape": "triangular",
                            "params": [0.0, 0.5, 1.0]}
    data["sets"]["spike"] = {"universe": "effect", "shape": "triangular",
                             "params": [0.2, 0.4, 0.6]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "enumerate", "--problem", str(path))
    assert code == 1 and out == ""
    assert err == ("error: level table of 11000000 cells (2 grid points x 11 levels x "
                   "500000 observation points) exceeds the limit of 10000000\n")


def test_check_ops_rejects_levels_below_2(capsys):
    code, out, err = run(capsys, "check-ops", "--levels", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "at least 2 grid levels" in err
    assert len(err.splitlines()) == 1


def test_check_ops_rejects_a_grid_over_the_cell_limit(capsys):
    # 216**3 cells is just over 10**7; 215 levels is the largest grid allowed
    code, out, err = run(capsys, "check-ops", "--levels", "216")
    assert code == 1 and out == ""
    assert err == ("error: property suite grid of 216 levels exceeds the limit of "
                   "10000000 cells for its three-argument laws\n")


def test_task_levels_below_2_exits_1(capsys, tmp_path):
    path = write_mutated(tmp_path, "temperature.json", lambda d: d["task"].update(levels=1))
    code, _, err = run(capsys, "enumerate", "--problem", path)
    assert code == 1
    assert err == f"error: {path}: task.levels: needs at least 2 levels, got 1\n"


def test_cli_import_leaves_logging_out():
    """A fresh interpreter importing the CLI loads no logging module, which
    would add to the start-up time of every command."""
    src = str(Path(fuzzyabduce.__file__).parents[1])
    probe = "import sys, fuzzyabduce.cli; print('logging' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout == "False\n"
