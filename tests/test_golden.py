"""Bundled-problem CLI output and saved problem files, compared byte for
byte with tests/golden/.

Each CLI case runs one subcommand in process and compares its stdout and its
--out file with the stored copies; each problem case loads a bundled problem
and compares what save_problem writes. After a deliberate change of output,
rewrite the stored copies with `PYTHONPATH=src python tests/test_golden.py`
and review the diff.
"""
import contextlib
import difflib
import io
import sys
from pathlib import Path

import pytest

from conftest import bundled_problem
from fuzzyabduce.cli import main
from fuzzyabduce.workbench import load_problem, save_problem

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, problem file, suffix of the --out file, whether stdout is kept);
# plot's stdout names the CSV path, so only its CSV is kept
CASES = {
    "scenario_circuit_fault": (["scenario"], "circuit_fault.json", ".json", True),
    "scenario_causal_medical": (["scenario"], "causal_medical.json", ".json", True),
    "plot_temperature": (["plot", "--sets", "low,medium,high"], "temperature.json", ".csv",
                         False),
    "infer_temperature": (["infer"], "temperature.json", ".json", True),
    "abduce_temperature": (["abduce"], "temperature.json", ".json", True),
    # a certainty rule: the contraposition scheme
    "abduce_circuit_fault": (["abduce", "--rule", "psu_ok", "--observation", "observed_output"],
                             "circuit_fault.json", ".json", True),
    "enumerate_temperature": (["enumerate"], "temperature.json", ".json", True),
    # 17 solutions among 21^5 candidates
    "enumerate_temperature_21": (["enumerate", "--levels", "21"], "temperature.json", ".json",
                                 True),
    "check_ops": (["check-ops"], None, ".json", True),
}

# golden file name -> (problem file, grid_points override)
PROBLEM_CASES = {
    "problem_temperature.json": ("temperature.json", None),
    "problem_temperature_9.json": ("temperature.json", 9),
    "problem_circuit_fault.json": ("circuit_fault.json", None),
    "problem_causal_medical.json": ("causal_medical.json", None),
}


def produce(name: str, workdir: Path) -> dict:
    """Run one case; return {golden file name: bytes}."""
    argv, problem, suffix, keep_stdout = CASES[name]
    out_path = workdir / f"{name}{suffix}"
    argv = argv + (["--problem", bundled_problem(problem)] if problem else [])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--out", str(out_path)])
    assert code == 0, f"{name} exited {code}"
    files = {out_path.name: out_path.read_bytes()}
    if keep_stdout:
        files[f"{name}.stdout"] = stdout.getvalue().encode("utf-8")
    return files


def saved_problem(filename: str, workdir: Path) -> bytes:
    problem, grid_points = PROBLEM_CASES[filename]
    path = workdir / filename
    save_problem(load_problem(bundled_problem(problem), grid_points), str(path))
    return path.read_bytes()


def assert_matches_golden(filename: str, got: bytes) -> None:
    want = (GOLDEN / filename).read_bytes()
    if got != want:
        diff = difflib.unified_diff(
            want.decode("utf-8").splitlines(), got.decode("utf-8").splitlines(),
            f"golden/{filename}", "current", lineterm="",
        )
        pytest.fail(f"{filename} differs from its golden copy:\n" + "\n".join(diff))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    for filename, got in produce(name, tmp_path).items():
        assert_matches_golden(filename, got)


@pytest.mark.parametrize("filename", sorted(PROBLEM_CASES))
def test_saved_problem_matches_golden(filename, tmp_path):
    assert_matches_golden(filename, saved_problem(filename, tmp_path))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for filename, data in produce(case, Path(tmp)).items():
                (GOLDEN / filename).write_bytes(data)
                print(f"wrote {GOLDEN / filename}", file=sys.stderr)
        for filename in sorted(PROBLEM_CASES):
            (GOLDEN / filename).write_bytes(saved_problem(filename, Path(tmp)))
            print(f"wrote {GOLDEN / filename}", file=sys.stderr)
