"""Mutated bundled problems keep the CLI's exit-code contract.

Each example replaces or deletes one JSON node of a bundled problem and runs
one subcommand on it in process, with warnings turned into errors. No
exception may escape main, the exit code is 0, 1 or 2, and exit code 1 comes
with exactly one "error:" line on stderr.
"""
import contextlib
import copy
import io
import json
import math
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundled_problem
from fuzzyabduce.cli import main

#: replacement values; no integer among them is large enough to allocate a big grid
VALUES = [None, True, 0, -1, 2.7, 1e308, -1e308, 1e-308, math.inf, -math.inf, math.nan,
          "", "x", [], [None], {},
          # names the bundled problems or the library already use, so that a
          # mutation passes the type checks and meets a name it collides with
          "low", "high", "reading", "goedel", "reichenbach", "zadeh", "product",
          "certainty", "variation", "singleton", "samples",
          # boundary numbers; 10**20 points are rejected before any grid is made
          5e-324, -0.0, 10**20, [0, 1], [1, 0]]
DELETE = object()

#: bundled problem -> sets on one universe, for plot
PLOT_SETS = {"temperature.json": "low,medium,high",
             "circuit_fault.json": "v_steady,v_in_band",
             "causal_medical.json": "fever_high,fever_mild"}
COMMANDS = ["infer", "abduce", "enumerate", "scenario", "plot"]


def node_paths(node, path=()):
    """The key-and-index path of node and of every node below it."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


PROBLEMS = {name: json.loads(Path(bundled_problem(name)).read_text(encoding="utf-8"))
            for name in PLOT_SETS}
NODES = [(name, path) for name, data in PROBLEMS.items() for path in node_paths(data)]


def mutated_text(name: str, path: tuple, value) -> str:
    """The problem with the node at path replaced by value, or deleted;
    deleting the top level leaves an empty file."""
    if not path:
        return "" if value is DELETE else json.dumps(value)
    data = copy.deepcopy(PROBLEMS[name])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(data)


@settings(max_examples=200, deadline=None)
@given(node=st.sampled_from(NODES), value=st.sampled_from(VALUES + [DELETE]),
       command=st.sampled_from(COMMANDS))
def test_mutated_problem_keeps_the_exit_code_contract(tmp_path_factory, node, value,
                                                      command):
    name, path = node
    workdir = tmp_path_factory.getbasetemp()
    problem = workdir / "mutated.json"
    problem.write_text(mutated_text(name, path, value), encoding="utf-8")
    argv = [command, "--problem", str(problem)]
    if command == "plot":
        argv += ["--sets", PLOT_SETS[name], "--out", str(workdir / "plot.csv")]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    else:
        assert err.getvalue() == ""
