"""Problem files, diagnosis scenarios, and plot-data emission.

A problem file is JSON with this shape::

    {
      "universes": [{"name": "temperature", "lo": 0, "hi": 200, "points": 5},
                    {"name": "level", "grid": [0, 1, 2]}],
      "sets": {"low": {"universe": "temperature",
                       "shape": "trapezoidal", "params": [0, 0, 40, 90]}},
      "rules": {"r1": {"antecedent": "low", "consequent": "low",
                       "semantics": "variation",
                       "implication": "goedel", "tnorm": "minimum"}},
      "observations": {"reading": "low"},
      "task": {"kind": "abduce", "rule": "r1", "input": "reading"}
    }

Shapes: triangular [a,b,c], trapezoidal [a,b,c,d], gaussian [center,width],
singleton [point], samples [one degree per grid point]. A scenario task
carries its configuration under task.scenario. Numbers must be finite JSON
numbers (not booleans), points and levels integers, names strings; any other
value is a ProblemError that names the entry. All report rendering is
deterministic: the same problem file always produces byte-identical output.
"""
from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .abduction import AbductionResult, abduce_certainty, abduce_variation
from .core import (
    FuzzySet,
    Gaussian,
    Samples,
    Singleton,
    Trapezoidal,
    Triangular,
    Universe,
    compatibility,
    complement,
    make_universe,
    sample,
)
from .inference import CERTAINTY, VARIATION, Rule

AGGREGATION_LABEL = "INVENTED AGGREGATION"

FAULT_COMPONENT = "fault_component"
CAUSAL_DIAGNOSIS = "causal_diagnosis"


class ProblemError(ValueError):
    """A problem file failed validation; the message names the offending entry."""


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    rules: tuple
    observation: str
    match_threshold: float = 0.7


@dataclass(frozen=True)
class TaskConfig:
    kind: Optional[str] = None
    rule: Optional[str] = None
    input: Optional[str] = None
    levels: Optional[int] = None
    scenario: Optional[ScenarioConfig] = None


@dataclass
class Problem:
    spec: dict  # the canonical file form, recorded while loading
    universes: dict
    sets: dict
    rules: dict
    observations: dict
    task: Optional[TaskConfig] = None

    def resolve_set(self, name: str) -> FuzzySet:
        """Look a name up first among observations, then among sets."""
        target = self.observations.get(name, name)
        if target not in self.sets:
            raise ProblemError(f"unknown set or observation {name!r}")
        return self.sets[target]

    def to_dict(self) -> dict:
        return copy.deepcopy(self.spec)


#: shape classes by their name in problem files; each takes its parameters
#: in field order, except samples, which takes the whole list as its degrees
_SHAPES = {cls.__name__.lower(): cls
          for cls in (Triangular, Trapezoidal, Gaussian, Singleton, Samples)}

#: the kinds of value a problem file field may hold, by the name errors give them
_KINDS = {
    "a string": lambda v: isinstance(v, str),
    # abs() compares a JSON integer exactly, so one too large for a float fails too
    "a finite number": lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                                  and abs(v) <= sys.float_info.max),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a list": lambda v: isinstance(v, list),
    "an object": lambda v: isinstance(v, dict),
}

_REQUIRED = object()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProblemError(message)


def _path(where: str, key) -> str:
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def _field(entry, key, kind: str, where: str, default=_REQUIRED):
    """entry[key] (a key of an object or an index of a list), checked to be of
    the named kind; default when the key is absent, an error when it is
    required."""
    try:
        value = entry[key]
    except KeyError:
        _require(default is not _REQUIRED, f"{where}: missing field {key!r}")
        return default
    if not _KINDS[kind](value):  # not _require: the message is built only on failure
        raise ProblemError(f"{_path(where, key)}: must be {kind}, got {value!r}")
    return value


def _ref(entry, key, table, what: str, where: str, default=_REQUIRED):
    """A string field that must name an entry of table."""
    name = _field(entry, key, "a string", where, default)
    if name is not None and name not in table:
        raise ProblemError(f"{_path(where, key)}: unknown {what} {name!r}")
    return name


def _list(entry, key, kind: str, where: str, default=_REQUIRED) -> list:
    """A list field whose every item is of the named kind."""
    values = _field(entry, key, "a list", where, default)
    return [_field(values, i, kind, _path(where, key)) for i in range(len(values))]


def _built(where: str, make, *args):
    """make(*args), with a ValueError, or a MemoryError from a grid too large to
    allocate, reported as a ProblemError naming where."""
    try:
        return make(*args)
    except (ValueError, MemoryError) as exc:
        raise ProblemError(f"{where}: {exc}") from exc


def load_problem(path: str, grid_points: Optional[int] = None) -> Problem:
    """Parse and validate a problem file.

    grid_points overrides the resolution of every universe declared with
    lo/hi/points; universes declared with an explicit grid keep it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError as exc:
            raise ProblemError(f"{path}: JSON nested too deeply to parse") from exc
    _require(isinstance(data, dict), f"{path}: top level must be a JSON object")
    spec: dict = {"universes": [], "sets": {}, "rules": {}}

    universes: dict[str, Universe] = {}
    for i, entry in enumerate(_list(data, "universes", "an object", "", [])):
        where = f"universes[{i}]"
        name = _field(entry, "name", "a string", where)
        _require(name != "", f"{where}: needs a name")
        _require(name not in universes, f"{where}: duplicate universe name {name!r}")
        if "grid" in entry:
            grid = [float(g) for g in _list(entry, "grid", "a finite number", where)]
            udef = {"name": name, "grid": grid}
            universes[name] = _built(where, Universe, name, np.array(grid))
        else:
            lo = float(_field(entry, "lo", "a finite number", where))
            hi = float(_field(entry, "hi", "a finite number", where))
            points = _field(entry, "points", "an integer", where, 101)
            if grid_points is not None:
                points = grid_points
            udef = {"name": name, "lo": lo, "hi": hi, "points": points}
            universes[name] = _built(where, make_universe, name, lo, hi, points)
        spec["universes"].append(udef)

    sets: dict[str, FuzzySet] = {}
    section = _field(data, "sets", "an object", "", {})
    for name in section:
        where = f"sets.{name}"
        entry = _field(section, name, "an object", "sets")
        uname = _ref(entry, "universe", universes, "universe", where)
        kind = _field(entry, "shape", "a string", where).strip().lower()
        _require(kind in _SHAPES, f"{where}: unknown shape kind {kind!r}")
        params = _list(entry, "params", "a finite number", where, [])
        if kind == "samples":
            params = [float(p) for p in params]
            shape = _built(where, Samples, tuple(params))
        else:
            arity = len(fields(_SHAPES[kind]))
            _require(len(params) == arity,
                     f"{where}: shape {kind!r} takes {arity} parameters, got {len(params)}")
            shape = _built(where, _SHAPES[kind], *params)
        sets[name] = _built(where, sample, shape, universes[uname])
        spec["sets"][name] = {"universe": uname, "shape": kind, "params": params}

    rules: dict[str, Rule] = {}
    section = _field(data, "rules", "an object", "", {})
    for name in section:
        where = f"rules.{name}"
        entry = _field(section, name, "an object", "rules")
        sides = [_ref(entry, side, sets, "set", where) for side in ("antecedent", "consequent")]
        rule = _built(where, Rule, *(sets[s] for s in sides),
                      *(_field(entry, k, "a string", where)
                        for k in ("semantics", "implication", "tnorm")))
        rules[name] = rule
        spec["rules"][name] = {"antecedent": sides[0], "consequent": sides[1],
                               "semantics": rule.semantics,
                               "implication": rule.implication, "tnorm": rule.tnorm}

    section = _field(data, "observations", "an object", "", {})
    observations = {name: _ref(section, name, sets, "set", "observations")
                    for name in section}
    spec["observations"] = dict(observations)

    task = None
    if "task" in data:
        entry = _field(data, "task", "an object", "")
        known = observations.keys() | sets.keys()
        scenario = None
        if "scenario" in entry:
            where = "task.scenario"
            sc = _field(entry, "scenario", "an object", "task")
            kind = _field(sc, "kind", "a string", where, None)
            _require(
                kind in (FAULT_COMPONENT, CAUSAL_DIAGNOSIS),
                f"task.scenario: kind must be {FAULT_COMPONENT!r} or "
                f"{CAUSAL_DIAGNOSIS!r}, got {kind!r}",
            )
            rule_names = _field(sc, "rules", "a list", where, [])
            _require(len(rule_names) > 0, "task.scenario: needs at least one rule")
            for j in range(len(rule_names)):
                _ref(rule_names, j, rules, "rule", f"{where}.rules")
            obs = _ref(sc, "observation", known, "observation", where)
            threshold = float(_field(sc, "match_threshold", "a finite number", where, 0.7))
            _require(
                0.0 <= threshold <= 1.0,
                f"task.scenario: match_threshold must lie in [0, 1], got {threshold}",
            )
            scenario = ScenarioConfig(kind, tuple(rule_names), obs, threshold)
        levels = _field(entry, "levels", "an integer", "task", None)
        _require(levels is None or levels >= 2,
                 f"task.levels: needs at least 2 levels, got {levels}")
        given = {"kind": _field(entry, "kind", "a string", "task", None),
                 "rule": _ref(entry, "rule", rules, "rule", "task", None),
                 "input": _ref(entry, "input", known, "set or observation", "task", None),
                 "levels": levels}
        spec["task"] = {k: v for k, v in given.items() if v is not None}
        task = TaskConfig(**spec["task"], scenario=scenario)
        if scenario is not None:
            spec["task"]["scenario"] = {"kind": kind, "rules": rule_names,
                                        "observation": obs, "match_threshold": threshold}

    return Problem(spec, universes, sets, rules, observations, task)


def write_json(path: Optional[str], payload: dict) -> Optional[str]:
    """Write payload as indented JSON with a final newline; no path, no file."""
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return path


def save_problem(problem: Problem, path: str) -> str:
    """Write the canonical JSON form; load -> save is idempotent."""
    return write_json(path, problem.to_dict())


# --- scenarios ---------------------------------------------------------------

@dataclass
class ScenarioEntry:
    rule: str
    result: Optional[AbductionResult]
    compatibility: Optional[float] = None
    flagged: Optional[bool] = None


@dataclass
class CombinedHypothesis:
    universe: str
    rules: tuple
    hypothesis: FuzzySet
    label: str = AGGREGATION_LABEL


@dataclass
class ScenarioReport:
    kind: str
    observation: str
    entries: list
    threshold: Optional[float] = None
    aggregates: list = field(default_factory=list)


#: the rule semantics each scenario kind analyses, and the analysis's name
_ANALYSIS = {FAULT_COMPONENT: (CERTAINTY, "fault-component analysis"),
             CAUSAL_DIAGNOSIS: (VARIATION, "causal analysis")}


def _scenario_inputs(problem: Problem, config: ScenarioConfig,
                     kind: str) -> tuple[FuzzySet, list[tuple[str, Rule]]]:
    """The observation and the named rules of a scenario of the given kind,
    each rule checked to exist, to have the semantics that kind analyses and
    to conclude on the observation's universe."""
    if config.kind != kind:
        raise ProblemError(f"{kind} scenario got config kind {config.kind!r}")
    semantics, analysis = _ANALYSIS[kind]
    observed = problem.resolve_set(config.observation)
    found = []
    for name in config.rules:
        if name not in problem.rules:
            raise ProblemError(f"scenario: unknown rule {name!r}")
        rule = problem.rules[name]
        if rule.semantics != semantics:
            raise ProblemError(
                f"scenario: {analysis} needs {semantics} rules; "
                f"{name!r} has semantics {rule.semantics!r}"
            )
        if rule.consequent.universe != observed.universe:
            raise ProblemError(
                f"scenario: rule {name!r} concludes on "
                f"{rule.consequent.universe.name!r} but the observation lives on "
                f"{observed.universe.name!r}"
            )
        found.append((name, rule))
    return observed, found


def run_fault_scenario(problem: Problem, config: ScenarioConfig) -> ScenarioReport:
    """Rank certainty rules by how strongly the observation matches the
    contrary of their normal conclusion; abduce a hypothesis for each rule
    at or above the match threshold.
    """
    observed, rules = _scenario_inputs(problem, config, FAULT_COMPONENT)
    # the sort is stable, so rules with equal scores keep their configured order
    scored = sorted(((compatibility(observed, complement(rule.consequent)), name, rule)
                     for name, rule in rules), key=lambda item: -item[0])
    entries = []
    for score, name, rule in scored:
        flagged = score >= config.match_threshold
        result = abduce_certainty(rule, observed, rule.tnorm) if flagged else None
        entries.append(
            ScenarioEntry(rule=name, result=result, compatibility=score, flagged=flagged)
        )
    return ScenarioReport(
        kind=FAULT_COMPONENT,
        observation=config.observation,
        entries=entries,
        threshold=config.match_threshold,
    )


def run_causal_scenario(problem: Problem, config: ScenarioConfig) -> ScenarioReport:
    """Per-cause contribution bounds for an observed effect.

    Each variation rule gets its own residual-bound hypothesis. When several
    rules share an antecedent universe their bounds are additionally combined
    by pointwise minimum; that combination step is an extension beyond the
    per-rule scheme and is labeled as such in the report.
    """
    observed, rules = _scenario_inputs(problem, config, CAUSAL_DIAGNOSIS)
    entries = []
    by_universe: dict[str, list[tuple[str, FuzzySet]]] = {}
    for name, rule in rules:
        result = abduce_variation(rule, observed)
        entries.append(ScenarioEntry(rule=name, result=result))
        by_universe.setdefault(rule.antecedent.universe.name, []).append(
            (name, result.hypothesis)
        )

    aggregates = []
    for uname, group in by_universe.items():
        if len(group) < 2:
            continue
        stacked = np.stack([h.mu for _, h in group])
        combined = FuzzySet(group[0][1].universe, np.min(stacked, axis=0))
        aggregates.append(
            CombinedHypothesis(
                universe=uname,
                rules=tuple(name for name, _ in group),
                hypothesis=combined,
            )
        )
    return ScenarioReport(
        kind=CAUSAL_DIAGNOSIS,
        observation=config.observation,
        entries=entries,
        aggregates=aggregates,
    )


# --- rendering ---------------------------------------------------------------

def format_degrees(mu: np.ndarray) -> str:
    return ", ".join(f"{x:.6f}" for x in mu)


def result_lines(result: AbductionResult, indent: str) -> list[str]:
    """The hypothesis, solvability and roundtrip lines of one result."""
    solv = result.solvability
    w = solv.witness
    rt = result.roundtrip
    return [
        f"{indent}hypothesis on {result.hypothesis.universe.name}: "
        f"{format_degrees(result.hypothesis.mu)}",
        f"{indent}solvability: {solv.verdict}" + (
            "" if w is None else
            f" (at v={w.point:g} required {w.required:.6f}, available {w.available:.6f})"),
        f"{indent}roundtrip: max residual {rt.max_abs_residual:.6f}, "
        f"covers={'yes' if rt.covers_observation else 'no'}, "
        f"within={'yes' if rt.within_observation else 'no'}",
    ]


def render_report(report: ScenarioReport) -> str:
    lines: list[str] = []
    if report.kind == FAULT_COMPONENT:
        lines.append("fault-component scenario")
        lines.append(f"observation: {report.observation}")
        lines.append(f"match threshold: {report.threshold:.6f}")
        lines.append("rules ranked by match with the contrary conclusion:")
        for rank, entry in enumerate(report.entries, start=1):
            status = "FLAGGED" if entry.flagged else "not flagged"
            lines.append(
                f"  {rank}. {entry.rule}  compatibility={entry.compatibility:.6f}  {status}"
            )
            if entry.result is not None:
                lines.extend(result_lines(entry.result, "     "))
    else:
        lines.append("causal-diagnosis scenario")
        lines.append(f"observation: {report.observation}")
        lines.append("per-rule contribution bounds:")
        for entry in report.entries:
            assert entry.result is not None
            universe = entry.result.hypothesis.universe.name
            lines.append(f"  {entry.rule} (cause universe: {universe})")
            lines.extend(result_lines(entry.result, "     "))
        if report.aggregates:
            lines.append(f"combined per-universe bounds [{AGGREGATION_LABEL}]:")
            for agg in report.aggregates:
                lines.append(
                    f"  {agg.universe} ({' & '.join(agg.rules)}): "
                    f"{format_degrees(agg.hypothesis.mu)}"
                )
    return "\n".join(lines) + "\n"


def _fuzzyset_dict(s: FuzzySet) -> dict:
    return {
        "universe": s.universe.name,
        "grid": [float(x) for x in s.universe.grid],
        "mu": [float(x) for x in s.mu],
    }


def result_as_dict(result: AbductionResult) -> dict:
    solv: dict = {"verdict": result.solvability.verdict}
    if result.solvability.witness is not None:
        w = result.solvability.witness
        solv["witness"] = {
            "point": w.point, "required": w.required, "available": w.available,
        }
    rt = result.roundtrip
    return {
        "scheme": result.scheme,
        "hypothesis": _fuzzyset_dict(result.hypothesis),
        "solvability": solv,
        "roundtrip": {
            "reproduced": _fuzzyset_dict(rt.reproduced),
            "max_abs_residual": rt.max_abs_residual,
            "covers_observation": rt.covers_observation,
            "within_observation": rt.within_observation,
        },
    }


def report_as_dict(report: ScenarioReport) -> dict:
    out: dict = {"kind": report.kind, "observation": report.observation}
    if report.threshold is not None:
        out["match_threshold"] = report.threshold
    entries = []
    for entry in report.entries:
        e: dict = {"rule": entry.rule}
        if entry.compatibility is not None:
            e["compatibility"] = entry.compatibility
        if entry.flagged is not None:
            e["flagged"] = entry.flagged
        if entry.result is not None:
            e["result"] = result_as_dict(entry.result)
        entries.append(e)
    out["entries"] = entries
    if report.aggregates:
        out["aggregates"] = [
            {
                "label": agg.label,
                "universe": agg.universe,
                "rules": list(agg.rules),
                "hypothesis": _fuzzyset_dict(agg.hypothesis),
            }
            for agg in report.aggregates
        ]
    return out


def emit_plot_data(named_sets, path: str) -> str:
    """Write overlay curves as CSV: header "x,<name>,...", one row per grid
    point, degrees with 6 decimal places.
    """
    if hasattr(named_sets, "items"):
        named_sets = list(named_sets.items())
    else:
        named_sets = list(named_sets)
    if not named_sets:
        raise ValueError("emit_plot_data needs at least one named set")
    universe = named_sets[0][1].universe
    for name, s in named_sets:
        if s.universe != universe:
            raise ProblemError(
                f"plot sets must share a universe; {name!r} lives on "
                f"{s.universe.name!r}, expected {universe.name!r}"
            )
    lines = ["x," + ",".join(name for name, _ in named_sets)]
    for i, x in enumerate(universe.grid):
        row = ",".join(f"{s.mu[i]:.6f}" for _, s in named_sets)
        lines.append(f"{x:g},{row}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
