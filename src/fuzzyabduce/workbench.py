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
singleton [point], samples [one degree in [0, 1] per grid point]. The task may
also give levels, and a scenario task carries its kind, rules (distinct),
observation and match_threshold under task.scenario. Each object takes only
these keys, a universe either a grid or lo/hi/points, and no observation takes
the name of a set. Numbers must be finite JSON numbers (not booleans), points
and levels integers, names strings; any other value is a ProblemError that
names the file and the entry. All report rendering is deterministic: the same
problem file always produces byte-identical output.
"""
from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

import numpy as np

from .abduction import AbductionResult, abduce_certainty, abduce_variation
from .core import FuzzySet, Universe, compatibility, complement, make_universe, sample
from .inference import CERTAINTY, VARIATION, Rule

AGGREGATION_LABEL = "INVENTED AGGREGATION"

FAULT_COMPONENT = "fault_component"
CAUSAL_DIAGNOSIS = "causal_diagnosis"


class ProblemError(ValueError):
    """A problem file failed validation; the message names the offending entry."""


#: the scenario kinds, each with the rule semantics it analyses and its name
_ANALYSIS = {FAULT_COMPONENT: (CERTAINTY, "fault-component analysis"),
             CAUSAL_DIAGNOSIS: (VARIATION, "causal analysis")}


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    rules: tuple
    observation: str
    match_threshold: float = 0.7

    def __post_init__(self):
        if self.kind not in _ANALYSIS:
            raise ProblemError(f"kind must be {FAULT_COMPONENT!r} or {CAUSAL_DIAGNOSIS!r}, "
                               f"got {self.kind!r}")
        if not self.rules:
            raise ProblemError("needs at least one rule")
        twice = next((r for i, r in enumerate(self.rules) if r in self.rules[:i]), None)
        _require(twice is None, f"rule {twice!r} is listed twice")
        if not 0.0 <= self.match_threshold <= 1.0:  # a nan fails too
            raise ProblemError(f"match_threshold must lie in [0, 1], got {self.match_threshold}")


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
    task: TaskConfig = field(default_factory=TaskConfig)  # empty when the file has none

    def resolve_set(self, name: str) -> FuzzySet:
        """The set an observation names, or the set of that name; the loader
        keeps observation names apart from set names."""
        target = self.observations.get(name, name)
        if target not in self.sets:
            raise ProblemError(f"unknown set or observation {name!r}")
        return self.sets[target]

    def to_dict(self) -> dict:
        return copy.deepcopy(self.spec)


#: the kinds of value a problem file field may hold, by the name errors give them
_KINDS = {
    "a string": lambda v: isinstance(v, str),
    # abs() compares a JSON integer exactly, so one too large for a float fails too
    "a finite number": lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                                  and abs(v) <= sys.float_info.max),
    # a shape parameter: any float, whose finiteness sample() checks by the shape's rules
    "a number": lambda v: isinstance(v, float) or _KINDS["a finite number"](v),
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


def _no_other_fields(entry: dict, keys: tuple, where: str) -> None:
    """Reject the first key of entry, in file order, that is not among keys."""
    extra = next((key for key in entry if key not in keys), None)
    _require(extra is None, f"{where or 'top level'}: unknown field {extra!r}")


def _built(where: str, make, *args):
    """make(*args), with a ValueError, or a MemoryError from a grid too large to
    allocate, reported as a ProblemError naming where."""
    try:
        return make(*args)
    except (ValueError, MemoryError) as exc:
        raise ProblemError(f"{where}: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its pairs; json.load alone would keep the last of two equal keys."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ProblemError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _parse_int(text: str) -> int:
    """An integer literal; int() refuses one of more than 4,300 digits with a
    bare ValueError that would name neither the file nor the cause."""
    try:
        return int(text)
    except ValueError as exc:
        raise ProblemError(f"integer literal of {len(text)} characters "
                           f"is too long to parse") from exc


def load_problem(path: str, grid_points: Optional[int] = None) -> Problem:
    """Parse and validate a problem file.

    grid_points overrides the resolution of every universe declared with
    lo/hi/points; universes declared with an explicit grid keep it. Every
    ProblemError raised here starts with the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh, object_pairs_hook=_unique_keys, parse_int=_parse_int)
            except json.JSONDecodeError as exc:
                raise ProblemError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                                   f"{exc.msg}") from exc
            except RecursionError as exc:
                raise ProblemError("JSON nested too deeply to parse") from exc
            except UnicodeDecodeError as exc:
                raise ProblemError(f"not UTF-8 text: {exc}") from exc
        return _parse_problem(data, grid_points)
    except ProblemError as exc:
        raise ProblemError(f"{path}: {exc}") from exc


def _parse_problem(data, grid_points: Optional[int]) -> Problem:
    """The Problem a decoded problem file describes."""
    _require(isinstance(data, dict), "top level must be a JSON object")
    _no_other_fields(data, ("universes", "sets", "rules", "observations", "task"), "")
    spec: dict = {"universes": [], "sets": {}, "rules": {}}

    universes: dict[str, Universe] = {}
    for i, entry in enumerate(_list(data, "universes", "an object", "", [])):
        where = f"universes[{i}]"
        _no_other_fields(entry, ("name", "grid") if "grid" in entry
                         else ("name", "lo", "hi", "points"), where)
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
        _no_other_fields(entry, ("universe", "shape", "params"), where)
        uname = _ref(entry, "universe", universes, "universe", where)
        kind = _field(entry, "shape", "a string", where).strip().lower()
        params = _list(entry, "params", "a number", where, [])
        if kind == "samples":
            params = [float(p) for p in params]
        sets[name] = _built(where, sample, kind, params, universes[uname])
        spec["sets"][name] = {"universe": uname, "shape": kind, "params": params}

    rules: dict[str, Rule] = {}
    section = _field(data, "rules", "an object", "", {})
    for name in section:
        where = f"rules.{name}"
        entry = _field(section, name, "an object", "rules")
        _no_other_fields(entry, ("antecedent", "consequent", "semantics", "implication",
                                 "tnorm"), where)
        sides = [_ref(entry, side, sets, "set", where) for side in ("antecedent", "consequent")]
        rule = _built(where, Rule, *(sets[s] for s in sides),
                      *(_field(entry, k, "a string", where)
                        for k in ("semantics", "implication", "tnorm")))
        rules[name] = rule
        spec["rules"][name] = {"antecedent": sides[0], "consequent": sides[1],
                               "semantics": rule.semantics,
                               "implication": rule.implication, "tnorm": rule.tnorm}

    section = _field(data, "observations", "an object", "", {})
    observations = {}
    for name in section:
        # resolve_set looks an observation up first, so one named like a set would hide it
        _require(name not in sets, f"observations.{name}: name is already a set")
        observations[name] = _ref(section, name, sets, "set", "observations")
    spec["observations"] = dict(observations)

    task = TaskConfig()
    if "task" in data:
        entry = _field(data, "task", "an object", "")
        _no_other_fields(entry, ("kind", "rule", "input", "levels", "scenario"), "task")
        known = observations.keys() | sets.keys()
        scenario = None
        if "scenario" in entry:
            where = "task.scenario"
            sc = _field(entry, "scenario", "an object", "task")
            _no_other_fields(sc, ("kind", "rules", "observation", "match_threshold"), where)
            kind = _field(sc, "kind", "a string", where, None)
            rule_names = _field(sc, "rules", "a list", where, [])
            for j in range(len(rule_names)):
                _ref(rule_names, j, rules, "rule", f"{where}.rules")
            obs = _ref(sc, "observation", known, "observation", where)
            threshold = float(_field(sc, "match_threshold", "a finite number", where,
                                     ScenarioConfig.match_threshold))
            scenario = _built(where, ScenarioConfig, kind, tuple(rule_names), obs, threshold)
        levels = _field(entry, "levels", "an integer", "task", None)
        _require(levels is None or levels >= 2,
                 f"task.levels: needs at least 2 levels, got {levels}")
        task = TaskConfig(_field(entry, "kind", "a string", "task", None),
                          _ref(entry, "rule", rules, "rule", "task", None),
                          _ref(entry, "input", known, "set or observation", "task", None),
                          levels, scenario)
        spec["task"] = report_as_dict(task)

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

# report_as_dict writes each result's fields in declaration order, so the order
# below is the order of keys in --out files
@dataclass
class ScenarioEntry:
    rule: str
    compatibility: Optional[float] = None
    flagged: Optional[bool] = None
    result: Optional[AbductionResult] = None


@dataclass
class CombinedHypothesis:
    label: str
    universe: str
    rules: tuple
    hypothesis: FuzzySet


@dataclass
class ScenarioReport:
    kind: str
    observation: str
    match_threshold: Optional[float]
    entries: list
    aggregates: list = field(default_factory=list)


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
        match_threshold=config.match_threshold,
        entries=entries,
    )


def run_causal_scenario(problem: Problem, config: ScenarioConfig) -> ScenarioReport:
    """Per-cause contribution bounds for an observed effect.

    Each variation rule gets its own residual-bound hypothesis. When several
    rules share an antecedent universe (its name and its grid) their bounds
    are additionally combined by pointwise minimum; that combination step is
    an extension beyond the per-rule scheme and is labeled as such in the report.
    """
    observed, rules = _scenario_inputs(problem, config, CAUSAL_DIAGNOSIS)
    entries = []
    by_universe: dict[Universe, list[tuple[str, FuzzySet]]] = {}
    for name, rule in rules:
        result = abduce_variation(rule, observed)
        entries.append(ScenarioEntry(rule=name, result=result))
        by_universe.setdefault(rule.antecedent.universe, []).append(
            (name, result.hypothesis)
        )

    aggregates = []
    for universe, group in by_universe.items():
        if len(group) < 2:
            continue
        stacked = np.stack([h.mu for _, h in group])
        combined = FuzzySet(universe, np.min(stacked, axis=0))
        aggregates.append(
            CombinedHypothesis(
                label=AGGREGATION_LABEL,
                universe=universe.name,
                rules=tuple(name for name, _ in group),
                hypothesis=combined,
            )
        )
    return ScenarioReport(
        kind=CAUSAL_DIAGNOSIS,
        observation=config.observation,
        match_threshold=None,
        entries=entries,
        aggregates=aggregates,
    )


# --- rendering ---------------------------------------------------------------

def format_degrees(mu: np.ndarray) -> str:
    return ", ".join(f"{x:.6f}" for x in mu)


def format_point(x: float) -> str:
    """The shortest text that reads back as the grid point x, with no trailing
    ".0", so an integral point prints as an integer."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


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
            f" (at v={format_point(w.point)} required {w.required:.6f}, "
            f"available {w.available:.6f})"),
        f"{indent}roundtrip: max residual {rt.max_abs_residual:.6f}, "
        f"covers={'yes' if rt.covers_observation else 'no'}, "
        f"within={'yes' if rt.within_observation else 'no'}",
    ]


def render_report(report: ScenarioReport) -> str:
    lines: list[str] = []
    if report.kind == FAULT_COMPONENT:
        lines.append("fault-component scenario")
        lines.append(f"observation: {report.observation}")
        lines.append(f"match threshold: {report.match_threshold:.6f}")
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


def report_as_dict(value):
    """The JSON form of a result the CLI writes. A FuzzySet becomes its
    universe name, grid and degrees; a dataclass its fields in declaration
    order, leaving out those that are None or an empty list; a tuple or list
    a list; anything else passes through unchanged."""
    if isinstance(value, FuzzySet):
        return {"universe": value.universe.name,
                "grid": [float(x) for x in value.universe.grid],
                "mu": [float(x) for x in value.mu]}
    if is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in fields(value))
        return {name: report_as_dict(v) for name, v in items
                if v is not None and not (isinstance(v, list) and not v)}
    if isinstance(value, (tuple, list)):
        return [report_as_dict(v) for v in value]
    return value


def emit_plot_data(named_sets, path: str) -> str:
    """Write overlay curves, a list of (name, set) pairs, as CSV: header
    "x,<name>,...", one row per grid point (format_point), degrees with 6
    decimal places.
    """
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
        lines.append(f"{format_point(x)},{row}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
