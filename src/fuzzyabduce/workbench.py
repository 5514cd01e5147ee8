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
carries its configuration under task.scenario. All report rendering is
deterministic: the same problem file always produces byte-identical output.
"""
from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Optional

import numpy as np

from .abduction import AbductionResult, abduce_certainty, abduce_variation
from .core import (
    FuzzySet,
    Gaussian,
    Samples,
    Shape,
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
class UniverseDef:
    name: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    points: Optional[int] = None
    grid: Optional[tuple] = None


@dataclass(frozen=True)
class SetDef:
    universe: str
    shape: Shape


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
    universe_defs: list
    universes: dict
    set_defs: dict
    sets: dict
    rule_defs: dict
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
        # a universe is declared by its grid or by lo/hi/points, never both
        universes = [{k: list(v) if k == "grid" else v
                      for k, v in asdict(d).items() if v is not None}
                     for d in self.universe_defs]
        sets = {
            name: {
                "universe": sd.universe,
                "shape": type(sd.shape).__name__.lower(),
                "params": (list(sd.shape.degrees) if isinstance(sd.shape, Samples)
                           else list(astuple(sd.shape))),
            }
            for name, sd in self.set_defs.items()
        }
        rules = {name: dict(rd) for name, rd in self.rule_defs.items()}
        out = {
            "universes": universes,
            "sets": sets,
            "rules": rules,
            "observations": dict(self.observations),
        }
        if self.task is not None:
            task = {k: v for k, v in asdict(self.task).items() if v is not None}
            if "scenario" in task:
                task["scenario"]["rules"] = list(task["scenario"]["rules"])
            out["task"] = task
        return out


#: shape classes by their name in problem files; each takes its parameters
#: in field order, except samples, which takes the whole list as its degrees
_SHAPES = {cls.__name__.lower(): cls
          for cls in (Triangular, Trapezoidal, Gaussian, Singleton, Samples)}


def shape_from_spec(kind: str, params, where: str) -> Shape:
    k = str(kind).strip().lower()
    if k not in _SHAPES:
        raise ProblemError(f"{where}: unknown shape kind {kind!r}")
    _require(isinstance(params, (list, tuple)), f"{where}: params must be a list, got {params!r}")
    if k == "samples":
        params = [tuple(params)]
    elif len(params) != len(fields(_SHAPES[k])):
        raise ProblemError(
            f"{where}: shape {k!r} takes {len(fields(_SHAPES[k]))} parameters, got {len(params)}"
        )
    try:
        return _SHAPES[k](*params)
    except (TypeError, ValueError) as exc:
        raise ProblemError(f"{where}: {exc}") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProblemError(message)


def _named(name, table: dict) -> bool:
    # a name from the file may be any JSON value; only a string can name an entry
    return isinstance(name, str) and name in table


def _section(data: dict, key: str, kind: type):
    value = data.get(key, kind())
    _require(isinstance(value, kind),
             f"{key}: must be {'a list' if kind is list else 'an object'}")
    return value


def _number(convert, value, where: str):
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ProblemError(f"{where}: expected a number, got {value!r}") from exc


def load_problem(path: str, grid_points: Optional[int] = None) -> Problem:
    """Parse and validate a problem file.

    grid_points overrides the resolution of every universe declared with
    lo/hi/points; universes declared with an explicit grid keep it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _require(isinstance(data, dict), f"{path}: top level must be a JSON object")

    universe_defs: list[UniverseDef] = []
    universes: dict[str, Universe] = {}
    for i, entry in enumerate(_section(data, "universes", list)):
        where = f"universes[{i}]"
        _require(isinstance(entry, dict), f"{where}: must be an object")
        name = entry.get("name")
        _require(isinstance(name, str) and name != "", f"{where}: needs a name")
        _require(name not in universes, f"{where}: duplicate universe name {name!r}")
        try:
            if "grid" in entry:
                udef = UniverseDef(name, grid=tuple(float(g) for g in entry["grid"]))
                universes[name] = Universe(name, np.array(udef.grid))
            else:
                points = int(entry.get("points", 101))
                if grid_points is not None:
                    points = grid_points
                udef = UniverseDef(
                    name, lo=float(entry["lo"]), hi=float(entry["hi"]), points=points
                )
                universes[name] = make_universe(name, udef.lo, udef.hi, udef.points)
        except KeyError as exc:
            raise ProblemError(f"{where}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ProblemError(f"{where}: {exc}") from exc
        universe_defs.append(udef)

    set_defs: dict[str, SetDef] = {}
    sets: dict[str, FuzzySet] = {}
    for name, entry in _section(data, "sets", dict).items():
        where = f"sets.{name}"
        _require(isinstance(entry, dict), f"{where}: must be an object")
        uname = entry.get("universe")
        _require(_named(uname, universes), f"{where}: unknown universe {uname!r}")
        shape = shape_from_spec(entry.get("shape"), entry.get("params", []), where)
        try:
            sets[name] = sample(shape, universes[uname])
        except ValueError as exc:
            raise ProblemError(f"{where}: {exc}") from exc
        set_defs[name] = SetDef(uname, shape)

    rule_defs: dict[str, dict] = {}
    rules: dict[str, Rule] = {}
    for name, entry in _section(data, "rules", dict).items():
        where = f"rules.{name}"
        _require(isinstance(entry, dict), f"{where}: must be an object")
        for fieldname in ("antecedent", "consequent", "semantics", "implication", "tnorm"):
            _require(fieldname in entry, f"{where}: missing field {fieldname!r}")
        for side in ("antecedent", "consequent"):
            _require(
                _named(entry[side], sets), f"{where}: unknown set {entry[side]!r} as {side}"
            )
        try:
            rule = Rule(
                antecedent=sets[entry["antecedent"]],
                consequent=sets[entry["consequent"]],
                semantics=entry["semantics"],
                implication=entry["implication"],
                tnorm=entry["tnorm"],
            )
        except ValueError as exc:
            raise ProblemError(f"{where}: {exc}") from exc
        rules[name] = rule
        rule_defs[name] = {
            "antecedent": entry["antecedent"],
            "consequent": entry["consequent"],
            "semantics": rule.semantics,
            "implication": rule.implication,
            "tnorm": rule.tnorm,
        }

    observations: dict[str, str] = {}
    for name, target in _section(data, "observations", dict).items():
        _require(_named(target, sets), f"observations.{name}: unknown set {target!r}")
        observations[name] = target

    def known_set(name) -> bool:
        return _named(name, observations) or _named(name, sets)

    task = None
    if "task" in data:
        entry = data["task"]
        _require(isinstance(entry, dict), "task: must be an object")
        scenario = None
        if "scenario" in entry:
            sc = entry["scenario"]
            _require(isinstance(sc, dict), "task.scenario: must be an object")
            kind = sc.get("kind")
            _require(
                kind in (FAULT_COMPONENT, CAUSAL_DIAGNOSIS),
                f"task.scenario: kind must be {FAULT_COMPONENT!r} or "
                f"{CAUSAL_DIAGNOSIS!r}, got {kind!r}",
            )
            rule_names = sc.get("rules", [])
            _require(isinstance(rule_names, list),
                     f"task.scenario.rules: must be a list of rule names, got {rule_names!r}")
            _require(len(rule_names) > 0, "task.scenario: needs at least one rule")
            for rn in rule_names:
                _require(_named(rn, rules), f"task.scenario: unknown rule {rn!r}")
            obs = sc.get("observation")
            _require(known_set(obs), f"task.scenario: unknown observation {obs!r}")
            threshold = _number(float, sc.get("match_threshold", 0.7),
                                "task.scenario.match_threshold")
            _require(
                0.0 <= threshold <= 1.0,
                f"task.scenario: match_threshold must lie in [0, 1], got {threshold}",
            )
            scenario = ScenarioConfig(kind, tuple(rule_names), obs, threshold)
        rule_name = entry.get("rule")
        if rule_name is not None:
            _require(_named(rule_name, rules), f"task: unknown rule {rule_name!r}")
        input_name = entry.get("input")
        if input_name is not None:
            _require(known_set(input_name), f"task: unknown set or observation {input_name!r}")
        levels = None
        if "levels" in entry:
            levels = _number(int, entry["levels"], "task.levels")
            _require(levels >= 2, f"task.levels: needs at least 2 levels, got {levels}")
        task = TaskConfig(
            kind=entry.get("kind"),
            rule=rule_name,
            input=input_name,
            levels=levels,
            scenario=scenario,
        )

    return Problem(
        universe_defs, universes, set_defs, sets, rule_defs, rules, observations, task
    )


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
