"""The benchmark's three workloads.

Each workload turns a seed into inputs, and those inputs into one cycle of
operations. An operation is one public call into fuzzyabduce (timed), a
check of its output against perfbench.reference (never timed), and, for the
traced run only, the public constituents of that call on the same inputs.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from fuzzyabduce import cli
from fuzzyabduce.abduction import (
    UNSOLVABLE,
    abduce_certainty,
    abduce_variation,
    check_solvability,
)
from fuzzyabduce.core import FuzzySet, Universe
from fuzzyabduce.inference import CERTAINTY, VARIATION, Rule, build_relation, gmp
from fuzzyabduce.operators import (
    RESIDUUM_FOR_TNORM,
    S_IMPLICATIONS,
    property_suite,
    residuum_oracle,
)
from fuzzyabduce.oracle import QuantizedSearch, enumerate_solutions, greatest_enumerated
from fuzzyabduce.workbench import (
    FAULT_COMPONENT,
    load_problem,
    render_report,
    report_as_dict,
    run_causal_scenario,
    run_fault_scenario,
)


@dataclass
class Op:
    kind: str
    span: str                        # name of the timed public call
    call: Callable[[], Any]
    check: Callable[[Any], None]     # raises reference.Mismatch
    # parts(out) -> [(span name, count, fn)]: constituents timed in the traced
    # run only, each fn making `count` calls on the operation's inputs
    parts: Callable[[Any], list]


# --- dense_grid ---------------------------------------------------------------

GRID = 1001
SAMPLE_POINTS = 3

ABDUCTION_COMBOS = (
    [(VARIATION, impl, t) for t, impl in sorted(RESIDUUM_FOR_TNORM.items())]
    + [(CERTAINTY, s, t) for s in ("reichenbach", "kleene_dienes", "lukasiewicz")
       for t in ("minimum", "product", "lukasiewicz")]
)


def _random_shape(rng, x: np.ndarray) -> np.ndarray:
    kind = rng.integers(3)
    if kind == 0:
        a, b, c = np.sort(rng.uniform(-0.2, 1.2, 3))
        return np.interp(x, [a, b, c], [0.0, 1.0, 0.0])
    if kind == 1:
        a, b, c, d = np.sort(rng.uniform(-0.2, 1.2, 4))
        return np.interp(x, [a, b, c, d], [0.0, 1.0, 1.0, 0.0])
    return np.exp(-(((x - rng.uniform(0, 1)) / rng.uniform(0.05, 0.4)) ** 2))


class DenseGrid:
    """Library calls on 1001 x 1001 grids: 12 abductions (every combination
    abduction accepts) and 4 forward inferences per cycle."""

    name = "dense_grid"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.u = Universe("u", np.linspace(0.0, 1.0, GRID))
        self.v = Universe("v", np.linspace(0.0, 1.0, GRID))
        x = self.u.grid
        self.specs = []
        abductions = iter(rng.permutation(len(ABDUCTION_COMBOS)))
        for slot in range(16):
            forward = slot % 4 == 3  # three operations in four are abductions
            pick = rng.integers(len(ABDUCTION_COMBOS)) if forward else next(abductions)
            combo = ABDUCTION_COMBOS[pick]
            a = _random_shape(rng, x)
            if rng.random() < 1 / 3:  # a floor above 0 lowers the column supremum
                floor = rng.uniform(0.05, 0.3)
                a = floor + (1.0 - floor) * a
            b = _random_shape(rng, x)
            given = _random_shape(rng, x) * rng.uniform(0.6, 1.0)
            rule = Rule(FuzzySet(self.u, a), FuzzySet(self.v, b), *combo)
            ui = rng.choice(GRID, SAMPLE_POINTS, replace=False)
            vi = rng.choice(GRID, SAMPLE_POINTS, replace=False)
            given_set = FuzzySet(self.u if forward else self.v, given)
            self.specs.append((forward, rule, given_set, ui, vi))

    def cycle(self) -> list[Op]:
        return [self._forward(*s[1:]) if s[0] else self._abduce(*s[1:]) for s in self.specs]

    def _forward(self, rule, a_prime, ui, vi) -> Op:
        def call():
            return gmp(build_relation(rule), a_prime, rule.tnorm)

        def check(image):
            a, b = rule.antecedent.mu, rule.consequent.mu
            for j in vi:
                want = ref.image_at(rule.tnorm, rule.implication, a_prime.mu, a, b[j])
                ref.expect(abs(image.mu[j] - want) <= 1e-12,
                           f"gmp image at v[{j}]: {image.mu[j]!r} != {want!r}")

        def parts(image):
            rel = build_relation(rule)
            return [("inference.build_relation", 1, lambda: build_relation(rule)),
                    ("inference.gmp", 1, lambda: gmp(rel, a_prime, rule.tnorm))]

        return Op("forward", "inference.build_relation+gmp", call, check, parts)

    def _abduce(self, rule, observed, ui, vi) -> Op:
        variation = rule.semantics == VARIATION
        if variation:
            def call():
                return abduce_variation(rule, observed)
        else:
            def call():
                return abduce_certainty(rule, observed, rule.tnorm)

        def check(result):
            a, b, o = rule.antecedent.mu, rule.consequent.mu, observed.mu
            deficit = ref.gate_deficit(rule.implication, a, b, o)
            unsolvable = max(deficit) > ref.TOL
            verdict = result.solvability.verdict
            ref.expect((verdict == UNSOLVABLE) == unsolvable,
                       f"{rule.implication}: verdict {verdict} but closed-form deficit "
                       f"is {max(deficit):.3g}")
            if unsolvable:
                w = result.solvability.witness
                j = int(np.argmin(np.abs(self.v.grid - w.point)))
                ref.expect(abs(deficit[j] - max(deficit)) <= 1e-12,
                           f"witness at v={w.point} is not a point of largest deficit")
            hyp = result.hypothesis.mu
            for i in ui:
                if variation:
                    want = ref.variation_hypothesis_at(rule.implication, a[i], b, o)
                else:
                    want = ref.certainty_hypothesis_at(rule.tnorm, rule.implication, a[i], b, o)
                ref.expect(abs(hyp[i] - want) <= 1e-12,
                           f"hypothesis at u[{i}]: {hyp[i]!r} != {want!r}")
            rt = result.roundtrip.reproduced.mu
            for j in vi:
                want = ref.image_at(rule.tnorm, rule.implication, hyp, a, b[j])
                ref.expect(abs(rt[j] - want) <= 1e-12,
                           f"round trip at v[{j}]: {rt[j]!r} != {want!r}")
            if variation:
                ref.expect(bool(np.all(rt <= o + ref.TOL)) and result.roundtrip.within_observation,
                           "round trip of the residual bound exceeds the observation")

        def parts(result):
            rel = build_relation(rule)
            return [("inference.build_relation", 1, lambda: build_relation(rule)),
                    ("abduction.check_solvability", 1, lambda: check_solvability(rel, observed)),
                    ("inference.gmp", 1, lambda: gmp(rel, result.hypothesis, rule.tnorm))]

        kind = "abduce_variation" if variation else "abduce_certainty"
        return Op(kind, f"abduction.{kind}", call, check, parts)


# --- cli_problems -----------------------------------------------------------

BUNDLED = Path(__file__).resolve().parent.parent / "src" / "fuzzyabduce" / "problems"

#: malformed problem files, derived from the bundled temperature problem; each
#: must exit 1 with an "error:" line. The first two currently escape as a
#: TypeError traceback and count as failed operations.
MALFORMED = {
    "levels_null": lambda p: p["task"].update(levels=None),
    "params_number": lambda p: p["sets"]["low"].update(params=5),
    "unknown_shape": lambda p: p["sets"]["low"].update(shape="hexagonal"),
    "knots_decreasing": lambda p: p["sets"]["medium"].update(params=[150, 100, 50]),
    "unknown_consequent": lambda p: p["rules"]["heat_persists"].update(consequent="scorching"),
    "bounds_reversed": lambda p: p["universes"][0].update(lo=300),
}


def _shape_spec(rng, lo: float, hi: float) -> dict:
    span = hi - lo
    kind = ("triangular", "trapezoidal", "gaussian")[rng.integers(3)]
    if kind == "gaussian":
        return {"shape": kind, "params": [round(lo + span * rng.uniform(0, 1), 4),
                                          round(span * rng.uniform(0.08, 0.4), 4)]}
    knots = np.sort(lo + span * rng.uniform(-0.1, 1.1, 3 if kind == "triangular" else 4))
    return {"shape": kind, "params": [round(float(k), 4) for k in knots]}


def generated_problem(rng, fault: bool) -> dict:
    """A problem at the default 101-point resolution: two cause universes,
    one effect universe, three rules and a scenario over all of them."""
    hi = float(rng.integers(5, 50))
    universes = [{"name": "cause_a", "lo": 0, "hi": 1}, {"name": "cause_b", "lo": 0, "hi": 1},
                 {"name": "effect", "lo": 0, "hi": hi}]
    sets, rules = {}, {}
    for i, cause in enumerate(("cause_a", "cause_b", "cause_a")):
        sets[f"c{i}"] = {"universe": cause, **_shape_spec(rng, 0.0, 1.0)}
        sets[f"e{i}"] = {"universe": "effect", **_shape_spec(rng, 0.0, hi)}
        if fault:
            impl = ("reichenbach", "kleene_dienes", "lukasiewicz")[rng.integers(3)]
            tnorm = ("minimum", "product", "lukasiewicz")[rng.integers(3)]
            semantics = CERTAINTY
        else:
            tnorm, impl = sorted(RESIDUUM_FOR_TNORM.items())[rng.integers(3)]
            semantics = VARIATION
        rules[f"r{i}"] = {"antecedent": f"c{i}", "consequent": f"e{i}",
                          "semantics": semantics, "implication": impl, "tnorm": tnorm}
    sets["hint"] = {"universe": "cause_a", **_shape_spec(rng, 0.0, 1.0)}
    sets["seen"] = {"universe": "effect", **_shape_spec(rng, 0.0, hi)}
    scenario = {"kind": FAULT_COMPONENT if fault else "causal_diagnosis",
                "rules": ["r0", "r1", "r2"], "observation": "reading"}
    if fault:
        scenario["match_threshold"] = 0.5
    return {"universes": universes, "sets": sets, "rules": rules,
            "observations": {"reading": "seen"},
            "task": {"kind": "scenario", "rule": "r0", "input": "reading",
                     "scenario": scenario}}


def _grid(spec: dict) -> np.ndarray:
    if "grid" in spec:
        return np.array(spec["grid"], dtype=float)
    return np.linspace(spec["lo"], spec["hi"], int(spec.get("points", 101)))


def _reference_sets(problem: dict) -> dict:
    grids = {u["name"]: _grid(u) for u in problem["universes"]}
    return {name: ref.sample_shape(s["shape"], s["params"], grids[s["universe"]])
            for name, s in problem["sets"].items()}


class CliProblems:
    """In-process cli.main calls on the bundled problems, seeded generated
    problems and malformed problem files, with stdout captured."""

    name = "cli_problems"
    GENERATED = 6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.work = workdir
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        self.columns = {}  # plotted curves by CSV path, for the scenario checks
        self.specs: list[tuple] = []  # (kind, argv, expected exit, file named, check)
        for path in sorted(BUNDLED.glob("*.json")):
            self._add_problem(path, json.loads(path.read_text()))
        for i in range(self.GENERATED):
            problem = generated_problem(rng, fault=i % 2 == 0)
            path = workdir / f"generated_{i}.json"
            path.write_text(json.dumps(problem, indent=2))
            self._add_problem(path, problem)
        base = json.loads((BUNDLED / "temperature.json").read_text())
        for name, mutate in MALFORMED.items():
            problem = json.loads(json.dumps(base))
            mutate(problem)
            path = workdir / f"malformed_{name}.json"
            path.write_text(json.dumps(problem, indent=2))
            self.specs.append(("malformed", ["abduce", "--problem", str(path)], 1, path, None))

    def _add_problem(self, path: Path, problem: dict) -> None:
        """Queue plot, then infer and both abduces (task.rule), then scenario."""
        stem, task = path.stem, problem.get("task", {})
        degrees = _reference_sets(problem)
        scenario = task.get("scenario")
        named = scenario["observation"] if scenario else task["input"]
        observed = problem["observations"].get(named, named)
        rule_names = list(scenario["rules"]) if scenario else [task["rule"]]
        plotted = list(dict.fromkeys(
            [observed] + [problem["rules"][r]["consequent"] for r in rule_names]))
        csv = self.work / f"{stem}.csv"
        self.specs.append(("plot", ["plot", "--problem", str(path), "--sets", ",".join(plotted),
                                    "--out", str(csv)], 0, csv,
                           lambda: self._check_plot(csv, plotted, len(degrees[observed]))))
        if "rule" in task:
            rule = problem["rules"][task["rule"]]
            cause = "hint" if "hint" in problem["sets"] else rule["antecedent"]
            out = self.work / f"{stem}.infer.json"
            self.specs.append(("infer", ["infer", "--problem", str(path), "--rule", task["rule"],
                                         "--input", cause, "--out", str(out)], 0, out,
                               lambda out=out: self._check_infer(out)))
            deficit = ref.gate_deficit(rule["implication"], degrees[rule["antecedent"]],
                                       degrees[rule["consequent"]], degrees[observed])
            unsolvable = max(deficit) > ref.TOL
            base = ["abduce", "--problem", str(path), "--rule", task["rule"],
                    "--observation", observed]
            for kind, extra, code in (("abduce", [], 2 if unsolvable else 0),
                                      ("abduce_bound", ["--bound"], 0)):
                out = self.work / f"{stem}.{kind}.json"
                self.specs.append((kind, base + extra + ["--out", str(out)], code, out,
                                   lambda out=out: self._check_abduce(out, unsolvable)))
        if scenario:
            out = self.work / f"{stem}.scenario.json"
            self.specs.append(("scenario", ["scenario", "--problem", str(path), "--out", str(out)],
                               0, out,
                               lambda out=out: self._check_scenario(out, csv, observed, problem)))

    def _check_plot(self, csv: Path, names: list, points: int) -> None:
        rows = _consume(csv).splitlines()
        ref.expect(rows[0] == "x," + ",".join(names), f"{csv.name}: header {rows[0]!r}")
        ref.expect(len(rows) == points + 1, f"{csv.name}: {len(rows) - 1} rows for {points} points")
        values = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
        ref.expect(bool(np.all((values[:, 1:] >= 0) & (values[:, 1:] <= 1))),
                   f"{csv.name}: degree outside [0, 1]")
        self.columns[csv] = dict(zip(names, values[:, 1:].T))

    @staticmethod
    def _check_infer(out: Path) -> None:
        image = json.loads(_consume(out))["image"]
        mu = np.array(image["mu"])
        ref.expect(len(mu) == len(image["grid"]) and bool(np.all((mu >= 0) & (mu <= 1))),
                   f"{out.name}: malformed image")

    @staticmethod
    def _check_abduce(out: Path, unsolvable: bool) -> None:
        verdict = json.loads(_consume(out))["result"]["solvability"]["verdict"]
        ref.expect((verdict == UNSOLVABLE) == unsolvable,
                   f"{out.name}: verdict {verdict}, closed form says unsolvable={unsolvable}")

    def _check_scenario(self, out: Path, csv: Path, observed: str, problem: dict) -> None:
        report = json.loads(_consume(out))
        columns = self.columns[csv]
        obs = columns[observed]
        entries = report["entries"]
        if report["kind"] == FAULT_COMPONENT:
            scores = [e["compatibility"] for e in entries]
            ref.expect(scores == sorted(scores, reverse=True), f"{out.name}: ranking {scores}")
            for e in entries:
                cons = columns[problem["rules"][e["rule"]]["consequent"]]
                want = float(np.max(np.minimum(obs, 1.0 - cons)))
                # the CSV holds 6 decimals, so each side may be off by 5e-7
                ref.expect(abs(e["compatibility"] - want) <= 1.01e-6,
                           f"{out.name}: {e['rule']} compatibility {e['compatibility']} "
                           f"!= {want} from the written grid")
        else:
            for e in entries:
                rt = e["result"]["roundtrip"]
                reproduced = np.array(rt["reproduced"]["mu"])
                ref.expect(rt["within_observation"] and bool(np.all(reproduced <= obs + 1.01e-6)),
                           f"{out.name}: bound for {e['rule']} exceeds the observation")

    def cycle(self) -> list[Op]:
        return [self._op(*s) for s in self.specs]

    def _op(self, kind, argv, code, target, check_file) -> Op:
        def call():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
            return rc, stdout.getvalue(), stderr.getvalue()

        def check(out):
            rc, stdout, stderr = out
            ref.expect(rc == code, f"{argv[0]} {target.name}: exit {rc}, expected {code}")
            if kind == "malformed":
                ref.expect(stderr.startswith("error: "), f"{target.name}: no error line")
            elif check_file is not None and rc == 0:
                check_file()

        def parts(out):
            problem_path = argv[argv.index("--problem") + 1]
            found = [("cli.build_parser", 1, cli.build_parser),
                     ("workbench.load_problem", 1, lambda: _load_quietly(problem_path))]
            if kind == "scenario":
                problem = load_problem(problem_path)
                config = problem.task.scenario
                run = run_fault_scenario if config.kind == FAULT_COMPONENT else run_causal_scenario
                report = run(problem, config)
                found += [("workbench.scenario", 1, lambda: run(problem, config)),
                          ("workbench.render", 1,
                           lambda: (render_report(report), report_as_dict(report)))]
            return found

        return Op(kind, "cli.main", call, check, parts)


def _load_quietly(path: str):
    try:
        return load_problem(path)
    except (ValueError, TypeError):  # the malformed files fail here by design
        return None


def _consume(path: Path) -> str:
    """Read an output file and remove it, so a later cycle cannot pass on a
    stale copy."""
    text = path.read_text()
    path.unlink()
    return text


# --- verify_bruteforce --------------------------------------------------------

LEVELS = 11
POINTS = 5
INSTANCES = 6
#: each rule kind draws a fixed pool of instances and keeps those whose exact
#: solution count is closest to the target, so that every seed asks the oracle
#: for about the same work and generating the inputs takes the same time
#: (a draw-until-accepted loop would make set-up time vary with the seed)
POOL = 128
TARGET_SOLUTIONS = 10_000
ORACLE_COMBOS = (("goedel", "minimum"), ("lukasiewicz", "lukasiewicz"))


class VerifyBruteforce:
    """oracle.enumerate_solutions on 5-point instances at 11 levels, and one
    check-ops run per cycle."""

    name = "verify_bruteforce"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        workdir.mkdir(parents=True, exist_ok=True)
        self.check_ops_out = workdir / "check_ops.json"
        self.u = Universe("u", np.linspace(0.0, 1.0, POINTS))
        self.v = Universe("v", np.linspace(0.0, 1.0, POINTS))
        levels = np.linspace(0.0, 1.0, LEVELS)
        picked = []
        for impl, tnorm in ORACLE_COMBOS:
            pool = []
            for _ in range(POOL):
                a, b, known = (rng.integers(0, LEVELS, POINTS) for _ in range(3))
                rel = ref.relation(impl, levels[a], levels[b])
                table = ref.level_table(tnorm, rel, LEVELS)
                observed = ref.images_of_levels(table, known[None, :])[0]
                bound = ref.residual_bound(tnorm, rel, observed)
                count = ref.count_solutions(table, bound, observed)
                pool.append((impl, tnorm, a, b, known, table, observed, bound, count))
            pool.sort(key=lambda draw: abs(draw[-1] - TARGET_SOLUTIONS))
            picked.append(pool[:INSTANCES // len(ORACLE_COMBOS)])
        self.instances = []
        for impl, tnorm, a, b, known, table, observed, bound, count in (
                draw for row in zip(*picked) for draw in row):  # rule kinds alternate
            rule = Rule(FuzzySet(self.u, levels[a]), FuzzySet(self.v, levels[b]),
                        VARIATION, impl, tnorm)
            self.instances.append((rule, build_relation(rule), FuzzySet(self.v, observed),
                                   known, table, bound, count))
        # the property suites' verdicts, from the scalar formulas
        self.symmetric = {s: ref.contrapositive_gap(s) <= ref.TOL for s in S_IMPLICATIONS}

    def cycle(self) -> list[Op]:
        return [self._enumerate(*inst) for inst in self.instances] + [self._check_ops()]

    def _enumerate(self, rule, relation, observed, known, table, bound, count) -> Op:
        search = QuantizedSearch(levels=LEVELS, max_points=POINTS)

        def call():
            return enumerate_solutions(relation, observed, rule.tnorm, search)

        def check(solutions):
            ref.expect(len(solutions) == count,
                       f"{len(solutions)} solutions, inclusion-exclusion counts {count}")
            mu = np.array([s.mu for s in solutions])
            idx = np.rint(mu * (LEVELS - 1)).astype(int)
            ref.expect(bool(np.any(np.all(idx == known, axis=1))), "known antecedent not found")
            images = ref.images_of_levels(table, idx)
            ref.expect(bool(np.all(np.abs(images - observed.mu) <= ref.TOL)),
                       "a solution does not reproduce the observation")
            program_bound = abduce_variation(rule, observed).hypothesis.mu
            ref.expect(bool(np.all(np.abs(program_bound - bound) <= 1e-12)),
                       "abduce_variation's bound differs from the residual bound")
            ref.expect(bool(np.all(mu <= program_bound + ref.TOL)), "a solution exceeds the bound")
            greatest = greatest_enumerated(solutions).mu
            ref.expect(bool(np.all(np.abs(greatest - program_bound) <= ref.TOL)),
                       "greatest enumerated solution differs from the residual bound")

        def parts(solutions):
            rows = [s.mu for s in solutions[:256]]
            return [("core.FuzzySet", len(rows), lambda: [FuzzySet(self.u, r) for r in rows])]

        return Op("enumerate", "oracle.enumerate_solutions", call, check, parts)

    def _check_ops(self) -> Op:
        out = self.check_ops_out
        argv = ["check-ops", "--out", str(out)]
        pairs = sorted(RESIDUUM_FOR_TNORM.items())

        def call():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv)
            return rc, stdout.getvalue()

        def check(result):
            rc, _ = result
            ref.expect(rc == 0, f"check-ops exit {rc}")
            payload = json.loads(_consume(out))
            reported = {s["implication"] for s in payload["suites"] if s["tnorm"] is None}
            ref.expect(reported == set(self.symmetric),
                       f"symmetry reported for {sorted(reported)}, not every s-implication")
            for suite in payload["suites"]:
                if suite["tnorm"] is not None:
                    ref.expect(suite["passed"], f"residuated {suite['implication']} fails "
                                                f"{suite['property']}")
                else:
                    want = self.symmetric[suite["implication"]]
                    ref.expect(suite["passed"] == want,
                               f"{suite['implication']} contrapositive symmetry: "
                               f"passed={suite['passed']}, formula says {want}")
            ref.expect(len(payload["residuum"]) == len(pairs)
                       and all(r["passed"] for r in payload["residuum"]),
                       "a closed-form residuum disagrees with the brute-force scan")

        def parts(result):
            return [
                ("operators.property_suite", 1, lambda: (
                    [property_suite(t, i, 21) for t, i in pairs]
                    + [property_suite(None, s, 21) for s in sorted(S_IMPLICATIONS)])),
                ("operators.residuum_oracle", 100,
                 lambda: [residuum_oracle("product", k / 99, 0.5, 1001) for k in range(100)]),
            ]

        return Op("check_ops", "cli.main", call, check, parts)


WORKLOADS = {w.name: w for w in (DenseGrid, CliProblems, VerifyBruteforce)}
