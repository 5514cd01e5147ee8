"""Command-line front end.

Exit codes: 0 on success, 1 on any validation error, 2 when an abduction
instance is unsolvable and the best-candidate bound was not requested.
"""
from __future__ import annotations

import argparse
import sys

from .abduction import UNSOLVABLE, abduce_certainty, abduce_variation
from .core import TOL
from .inference import CERTAINTY, build_relation, gmp
from .operators import RESIDUUM_FOR_TNORM, S_IMPLICATIONS, property_suite, residuum_gap
from .oracle import QuantizedSearch, enumerate_solutions, greatest_enumerated, snap_to_levels
from .workbench import (
    FAULT_COMPONENT,
    ProblemError,
    emit_plot_data,
    format_degrees,
    load_problem,
    render_report,
    report_as_dict,
    result_lines,
    run_causal_scenario,
    run_fault_scenario,
    write_json,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; keep 2 reserved for
    # the unsolvable-instance outcome
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser, needs_problem: bool = True) -> None:
    if needs_problem:
        sub.add_argument("--problem", required=True, help="path to a problem JSON file")
        sub.add_argument(
            "--grid-points", type=int, default=None,
            help="override the resolution of universes declared with lo/hi/points",
        )
    sub.add_argument("--out", default=None, help="write a machine-readable copy here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuzzyabduce", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("infer", help="forward inference through one rule")
    _add_common(p)
    p.add_argument("--rule", default=None, help="rule name (defaults to task.rule)")
    p.add_argument("--input", default=None, help="input set name (defaults to task.input)")
    p.set_defaults(func=cmd_infer)

    p = subs.add_parser("abduce", help="hypothesis for an observed conclusion")
    _add_common(p)
    p.add_argument("--rule", default=None)
    p.add_argument("--observation", default=None, help="observed set (defaults to task.input)")
    p.add_argument(
        "--bound", action="store_true",
        help="report the best-candidate bound even when the instance is unsolvable "
             "(otherwise unsolvable instances exit with code 2)",
    )
    p.set_defaults(func=cmd_abduce)

    p = subs.add_parser("enumerate", help="brute-force all quantized exact solutions")
    _add_common(p)
    p.add_argument("--rule", default=None)
    p.add_argument("--observation", default=None)
    p.add_argument("--levels", type=int, default=None,
                   help=f"quantization levels (default {QuantizedSearch.levels})")
    p.add_argument("--max-points", type=int, default=QuantizedSearch.max_points)
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("check-ops", help="run the operator property suite")
    _add_common(p, needs_problem=False)
    p.add_argument("--levels", type=int, default=21,
                   help="property grid levels (default %(default)s)")
    p.set_defaults(func=cmd_check_ops)

    p = subs.add_parser("scenario", help="run the scenario configured in the problem file")
    _add_common(p)
    p.set_defaults(func=cmd_scenario)

    p = subs.add_parser("plot", help="emit overlay curves as CSV")
    _add_common(p)
    p.add_argument("--sets", required=True, help="comma-separated set names")
    p.set_defaults(func=cmd_plot)

    return parser


def _rule_and_set(problem, rule_name, set_name, what: str):
    """The rule and the set named on the command line, each falling back to
    the task section's rule and input; returns both names and both objects."""
    rule_name = problem.task.rule if rule_name is None else rule_name
    set_name = problem.task.input if set_name is None else set_name
    for name, label in ((rule_name, "rule"), (set_name, what)):
        if name is None:
            raise ProblemError(f"no {label} given on the command line or in the task section")
    if rule_name not in problem.rules:
        raise ProblemError(f"unknown rule {rule_name!r}")
    return rule_name, problem.rules[rule_name], set_name, problem.resolve_set(set_name)


def cmd_infer(args, problem):
    rule_name, rule, input_name, a_prime = _rule_and_set(problem, args.rule, args.input,
                                                         "input set")
    image = gmp(build_relation(rule), a_prime, rule.tnorm)
    text = (f"rule: {rule_name}\n"
            f"input on {a_prime.universe.name}: {format_degrees(a_prime.mu)}\n"
            f"image on {image.universe.name}: {format_degrees(image.mu)}\n")
    return 0, text, {"rule": rule_name, "input": input_name, "image": report_as_dict(image)}


def cmd_abduce(args, problem):
    rule_name, rule, obs_name, observed = _rule_and_set(problem, args.rule, args.observation,
                                                        "observation")
    if rule.semantics == CERTAINTY:
        result = abduce_certainty(rule, observed, rule.tnorm)
    else:
        result = abduce_variation(rule, observed)
    hypothesis, solvability, roundtrip = result_lines(result, "")
    text = (f"rule: {rule_name}  scheme: {result.scheme}\n"
            f"observation on {observed.universe.name}: {format_degrees(observed.mu)}\n"
            f"{solvability}\n")
    if result.solvability.verdict == UNSOLVABLE and not args.bound:
        text += "no exact hypothesis exists; rerun with --bound for the best candidate\n"
        return 2, text, None
    return 0, f"{text}{hypothesis}\n{roundtrip}\n", {
        "rule": rule_name, "observation": obs_name, "result": report_as_dict(result)}


def cmd_enumerate(args, problem):
    rule_name, rule, obs_name, observed = _rule_and_set(problem, args.rule, args.observation,
                                                        "observation")
    levels = args.levels if args.levels is not None else (
        problem.task.levels or QuantizedSearch.levels)
    search = QuantizedSearch(levels=levels, max_points=args.max_points)

    relation = build_relation(rule)
    # enumerate first: its candidate limit rejects a level count too large for a float
    solutions = enumerate_solutions(relation, observed, rule.tnorm, search)
    matrix = solutions.matrix
    _, snap_distance = snap_to_levels(observed.mu, levels)
    lines = []
    if snap_distance > TOL:
        lines.append(f"observation snapped to the {levels}-level grid "
                     f"(largest shift {snap_distance:.6f})")
    lines.append(f"exact solutions at {levels} levels: {len(matrix)}")
    shown = matrix[:20]
    for row in shown:
        lines.append(f"  {format_degrees(row)}")
    if len(matrix) > len(shown):
        lines.append(f"  ... and {len(matrix) - len(shown)} more")
    greatest = greatest_enumerated(solutions)
    if greatest is not None:
        lines.append(f"greatest solution: {format_degrees(greatest.mu)}")
    return 0, "\n".join(lines) + "\n", {
        "rule": rule_name,
        "observation": obs_name,
        "levels": levels,
        "snap_distance": snap_distance,
        "solutions": matrix.tolist(),
        "greatest": None if greatest is None else greatest.mu.tolist(),
    }


_ORACLE_LEVELS = 1001
_ORACLE_GRID = 101


def cmd_check_ops(args, problem):
    levels = args.levels
    payload: dict = {"grid_levels": levels, "suites": [], "residuum": []}
    lines = [f"property suite (grid levels: {levels})"]
    for t, i in sorted(RESIDUUM_FOR_TNORM.items()):
        report = property_suite(t, i, levels)
        lines.append(f"{report.tnorm}/{report.implication}:")
        _suite_lines(report, lines, payload)
    lines.append("s-implications (contrapositive symmetry):")
    for impl_name in sorted(S_IMPLICATIONS):
        # without a t-norm the suite runs the symmetry check alone
        _suite_lines(property_suite(None, impl_name, levels), lines, payload)
    lines.append(f"residuum agreement (closed form vs {_ORACLE_LEVELS}-level scan, "
                 f"{_ORACLE_GRID}x{_ORACLE_GRID} grid):")
    step = 1.0 / (_ORACLE_LEVELS - 1)
    for t_name, impl_name in sorted(RESIDUUM_FOR_TNORM.items()):
        gap = residuum_gap(t_name, impl_name, _ORACLE_GRID, _ORACLE_LEVELS)
        ok = gap <= step + TOL
        lines.append(f"  {'PASS' if ok else 'FAIL'} {t_name}/{impl_name} "
                     f"max gap {gap:.6f} (tolerance {step:.6f})")
        payload["residuum"].append(
            {"tnorm": t_name, "implication": impl_name, "max_gap": gap, "passed": ok}
        )
    return 0, "\n".join(lines) + "\n", payload


def _suite_lines(report, lines: list, payload: dict) -> None:
    # the s-implications' suites share one heading, so each line names its own
    label = "" if report.tnorm else f"{report.implication} "
    for check in report.checks:
        if check.passed:
            lines.append(f"  PASS {label}{check.name} ({check.cases} cases)")
        else:
            w = check.worst
            at = ", ".join(f"{v:.6f}" for v in w.args)
            lines.append(f"  FAIL {label}{check.name} ({check.cases} cases) worst at ({at}): "
                         f"lhs={w.lhs:.6f} rhs={w.rhs:.6f} violation={w.violation:.6f}")
        payload["suites"].append({
            "tnorm": report.tnorm,
            "implication": report.implication,
            "property": check.name,
            "passed": check.passed,
            "cases": check.cases,
        })


def cmd_scenario(args, problem):
    if problem.task.scenario is None:
        raise ProblemError("the problem file has no task.scenario section")
    config = problem.task.scenario
    # ScenarioConfig admits no other scenario kind
    run = run_fault_scenario if config.kind == FAULT_COMPONENT else run_causal_scenario
    report = run(problem, config)
    return 0, render_report(report), report_as_dict(report)


def cmd_plot(args, problem):
    if args.out is None:
        raise ProblemError("plot needs --out for the CSV path")
    names = [n.strip() for n in args.sets.split(",") if n.strip()]
    if not names:
        raise ProblemError("plot needs at least one set name in --sets")
    named = []
    for name in names:
        named.append((name, problem.resolve_set(name)))
    emit_plot_data(named, args.out)
    return 0, f"wrote {args.out}\n", None


def main(argv=None) -> int:
    """Each cmd_* takes the arguments and the loaded problem (None for
    check-ops) and returns (exit code, stdout text, --out payload or None).
    The payload is written before stdout, so an exit 1 leaves stdout empty."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        problem = load_problem(args.problem, args.grid_points) if "problem" in args else None
        code, text, payload = args.func(args, problem)
        if payload is not None:
            write_json(args.out, payload)
        print(text, end="")
        return code
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
