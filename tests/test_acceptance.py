"""Release gate: one test per acceptance criterion.

Each criterion gets exactly one test function so a verbose run prints one
pass/fail line per criterion. Randomized criteria use fixed seeds; stated
tolerances and time budgets are asserted, not assumed.
"""
import json
import time

import numpy as np
import pytest

from fuzzyabduce.abduction import (
    SOLVABLE_POSSIBLY,
    UNSOLVABLE,
    abduce_certainty,
    abduce_variation,
    check_solvability,
)
from fuzzyabduce.cli import main
from fuzzyabduce.core import FuzzySet, Universe, complement
from fuzzyabduce.inference import Rule, build_relation, gmp
from fuzzyabduce.operators import (
    CONTRAPOSITIVE_S,
    RESIDUUM_FOR_TNORM,
    TNORMS,
    implication_fn,
    property_suite,
)
from fuzzyabduce.oracle import QuantizedSearch, enumerate_solutions

from conftest import bundled_problem

MATCHED_PAIRS = sorted(RESIDUUM_FOR_TNORM.items())  # (t-norm, residuum) pairs


def universe(name, n):
    return Universe(name, np.arange(n, dtype=float))


def test_criterion_1_operator_property_suite():
    """All residuation laws pass for the three matched pairs; contrapositive
    symmetry passes for reichenbach/kleene-dienes/lukasiewicz and fails for
    zadeh with a recorded counterexample. 21-level grid, tolerance 1e-9, <1s."""
    start = time.perf_counter()
    for t_kind, impl_kind in MATCHED_PAIRS:
        report = property_suite(t_kind, impl_kind, 21)
        assert report.all_passed, (t_kind, impl_kind,
                                   [c.name for c in report.checks if not c.passed])
        assert len([c for c in report.checks if c.name != "contrapositive_symmetry"]) == 7
    for impl_kind in sorted(CONTRAPOSITIVE_S):
        report = property_suite(None, impl_kind, 21)
        assert all(c.passed for c in report.checks if c.name == "contrapositive_symmetry")
    zadeh = property_suite(None, "zadeh", 21)
    failed = [c for c in zadeh.checks if c.name == "contrapositive_symmetry"][0]
    assert not failed.passed and failed.worst is not None
    assert failed.worst.violation >= 0.5 - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"suite took {elapsed:.2f}s"


def test_criterion_2_residuum_closed_forms_match_oracle():
    """Closed-form residuated implications agree with a 1001-level brute-force
    scan within one quantization step across a 101x101 degree grid, <5s."""
    start = time.perf_counter()
    levels = 1001
    step = 1.0 / (levels - 1)
    ab = np.linspace(0.0, 1.0, 101)
    zs = np.linspace(0.0, 1.0, levels)
    for t_kind, impl_kind in MATCHED_PAIRS:
        t = TNORMS[t_kind]
        impl = implication_fn(impl_kind)
        worst = 0.0
        for a in ab:
            # largest quantized z with T(a, z) <= b, for every b at once
            feasible = np.where(t(a, zs)[None, :] <= ab[:, None], zs[None, :], 0.0)
            scanned = feasible.max(axis=1)
            closed = impl(a, ab)
            worst = max(worst, float(np.max(np.abs(scanned - closed))))
        assert worst <= step + 1e-9, (t_kind, impl_kind, worst)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.2f}s"


def test_criterion_3_forward_inference_coherence():
    """50 randomized variation rules with normalized antecedents reproduce
    their consequent exactly (within 1e-9) when fed their own antecedent."""
    rng = np.random.default_rng(20260818)
    for i in range(50):
        t_kind, impl_kind = MATCHED_PAIRS[i % 3]
        m = int(rng.integers(1, 102))
        n = int(rng.integers(1, 102))
        a = rng.random(m)
        a[rng.integers(0, m)] = 1.0
        b = rng.random(n)
        rule = Rule(FuzzySet(universe("u", m), a), FuzzySet(universe("v", n), b),
                    "variation", impl_kind, t_kind)
        image = gmp(build_relation(rule), rule.antecedent, t_kind)
        assert np.max(np.abs(image.mu - rule.consequent.mu)) <= 1e-9, (i, t_kind)


def test_criterion_4_residual_bound_dominates_every_exact_solution():
    """On 200+ small quantized instances, every exact solution found by
    exhaustive enumeration lies pointwise at or below the residual bound."""
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    levels = 11
    ticks = np.linspace(0.0, 1.0, levels)
    search = QuantizedSearch(levels=levels, max_points=3)
    total_solutions = 0
    instances_with_solutions = 0
    for i in range(200):
        t_kind, impl_kind = MATCHED_PAIRS[i % 3]
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        u, v = universe("u", m), universe("v", n)
        a = rng.choice(ticks, size=m)
        b = rng.choice(ticks, size=n)
        rule = Rule(FuzzySet(u, a), FuzzySet(v, b), "variation", impl_kind, t_kind)
        relation = build_relation(rule)
        if i % 2 == 0:
            # image of a random quantized antecedent: reachable up to snapping.
            # Snap by tick index so the observation reuses the exact floats the
            # relation holds; goedel jumps discontinuously at equality, and a
            # 1-ulp representation mismatch would make the bound meaningless.
            seed_input = FuzzySet(u, rng.choice(ticks, size=m))
            target = gmp(relation, seed_input, t_kind)
            b_prime = FuzzySet(v, ticks[np.round(target.mu * (levels - 1)).astype(int)])
        else:
            b_prime = FuzzySet(v, rng.choice(ticks, size=n))
        bound = abduce_variation(rule, b_prime).hypothesis.mu
        solutions = enumerate_solutions(relation, b_prime, t_kind, search)
        total_solutions += len(solutions)
        instances_with_solutions += bool(solutions)
        for s in solutions:
            assert np.all(s.mu <= bound + 1e-9), (i, t_kind, s.mu, bound)
    # the check must not pass vacuously
    assert total_solutions > 0 and instances_with_solutions >= 30
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"soundness sweep took {elapsed:.2f}s"


def test_criterion_5_bound_attains_equality_for_goedel_on_matching_observation():
    """50 randomized solvable goedel/minimum instances with the observation
    equal to the rule consequent: the bound's forward image gives it back."""
    rng = np.random.default_rng(5150)
    for i in range(50):
        m = int(rng.integers(1, 102))
        n = int(rng.integers(1, 102))
        a = rng.random(m)
        a[rng.integers(0, m)] = 1.0  # normalized antecedent keeps the gate open
        b = rng.random(n)
        rule = Rule(FuzzySet(universe("u", m), a), FuzzySet(universe("v", n), b),
                    "variation", "goedel", "minimum")
        b_prime = FuzzySet(universe("v", n), b)
        result = abduce_variation(rule, b_prime)
        assert result.solvability.verdict == SOLVABLE_POSSIBLY
        assert result.roundtrip.max_abs_residual <= 1e-9, i


def test_criterion_6_crisp_contraposition_recovers_the_negated_antecedent():
    """For every crisp rule on 2-4 point universes and every implication with
    contrapositive symmetry, observing the negated consequent returns exactly
    the negated antecedent — classical modus tollens, zero recovery residual.
    Consequents identically 1 are excluded: their negation is the empty
    observation, which abduces the empty hypothesis by design."""
    checked = 0
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            u, v = universe("u", m), universe("v", n)
            for a_bits in range(2 ** m):
                a = np.array([(a_bits >> k) & 1 for k in range(m)], dtype=float)
                for b_bits in range(2 ** n - 1):  # skip all-ones
                    b = np.array([(b_bits >> k) & 1 for k in range(n)], dtype=float)
                    for impl_kind in sorted(CONTRAPOSITIVE_S):
                        rule = Rule(FuzzySet(u, a), FuzzySet(v, b),
                                    "certainty", impl_kind, "minimum")
                        result = abduce_certainty(rule, complement(rule.consequent),
                                                  "minimum")
                        assert np.array_equal(result.hypothesis.mu, 1.0 - a), (
                            impl_kind, a, b, result.hypothesis.mu)
                        checked += 1
    assert checked == sum(2 ** m * (2 ** n - 1) * 3 for m in (2, 3, 4) for n in (2, 3, 4))


def test_criterion_7_solvability_gate_is_necessary_but_not_sufficient():
    """Whenever the gate says unsolvable the enumerator finds nothing; and one
    fixture passes the gate yet provably has no exact solution."""
    rng = np.random.default_rng(7)
    levels = 11
    ticks = np.linspace(0.0, 1.0, levels)
    search = QuantizedSearch(levels=levels, max_points=3)
    unsolvable_seen = 0
    for i in range(150):
        t_kind, impl_kind = MATCHED_PAIRS[i % 3]
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        u, v = universe("u", m), universe("v", n)
        # positive antecedent degrees keep relation columns below 1, so
        # demanding observations can actually violate the gate
        a = rng.choice(ticks[2:10], size=m)
        b = rng.choice(ticks[:8], size=n)
        rule = Rule(FuzzySet(u, a), FuzzySet(v, b), "variation", impl_kind, t_kind)
        relation = build_relation(rule)
        b_prime = FuzzySet(v, rng.choice(ticks[5:], size=n))
        verdict = check_solvability(relation, b_prime)
        if verdict.verdict == UNSOLVABLE:
            unsolvable_seen += 1
            assert verdict.witness is not None
            assert len(enumerate_solutions(relation, b_prime, t_kind, search)) == 0
    assert unsolvable_seen >= 10, "scan never hit an unsolvable instance"

    # converse failure: gate passes, yet a single antecedent point cannot
    # produce two different column demands
    u1, v2 = universe("u", 1), universe("v", 2)
    rule = Rule(FuzzySet(u1, [1.0]), FuzzySet(v2, [1.0, 0.6]),
                "variation", "goedel", "minimum")
    relation = build_relation(rule)
    b_prime = FuzzySet(v2, [0.3, 0.6])
    assert check_solvability(relation, b_prime).verdict == SOLVABLE_POSSIBLY
    assert len(enumerate_solutions(relation, b_prime, "minimum")) == 0


def test_criterion_8_cli_round_trips_are_deterministic_and_fast(capsys, tmp_path):
    """Both bundled scenario fixtures render byte-identical reports and CSV
    across repeated runs; infer/abduce/enumerate each finish within 1s."""
    def run(*argv):
        t0 = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 0
        return out, elapsed

    for fixture in ("circuit_fault.json", "causal_medical.json"):
        path = bundled_problem(fixture)
        outputs, payloads = [], []
        for attempt in (1, 2):
            json_path = tmp_path / f"{fixture}.{attempt}.json"
            out, _ = run("scenario", "--problem", path, "--out", str(json_path))
            outputs.append(out)
            payloads.append(json_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert payloads[0] == payloads[1]
        json.loads(payloads[0])  # machine-readable copy stays valid JSON

    temperature = bundled_problem("temperature.json")
    csv_runs = []
    for attempt in (1, 2):
        csv_path = tmp_path / f"curves.{attempt}.csv"
        run("plot", "--problem", temperature, "--sets", "low,medium,high",
            "--out", str(csv_path))
        csv_runs.append(csv_path.read_bytes())
    assert csv_runs[0] == csv_runs[1]

    for command in ("infer", "abduce", "enumerate"):
        out, elapsed = run(command, "--problem", temperature)
        assert out, command
        assert elapsed < 1.0, f"{command} took {elapsed:.2f}s"
