"""Acceptance gate: ten end-to-end criteria with frozen constants and
runtime budgets.

Each criterion times its own block, asserts at the stated tolerance, and
prints one pass/fail line; the lines are repeated in a summary section
at the end of the run.
"""

import contextlib
import io
import itertools
import time

import numpy as np
import pytest

from bellbox import (
    BellSetup,
    Scenario,
    Verdict,
    behavior_from_setup,
    canonicalize,
    chsh_functional,
    chsh_value,
    classify,
    derive_critical_inequality,
    efficiency_threshold,
    enumerate_facets,
    flat_index,
    lift_with_efficiency,
    local_bound,
    membership,
    mix,
    named_behavior,
    named_setup,
    no_signalling_defect,
    random_local_model,
    random_setup,
    relabellings,
    visibility_threshold,
)
from bellbox.cli import main as cli_main
from bellbox.fixtures import fixture_names, fixture_path
from bellbox.lp import LinearProgram, solve
from bellbox.polytope import BellFunctional, relabel_functional, strategy_matrix

from _certificate import verify_certificate
from _lp_cases import degenerate_cases

ROOT2 = float(np.sqrt(2.0))
CHSH_SCENARIO = Scenario.uniform(2, 2, 2)


@contextlib.contextmanager
def criterion(log, index, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        line = f"[FAIL] criterion {index:2d}: {label} ({elapsed:.2f}s)"
        log.append(line)
        print(line)
        raise
    elapsed = time.perf_counter() - start
    ok = budget is None or elapsed < budget
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {index:2d}: {label} ({elapsed:.2f}s)"
    log.append(line)
    print(line)
    if budget is not None:
        assert ok, f"runtime {elapsed:.2f}s exceeded the {budget:g}s budget"


def test_criterion_01_chsh_local_bound(acceptance_log):
    with criterion(acceptance_log, 1, "CHSH deterministic bound is exactly 2", 1.0):
        f = chsh_functional()
        # flat_index is the documented layout: (x, y) major, (a, b) minor
        positions = [flat_index(CHSH_SCENARIO, (x, y), (a, b))
                     for x, y, a, b in itertools.product(range(2), repeat=4)]
        assert positions == list(range(16))
        # each strategy's table one entry at a time, party-major and last
        # response fastest, the order local_bound's index counts in
        responses = list(itertools.product(range(2), repeat=2))
        tables = []
        for alice, bob in itertools.product(responses, responses):
            table = [0] * 16
            for x, y in itertools.product(range(2), repeat=2):
                table[flat_index(CHSH_SCENARIO, (x, y), (alice[x], bob[y]))] = 1
            tables.append(table)
        assert len(tables) == 16
        # integer-valued coefficients take the exact arithmetic path
        assert np.array_equal(np.rint(f.coeffs), f.coeffs)
        bound, argmax = local_bound(f)
        assert bound == 2.0
        # recompute with plain Python integers, no numpy involved
        values = [sum(int(c) * v for c, v in zip(f.coeffs, table)) for table in tables]
        assert max(values) == 2
        assert values[argmax] == 2


def test_criterion_02_tsirelson_value(acceptance_log):
    with criterion(acceptance_log, 2, "singlet CHSH value is 2*sqrt(2) within 1e-9", 1.0):
        value = chsh_value(behavior_from_setup(named_setup("singlet_chsh")))
        assert value == pytest.approx(2.0 * ROOT2, abs=1e-9)


def test_criterion_03_membership_soundness(acceptance_log):
    with criterion(acceptance_log, 3,
                   "membership: 200 local models reproduced within 1e-7; "
                   "singlet certificate violation 2*sqrt(2)-2 within 1e-6", 30.0):
        for seed in range(200):
            target = random_local_model(CHSH_SCENARIO, seed).behavior()
            res = membership(target)
            assert res.is_local
            gap = float(np.abs(res.model.behavior().probs - target.probs).max())
            assert gap <= 1e-7
        singlet = behavior_from_setup(named_setup("singlet_chsh"))
        res = membership(singlet)
        assert not res.is_local
        recomputed = res.functional.value(singlet) - res.functional.local_bound
        assert recomputed > 0.8
        assert recomputed == pytest.approx(2.0 * ROOT2 - 2.0, abs=1e-6)


def test_criterion_04_visibility_thresholds(acceptance_log):
    with criterion(acceptance_log, 4,
                   "visibility thresholds: singlet 0.7071068, PR box 0.5, "
                   "both within 1e-6", 10.0):
        noise = named_behavior("uniform")
        singlet = behavior_from_setup(named_setup("singlet_chsh"))
        res = visibility_threshold(singlet, noise)
        assert res.critical == pytest.approx(0.7071068, abs=1e-6)
        # the CHSH picture predicts the threshold 2/S independently
        assert res.critical == pytest.approx(2.0 / chsh_value(singlet), abs=1e-6)
        res = visibility_threshold(named_behavior("pr_box"), noise)
        assert res.critical == pytest.approx(0.5, abs=1e-6)


def test_criterion_05_efficiency_threshold(acceptance_log):
    with criterion(acceptance_log, 5,
                   "detection efficiency threshold 2/(1+sqrt(2)) within 1e-3", 60.0):
        setup = named_setup("singlet_chsh")
        # the no-click lift really is the 3-outcome scenario it bisects on
        assert lift_with_efficiency(setup.alice, 0.9).outcome_counts == (3, 3)
        lifted_scenario = Scenario.uniform(2, 2, 3)
        assert lifted_scenario.dimension == 36
        assert strategy_matrix(lifted_scenario).shape == (36, 81)
        res = efficiency_threshold(setup)
        assert res.critical == pytest.approx(0.8284, abs=1e-3)
        assert res.critical == pytest.approx(2.0 / (1.0 + ROOT2), abs=1e-3)


def test_criterion_06_facet_census(acceptance_log):
    with criterion(acceptance_log, 6,
                   "24 facets, 16 positivity + 8 CHSH, relabelling-closed; "
                   "certificates land in the set", 10.0):
        facets = enumerate_facets(CHSH_SCENARIO)
        assert len(facets) == 24
        keys = {f.key() for f in facets}
        assert len(keys) == 24
        perms = relabellings(CHSH_SCENARIO)
        assert len(perms) == 128

        # the two classes are exactly the orbits of one positivity facet
        # and of the CHSH functional
        e0 = np.zeros(16)
        e0[0] = -1.0
        positivity = canonicalize(BellFunctional(scenario=CHSH_SCENARIO, coeffs=e0))
        pos_orbit = {
            canonicalize(relabel_functional(positivity, p)).key() for p in perms
        }
        chsh = canonicalize(chsh_functional())
        chsh_orbit = {canonicalize(relabel_functional(chsh, p)).key() for p in perms}
        assert len(pos_orbit) == 16
        assert len(chsh_orbit) == 8
        assert not pos_orbit & chsh_orbit
        assert pos_orbit | chsh_orbit == keys

        for f in facets:
            for p in perms:
                assert canonicalize(relabel_functional(f, p)).key() in keys

        pr = named_behavior("pr_box")
        uniform = named_behavior("uniform")
        workload = [
            pr,
            behavior_from_setup(named_setup("singlet_chsh")),
            behavior_from_setup(named_setup("werner", 0.9)),
            mix([(0.75, pr), (0.25, uniform)]),
            mix([(0.9, pr), (0.1, uniform)]),
        ]
        for seed in range(5):
            local = random_local_model(CHSH_SCENARIO, 300 + seed).behavior()
            workload.append(mix([(0.8, pr), (0.2, local)]))
        for behavior in workload:
            assert derive_critical_inequality(behavior).key() in keys


def _one_party_marginal(behavior, party, x, a, remote):
    sc = behavior.scenario
    total = 0.0
    for joint in sc.joint_inputs():
        if joint[party] != x:
            continue
        if tuple(v for q, v in enumerate(joint) if q != party) != remote:
            continue
        for outs in sc.joint_outputs(joint):
            if outs[party] == a:
                total += behavior.prob(joint, outs)
    return total


def test_criterion_07_three_type_classification(acceptance_log):
    with criterion(acceptance_log, 7,
                   "pr_box weakly nonlocal, uniform local, signalling_demo "
                   "signalling with defect 1, witnesses verified", 5.0):
        pr = named_behavior("pr_box")
        c = classify(pr)
        assert c.verdict is Verdict.WEAKLY_NONLOCAL
        assert c.functional.violation(pr) > 0.0

        uniform = named_behavior("uniform")
        c = classify(uniform)
        assert c.verdict is Verdict.LOCAL
        assert float(np.abs(c.model.behavior().probs - uniform.probs).max()) <= 1e-7

        demo = named_behavior("signalling_demo")
        c = classify(demo)
        assert c.verdict is Verdict.SIGNALLING
        assert c.signalling.max_defect == pytest.approx(1.0, abs=1e-12)
        party, x, a, (ctx_hi, ctx_lo) = c.signalling.worst_marginal
        shift = (_one_party_marginal(demo, party, x, a, ctx_hi)
                 - _one_party_marginal(demo, party, x, a, ctx_lo))
        assert shift == pytest.approx(1.0, abs=1e-12)


def test_criterion_08_no_signalling_suite(acceptance_log):
    with criterion(acceptance_log, 8,
                   "500 seeded quantum setups all no-signalling within 1e-9", 60.0):
        dims_cycle = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (4, 4), (4, 3)]
        inputs_cycle = [(2, 2), (2, 2), (3, 2), (2, 3), (2, 2), (3, 3), (2, 2), (2, 2)]
        worst = 0.0
        for seed in range(500):
            k = seed % len(dims_cycle)
            setup = random_setup(seed, dims=dims_cycle[k], inputs=inputs_cycle[k])
            defect = no_signalling_defect(behavior_from_setup(setup)).max_defect
            worst = max(worst, defect)
        assert worst <= 1e-9


def _deepest_cut_lp(behavior):
    """max p.beta - gamma subject to beta.V_s <= gamma for every strategy
    s, with beta in [-1, 1]^d and gamma free, written over nonnegative
    variables: beta = c' - 1 with c' + s' = 2, gamma = gamma+ - gamma-,
    and a slack per strategy.  The objective drops the constant -sum(p)."""
    V = strategy_matrix(behavior.scenario)
    d, n = V.shape
    A = np.block([[V.T, -np.ones((n, 1)), np.ones((n, 1)), np.eye(n), np.zeros((n, d))],
                  [np.eye(d), np.zeros((d, 2 + n)), np.eye(d)]])
    b = np.concatenate([V.sum(axis=0), np.full(d, 2.0)])
    c = np.concatenate([behavior.probs, [-1.0, 1.0], np.zeros(n + d)])
    return LinearProgram(A=A, b=b, c=c)


def test_criterion_09_lp_self_verification(acceptance_log):
    with criterion(acceptance_log, 9,
                   "every LP outcome passes certificate verification; "
                   "degenerate set statuses exact", 60.0):
        pr = named_behavior("pr_box")
        uniform = named_behavior("uniform")
        workload = [
            uniform,
            pr,
            named_behavior("signalling_demo"),
            behavior_from_setup(named_setup("singlet_chsh")),
            behavior_from_setup(named_setup("werner", 0.6)),
            behavior_from_setup(named_setup("werner", 0.8)),
        ]
        workload += [mix([(w, pr), (1.0 - w, uniform)]) for w in (0.3, 0.5, 0.7)]
        workload += [random_local_model(CHSH_SCENARIO, seed).behavior()
                     for seed in range(20)]
        setup = named_setup("singlet_chsh")
        for eta in (0.80, 0.8284, 0.86):
            lifted = BellSetup(
                state=setup.state,
                alice=lift_with_efficiency(setup.alice, eta),
                bob=lift_with_efficiency(setup.bob, eta),
            )
            workload.append(behavior_from_setup(lifted))
        for behavior in workload:
            lp = _deepest_cut_lp(behavior)
            out = solve(lp)
            assert out.status == "optimal"
            assert verify_certificate(lp, out).ok

        for case in degenerate_cases():
            out = solve(case.lp)
            assert out.status == case.status, case.name
            if case.objective is not None:
                assert out.objective == pytest.approx(case.objective,
                                                      rel=1e-9, abs=1e-9)
            assert verify_certificate(case.lp, out).ok, case.name


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_10_cli_determinism(acceptance_log):
    with criterion(acceptance_log, 10,
                   "every verb emits byte-identical structured reports on "
                   "repeated runs", 120.0):
        def fx(name):
            return str(fixture_path(name))

        behaviors = ["uniform", "pr_box", "signalling_demo"]
        setups = ["singlet_chsh", "werner_0.60", "werner_0.80"]
        invocations = [["validate", "--format", "structured", fx(n)]
                       for n in fixture_names()]
        invocations += [["classify", "--format", "structured", fx(n)]
                        for n in behaviors + setups]
        invocations += [["membership", "--format", "structured", fx(n)]
                        for n in ("uniform", "pr_box")]
        invocations += [["derive-inequality", "--format", "structured", fx(n)]
                        for n in ("pr_box", "singlet_chsh")]
        invocations.append(["facets", "--format", "structured", fx("chsh_scenario")])
        invocations += [["chsh", "--format", "structured", fx(n)]
                        for n in ("pr_box", "singlet_chsh")]
        invocations += [["quantum", "--format", "structured", fx(n)] for n in setups]
        invocations.append(["quantum", "--format", "structured", "--seed", "7"])
        invocations.append(["threshold", "visibility", "--format", "structured",
                            "--tol", "1e-3", fx("werner_0.80"), fx("uniform")])
        invocations.append(["threshold", "efficiency", "--format", "structured",
                            "--tol", "1e-3", fx("singlet_chsh")])
        assert {argv[0] for argv in invocations} == {
            "validate", "classify", "membership", "derive-inequality",
            "facets", "chsh", "quantum", "threshold",
        }
        for argv in invocations:
            code_a, out_a, err_a = _run_cli(argv)
            code_b, out_b, err_b = _run_cli(argv)
            assert code_a == 0 and code_b == 0, argv
            assert out_a.encode() == out_b.encode(), argv
            assert err_a == "" and err_b == "", argv
