"""Classification, inequality derivation, and critical-parameter search.

Frozen expectations: the singlet CHSH score is 2*sqrt(2); its visibility
threshold against white noise is 1/sqrt(2) and its detection-efficiency
threshold is 2/(1 + sqrt(2)); the box that wins the CHSH game with
certainty scores 4 and tolerates noise down to weight 1/2.  Membership
verdicts are cross-checked against an external feasibility solver.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from bellbox import Scenario, mix, named_behavior, validate_behavior
from bellbox.analysis import (
    MODEL_TOL,
    Classification,
    ThresholdResult,
    Verdict,
    _decide,
    _decision,
    _distance_program,
    _solved,
    chsh_value,
    classify,
    derive_critical_inequality,
    efficiency_threshold,
    membership,
    visibility_threshold,
)
from bellbox.errors import SizeCapError, StalledError, ValidationError
from bellbox.lp import LinearProgram, LpOutcome, _Simplex, _Start, _solve_then_maximize, solve
from bellbox.polytope import _relabelling_count, random_local_model, relabellings, strategy_matrix
from bellbox.quantum import (
    BellSetup,
    MeasurementSet,
    behavior_from_setup,
    lift_with_efficiency,
    named_setup,
    random_setup,
    spin_projectors,
)
from bellbox.tolerances import DEFAULT_TOL
from _certificate import verify_certificate
from test_no_signalling import _pr_box_on_pair

ROOT2 = float(np.sqrt(2.0))
CHSH_MAX = 2.0 * ROOT2
CHSH = Scenario.uniform(2, 2, 2)


def chsh_integer_key():
    """The CHSH facet written over raw probabilities: coefficient
    (-1)^(a+b) on every block, negated on the (1,1) block; bound 2."""
    ints = [0] * 16
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    sign = -1 if (x, y) == (1, 1) else 1
                    parity = 1 if a == b else -1
                    ints[(2 * x + y) * 4 + 2 * a + b] = sign * parity
    return tuple(ints), 2


def scipy_is_local(behavior):
    """Independent membership oracle: feasibility of V q = p, sum q = 1."""
    V = strategy_matrix(behavior.scenario)
    A = np.vstack([V, np.ones(V.shape[1])])
    b = np.concatenate([behavior.probs, [1.0]])
    res = linprog(np.zeros(V.shape[1]), A_eq=A, b_eq=b,
                  bounds=[(0, None)] * V.shape[1], method="highs")
    return res.status == 0


def lifted(setup, eta):
    return BellSetup(state=setup.state,
                     alice=lift_with_efficiency(setup.alice, eta),
                     bob=lift_with_efficiency(setup.bob, eta))


# -- CHSH score --------------------------------------------------------------

def test_chsh_value_singlet():
    beh = behavior_from_setup(named_setup("singlet_chsh"))
    assert chsh_value(beh) == pytest.approx(CHSH_MAX, abs=1e-9)


def test_chsh_value_pr_box():
    assert chsh_value(named_behavior("pr_box")) == pytest.approx(4.0, abs=1e-12)


def test_chsh_value_uniform():
    assert chsh_value(named_behavior("uniform")) == pytest.approx(0.0, abs=1e-12)


def test_chsh_value_deterministic():
    vec = np.zeros(16)
    vec[[0, 4, 8, 12]] = 1.0  # always output (0, 0)
    beh = validate_behavior(CHSH, vec)
    assert chsh_value(beh) == pytest.approx(2.0, abs=1e-12)


def test_chsh_value_requires_exact_shape():
    for sc in (Scenario.uniform(2, 3, 2), Scenario.uniform(2, 2, 3),
               Scenario.uniform(3, 2, 2)):
        with pytest.raises(ValidationError):
            chsh_value(named_behavior("uniform", sc))


# -- membership --------------------------------------------------------------

def test_membership_uniform_is_local():
    res = membership(named_behavior("uniform"))
    assert res.is_local
    assert res.functional is None and res.violation is None
    rebuilt = res.model.behavior()
    np.testing.assert_allclose(rebuilt.probs, 0.25, atol=1e-7)


@pytest.mark.parametrize("seed", range(25))
def test_membership_reproduces_random_local_models(seed):
    beh = random_local_model(CHSH, seed=seed).behavior()
    res = membership(beh)
    assert res.is_local
    gap = float(np.abs(res.model.behavior().probs - beh.probs).max())
    assert gap <= 1e-7


# (local dims, inputs per party) of the random quantum tables, keyed by
# the scenario (parties, inputs, outputs); each setup seed list holds a
# local and a nonlocal table
ORACLE_SCENARIOS = {
    "232": ((2, 2), (3, 3), (0, 2)),
    "223": ((3, 3), (2, 2), (0, 206)),
    "242": ((2, 2), (4, 4), (0, 1)),
    "233": ((3, 3), (3, 3), (0, 5)),
}
ORACLE_CASES = [pytest.param("chsh", seed, id=str(seed)) for seed in range(20)] + [
    pytest.param(label, seed, id=f"{label}-{seed}")
    for label, (_, _, seeds) in ORACLE_SCENARIOS.items()
    for seed in seeds
]


def oracle_behavior(label, seed):
    """CHSH: the PR box over a random local model.  Otherwise: a random
    quantum table over white noise, at a weight drawn from the seed."""
    rng = np.random.default_rng(900 + seed)
    if label == "chsh":
        w = float(rng.uniform(0.30, 0.90))
        noise = random_local_model(CHSH, seed=seed).behavior()
        return mix([(w, named_behavior("pr_box")), (1.0 - w, noise)])
    dims, inputs, _ = ORACLE_SCENARIOS[label]
    w = float(rng.uniform(0.90, 1.0))
    beh = behavior_from_setup(random_setup(seed, dims, inputs))
    return mix([(w, beh), (1.0 - w, named_behavior("uniform", beh.scenario))])


@pytest.mark.parametrize(("label", "seed"), ORACLE_CASES)
def test_membership_agrees_with_external_solver(label, seed):
    beh = oracle_behavior(label, seed)
    res = membership(beh)
    assert res.is_local == scipy_is_local(beh)
    V = strategy_matrix(beh.scenario)
    if res.is_local:
        assert float(np.abs(V @ res.model.weights - beh.probs).max()) <= 1e-7
    else:
        c = res.functional.coeffs
        assert float(c @ beh.probs) - float((c @ V).max()) > 0.0


def test_membership_pr_box_certificate():
    pr = named_behavior("pr_box")
    res = membership(pr)
    assert not res.is_local
    assert res.model is None
    f = res.functional
    assert f.key() == chsh_integer_key()
    assert res.violation == pytest.approx(2.0, abs=1e-9)
    # bound really is the deterministic maximum
    values = f.coeffs @ strategy_matrix(CHSH)
    assert float(values.max()) == pytest.approx(f.local_bound, abs=1e-12)
    assert f.value(pr) - f.local_bound == pytest.approx(res.violation, abs=1e-12)


def test_membership_singlet_certificate():
    beh = behavior_from_setup(named_setup("singlet_chsh"))
    res = membership(beh)
    assert not res.is_local
    f = res.functional
    assert f.key() == chsh_integer_key()
    assert f.value(beh) == pytest.approx(CHSH_MAX, abs=1e-9)
    assert res.violation == pytest.approx(CHSH_MAX - 2.0, abs=1e-6)


def test_membership_werner_family():
    assert membership(behavior_from_setup(named_setup("werner", 0.6))).is_local
    res = membership(behavior_from_setup(named_setup("werner", 0.8)))
    assert not res.is_local
    assert res.violation == pytest.approx(0.8 * CHSH_MAX - 2.0, abs=1e-6)


def test_membership_of_signalling_behavior():
    """Signalling tables are outside the local polytope too; the returned
    inequality, their marginal shift, must keep its violation on the
    table as given."""
    beh = named_behavior("signalling_demo")
    res = membership(beh)
    assert not res.is_local
    f = res.functional
    assert res.violation > 1e-6
    assert f.value(beh) - f.local_bound == pytest.approx(res.violation, abs=1e-12)
    values = f.coeffs @ strategy_matrix(CHSH)
    assert float(values.max()) == pytest.approx(f.local_bound, abs=1e-9)


def test_membership_on_lifted_scenario():
    beh = behavior_from_setup(lifted(named_setup("singlet_chsh"), 0.9))
    res = membership(beh)
    assert not res.is_local
    f = res.functional
    assert res.violation > 1e-6
    values = f.coeffs @ strategy_matrix(beh.scenario)
    assert float(values.max()) == pytest.approx(f.local_bound, abs=1e-9)
    assert f.value(beh) - f.local_bound == pytest.approx(res.violation, abs=1e-12)


def test_membership_tolerance_is_respected():
    pr = named_behavior("pr_box")
    barely = mix([(0.5 + 1e-12, pr), (0.5 - 1e-12, named_behavior("uniform"))])
    assert membership(barely, tol=1e-6).is_local


@pytest.mark.parametrize("decide", [classify, membership, derive_critical_inequality])
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
def test_decisions_refuse_a_bad_tolerance(decide, tol, monkeypatch):
    """A NaN tol used to reach the simplex and end in an internal failure
    (StalledError, exit 3); a caller's bad tol is a validation error."""
    import bellbox.analysis as analysis

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the tolerance was checked")

    monkeypatch.setattr(analysis, "solve", no_solve)
    with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
        decide(named_behavior("pr_box"), tol=tol)


@pytest.mark.parametrize("strategy", [0, 17, 100, 255])
def test_membership_pivot_budget_on_242(monkeypatch, strategy):
    """A deterministic strategy under 40% white noise on (2,4,2), a 65x384
    distance program.  Each of these takes 3 pivots (9, 9, 7 and 9 under
    the plain ratio test); the budget fails if pricing or the starting
    basis regresses to smallest-index pricing from all artificials,
    which takes 340-809."""
    import bellbox.analysis as analysis

    pivots = []

    def counting(*args, _original=analysis.solve, **kwargs):
        out = _original(*args, **kwargs)
        pivots.append(out.iterations)
        return out

    monkeypatch.setattr(analysis, "solve", counting)
    sc = Scenario.uniform(2, 4, 2)
    V = strategy_matrix(sc)
    probs = 0.6 * V[:, strategy] + 0.4 * named_behavior("uniform", sc).probs
    assert membership(validate_behavior(sc, probs)).is_local
    assert len(pivots) == 1 and pivots[0] <= 200


def noisy_strategy_242(strategy, noise):
    sc = Scenario.uniform(2, 4, 2)
    V = strategy_matrix(sc)
    probs = (1.0 - noise) * V[:, strategy] + noise * named_behavior("uniform", sc).probs
    return sc, probs


def solve_distance(scenario, probs):
    """``solve`` of a table's distance program from the start it comes with."""
    lp, start = _distance_program(scenario, probs)
    return solve(lp, start=start)


def test_local_242_distance_programs_stop_at_zero_distance():
    """Twelve local (2,4,2) tables, each one deterministic strategy under
    white noise.  The simplex stops at the first vertex at distance 0:
    36 pivots in all (102 under the plain ratio test).  Pricing on to
    dual feasibility, as if a zero distance were not already optimal,
    takes 322."""
    total = 0
    for strategy in (0, 17, 100, 255):
        for noise in (0.3, 0.4, 0.6):
            out = solve_distance(*noisy_strategy_242(strategy, noise))
            assert out.status == "optimal" and out.objective <= 1e-9
            total += out.iterations
    assert total <= 150


@pytest.mark.parametrize(("seed", "pivots"), [(1, 56), (2, 46)])
def test_nonlocal_242_distance_program_pivots_are_pinned(seed, pivots):
    """A nonlocal table never reaches the floor, so its pivots are those
    of the pricing rule and the ratio test alone; a change to either
    shows here.  The plain ratio test takes 93 and 69."""
    beh = behavior_from_setup(random_setup(seed=seed, dims=(2, 2), inputs=(4, 4)))
    out = solve_distance(beh.scenario, beh.probs)
    assert out.objective > 0.2
    assert out.iterations == pivots


def _seeded_table(kind: str, inputs: int, seed: int) -> tuple[Scenario, np.ndarray]:
    """A two-party qubit table of ``random_setup``, a ``random_local_model``
    table, or, for three parties, a 0.9 pair-PR box with white noise."""
    if kind == "setup":
        beh = behavior_from_setup(random_setup(seed=seed, dims=(2, 2), inputs=(inputs, inputs)))
        return beh.scenario, beh.probs
    sc = Scenario.uniform(3 if kind.startswith("three") else 2, inputs, 2)
    if kind.endswith("local"):
        return sc, random_local_model(sc, seed).behavior().probs
    box = _pr_box_on_pair(np.random.default_rng(seed), 2)
    return sc, 0.9 * box + 0.1 / 8


@pytest.mark.parametrize(("kind", "inputs", "seed", "iterations"), [
    ("setup", 3, 1, 42), ("setup", 3, 2, 28), ("local", 3, 1, 15),
    ("three-pr", 2, 1, 29), ("three-pr", 2, 2, 37), ("three-local", 2, 1, 26),
    ("setup", 4, 3, 44), ("local", 4, 1, 28),
])
def test_distance_program_iterations_are_pinned(kind, inputs, seed, iterations):
    """Per-solve iteration counts of seeded (2,3,2), (3,2,2) and (2,4,2)
    distance programs, local and nonlocal; a change to the pricing rule,
    the ratio test or their arithmetic shows here."""
    sc, probs = _seeded_table(kind, inputs, seed)
    out = solve_distance(sc, probs)
    assert out.status == "optimal"
    assert out.iterations == iterations


def visibility_lp(V, p, q):
    """The visibility program in its own variables (w, v): minimize -v
    subject to V w - v (p - q) = q and sum(w) = 1."""
    d, n = V.shape
    A = np.zeros((d + 1, n + 1))
    A[:d, :n] = V
    A[:d, n] = q - p
    A[d, :n] = 1.0
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    return LinearProgram(A=A, b=np.append(q, 1.0), c=cost)


def staged_visibility(p, q, scenario):
    """Both outcomes of the noise's distance program continued toward p."""
    lp, start = _distance_program(scenario, q, toward=p)
    return _solve_then_maximize(lp, lp.shape[1] - 1, start)


@pytest.mark.parametrize(("target", "iterations"), [("pr_box", 11), ("singlet", 11)])
def test_chsh_visibility_program_iterations_are_pinned(target, iterations):
    """The uniform table's distance program continued to the visibility
    optimum: v* is 1/2 for the PR box and 1/sqrt(2) for the singlet.
    The count takes in both stages: the noise's 3 pivots, the slacks
    driven out, and the maximization of v."""
    p = (named_behavior("pr_box") if target == "pr_box"
         else behavior_from_setup(named_setup("singlet_chsh"))).probs
    first, out = staged_visibility(p, named_behavior("uniform").probs, CHSH)
    assert first.iterations == 3
    assert out.status == "optimal"
    assert -out.objective == pytest.approx(0.5 if target == "pr_box" else 1.0 / ROOT2, abs=1e-9)
    assert out.iterations == iterations


def test_distance_program_stays_primal_feasible_on_323_mixture():
    """A (3,2,3) mixture of deterministic strategies whose degenerate
    solve meets a pivot of 1.5e-10 over a basic value of -7e-16.  Taking
    that pivot stepped by -4.6e-6 and left basic weights near -0.011, an
    'optimal' distance of -0.069 and a model that missed the table by
    0.016.  The ratio test refuses pivots below 1e-9 of their column's
    largest entry."""
    sc = Scenario.uniform(3, 2, 3)
    V = strategy_matrix(sc)
    rng = np.random.default_rng(1034)
    beh = validate_behavior(sc, V @ rng.dirichlet(np.full(V.shape[1], 0.2)))
    out = solve_distance(beh.scenario, beh.probs)
    assert out.status == "optimal"
    assert out.x.min() >= -1e-12
    assert abs(out.objective) <= 1e-9
    is_local, weights = _decide(beh)
    assert is_local
    assert np.abs(V @ weights - beh.probs).max() <= MODEL_TOL


def perturbed_323_pr_box(seed):
    """A (3,2,3) PR box on a random pair mixed with 1e-10 to 1e-8 of a
    random table."""
    rng = np.random.default_rng(seed)
    box = _pr_box_on_pair(rng, 3)
    eps = 10 ** rng.uniform(-10, -8)
    p = (1 - eps) * box + eps * rng.dirichlet(np.ones(27), size=8).reshape(-1)
    return validate_behavior(Scenario.uniform(3, 2, 3), p)


@pytest.mark.parametrize("seed", [6, 53])
def test_perturbed_323_pr_box_is_decided_far_below_the_pivot_cap(seed):
    """Nearly every pivot on a perturbed (3,2,3) PR box is degenerate at
    the scale of the perturbation: pricing by the most negative reduced
    cost took 8,556 pivots on seed 6 and passed the 10,000 cap on seed
    53.  Steepest-edge pricing took 271 and 691 under the plain ratio
    test; with long steps across the slack pairs it takes 90 and 128."""
    beh = perturbed_323_pr_box(seed)
    V = strategy_matrix(beh.scenario)
    out = solve_distance(beh.scenario, beh.probs)
    assert out.status == "optimal"
    assert out.iterations <= 400
    is_local, cut = _decide(beh)  # raises unless the cut passes its recheck
    assert not is_local
    assert cut @ beh.probs > (cut @ V).max()


def test_bland_rule_does_not_dominate_the_perturbed_323_pr_box(monkeypatch):
    """Under the plain ratio test the simplex stopped at every zero slack
    of seed 168's perturbed PR box, and after 50 such degenerate pivots in
    a row Bland's smallest index chose 2,158 of its 2,402 entering
    columns.  Long steps carry the slacks through zero to their mates:
    146 pivots, 43 of them Bland's."""
    chosen = {True: 0, False: 0}

    def counting(self, steepest, _original=_Simplex._entering):
        j = _original(self, steepest)
        if j is not None:
            chosen[steepest] += 1
        return j

    monkeypatch.setattr(_Simplex, "_entering", counting)
    beh = perturbed_323_pr_box(168)
    out = solve_distance(beh.scenario, beh.probs)
    assert out.status == "optimal" and out.objective > 3.9
    assert out.iterations <= 500
    assert chosen[False] <= 250


def test_loose_tolerance_keeps_the_model_within_model_tol():
    """With tol = 1e-3 the decision accepts distances up to 1e-3, but the
    simplex still stops only within the default tol of distance 0, so the
    model of a local table passes its MODEL_TOL recheck.  A solve at the
    loose tol stops here at distance 1.75e-4."""
    sc = Scenario.uniform(2, 4, 2)
    V = strategy_matrix(sc)
    rng = np.random.default_rng(25)
    k = int(rng.integers(2, 12))
    idx = rng.choice(V.shape[1], k, replace=False)
    weights = rng.dirichlet(np.ones(k))
    noise = rng.uniform(0.0, 0.3)
    probs = (1.0 - noise) * V[:, idx] @ weights + noise * V.mean(axis=1)
    is_local, model = _decide(validate_behavior(sc, probs), tol=1e-3)
    assert is_local
    assert float(np.abs(V @ model - probs).max()) <= MODEL_TOL


def block_distance_program(V, probs):
    """The shifted distance program's A and b, with np.block: V[:, s0]
    times the last row taken off the first d rows, which the closed-form
    start now carries in its inverse instead."""
    d, n = V.shape
    s0 = int(np.argmin((1.0 - 2.0 * probs) @ V))
    eye = np.eye(d)
    A = np.block([[V - V[:, s0:s0 + 1], eye, -eye],
                  [np.ones((1, n)), np.zeros((1, 2 * d))]])
    return A, np.append(probs - V[:, s0], 1.0)


@pytest.mark.parametrize("label", ["chsh", "232", "242"])
def test_distance_program_matrix_matches_block_assembly(label):
    """The shared matrix is [V | I | -I ; 1 0 0] with its costs, and a
    table brings b = (p; 1)."""
    sc = {"chsh": CHSH, "232": Scenario.uniform(2, 3, 2),
          "242": Scenario.uniform(2, 4, 2)}[label]
    V = strategy_matrix(sc)
    for probs in (oracle_behavior(label, 1).probs, named_behavior("uniform", sc).probs):
        lp, _ = _distance_program(sc, probs)
        block = unreduced_program(V, probs)
        assert np.array_equal(lp.A, block.A) and np.array_equal(lp.b, block.b)
        assert np.array_equal(lp.c, block.c)


def test_classify_on_234_within_caps():
    """A (2,3,4) table: its distance program is 145x4384, within the LP
    cap, and the simplex decides it without stalling."""
    beh = behavior_from_setup(random_setup(seed=3, dims=(4, 4), inputs=(3, 3)))
    c = classify(beh)
    assert (c.verdict is Verdict.LOCAL) == scipy_is_local(beh)
    if c.model is not None:
        V = strategy_matrix(beh.scenario)
        assert float(np.abs(V @ c.model.weights - beh.probs).max()) <= 1e-7
    else:
        assert c.violation > 0.0


def unreduced_program(V, probs):
    """The distance program as first written: V w + u - v = p, sum(w) = 1."""
    d, n = V.shape
    eye = np.eye(d)
    A = np.block([[V, eye, -eye], [np.ones((1, n)), np.zeros((1, 2 * d))]])
    cost = np.concatenate([np.zeros(n), np.ones(2 * d)])
    return LinearProgram(A=A, b=np.append(probs, 1.0), c=cost)


def cut_margin(V, probs, y):
    cut = y[: V.shape[0]]
    return float(cut @ probs - (cut @ V).max())


START_CASES = [
    pytest.param(label, which, id=f"{label}-{which}")
    for label in ("chsh", "232", "242")
    for which in ("uniform", "strategy", "oracle")
]


@pytest.mark.parametrize(("label", "which"), START_CASES)
def test_distance_program_starts_feasible(label, which):
    """Every row of the distance program starts on a structural column of
    the start it comes with, at a nonnegative value, so phase 1 makes no
    pivot (a pivot limit of 0 would raise)."""
    sc = {"chsh": CHSH, "232": Scenario.uniform(2, 3, 2),
          "242": Scenario.uniform(2, 4, 2)}[label]
    V = strategy_matrix(sc)
    if which == "uniform":
        probs = named_behavior("uniform", sc).probs
    elif which == "strategy":
        probs = V[:, 5]  # the start is at distance 0: every basic slack is 0
    else:
        probs = oracle_behavior(label, 1).probs
    lp, start = _distance_program(sc, probs)
    sx = _Simplex(lp.A, lp.b, start=start)
    assert (sx.basis < sx.n).all() and (sx.xB >= 0.0).all()
    with mock.patch("bellbox.lp.DEFAULT_MAX_ITERS", 0):
        assert sx.phase1() == 0.0 and sx.iterations == 0
    out = solve(lp, start=start)
    assert out.status == "optimal"


def behavior_on(scenario, seed, w):
    """A random normalized table (signalling in general) blended into a
    random local model with weight ``w``: local for small ``w``."""
    rng = np.random.default_rng(seed)
    raw = rng.random(scenario.dimension)
    for inputs in scenario.joint_inputs():
        sl = scenario.block_slice(inputs)
        raw[sl] /= raw[sl].sum()
    local = random_local_model(scenario, seed=seed).behavior().probs
    return validate_behavior(scenario, w * raw + (1.0 - w) * local)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), w=st.floats(0.0, 1.0, allow_nan=False),
       label=st.sampled_from(["chsh", "232"]))
def test_reduced_distance_program_matches_unreduced(seed, w, label):
    """The closed-form start, whose inverse takes a strategy's multiple of
    the last row off the first d rows, reaches the optimum and a cut
    that passes its certificate, as the start on the artificials does."""
    sc = CHSH if label == "chsh" else Scenario.uniform(2, 3, 2)
    beh = behavior_on(sc, seed, w)
    V = strategy_matrix(sc)
    reduced = solve_distance(beh.scenario, beh.probs)
    full = solve(unreduced_program(V, beh.probs))
    assert reduced.status == full.status == "optimal"
    assert abs(reduced.objective - full.objective) <= 1e-9
    if full.objective > 1e-9:
        assert cut_margin(V, beh.probs, reduced.y) > 0.0
        assert cut_margin(V, beh.probs, full.y) > 0.0


START_SCENARIOS = {
    "chsh": CHSH, "232": Scenario.uniform(2, 3, 2), "322": Scenario.uniform(3, 2, 2),
    "242": Scenario.uniform(2, 4, 2), "uneven": Scenario((2, 3), ((2, 3), (3, 2, 2))),
    "one-entry": Scenario((1, 1), ((1,), (1,))),
}


def shifted_program(V, p, toward):
    """The distance program with V[:, s0] times the last row taken off the
    first d rows, as ``block_distance_program`` builds it, continued
    toward a table where one is given; and the start that a scan for
    unit columns finds on it: w_s0 on the last row and u_k or v_k on row
    k, Binv = diag(sign b), xB = |b|, u_k and v_k mates, and the weights
    of the columns themselves."""
    d, n = V.shape
    A, b = block_distance_program(V, p)
    cost = np.concatenate([np.zeros(n), np.ones(2 * d)])
    if toward is not None:
        A = np.hstack([A, np.append(p - toward, 0.0)[:, None]])
        cost = np.append(cost, 0.0)
    s0 = int(np.argmin((1.0 - 2.0 * p) @ V))
    rows = np.arange(n, n + d)
    basis = np.append(rows + d * (b[:d] < 0.0), s0)
    mate = np.full(A.shape[1] + d + 1, -1)
    mate[rows], mate[rows + d] = rows + d, rows
    sign = np.where(b < 0.0, -1.0, 1.0)
    start = _Start(basis=basis, BX=np.hstack([np.diag(sign), np.abs(b)[:, None]]), mate=mate,
                   weights=1.0 + np.einsum("ij,ij->j", A, A))
    return LinearProgram(A=A, b=b, c=cost), start


@settings(deadline=None, max_examples=80)
@given(label=st.sampled_from(sorted(START_SCENARIOS)), seed=st.integers(0, 2**32 - 1),
       w=st.floats(0.0, 1.0), toward=st.booleans())
def test_closed_form_start_is_a_basis_that_solves_as_the_shifted_program(label, seed, w,
                                                                          toward):
    """On random tables, with and without a visibility column, the start
    that a distance program comes with is a basis of its matrix: its
    inverse times the basis columns is I, its basic values are Binv b and
    nonnegative, its weights are 1 + |Binv a_j|^2 exactly, and u_k and
    v_k are mates.  Solved from it, the program ends at the objective and
    verdict of the shifted program solved from its scanned start; with a
    visibility column, both stages of the staged solve do."""
    sc = START_SCENARIOS[label]
    V = strategy_matrix(sc)
    d, n = V.shape
    p = behavior_on(sc, seed, w).probs
    q = behavior_on(sc, seed + 1, 1.0 - w).probs if toward else None
    lp, start = _distance_program(sc, p, toward=q)
    cols = lp.shape[1]
    Binv, xB = start.BX[:, :-1], start.BX[:, -1]
    assert np.abs(Binv @ lp.A[:, start.basis] - np.eye(d + 1)).max() <= 1e-12
    assert np.abs(Binv @ lp.b - xB).max() <= 1e-12 and (xB >= 0.0).all()
    T = Binv @ lp.A
    assert np.array_equal(start.weights, 1.0 + np.einsum("ij,ij->j", T, T))
    slacks = np.arange(n, n + d)
    assert start.mate.size == cols + d + 1
    assert np.array_equal(start.mate[slacks], slacks + d)
    assert np.array_equal(start.mate[slacks + d], slacks)
    assert (np.delete(start.mate, np.append(slacks, slacks + d)) == -1).all()

    shifted, scanned = shifted_program(V, p, q)
    if q is None:
        outcomes = [(solve(lp, start=start), solve(shifted, start=scanned))]
    else:
        outcomes = list(zip(_solve_then_maximize(lp, cols - 1, start),
                            _solve_then_maximize(shifted, cols - 1, scanned)))
    for new, old in outcomes:
        assert (new is None) == (old is None)
        if new is not None:
            assert new.status == old.status
            if new.status == "optimal":
                assert abs(new.objective - old.objective) <= 1e-9
                assert (new.objective <= 1e-9) == (old.objective <= 1e-9)


def test_tables_of_one_scenario_share_one_read_only_matrix():
    """Two (2,4,2) tables' distance programs hold one matrix object and one
    cost vector, both read-only, the matrix being the array that holds
    the strategy matrix, and the second table's program and start
    allocate less than one array the size of that matrix."""
    sc = Scenario.uniform(2, 4, 2)
    first, _ = _distance_program(sc, oracle_behavior("242", 1).probs)
    tracemalloc.start()
    try:
        second, _ = _distance_program(sc, named_behavior("uniform", sc).probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert second.A is first.A and second.c is first.c
    assert not (first.A.flags.writeable or first.c.flags.writeable)
    assert strategy_matrix(sc).base is first.A  # V's bytes, kept once
    assert peak < first.A.nbytes


@pytest.mark.parametrize("decide", [membership, classify])
def test_deciding_a_242_table_allocates_no_copy_of_its_matrix(decide):
    """After a scenario's first table, deciding another allocates less at
    its peak than one (d+1) x (n+2d) array: the program is the shared
    matrix with the table's own right-hand side."""
    sc = Scenario.uniform(2, 4, 2)
    decide(named_behavior("uniform", sc))
    size = _distance_program(sc, named_behavior("uniform", sc).probs)[0].A.nbytes
    for seed in (2, 3):
        beh = behavior_from_setup(random_setup(seed=seed, dims=(2, 2), inputs=(4, 4)))
        tracemalloc.start()
        try:
            decide(beh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size


def test_phase1_floor_stop_waits_for_a_feasible_point():
    """The unreduced program needs phase 1.  On this table, 1e-9 away from
    a local one, phase 1 passes a vertex whose artificial carries about
    1e-9, inside the feasibility band.  A phase 1 that stopped there and
    drove the artificial out would leave an infeasible point and a
    distance of 9.98e-10, against 2.07e-9 for the reduced program."""
    sc = Scenario.uniform(2, 3, 2)
    beh = behavior_on(sc, 1, 1e-9)
    V = strategy_matrix(sc)
    reduced = solve_distance(beh.scenario, beh.probs)
    full = solve(unreduced_program(V, beh.probs))
    assert reduced.objective > 2e-9
    assert abs(reduced.objective - full.objective) <= 1e-10


def test_ratio_test_ties_keep_the_point_feasible():
    """A (2,3,2) table 1e-9 from a local one.  Breaking a ratio-test tie
    within 1e-10 of the least ratio let a basic value with column entry
    8 fall to -4.7e-10, and the unreduced program stopped at the floor
    with a distance of 1.6e-10, against 2.24e-9 for the reduced one."""
    sc = Scenario.uniform(2, 3, 2)
    beh = behavior_on(sc, 382, 1e-9)
    V = strategy_matrix(sc)
    reduced = solve_distance(beh.scenario, beh.probs)
    full = solve(unreduced_program(V, beh.probs))
    assert min(reduced.x.min(), full.x.min()) >= -1e-11
    assert abs(reduced.objective - full.objective) <= 1e-11


def test_distance_on_243_matches_highs():
    """A (2,4,3) table, a 145x6849 distance program: nonlocal, with its
    distance within 1e-9 of HiGHS on the unreduced program."""
    beh = behavior_from_setup(random_setup(seed=1, dims=(3, 3), inputs=(4, 4)))
    V = strategy_matrix(beh.scenario)
    out = solve_distance(beh.scenario, beh.probs)
    oracle = unreduced_program(V, beh.probs)
    res = linprog(oracle.c, A_eq=oracle.A, b_eq=oracle.b, method="highs")
    assert out.status == "optimal" and res.status == 0
    assert abs(out.objective - res.fun) <= 1e-9
    assert out.objective > 1e-3
    assert cut_margin(V, beh.probs, out.y) > 0.0


def parity_box(m, f):
    """Two parties with m binary-output inputs each: a xor b = f[x, y],
    each output uniform.  On m = 2, f = x y is the PR box."""
    t = np.zeros((m, m, 2, 2))
    for x, y, a in itertools.product(range(m), range(m), range(2)):
        t[x, y, a, a ^ f[x, y]] = 0.5
    return t.reshape(-1)


def singlet_table(rng, m):
    """The singlet measured along m random directions in the x-z plane
    by each party."""
    alice, bob = (MeasurementSet(dim=2, effects=tuple(spin_projectors(angle) for angle in row))
                  for row in rng.uniform(0.0, 2.0 * np.pi, size=(2, m)))
    state = named_setup("singlet_chsh").state
    return behavior_from_setup(BellSetup(state=state, alice=alice, bob=bob)).probs


def test_parity_box_on_chsh_is_the_pr_box():
    np.testing.assert_array_equal(parity_box(2, np.array([[0, 0], [0, 1]])),
                                  named_behavior("pr_box").probs)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), label=st.sampled_from(["chsh", "232", "322"]),
       part=st.sampled_from(["pr", "singlet"]))
def test_distance_program_matches_highs_on_random_mixtures(seed, label, part):
    """A random local model, white noise and a nonlocal part, mixed with
    Dirichlet weights: a parity box or the singlet for two parties, a PR
    box on a random pair for three.  The simplex's distance, reached by
    long steps across the slack pairs, is HiGHS's to within 1e-9 and
    passes its certificate check, and the local/nonlocal decision agrees
    with HiGHS's feasibility program."""
    rng = np.random.default_rng(seed)
    parties, m = {"chsh": (2, 2), "232": (2, 3), "322": (3, 2)}[label]
    sc = Scenario.uniform(parties, m, 2)
    if parties == 3:
        odd = _pr_box_on_pair(rng, 2)
    elif part == "pr":
        odd = parity_box(m, rng.integers(0, 2, size=(m, m)))
    else:
        odd = singlet_table(rng, m)
    local = random_local_model(sc, seed=int(rng.integers(2**31))).behavior().probs
    w = rng.dirichlet(np.ones(3))
    beh = validate_behavior(sc, w[0] * local + w[1] * named_behavior("uniform", sc).probs
                            + w[2] * odd)
    V = strategy_matrix(sc)
    lp, start = _distance_program(sc, beh.probs)
    out = solve(lp, start=start)
    assert out.status == "optimal"
    assert verify_certificate(lp, out).ok
    oracle = unreduced_program(V, beh.probs)
    res = linprog(oracle.c, A_eq=oracle.A, b_eq=oracle.b, method="highs")
    assert res.status == 0
    assert abs(out.objective - res.fun) <= 1e-9
    assert _decide(beh)[0] == scipy_is_local(beh)


def test_oversize_membership_refused_before_enumeration(monkeypatch, capsys, tmp_path):
    """(2,4,4) has 65,536 strategies: its program is refused from the
    scenario's sizes alone, through the API and the CLI (exit 3)."""
    import bellbox.analysis as analysis
    from bellbox.cli import main
    from bellbox.documents import write_document

    def refuse(scenario):
        raise AssertionError("strategy matrix built for an oversize program")

    monkeypatch.setattr(analysis, "strategy_matrix", refuse)
    beh = behavior_from_setup(random_setup(seed=1, dims=(4, 4), inputs=(4, 4)))
    with pytest.raises(SizeCapError, match="257x66048"):
        classify(beh)
    with pytest.raises(SizeCapError):
        membership(beh)
    doc = tmp_path / "big.json"
    write_document(beh, doc)
    assert main(["classify", str(doc)]) == 3
    assert "cap" in capsys.readouterr().err


# -- classification ----------------------------------------------------------

def test_classify_local():
    c = classify(named_behavior("uniform"))
    assert c.verdict is Verdict.LOCAL
    assert c.model is not None
    assert c.functional is None and c.signalling is None
    assert isinstance(c.summary, str) and c.summary


def test_classify_weakly_nonlocal():
    c = classify(named_behavior("pr_box"))
    assert c.verdict is Verdict.WEAKLY_NONLOCAL
    assert c.verdict.value == "weakly nonlocal"
    assert c.functional is not None and c.violation > 1.0
    assert c.model is None and c.signalling is None


def test_classify_signalling_takes_priority():
    c = classify(named_behavior("signalling_demo"))
    assert c.verdict is Verdict.SIGNALLING
    assert c.signalling is not None
    assert c.signalling.max_defect == pytest.approx(1.0, abs=1e-12)
    assert c.signalling.worst_party == 0
    assert c.model is None and c.functional is None


def test_classify_summary_is_deterministic():
    for name in ("uniform", "pr_box", "signalling_demo"):
        a = classify(named_behavior(name)).summary
        b = classify(named_behavior(name)).summary
        assert a == b


def ghz3_mermin():
    """The GHZ state (|000> + |111>)/sqrt(2) under X (input 0) and Y
    (input 1) at every party, outcome 0 the +1 eigenvalue: Mermin's
    table, which scores 4 on <XXX> - <XYY> - <YXY> - <YYX>, whose local
    bound is 2 (Mermin, PRL 65, 1838 (1990))."""
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    Y = np.array([[0.0, -1j], [1j, 0.0]])
    proj = [[(np.eye(2) + sign * M) / 2.0 for sign in (1.0, -1.0)] for M in (X, Y)]
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1.0 / ROOT2
    sc = Scenario.uniform(3, 2, 2)
    return validate_behavior(sc, [
        (psi.conj() @ np.kron(np.kron(proj[x][a], proj[y][b]), proj[z][c]) @ psi).real
        for x, y, z in sc.joint_inputs() for a, b, c in sc.joint_outputs((x, y, z))])


def test_ghz3_is_weakly_nonlocal_with_mermin_violation():
    c = classify(ghz3_mermin())
    assert c.verdict is Verdict.WEAKLY_NONLOCAL
    assert c.violation == pytest.approx(2.0, abs=1e-9)
    assert c.functional.integer_bound == 2


# shapes of random_setup with dims and inputs up to 3; the five whose
# scenarios have 62,208 or more relabellings are left out, since
# relabellings lists every one of them
RELABELLED_SHAPES = [
    (dims, inputs)
    for dims in itertools.product(range(1, 4), repeat=2)
    for inputs in itertools.product(range(1, 4), repeat=2)
    if _relabelling_count(Scenario(inputs, tuple((d,) * n for d, n in zip(dims, inputs))))
    <= 20_000
]


@settings(deadline=None, max_examples=80)
@given(shape=st.sampled_from(RELABELLED_SHAPES), seed=st.integers(0, 2**16),
       pick=st.integers(0, 2**32))
def test_relabelling_keeps_the_verdict_and_the_distance(shape, seed, pick):
    """Renaming parties, inputs and outputs moves no table in or out of
    the local set, nor its l1 distance to it."""
    dims, inputs = shape
    p = behavior_from_setup(random_setup(seed, dims=dims, inputs=inputs))
    perms = relabellings(p.scenario)
    relabelled = validate_behavior(p.scenario, p.probs[perms[pick % len(perms)]])
    assert classify(relabelled).verdict is classify(p).verdict
    assert _solved(relabelled, DEFAULT_TOL)[1].objective == pytest.approx(
        _solved(p, DEFAULT_TOL)[1].objective, abs=1e-9)


# -- inequality derivation ---------------------------------------------------

def test_derive_critical_inequality_for_pr_box():
    f = derive_critical_inequality(named_behavior("pr_box"))
    assert f.key() == chsh_integer_key()


def test_derive_critical_inequality_rejects_local_input():
    with pytest.raises(ValidationError, match="no inequality"):
        derive_critical_inequality(named_behavior("uniform"))


# -- visibility threshold ----------------------------------------------------

def test_visibility_threshold_singlet():
    singlet = behavior_from_setup(named_setup("singlet_chsh"))
    uniform = named_behavior("uniform")
    res = visibility_threshold(singlet, uniform)
    assert res.parameter == "visibility"
    assert res.tolerance == 1e-6
    assert res.critical == pytest.approx(1.0 / ROOT2, abs=1e-6)
    # agrees with the score-based prediction for this family
    assert res.critical == pytest.approx(2.0 / chsh_value(singlet), abs=1e-6)
    lo, hi = res.bracket
    assert res.critical == lo
    assert hi - lo <= 1e-6
    assert membership(mix([(lo, singlet), (1.0 - lo, uniform)])).is_local
    assert not membership(mix([(hi, singlet), (1.0 - hi, uniform)])).is_local
    assert res.iterations == 0


def test_visibility_threshold_pr_box():
    res = visibility_threshold(named_behavior("pr_box"), named_behavior("uniform"))
    assert res.critical == pytest.approx(0.5, abs=1e-6)


def test_visibility_threshold_coarse_tolerance():
    singlet = behavior_from_setup(named_setup("singlet_chsh"))
    res = visibility_threshold(singlet, named_behavior("uniform"), tol=1e-3)
    assert res.tolerance == 1e-3
    assert res.bracket[1] - res.bracket[0] <= 1e-3
    assert res.critical == pytest.approx(1.0 / ROOT2, abs=1e-3)


def test_visibility_threshold_rejects_local_target():
    with pytest.raises(ValidationError, match="local"):
        visibility_threshold(named_behavior("uniform"), named_behavior("uniform"))


@pytest.mark.parametrize("target", [
    named_behavior("uniform"),
    behavior_from_setup(named_setup("werner", 0.6)),
], ids=["the-noise", "werner-0.60"])
def test_local_target_is_refused_after_two_solves(monkeypatch, target):
    """The noise itself leaves the visibility unbounded, and a local target
    that is not the noise gives v* > 1.  Either way the target is refused
    as a separate membership decision refused it, after the two stages of
    the one staged simplex, the noise's decision and the visibility
    program, and with no solve besides."""
    import bellbox.analysis as analysis

    assert _decide(target)[0]
    stages, solves = [], []

    def staged(*args, **kwargs):
        stages.append(args)
        return _solve_then_maximize(*args, **kwargs)

    def counting(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(analysis, "_solve_then_maximize", staged)
    monkeypatch.setattr(analysis, "solve", counting)
    with pytest.raises(ValidationError,
                       match="already local at full visibility; no threshold exists"):
        visibility_threshold(target, named_behavior("uniform"))
    assert len(stages) == 1 and solves == []


@pytest.mark.parametrize(("excess", "nonlocal_"), [(1e-10, False), (1e-9, True)])
def test_a_cut_short_of_its_guard_at_full_visibility_costs_one_decide(monkeypatch, excess,
                                                                      nonlocal_):
    """The PR box at weight 1/2 + excess in the noise has v* just below 1,
    and its cut's margin at v = 1 does not clear the guard.  One
    ``_decide`` of the behavior settles it: local within the decision
    tolerance is refused, nonlocal gives the high end 1."""
    import bellbox.analysis as analysis

    noise = named_behavior("uniform")
    behavior = mix([(0.5 + excess, named_behavior("pr_box")), (0.5 - excess, noise)])
    verdicts = []

    def counting(*args, **kwargs):
        out = _decide(*args, **kwargs)
        verdicts.append(out[0])
        return out

    monkeypatch.setattr(analysis, "_decide", counting)
    if nonlocal_:
        lo, hi = visibility_threshold(behavior, noise).bracket
        assert lo == pytest.approx(0.5 / (0.5 + excess), abs=1e-12) and hi == 1.0
    else:
        with pytest.raises(ValidationError, match="already local at full visibility"):
            visibility_threshold(behavior, noise)
    assert verdicts == [not nonlocal_]


def test_a_low_end_whose_model_misses_its_blend_stalls(monkeypatch):
    """An optimum reported 1e-6 short of the stage-2 model's visibility
    (the objective, -v, 1e-6 above) leaves that model 1e-6 from the
    blend it should reproduce, so the threshold stops rather than call
    the low end local."""
    import dataclasses

    import bellbox.analysis as analysis

    def short(*args, **kwargs):
        first, second = _solve_then_maximize(*args, **kwargs)
        return first, dataclasses.replace(second, objective=second.objective + 1e-6)

    monkeypatch.setattr(analysis, "_solve_then_maximize", short)
    with pytest.raises(StalledError, match="visibility model misses the blend"):
        visibility_threshold(named_behavior("pr_box"), named_behavior("uniform"))


def test_visibility_threshold_rejects_nonlocal_noise():
    singlet = behavior_from_setup(named_setup("singlet_chsh"))
    with pytest.raises(ValidationError, match="noise"):
        visibility_threshold(singlet, named_behavior("pr_box"))


def test_staged_solve_stops_where_the_noise_is_nonlocal():
    """The PR box as noise ends its distance solve at 2, short of zero,
    and the staged solve returns that outcome alone, as ``solve`` gives
    it."""
    V = strategy_matrix(CHSH)
    pr_box = named_behavior("pr_box").probs
    first, second = staged_visibility(named_behavior("uniform").probs, pr_box, CHSH)
    alone = solve_distance(CHSH, pr_box)
    assert second is None
    assert first.objective == alone.objective > 1.0
    assert first.iterations == alone.iterations
    assert np.array_equal(first.y, alone.y)


def test_visibility_threshold_rejects_mismatched_scenarios():
    singlet = behavior_from_setup(named_setup("singlet_chsh"))
    other = named_behavior("uniform", Scenario.uniform(2, 2, 3))
    with pytest.raises(ValidationError):
        visibility_threshold(singlet, other)


def decide_bisection(behavior, noise, tol):
    """The plain bisection: one membership decision per probe."""
    lo, hi, iterations = 0.0, 1.0, 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if _decide(mix([(mid, behavior), (1.0 - mid, noise)]))[0]:
            lo = mid
        else:
            hi = mid
    return lo, (lo, hi), iterations


def first_nonlocal_setup(seed, inputs):
    """The first random_setup table from ``seed`` on that is nonlocal."""
    for s in itertools.count(seed):
        behavior = behavior_from_setup(random_setup(s, dims=(2, 2), inputs=inputs))
        if not _decide(behavior)[0]:
            return behavior


def decided_blend(behavior, noise, v):
    """``_decide``'s verdict on the blend v p + (1 - v) q."""
    return _decide(mix([(v, behavior), (1.0 - v, noise)]))[0]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), inputs=st.sampled_from([(2, 2), (3, 3)]))
def test_visibility_threshold_meets_decide_bisection(seed, inputs):
    """The certificates' bracket is a few 1e-9 wide, ``_decide`` calls its
    ends local and nonlocal, and it meets the bracket of a bisection of
    ``_decide`` calls at width 1e-6."""
    behavior = first_nonlocal_setup(seed, inputs)
    noise = named_behavior("uniform", behavior.scenario)
    res = visibility_threshold(behavior, noise)
    assert res.iterations == 0 and res.tolerance == 1e-6
    assert_bracket_is_certified(behavior, noise, res)
    lo, hi = res.bracket
    _, (bisect_lo, bisect_hi), _ = decide_bisection(behavior, noise, 1e-6)
    assert bisect_lo <= hi and lo <= bisect_hi


def test_visibility_threshold_solves_two_programs(monkeypatch):
    """The noise's decision and the visibility program, solved as two
    stages of one program on one simplex, with no phase 1, no ``solve``
    and no halving."""
    import bellbox.analysis as analysis
    import bellbox.lp as lp

    built, phases, solves = [], [], []

    class Recording(_Simplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        def run(self, phase):
            phases.append(phase)
            return super().run(phase)

    def counting(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "_Simplex", Recording)
    monkeypatch.setattr(analysis, "solve", counting)
    res = visibility_threshold(behavior_from_setup(named_setup("singlet_chsh")),
                               named_behavior("uniform"))
    assert res.iterations == 0
    assert len(built) == 1 and solves == []
    assert phases == [2, 2]


def _staged_cases():
    """(target, noise) pairs: the PR box, the singlet, seeded (2,3,2)
    setups and seeded (3,2,2) pair-PR tables, each against white noise."""
    cases = [named_behavior("pr_box"), behavior_from_setup(named_setup("singlet_chsh"))]
    cases += [first_nonlocal_setup(seed, (3, 3)) for seed in (1, 2)]
    for seed in (1, 2):
        sc, probs = _seeded_table("three-pr", 2, seed)
        cases.append(validate_behavior(sc, probs))
    return [(beh, named_behavior("uniform", beh.scenario)) for beh in cases]


@pytest.mark.parametrize(("behavior", "noise"), _staged_cases(),
                         ids=["pr_box", "singlet", "232-1", "232-2", "322-1", "322-2"])
def test_staged_visibility_run(behavior, noise):
    """Stage 1 is the noise's own distance solve, pivot for pivot; the
    stage-2 outcome, read in the visibility program's variables, passes
    that program's certificate check, and its v* is a cold solve's."""
    V = strategy_matrix(behavior.scenario)
    d, n = V.shape
    p, q = behavior.probs, noise.probs
    first, out = staged_visibility(p, q, behavior.scenario)
    alone = solve_distance(behavior.scenario, q)
    assert first.iterations == alone.iterations
    assert np.array_equal(first.x[:-1], alone.x) and first.x[-1] == 0.0
    is_local, model = _decision(noise, V, first, 1e-9)
    assert is_local and np.array_equal(model, _decide(noise)[1])

    # the staged program's rows are the visibility program's, so its
    # prices for the minimum of -t are that program's too
    lp = visibility_lp(V, p, q)
    staged = LpOutcome(status="optimal", x=np.append(out.x[:n], out.x[-1]), y=out.y,
                       objective=out.objective)
    assert verify_certificate(lp, staged).ok
    cold = solve(lp)
    assert cold.status == "optimal"
    assert out.objective == pytest.approx(cold.objective, abs=1e-12)


def test_retired_slacks_end_at_zero_and_never_enter(monkeypatch):
    """Once the noise is decided, the slack pairs leave pricing: no pivot
    of the second stage enters one, and each ends at zero."""
    behavior = first_nonlocal_setup(1, (3, 3))
    V = strategy_matrix(behavior.scenario)
    d, n = V.shape
    entered = []
    pivot = _Simplex._pivot

    def recording(self, i, j, col):
        entered.append(j)
        return pivot(self, i, j, col)

    monkeypatch.setattr(_Simplex, "_pivot", recording)
    noise = named_behavior("uniform", behavior.scenario)
    first, out = staged_visibility(behavior.probs, noise.probs, behavior.scenario)
    later = entered[first.iterations:]
    assert len(later) == out.iterations - first.iterations > 0
    assert all(j < n or j == n + 2 * d for j in later)
    assert np.abs(out.x[n:n + 2 * d]).max() <= 1e-12


def assert_bracket_is_certified(behavior, noise, res):
    """Recheck a visibility bracket against the staged program's own
    witnesses: the optimal model reproduces the blend at the low end to
    within half the decision tolerance in l1 and within ``MODEL_TOL``
    per entry, the cut's margin at the high end, over the strategies'
    largest value, is positive, and ``_decide`` calls the low end local
    and the high end nonlocal."""
    V = strategy_matrix(behavior.scenario)
    d, n = V.shape
    p, q = behavior.probs, noise.probs
    lo, hi = res.bracket
    assert res.critical == lo and 0.0 < hi - lo <= 1e-8
    _, out = staged_visibility(p, q, behavior.scenario)
    weights = np.clip(out.x[:n], 0.0, None)
    weights /= weights.sum()
    miss = V @ weights - (lo * p + (1.0 - lo) * q)
    assert float(np.abs(miss).sum()) <= 0.5e-9
    assert float(np.abs(miss).max()) <= MODEL_TOL
    cut = out.y[:d]
    assert float(cut @ (hi * p + (1.0 - hi) * q) - (cut @ V).max()) > 0.0
    assert decided_blend(behavior, noise, lo)
    assert not decided_blend(behavior, noise, hi)


@pytest.mark.parametrize("behavior", [
    behavior_from_setup(named_setup("singlet_chsh")),
    named_behavior("pr_box"),
    behavior_from_setup(random_setup(1, dims=(2, 2), inputs=(3, 3))),
], ids=["singlet", "pr_box", "232"])
def test_visibility_bracket_ends_carry_rechecked_witnesses(behavior):
    """The staged optimum's model reproduces the blend at the local end,
    and its cut separates the blend at the nonlocal end."""
    noise = named_behavior("uniform", behavior.scenario)
    assert_bracket_is_certified(behavior, noise, visibility_threshold(behavior, noise))


def test_blends_beside_the_pr_box_bracket_agree_with_decide():
    """Blends within round-off of the PR box's threshold 1/2 and outside
    its bracket are called as a fresh membership decision calls them:
    local at and below the low end, nonlocal at and above the high end."""
    pr_box, noise = named_behavior("pr_box"), named_behavior("uniform")
    lo, hi = visibility_threshold(pr_box, noise).bracket
    for v in (lo - 1e-9, lo - 1e-12, lo):
        assert decided_blend(pr_box, noise, v)
    for v in (hi, hi + 1e-12, hi + 1e-10, hi + 1e-8):
        assert not decided_blend(pr_box, noise, v)


@pytest.mark.parametrize("tol", [1e-6, 5e-9, 1e-9])
def test_singlet_bracket_never_excludes_its_threshold(tol):
    """A bisection at widths below about 1e-8 put its certified-local end
    above 1/sqrt(2) (0.7071067811921239 at 1e-9).  The certificates'
    bracket holds 1/sqrt(2) to within the staged optimum's round-off,
    which puts v* an ulp or two above it, or, where the bracket is wider
    than the tolerance, is refused."""
    singlet = behavior_from_setup(named_setup("singlet_chsh"))
    try:
        res = visibility_threshold(singlet, named_behavior("uniform"), tol=tol)
    except StalledError as exc:
        assert "wider than the tolerance" in str(exc)
        return
    lo, hi = res.bracket
    assert lo - 1e-15 <= 1.0 / ROOT2 <= hi


def highs_visibility(V, p, q):
    """The largest v at which v p + (1 - v) q is local, by a HiGHS solve of
    ``visibility_lp``."""
    lp = visibility_lp(V, p, q)
    res = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0.0, None), method="highs")
    assert res.status == 0
    return -res.fun


# seeds fixed in advance, none dropped for failing; 4 and 8 are in range
QUTRIT_SEEDS = range(1, 61)


@pytest.mark.parametrize("seed", QUTRIT_SEEDS)
def test_qutrit_sweep_agrees_with_highs(seed, monkeypatch):
    """Seeded (2,3,3) tables against HiGHS: ``classify`` agrees on
    membership, and on each nonlocal table the visibility bracket
    against uniform noise holds the HiGHS optimum and rechecks at both
    ends, with no ``_decide`` call inside the threshold.  While the basis
    inverse was never rebuilt, seed 8 exited 3 here and seed 4 fell back
    to a fresh ``_decide`` on 15 of its 20 bisection probes."""
    import bellbox.analysis as analysis
    behavior = behavior_from_setup(random_setup(seed, dims=(3, 3), inputs=(3, 3)))
    local = scipy_is_local(behavior)
    verdict = classify(behavior).verdict
    assert verdict is (Verdict.LOCAL if local else Verdict.WEAKLY_NONLOCAL)
    if local:
        return
    noise = named_behavior("uniform", behavior.scenario)
    V = strategy_matrix(behavior.scenario)
    v_star = highs_visibility(V, behavior.probs, noise.probs)
    decides = []
    decide = analysis._decide

    def counting(*args, **kwargs):
        decides.append(args)
        return decide(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_decide", counting)
        res = visibility_threshold(behavior, noise)
    assert decides == []
    lo, hi = res.bracket
    assert lo - 1e-9 <= v_star <= hi + 1e-9
    assert_bracket_is_certified(behavior, noise, res)


# seeds fixed in advance, none dropped for failing; seed 10 is the one
# nonlocal table among them
QUQUART_SEEDS = range(1, 13)


@pytest.mark.parametrize("seed", QUQUART_SEEDS)
def test_ququart_sweep_agrees_with_highs(seed):
    """Seeded (2,3,4) tables against HiGHS: ``classify`` agrees on
    membership, the visibility threshold against uniform noise refuses
    each local table as local at full visibility, and on the nonlocal
    one it brackets the HiGHS optimum.  Without the ratio test's tie
    floor, seed 10's staged simplex pivoted on 1.14e-9 of its column and
    lost its basis, and seeds 1, 6, 7, 9 and 12 stopped on a singular
    basis instead of being refused."""
    behavior = behavior_from_setup(random_setup(seed, dims=(4, 4), inputs=(3, 3)))
    local = scipy_is_local(behavior)
    verdict = classify(behavior).verdict
    assert verdict is (Verdict.LOCAL if local else Verdict.WEAKLY_NONLOCAL)
    noise = named_behavior("uniform", behavior.scenario)
    if local:
        with pytest.raises(ValidationError, match="already local at full visibility"):
            visibility_threshold(behavior, noise)
        return
    v_star = highs_visibility(strategy_matrix(behavior.scenario), behavior.probs, noise.probs)
    lo, hi = visibility_threshold(behavior, noise).bracket
    assert lo - 1e-9 <= v_star <= hi + 1e-9


def test_ghz3_visibility_bracket_holds_the_highs_optimum():
    """Mermin's table blended with white noise scores 4 v, local up to
    v = 1/2, where HiGHS finds the visibility program's optimum; the
    certificates' bracket holds it to within that solve's tolerance."""
    behavior = ghz3_mermin()
    noise = named_behavior("uniform", behavior.scenario)
    v_star = highs_visibility(strategy_matrix(behavior.scenario), behavior.probs, noise.probs)
    assert v_star == pytest.approx(0.5, abs=1e-9)
    res = visibility_threshold(behavior, noise)
    lo, hi = res.bracket
    assert lo - 1e-9 <= v_star <= hi + 1e-9
    assert_bracket_is_certified(behavior, noise, res)


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
def test_thresholds_refuse_tolerances_below_the_halving_floor(tol, monkeypatch):
    """A width that is not positive is refused before any solve.  Neither
    threshold halves any more, so a positive width has no floor: one
    below the certificates' bracket stops after the solve instead."""
    import bellbox.analysis as analysis

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the tolerance was checked")

    monkeypatch.setattr(analysis, "solve", no_solve)
    with pytest.raises(ValidationError, match="tolerance"):
        visibility_threshold(named_behavior("pr_box"), named_behavior("uniform"), tol=tol)
    with pytest.raises(ValidationError, match="tolerance"):
        efficiency_threshold(named_setup("singlet_chsh"), tol=tol)


def test_thresholds_refuse_an_infinite_tolerance():
    """An infinite width passed the halving floor and gave a bracket of
    [0, 1] after no step."""
    match = "tolerance must be positive and finite"
    with pytest.raises(ValidationError, match=match):
        visibility_threshold(named_behavior("pr_box"), named_behavior("uniform"),
                             tol=float("inf"))
    with pytest.raises(ValidationError, match=match):
        efficiency_threshold(named_setup("singlet_chsh"), tol=float("inf"))


@pytest.mark.parametrize("tol", [2.0 ** -52, 2.0 ** -53, 1e-20], ids=["2**-52", "2**-53", "1e-20"])
@pytest.mark.parametrize(("verb", "width"), [("visibility", "2.000e-09"),
                                             ("efficiency", "5.000e-10")],
                         ids=["visibility", "efficiency"])
def test_thresholds_below_their_certified_width_stop(verb, width, tol):
    """No bracket the certificates back is as narrow as 2**-52, so either
    threshold stops after its solves and names the width it has; a
    bisection would end on an uncertified end such as 0.50000000025, and
    below 2**-52 it would not end at all."""
    with pytest.raises(StalledError, match=f"{width} wide, wider than the tolerance"):
        if verb == "visibility":
            visibility_threshold(named_behavior("pr_box"), named_behavior("uniform"), tol=tol)
        else:
            efficiency_threshold(named_setup("singlet_chsh"), tol=tol)


@pytest.mark.parametrize("call", [
    lambda: efficiency_threshold(named_behavior("pr_box")),
    lambda: efficiency_threshold(None),
    lambda: visibility_threshold(named_behavior("pr_box"), None),
    lambda: visibility_threshold(named_setup("singlet_chsh"), named_behavior("uniform")),
], ids=["efficiency-of-a-behavior", "efficiency-of-none", "visibility-into-none",
        "visibility-of-a-setup"])
def test_thresholds_refuse_the_wrong_kind_of_argument(call, monkeypatch):
    """A threshold given something other than a setup, or a target or
    noise other than a behavior, is refused before any solve; these
    raised AttributeError from inside the threshold."""
    import bellbox.analysis as analysis

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the argument was checked")

    monkeypatch.setattr(analysis, "solve", no_solve)
    monkeypatch.setattr(analysis, "_solve_then_maximize", no_solve)
    with pytest.raises(ValidationError, match="threshold needs a"):
        call()


# -- efficiency threshold ----------------------------------------------------

def test_efficiency_threshold_singlet():
    res = efficiency_threshold(named_setup("singlet_chsh"))
    assert res.parameter == "efficiency"
    assert res.tolerance == 1e-4
    target = 2.0 / (1.0 + ROOT2)
    assert res.critical == pytest.approx(target, abs=1e-3)
    lo, hi = res.bracket
    assert res.critical == lo
    assert hi - lo <= 1e-4
    setup = named_setup("singlet_chsh")
    assert membership(behavior_from_setup(lifted(setup, lo))).is_local
    assert not membership(behavior_from_setup(lifted(setup, hi))).is_local


def efficiency_bisection(setup, tol):
    """The plain bisection of [0, 1]: one membership decision per probe."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _decide(behavior_from_setup(lifted(setup, mid)))[0]:
            lo = mid
        else:
            hi = mid
    return lo, hi


# the nonlocal ones among random_setup(s, dims=(2, 2), inputs=(2, 2)), s = 1-39
EFFICIENCY_SEEDS = (16, 20, 24)


@pytest.mark.parametrize("seed", [None, *EFFICIENCY_SEEDS],
                         ids=["singlet", *(f"seed{s}" for s in EFFICIENCY_SEEDS)])
def test_efficiency_bracket_meets_the_bisection_and_rechecks(seed):
    """The cuts' bracket is a few 1e-9 wide, meets the bracket of a plain
    bisection over ``_decide``, and ``_decide`` calls its low end local
    and its high end nonlocal."""
    setup = (named_setup("singlet_chsh") if seed is None
             else random_setup(seed, dims=(2, 2), inputs=(2, 2)))
    res = efficiency_threshold(setup)
    lo, hi = res.bracket
    assert res.critical == lo < hi <= lo + 1e-8 and res.iterations == 0
    bisect_lo, bisect_hi = efficiency_bisection(setup, 1e-4)
    assert lo <= bisect_hi and bisect_lo <= hi
    assert _decide(behavior_from_setup(lifted(setup, lo)))[0]
    assert not _decide(behavior_from_setup(lifted(setup, hi)))[0]


def test_singlet_efficiency_is_garg_mermin_in_four_decisions(monkeypatch):
    """The singlet's cuts reach 2/(1 + sqrt(2)) within 1e-9 in at most four
    ``_decide`` calls, the all-no-click recheck among them; the bisection
    at the default width made 16."""
    import bellbox.analysis as analysis

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _decide(*args, **kwargs)

    monkeypatch.setattr(analysis, "_decide", counting)
    res = efficiency_threshold(named_setup("singlet_chsh"))
    assert abs(res.critical - 2.0 / (1.0 + ROOT2)) <= 1e-9
    assert len(calls) <= 4


def test_efficiency_threshold_rejects_always_local_setup():
    with pytest.raises(ValidationError, match="local"):
        efficiency_threshold(named_setup("product_basis"))


def test_thresholds_and_classify_skip_unneeded_witness_work(monkeypatch):
    """Thresholds need only the LP verdict, and classify already knows
    the gauge once its signalling check passes."""
    import bellbox.analysis as analysis

    calls = {"canonicalize": 0, "no_signalling_defect": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(analysis, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(analysis, name, counting)
    singlet = behavior_from_setup(named_setup("singlet_chsh"))
    visibility_threshold(singlet, named_behavior("uniform"))
    assert calls == {"canonicalize": 0, "no_signalling_defect": 0}
    assert classify(singlet).verdict is Verdict.WEAKLY_NONLOCAL
    assert calls["no_signalling_defect"] == 1


def test_threshold_result_is_plain_data():
    res = ThresholdResult(parameter="visibility", critical=0.5,
                          bracket=(0.5, 0.5000005), iterations=21,
                          tolerance=1e-6)
    assert res.bracket[0] <= res.critical <= res.bracket[1]
