"""Local polytope machinery: strategies, bounds, reduced coordinates, facets.

The expected values here are produced by small self-contained oracles
(direct enumeration, an explicit gauge projector, a brute-force
hyperplane search) so the library is checked against an independent
route, not against itself.
"""

import itertools
import math
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellbox import Scenario, named_behavior
import bellbox.polytope as polytope
from bellbox.errors import SizeCapError, ValidationError
from bellbox.scenario import flat_index
from bellbox.polytope import (
    BellFunctional,
    LocalModel,
    canonicalize,
    chsh_functional,
    enumerate_facets,
    local_bound,
    random_local_model,
    reduced_space,
    relabel_functional,
    relabellings,
    strategy_count,
    strategy_matrix,
)

CHSH = Scenario.uniform(2, 2, 2)
LIFTED = Scenario.uniform(2, 2, 3)
LIFTED_32 = Scenario(inputs_per_party=(2, 3), outputs=((4, 4), (3, 3, 3)))  # dims (3, 2), no-click
UNEVEN = Scenario(inputs_per_party=(2, 2), outputs=((2, 3), (3, 2)))


# -- independent oracles ----------------------------------------------------

def oracle_strategies(scenario):
    """All deterministic assignments, party-major lexicographic order."""
    per_party = []
    for p in range(scenario.parties):
        outs = scenario.outputs[p]
        per_party.append(list(itertools.product(*[range(k) for k in outs])))
    return list(itertools.product(*per_party))


def oracle_table(scenario, assignment):
    probs = np.zeros(scenario.dimension)
    pos = 0
    for inputs in itertools.product(*[range(n) for n in scenario.inputs_per_party]):
        for outputs in itertools.product(*[range(k) for k in scenario.outputs_for(inputs)]):
            if all(assignment[p][x] == o
                   for p, (x, o) in enumerate(zip(inputs, outputs))):
                probs[pos] = 1.0
            pos += 1
    return probs


def oracle_flat(scenario, inputs, outputs):
    pos = 0
    for ins in itertools.product(*[range(n) for n in scenario.inputs_per_party]):
        for outs in itertools.product(*[range(k) for k in scenario.outputs_for(ins)]):
            if ins == tuple(inputs) and outs == tuple(outputs):
                return pos
            pos += 1
    raise AssertionError


def _idx(x, y, a, b):
    return (2 * x + y) * 4 + 2 * a + b


def oracle_gauge_projector():
    """Orthogonal projector onto the complement of the span of the
    per-block normalization rows and the marginal-difference rows."""
    rows = []
    for x in range(2):
        for y in range(2):
            row = np.zeros(16)
            for a in range(2):
                for b in range(2):
                    row[_idx(x, y, a, b)] = 1.0
            rows.append(row)
    for x in range(2):
        for a in range(2):
            row = np.zeros(16)
            for b in range(2):
                row[_idx(x, 0, a, b)] += 1.0
                row[_idx(x, 1, a, b)] -= 1.0
            rows.append(row)
    for y in range(2):
        for b in range(2):
            row = np.zeros(16)
            for a in range(2):
                row[_idx(0, y, a, b)] += 1.0
                row[_idx(1, y, a, b)] -= 1.0
            rows.append(row)
    gauge = np.array(rows)
    u, s, _ = np.linalg.svd(gauge.T, full_matrices=False)
    rank = int((s > 1e-9).sum())
    q = u[:, :rank]
    return np.eye(16) - q @ q.T


def oracle_canonical_key(coeffs, projector=None):
    """Project, scale to unit max coefficient, integerize if a common
    denominator up to 64 fits, and recompute the deterministic bound."""
    c = np.asarray(coeffs, dtype=float)
    if projector is not None:
        c = projector @ c
    c = c / np.abs(c).max()
    tables = [oracle_table(CHSH, s) for s in oracle_strategies(CHSH)]
    for d in range(1, 65):
        scaled = c * d
        ints = np.rint(scaled)
        if np.abs(scaled - ints).max() <= 1e-9 * d:
            ints = ints.astype(int)
            g = int(np.gcd.reduce(np.abs(ints)[np.abs(ints) > 0]))
            ints //= g
            bound = max(int(ints @ t.astype(int)) for t in tables)
            return tuple(int(v) for v in ints), bound
    rounded = tuple(round(float(v), 12) for v in c)
    bound = max(float(c @ t) for t in tables)
    return rounded, round(bound, 12)


def oracle_chsh_coeffs(signs=(1, 1, 1, -1)):
    c = np.zeros(16)
    for x in range(2):
        for y in range(2):
            s = signs[2 * x + y]
            for a in range(2):
                for b in range(2):
                    c[_idx(x, y, a, b)] = s * (1.0 if a == b else -1.0)
    return c


def oracle_chsh_family_keys():
    """The eight sign patterns with product -1, as canonical keys."""
    keys = set()
    for signs in itertools.product((1, -1), repeat=4):
        if signs[0] * signs[1] * signs[2] * signs[3] == -1:
            keys.add(oracle_canonical_key(oracle_chsh_coeffs(signs)))
    return keys


def oracle_reduction_matrix():
    """Marginals at remote input zero plus the (0,0) joint entries, in the
    oracle's own row order; only used together with its own transpose."""
    rows = []
    for x in range(2):  # party A marginal of outcome 0 given x, remote y = 0
        row = np.zeros(16)
        for b in range(2):
            row[_idx(x, 0, 0, b)] = 1.0
        rows.append(row)
    for y in range(2):  # party B marginal of outcome 0 given y, remote x = 0
        row = np.zeros(16)
        for a in range(2):
            row[_idx(0, y, a, 0)] = 1.0
        rows.append(row)
    for x in range(2):
        for y in range(2):
            row = np.zeros(16)
            row[_idx(x, y, 0, 0)] = 1.0
            rows.append(row)
    return np.array(rows)


def oracle_positivity_family_keys(projector):
    keys = set()
    for i in range(16):
        c = np.zeros(16)
        c[i] = -1.0
        keys.add(oracle_canonical_key(c, projector))
    return keys


# -- strategies -------------------------------------------------------------

def test_strategy_count_values():
    assert strategy_count(CHSH) == 16
    assert strategy_count(Scenario.uniform(2, 3, 2)) == 64
    assert strategy_count(LIFTED) == 81
    ragged = Scenario(inputs_per_party=(2, 1), outputs=((2, 3), (2,)))
    assert strategy_count(ragged) == 12


def test_strategy_cap_raises_before_enumerating():
    big = Scenario.uniform(2, 5, 10)
    assert strategy_count(big) == 10**10
    t0 = time.perf_counter()
    with pytest.raises(SizeCapError):
        strategy_matrix(big)
    assert time.perf_counter() - t0 < 0.5


def test_strategy_matrix_cap_counts_entries():
    """The cap is on dimension x strategies, DIMENSION_CAP**2 entries:
    (2,4,4) is 256 x 65,536 and passes; (2,7,3) has only 4,782,969
    strategies, but 441 rows of them would take 15.7 GiB.  A local bound
    builds only the first party's 21 x 2,187 matrix there, and is refused
    on (2,32,2), whose first party alone has 2**32 strategies."""
    from bellbox.polytope import _checked_strategy_count

    assert _checked_strategy_count(Scenario.uniform(2, 4, 4)) == 65_536
    for sc in (Scenario.uniform(2, 4, 5), Scenario.uniform(2, 5, 4)):
        with pytest.raises(SizeCapError, match="entries"):
            _checked_strategy_count(sc)
    big = Scenario.uniform(2, 7, 3)
    padded = np.zeros(big.dimension)
    for (x, y, a, b), v in zip(itertools.product(range(2), repeat=4), oracle_chsh_coeffs()):
        padded[flat_index(big, (x, y), (a, b))] = v
    assert local_bound(BellFunctional(scenario=big, coeffs=padded))[0] == 2.0
    wide = Scenario.uniform(2, 32, 2)
    t0 = time.perf_counter()
    with pytest.raises(SizeCapError, match="entries"):
        local_bound(BellFunctional(scenario=wide, coeffs=np.zeros(wide.dimension)))
    with pytest.raises(SizeCapError):
        strategy_matrix(big)
    with pytest.raises(SizeCapError):
        random_local_model(big, seed=1)
    assert time.perf_counter() - t0 < 0.5


def test_best_response_product_is_capped():
    """Party 0's 26 x 8,192 strategy matrix is under the cap, but its
    product with a functional over party 1's 4,097 binary inputs would
    hold 8,192 x 8,194 entries (537 MB): refused before it is formed."""
    sc = Scenario(inputs_per_party=(13, 4097), outputs=((2,) * 13, (2,) * 4097))
    t0 = time.perf_counter()
    with pytest.raises(SizeCapError, match="best-response matrix"):
        local_bound(BellFunctional(scenario=sc, coeffs=np.zeros(sc.dimension)))
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), -float("inf")])
def test_functional_refuses_a_non_finite_bound(bound):
    with pytest.raises(ValidationError, match="local_bound must be finite"):
        BellFunctional(scenario=CHSH, coeffs=np.zeros(16), local_bound=bound)


@pytest.mark.parametrize("coeffs", ["abc", [[1.0] * 8, [1.0] * 7]], ids=["string", "ragged"])
def test_functional_refuses_coefficients_that_are_not_numbers(coeffs):
    """numpy's own ValueError came through untyped."""
    with pytest.raises(ValidationError, match="coefficients are not a table of numbers"):
        BellFunctional(scenario=CHSH, coeffs=coeffs)


@pytest.mark.parametrize("seed", [-1, -3])
def test_random_local_model_refuses_a_negative_seed(seed):
    with pytest.raises(ValidationError, match="must be a nonnegative integer"):
        random_local_model(CHSH, seed=seed)


def test_strategy_matrix_columns_and_immutability():
    V = strategy_matrix(CHSH)
    assert V.shape == (16, 16)
    assert set(np.unique(V)) <= {0.0, 1.0}
    assert np.all(V.sum(axis=0) == 4)  # one unit entry per input block
    with pytest.raises(ValueError):
        V[0, 0] = 2.0


def test_strategy_matrix_is_cached():
    assert strategy_matrix(CHSH) is strategy_matrix(Scenario.uniform(2, 2, 2))


def test_strategy_matrix_is_the_first_block_of_its_distance_program():
    """V is kept once: as the first block of [V | I | -I ; 1 0 0] where that
    program fits the LP kernel, as (2,4,2)'s 65 x 384 does, and alone where
    it does not: 8,192 strategies over 26 rows leave no room for the 52
    slack columns."""
    sc = Scenario.uniform(2, 4, 2)
    store, V = polytope._strategy_store(sc)
    d, n = V.shape
    assert V is strategy_matrix(sc) and V.base is store and store.shape == (d + 1, n + 2 * d)
    assert not store.flags.writeable
    assert np.array_equal(store[:d, n:n + d], np.eye(d))
    assert np.array_equal(store[:d, n + d:], -np.eye(d))
    assert np.array_equal(store[d], np.r_[np.ones(n), np.zeros(2 * d)])
    wide = Scenario(inputs_per_party=(13, 1), outputs=((2,) * 13, (1,)))
    store, V = polytope._strategy_store(wide)
    assert store.shape == V.shape == (26, 8192)


@pytest.mark.parametrize("scenario", [
    CHSH,
    Scenario.uniform(2, 3, 2),
    Scenario.uniform(3, 2, 2),
    Scenario(inputs_per_party=(2, 3), outputs=((2, 3), (3, 1, 2))),
    Scenario.uniform(2, 3, 3),
    Scenario(inputs_per_party=(1, 2, 1), outputs=((3,), (2, 4), (2,))),
    Scenario(inputs_per_party=(2, 2), outputs=((1, 3), (2, 1))),
    LIFTED_32,
    UNEVEN,
], ids=["chsh", "232", "322", "mixed", "233", "three-uneven", "single-output", "lifted-32",
        "uneven"])
def test_strategy_matrix_matches_tables_built_entry_by_entry(scenario):
    """Index arithmetic gives bit for bit, column j for the j-th
    assignment in party-major order (last digit fastest), the table
    built entry by entry, which reads nothing of the library's layout."""
    assignments = oracle_strategies(scenario)
    V = strategy_matrix(scenario)
    assert V.dtype == np.float64 and V.shape == (scenario.dimension, len(assignments))
    for column, assignment in zip(V.T, assignments):
        assert column.tobytes() == oracle_table(scenario, assignment).tobytes()
    assert not V.flags.writeable


# -- local models -----------------------------------------------------------

def test_uniform_local_model_behavior():
    w = np.full(16, 1.0 / 16.0)
    model = LocalModel(scenario=CHSH, weights=w)
    np.testing.assert_allclose(model.behavior().probs, 0.25, atol=1e-12)


def test_local_model_validation():
    with pytest.raises(ValidationError):
        LocalModel(scenario=CHSH, weights=np.full(15, 1.0 / 15.0))
    bad = np.full(16, 1.0 / 16.0)
    bad[0] = -0.01
    bad[1] += 0.01
    with pytest.raises(ValidationError):
        LocalModel(scenario=CHSH, weights=bad)
    with pytest.raises(ValidationError):
        LocalModel(scenario=CHSH, weights=np.full(16, 0.9 / 16.0))


@pytest.mark.parametrize("weights", ["ab", [[0.125] * 8, [0.125] * 7]], ids=["string", "ragged"])
def test_local_model_refuses_weights_that_are_not_numbers(weights):
    """numpy's own ValueError came through untyped."""
    with pytest.raises(ValidationError, match="strategy weights are not a table of numbers"):
        LocalModel(scenario=CHSH, weights=weights)


def test_local_model_rejects_non_finite_weights():
    with pytest.raises(ValidationError, match="finite"):
        LocalModel(scenario=CHSH, weights=np.full(16, np.nan))
    inf = np.zeros(16)
    inf[0] = np.inf
    with pytest.raises(ValidationError, match="finite"):
        LocalModel(scenario=CHSH, weights=inf)


def test_random_local_model_is_reproducible():
    a = random_local_model(CHSH, seed=11)
    b = random_local_model(CHSH, seed=11)
    c = random_local_model(CHSH, seed=12)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)
    beh = a.behavior()
    assert np.all(beh.probs >= 0.0)
    from bellbox import no_signalling_defect
    assert no_signalling_defect(beh).max_defect <= 1e-12


# -- functionals and bounds -------------------------------------------------

def test_functional_value_is_plain_dot():
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=16)
    f = BellFunctional(scenario=CHSH, coeffs=coeffs)
    beh = named_behavior("uniform", CHSH)
    assert f.value(beh) == pytest.approx(float(coeffs @ beh.probs), abs=1e-15)


def test_functional_length_checked():
    with pytest.raises(ValidationError):
        BellFunctional(scenario=CHSH, coeffs=np.zeros(15))


def test_chsh_functional_coefficients():
    f = chsh_functional()
    np.testing.assert_array_equal(f.coeffs, oracle_chsh_coeffs())


def test_chsh_functional_is_built_once_per_sign_pattern(monkeypatch):
    """The functional is immutable and its bound fixed, so a sign pattern
    met before is answered from the cache, without ``local_bound``."""
    import bellbox.polytope as polytope

    f = chsh_functional((1, -1, 1, 1))

    def no_bound(*args, **kwargs):
        raise AssertionError("local_bound ran for a cached sign pattern")

    monkeypatch.setattr(polytope, "local_bound", no_bound)
    assert chsh_functional([1, -1, 1, 1]) is f
    assert chsh_functional((1.0, -1.0, 1.0, 1.0)) is f
    assert not f.coeffs.flags.writeable
    with pytest.raises(ValidationError):
        chsh_functional((1, 0, 1, 1))


def test_chsh_local_bound_is_exactly_two():
    f = chsh_functional()
    bound, argmax = local_bound(f)
    assert bound == 2.0
    assert argmax == 0  # the all-zeros strategy already attains it
    assert f.local_bound == 2.0


def test_chsh_value_on_pr_box_is_four():
    f = chsh_functional()
    pr = named_behavior("pr_box")
    assert f.value(pr) == 4.0
    assert f.violation(pr) == 2.0


def test_local_bound_matches_bruteforce_on_lifted_scenario():
    rng = np.random.default_rng(21)
    coeffs = rng.integers(-3, 4, size=LIFTED.dimension).astype(float)
    f = BellFunctional(scenario=LIFTED, coeffs=coeffs)
    bound, argmax = local_bound(f)
    values = [float(coeffs @ oracle_table(LIFTED, s))
              for s in oracle_strategies(LIFTED)]
    assert bound == max(values)
    assert argmax == int(np.argmax(values))


def test_local_bound_of_large_integer_coefficients_does_not_overflow():
    """Integer coefficients past the int64 range are summed as floats:
    every CHSH coefficient 3e18 bounds at 4 x 3e18, and CHSH scaled by
    1e19 at 2e19, with no cast warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound, _ = local_bound(BellFunctional(scenario=CHSH, coeffs=np.full(16, 3e18)))
        scaled = local_bound(BellFunctional(scenario=CHSH, coeffs=chsh_functional().coeffs * 1e19))
    assert bound == pytest.approx(1.2e19, rel=1e-15)
    assert scaled == (2e19, 0)


BOUND_SCENARIOS = [
    Scenario(inputs_per_party=(3,), outputs=((2, 1, 3),)),
    CHSH, UNEVEN, LIFTED_32,
    Scenario(inputs_per_party=(2, 1, 2), outputs=((2, 3), (2,), (1, 2))),
    Scenario.uniform(3, 2, 2),
    Scenario.uniform(4, 2, 2),
]


@settings(deadline=None, max_examples=120)
@given(scenario=st.sampled_from(BOUND_SCENARIOS), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["zero", "small", "large", "dyadic", "float"]))
def test_local_bound_is_the_first_best_column_of_the_strategy_matrix(scenario, seed, kind):
    """The best response gives the maximum and the first argmax of
    c @ V on 1- to 4-party scenarios with uneven alphabets and a
    single-output input.  Small integers tie often, and the zero
    functional picks strategy 0.  Integers whose absolute sum is below
    2**53 and quarters are summed exactly by both routes; normal floats
    agree to round-off."""
    rng = np.random.default_rng(seed)
    d = scenario.dimension
    c = {"zero": lambda: np.zeros(d),
         "small": lambda: rng.integers(-2, 3, d).astype(float),
         "large": lambda: rng.integers(-(2**53 // d) + 1, 2**53 // d, d).astype(float),
         "dyadic": lambda: rng.integers(-8, 9, d) / 4.0,
         "float": lambda: rng.normal(size=d)}[kind]()
    values = c @ strategy_matrix(scenario)
    bound, index = local_bound(BellFunctional(scenario=scenario, coeffs=c))
    assert index == int(np.argmax(values))
    if kind == "float":
        assert bound == pytest.approx(values.max(), rel=1e-12, abs=1e-12)
    else:
        assert bound == values.max()
    if kind == "zero":
        assert (bound, index) == (0.0, 0)


# -- reduced coordinates ----------------------------------------------------

def test_reduced_dimensions():
    assert reduced_space(CHSH).shape == (8, 16)
    assert reduced_space(Scenario.uniform(2, 3, 2)).shape == (15, 36)
    assert reduced_space(LIFTED).shape == (24, 36)
    single = Scenario(inputs_per_party=(2, 2), outputs=((1, 1), (1, 1)))
    assert reduced_space(single).shape == (0, 4)
    assert enumerate_facets(single) == ()


def test_reduced_space_is_one_cached_read_only_matrix():
    M = reduced_space(CHSH)
    assert reduced_space(CHSH) is M
    assert not M.flags.writeable


def test_reduced_coords_of_vertices_are_binary_and_distinct():
    M = reduced_space(CHSH)
    V = strategy_matrix(CHSH)
    reduced = M @ V
    assert set(np.unique(reduced)) <= {0.0, 1.0}
    cols = {tuple(col) for col in reduced.T}
    assert len(cols) == 16


def test_reduced_coords_of_uniform_table():
    M = reduced_space(CHSH)
    r = M @ named_behavior("uniform", CHSH).probs
    # four single-party coords at one half, four joint coords at one quarter
    assert sorted(r) == [0.25] * 4 + [0.5] * 4


def test_functional_lift_preserves_pairing():
    M = reduced_space(CHSH)
    rng = np.random.default_rng(4)
    a = rng.normal(size=M.shape[0])
    beh = named_behavior("pr_box")
    lifted = M.T @ a
    assert float(a @ (M @ beh.probs)) == pytest.approx(
        float(lifted @ beh.probs), abs=1e-12)


# -- canonicalization -------------------------------------------------------

def test_canonical_chsh_is_unit_integer_form():
    f = canonicalize(chsh_functional())
    ints, bound = f.key()
    assert bound == 2
    assert sorted(set(ints)) == [-1, 1]
    assert f.key() == oracle_canonical_key(oracle_chsh_coeffs())


def test_canonicalize_removes_gauge_junk():
    proj = oracle_gauge_projector()
    base = oracle_chsh_coeffs()
    junk = np.zeros(16)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    junk[_idx(x, y, a, b)] += 0.3 + 0.1 * (2 * x + y)  # block shifts
    for b in range(2):  # one remote-input marginal-difference row as well
        junk[_idx(0, 0, 0, b)] += 0.7
        junk[_idx(0, 1, 0, b)] -= 0.7
    noisy = BellFunctional(scenario=CHSH, coeffs=0.37 * base + junk)
    assert canonicalize(noisy).key() == oracle_canonical_key(base, proj)
    assert canonicalize(noisy).key() == canonicalize(chsh_functional()).key()


def test_canonical_positivity_forms():
    proj = oracle_gauge_projector()
    raw = np.zeros(16)
    raw[6] = -1.0
    f = canonicalize(BellFunctional(scenario=CHSH, coeffs=raw))
    assert f.key() == oracle_canonical_key(raw, proj)
    ints, bound = f.key()
    assert max(abs(v) for v in ints) == 4  # quarters integerize at d = 4


def test_canonicalization_is_idempotent():
    f = canonicalize(chsh_functional())
    again = canonicalize(f)
    assert again.key() == f.key()
    np.testing.assert_allclose(again.coeffs, f.coeffs, atol=1e-12)



@pytest.mark.parametrize("case", ["chsh", "positivity", "random-232"])
def test_canonical_coefficients_are_free_of_input_noise(case):
    """Two inputs that differ by float noise share an integer form, and
    then their canonical coefficients are bit-identical."""
    rng = np.random.default_rng(7)
    if case == "chsh":
        sc, clean = CHSH, oracle_chsh_coeffs()
    elif case == "positivity":
        sc, clean = CHSH, np.where(np.arange(16) == 6, -1.0, 0.0)
    else:
        sc = Scenario.uniform(2, 3, 2)
        clean = rng.integers(-3, 4, size=sc.dimension) / 3.0
    noisy = clean + rng.normal(scale=1e-13, size=clean.size)
    a = canonicalize(BellFunctional(scenario=sc, coeffs=clean))
    b = canonicalize(BellFunctional(scenario=sc, coeffs=noisy))
    assert a.integer_coeffs is not None and b.key() == a.key()
    assert a.coeffs.tobytes() == b.coeffs.tobytes()
    assert a.local_bound == b.local_bound
    assert float(np.abs(a.coeffs).max()) == 1.0


# -- relabellings -----------------------------------------------------------

def reference_relabelling_perm(scenario, sigma, pis, taus) -> np.ndarray:
    """The permutation entry by entry: new party p takes old party
    sigma[p]'s data, its input x becomes pis[p][x], and its outputs rename
    through taus, flattened party-major by new input."""
    tau_lookup = {}
    pos = 0
    for p in range(scenario.parties):
        for x_new in range(scenario.inputs_per_party[p]):
            tau_lookup[(p, x_new)] = taus[pos]
            pos += 1
    perm = np.empty(scenario.dimension, dtype=np.intp)
    for old_inputs in scenario.joint_inputs():
        for old_outputs in scenario.joint_outputs(old_inputs):
            new_inputs = [0] * scenario.parties
            new_outputs = [0] * scenario.parties
            for p in range(scenario.parties):
                x_old = old_inputs[sigma[p]]
                x_new = pis[p][x_old]
                new_inputs[p] = x_new
                new_outputs[p] = tau_lookup[(p, x_new)][old_outputs[sigma[p]]]
            src = flat_index(scenario, old_inputs, old_outputs)
            dst = flat_index(scenario, tuple(new_inputs), tuple(new_outputs))
            perm[dst] = src
    return perm


def input_maps(scenario, sigma, p):
    """The input permutations of party p that carry party sigma[p]'s
    alphabets onto p's, or none when their input counts differ."""
    n = scenario.inputs_per_party[p]
    if scenario.inputs_per_party[sigma[p]] != n:
        return []
    return [pi for pi in itertools.permutations(range(n))
            if all(scenario.outputs[p][pi[x]] == scenario.outputs[sigma[p]][x] for x in range(n))]


def reference_relabellings(scenario):
    """Every relabelling in the package's order: party exchange, then
    input maps, then output maps, each lexicographic."""
    output_maps = [list(itertools.permutations(range(k))) for outs in scenario.outputs for k in outs]
    for sigma in itertools.permutations(range(scenario.parties)):
        maps = [input_maps(scenario, sigma, p) for p in range(scenario.parties)]
        for pis in itertools.product(*maps):
            for taus in itertools.product(*output_maps):
                yield reference_relabelling_perm(scenario, sigma, pis, taus)


def walking_relabelling_count(scenario) -> int:
    """The relabelling count, walking every party exchange and every
    input permutation."""
    exchanges = sum(math.prod(len(input_maps(scenario, sigma, p)) for p in range(scenario.parties))
                    for sigma in itertools.permutations(range(scenario.parties)))
    return exchanges * math.prod(math.factorial(k) for outs in scenario.outputs for k in outs)


@pytest.mark.parametrize("scenario", [CHSH, Scenario.uniform(2, 3, 2), Scenario.uniform(3, 2, 2),
                                      UNEVEN], ids=["chsh", "2-3-2", "3-2-2", "uneven"])
def test_relabellings_equal_the_entry_by_entry_reference(scenario):
    perms = relabellings(scenario)
    want = [p.tobytes() for p in reference_relabellings(scenario)]
    assert len(perms) == len(want) == walking_relabelling_count(scenario)
    assert [p.tobytes() for p in perms] == want


@pytest.mark.parametrize("scenario", [
    CHSH, LIFTED, LIFTED_32, UNEVEN,
    Scenario.uniform(2, 3, 2),
    Scenario.uniform(3, 2, 2),
    Scenario.uniform(1, 4, 3),
    Scenario(inputs_per_party=(2, 1), outputs=((2, 3), (2,))),
    Scenario(inputs_per_party=(3, 3), outputs=((2, 2, 3), (3, 2, 2))),
    Scenario(inputs_per_party=(2, 2, 2), outputs=((2, 3), (3, 2), (2, 2))),
    Scenario(inputs_per_party=(3, 3, 3), outputs=((2, 3, 2), (2, 2, 2), (2, 2, 3))),
])
def test_relabelling_count_equals_the_walking_count(scenario):
    assert polytope._relabelling_count(scenario) == walking_relabelling_count(scenario)


@pytest.mark.parametrize("scenario", [Scenario.uniform(2, 12, 2), Scenario.uniform(10, 2, 2)],
                         ids=["2-12-2", "10-2-2"])
def test_relabelling_cap_refuses_before_any_permutation_is_drawn(scenario):
    with mock.patch.object(polytope, "_party_exchanges", side_effect=AssertionError("drawn")):
        with pytest.raises(SizeCapError, match="relabellings exceed"):
            relabellings(scenario)


def test_relabelling_memory_cap_refuses_before_any_permutation_is_drawn():
    """(3,3,2) has 663,552 relabellings, under the count cap, of 216
    entries each: 143M index entries, about 1.15 GB, which were built and
    then kept by the cache."""
    with mock.patch.object(polytope, "_party_exchanges", side_effect=AssertionError("drawn")):
        with pytest.raises(SizeCapError, match=r"relabellings of 663552x216 = 143327232 entries"):
            relabellings(Scenario.uniform(3, 3, 2))


def test_relabelling_group_size():
    perms = relabellings(CHSH)
    assert len(perms) == 128
    identity = np.arange(16)
    assert sum(1 for p in perms if np.array_equal(p, identity)) == 1


def test_relabellings_are_permutations():
    for p in relabellings(CHSH):
        assert sorted(p) == list(range(16))


def test_relabelling_preserves_local_bound():
    f = chsh_functional()
    family = oracle_chsh_family_keys()
    for p in relabellings(CHSH)[:32]:
        g = relabel_functional(f, p)
        bound, _ = local_bound(g)
        assert bound == 2.0
        assert canonicalize(g).key() in family


def test_index_permutation_recomputes_the_local_bound():
    """A permutation of the entries that is no relabelling can move the
    bound: swapping CHSH's first two entries lifts it from 2 to 4."""
    f = chsh_functional()
    perm = np.arange(CHSH.dimension)
    perm[[0, 1]] = [1, 0]
    g = relabel_functional(f, perm)
    assert g.coeffs.tolist() == f.coeffs[perm].tolist()
    assert g.local_bound == local_bound(g)[0] == 4.0
    unbounded = BellFunctional(scenario=CHSH, coeffs=f.coeffs)
    assert relabel_functional(unbounded, perm).local_bound is None


def test_relabelling_orbit_of_chsh_has_eight_elements():
    f = chsh_functional()
    keys = {canonicalize(relabel_functional(f, p)).key()
            for p in relabellings(CHSH)}
    assert keys == oracle_chsh_family_keys()


# -- facet enumeration ------------------------------------------------------

@pytest.fixture(scope="module")
def chsh_facets():
    return enumerate_facets(CHSH)


def test_facet_count(chsh_facets):
    assert len(chsh_facets) == 24


def test_facet_families(chsh_facets):
    proj = oracle_gauge_projector()
    keys = {f.key() for f in chsh_facets}
    assert len(keys) == 24
    expected = oracle_chsh_family_keys() | oracle_positivity_family_keys(proj)
    assert keys == expected


@pytest.mark.parametrize(("scenario", "count"), [
    (CHSH, 24),
    (Scenario((2, 2), ((2, 3), (2, 2))), 44),
    (Scenario((2, 3), ((2, 2), (2, 2, 2))), 48),
    (Scenario((1, 1, 2), ((2,), (2,), (2, 2))), 16),
    (Scenario((2, 2), ((2, 3), (2, 3))), 97),
], ids=["chsh", "23-22", "22-222", "2-2-22", "23-23"])
def test_facets_are_supporting_and_tight(scenario, count):
    """Each facet's maximum over the vertices is its bound, and the
    vertices it saturates span a hyperplane of the local polytope, which
    has the dimension r of the reduced coordinates."""
    facets = enumerate_facets(scenario)
    assert len(facets) == count
    r = reduced_space(scenario).shape[0]
    V = strategy_matrix(scenario)
    for f in facets:
        values = f.coeffs @ V
        assert values.max() == pytest.approx(f.local_bound, abs=1e-9)
        tight = np.abs(values - f.local_bound) <= 1e-9
        assert tight.sum() >= r
        pts = V[:, tight].T
        centered = pts[1:] - pts[0]
        assert np.linalg.matrix_rank(centered, tol=1e-9) == r - 1


def test_facets_closed_under_relabellings(chsh_facets):
    keys = {f.key() for f in chsh_facets}
    for p in relabellings(CHSH):
        mapped = {canonicalize(relabel_functional(f, p)).key()
                  for f in chsh_facets}
        assert mapped == keys


def test_facets_match_bruteforce_hyperplanes(chsh_facets):
    """Every affinely independent 8-subset of vertices that spans a
    supporting hyperplane must reproduce a reported facet, and the two
    routes must find the same family."""
    G = oracle_reduction_matrix()
    tables = [oracle_table(CHSH, s) for s in oracle_strategies(CHSH)]
    V = G @ np.column_stack(tables)  # 8 x 16, columns are vertices
    proj = oracle_gauge_projector()
    found = set()
    for subset in itertools.combinations(range(16), 8):
        pts = V[:, subset].T  # 8 points in R^8
        system = np.hstack([pts, -np.ones((8, 1))])  # rows (v, -1) . (a, s) = 0
        _, s, vt = np.linalg.svd(system)
        if s[-1] <= 1e-9:
            continue  # affinely degenerate points do not fix a hyperplane
        a, shift = vt[-1][:8], vt[-1][8]
        values = a @ V
        if values.max() <= shift + 1e-9:
            pass
        elif values.min() >= shift - 1e-9:
            a, shift = -a, -shift
        else:
            continue  # cuts through the polytope
        full = G.T @ a
        found.add(oracle_canonical_key(full, proj))
    assert found == {f.key() for f in chsh_facets}


def test_facet_enumeration_is_deterministic(chsh_facets):
    again = enumerate_facets(CHSH)
    assert [f.key() for f in again] == [f.key() for f in chsh_facets]
    for f, g in zip(again, chsh_facets):
        np.testing.assert_array_equal(f.coeffs, g.coeffs)


def test_facet_output_is_sorted(chsh_facets):
    keys = [f.key() for f in chsh_facets]
    assert keys == sorted(keys)


def test_3322_facet_census():
    """(2,3,2) has 684 facets in three relabelling classes: 36 positivity,
    72 CHSH and 576 I3322 facets (Collins and Gisin, J. Phys. A 37, 1775
    (2004)); each class is the orbit of any one of its members."""
    sc = Scenario.uniform(2, 3, 2)
    facets = {f.key(): f for f in enumerate_facets(sc)}
    assert len(facets) == 684
    perms = relabellings(sc)
    sizes = []
    while facets:
        member = next(iter(facets.values()))
        orbit = {canonicalize(relabel_functional(member, p)).key() for p in perms}
        assert orbit <= facets.keys()
        sizes.append(len(orbit))
        for key in orbit:
            del facets[key]
    assert sorted(sizes) == [36, 72, 576]


def test_3322_facet_enumeration_holds_no_pair_by_ray_matrix():
    """Double description counted the third rays of every candidate pair
    in one pair x ray product, which peaked past 30 MB on (2,3,2); it is
    now counted in blocks of at most 2**18 entries."""
    tracemalloc.start()
    try:
        facets = enumerate_facets(Scenario.uniform(2, 3, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(facets) == 684
    assert peak <= 8e6


def test_facet_caps():
    with pytest.raises(SizeCapError):
        enumerate_facets(Scenario.uniform(3, 2, 2))
    with pytest.raises(SizeCapError):
        enumerate_facets(Scenario.uniform(2, 5, 2))
