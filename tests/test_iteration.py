import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vectorgain.gains import Linear, LogExpSq, Power, Scale, Zero
from vectorgain.iteration import (
    DIVERGENCE_BOUND, TOL_CONV, iterate, lfp_bound_check,
)
from vectorgain.network import (
    GainMatrix, _gamma_step, as_plus_vec, check_small_gain, gamma_apply,
    q_operator,
)
from vectorgain.recipes import random_linear_matrix
from conftest import random_verified_matrix


def _two_node(k12, k21):
    G = GainMatrix.zeros(2)
    G = G.with_entry(0, 1, Linear(k12))
    return G.with_entry(1, 0, Linear(k21))


def test_iterate_converges_on_contractive():
    res = iterate(_two_node(0.5, 0.5), [1.0, 2.0])
    assert res.converged
    assert res.sup_norm_trace[-1] < 1e-9
    assert res.steps < 200
    # geometric decay: every two steps shrink by the cycle product
    tr = res.sup_norm_trace
    assert all(tr[k + 2] <= 0.25 * tr[k] + 1e-300 for k in range(len(tr) - 2))


def test_iterate_detects_divergence():
    G = GainMatrix.zeros(1).with_entry(0, 0, Linear(2.0))
    res = iterate(G, [1.0], max_steps=200)
    assert res.status == "diverged"


def test_iterate_stalls_at_critical_gain():
    G = GainMatrix.zeros(1).with_entry(0, 0, Linear(1.0))
    res = iterate(G, [1.0], max_steps=50)
    assert res.status == "stalled"
    assert res.sup_norm_trace[-1] == 1.0


@pytest.mark.parametrize("k, tol_conv, max_steps, status, steps", [
    (0.5, 2.0, 1, "converged", 0),      # converged before the first step
    (0.5, 0.6, 1, "converged", 1),      # 0.5 < 0.6 after the only step
    (0.5, 0.3, 1, "stalled", 1),
    (0.5, 0.3, 2, "converged", 2),      # 0.25 < 0.3 at the last step
    (10.0, 1e-9, 12, "stalled", 12),    # 1e12 is not past the bound
    (10.0, 1e-9, 13, "diverged", 13),   # 1e13 is, at the last step
])
def test_iterate_stopping_at_the_step_cap(k, tol_conv, max_steps, status,
                                          steps):
    G = GainMatrix.zeros(1).with_entry(0, 0, Linear(k))
    res = iterate(G, [1.0], max_steps=max_steps, tol_conv=tol_conv)
    assert (res.status, res.steps) == (status, steps)
    assert res.iterates.shape == (steps + 1, 1)


def test_iterate_validates_input():
    G = _two_node(0.5, 0.5)
    with pytest.raises(ValueError):
        iterate(G, [1.0])  # wrong dimension
    with pytest.raises(ValueError):
        iterate(G, [1.0, 2.0], max_steps=0)


def test_iterates_are_one_read_only_array():
    G = _two_node(0.5, 0.4)
    res = iterate(G, [1.0, 2.0])
    assert res.iterates.shape == (res.steps + 1, 2)
    assert np.array_equal(res.iterates[1], gamma_apply(G, [1.0, 2.0]))
    assert res.sup_norm_trace == tuple(res.iterates.max(axis=1).tolist())
    with pytest.raises(ValueError):
        res.iterates[0, 0] = 0.0


def test_non_finite_step_raises_value_error():
    # Power(1, 500)(5) overflows to inf and Scale(0, .) turns it into nan;
    # small gain holds, since the only cycle collapses to Zero
    inf_nan = Scale(0.0, Power(1.0, 500.0))
    G = GainMatrix.from_entries([[inf_nan, Zero()], [Power(1.0, 500.0), Zero()]])
    with pytest.raises(ValueError, match="finite"):
        iterate(G, [5.0, 5.0])  # at step 2, whose input holds nan
    with pytest.raises(ValueError, match="finite"):
        lfp_bound_check(G, [5.0, 5.0], max_steps=1)  # not "did not settle"
    G3 = GainMatrix.from_entries([[Zero(), Power(1.0, 500.0), Zero()],
                                  [Zero(), Zero(), Zero()],
                                  [Zero(), Zero(), Zero()]])
    with pytest.raises(ValueError, match="finite"):
        q_operator(G3, [0.0, 5.0, 0.0])  # Gamma(x) holds inf, Gamma^2 raises


# Scale(0, Power(1, 500)) turns 5.0 into 0 * inf = nan
_NAN_GAIN = Scale(0.0, Power(1.0, 500.0))


@pytest.mark.parametrize("entries, max_steps, outcome", [
    # a step of [5e13, nan]: its max is nan, not past the divergence bound
    ([[Zero(), Linear(1e13)], [_NAN_GAIN, Zero()]], 200, "raises"),
    # a step of [0.0, nan]: its max is nan, not below tol_conv
    ([[Zero(), Zero()], [_NAN_GAIN, Zero()]], 200, "raises"),
    ([[Zero(), Zero()], [_NAN_GAIN, Zero()]], 1, "stalled"),
])
def test_nan_anywhere_in_a_step_decides_its_stopping_test(entries, max_steps,
                                                          outcome):
    G = GainMatrix.from_entries(entries)
    if outcome == "raises":
        with pytest.raises(ValueError, match="finite"):
            iterate(G, [5.0, 5.0], max_steps=max_steps)
        return
    res = iterate(G, [5.0, 5.0], max_steps=max_steps)
    assert (res.status, res.steps) == ("stalled", 1)
    assert repr(res.sup_norm_trace) == "(5.0, nan)"


def _numpy_step_iterate(G, x0, max_steps, tol_conv):
    """iterate as it was written with one numpy array and max per step."""
    x = as_plus_vec(x0, G.n)
    xs = x.tolist()
    iterates = [x]
    trace = [float(x.max())]
    for steps in range(max_steps + 1):
        if trace[-1] < tol_conv:
            status = "converged"
            break
        if trace[-1] > DIVERGENCE_BOUND:
            status = "diverged"
            break
        if steps == max_steps:
            status = "stalled"
            break
        xs = _gamma_step(G, xs)
        x = np.array(xs)
        iterates.append(x)
        trace.append(float(x.max()))
    return np.array(iterates), status, steps, tuple(trace)


_GAINS = st.one_of(
    st.just(Zero()),
    st.builds(Linear, st.floats(0.0, 3.0)),
    st.builds(Power, st.floats(0.0, 3.0), st.floats(0.2, 3.0)),
    st.builds(LogExpSq, st.floats(0.01, 2.0), st.floats(0.01, 3.0)))
_STARTS = st.one_of(st.sampled_from([0.0, -0.0, 1e-12]), st.floats(0.0, 50.0))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_GAINS, min_size=n, max_size=n), min_size=n,
             max_size=n),
    st.lists(_STARTS, min_size=n, max_size=n))),
    st.integers(1, 80), st.sampled_from([1e-9, 1e-3, 0.5]))
def test_iterate_matches_numpy_step_loop(case, max_steps, tol_conv):
    entries, x0 = case
    G = GainMatrix.from_entries(entries)
    try:
        rows, status, steps, trace = _numpy_step_iterate(G, x0, max_steps,
                                                         tol_conv)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            iterate(G, x0, max_steps, tol_conv)
        return
    res = iterate(G, x0, max_steps, tol_conv)
    assert res.iterates.shape == rows.shape
    assert res.iterates.tobytes() == rows.tobytes()
    assert (res.status, res.steps) == (status, steps)
    assert repr(res.sup_norm_trace) == repr(trace)


def test_iterates_monotone_from_dominating_start(rng):
    """From a start x with Gamma(x) <= x, iterates decrease monotonically."""
    for _ in range(20):
        G = random_verified_matrix(rng, int(rng.integers(2, 5)))
        x = rng.uniform(0.5, 2.0, size=G.n)
        # scale x up until it dominates its image (possible under small gain)
        for _ in range(60):
            if np.all(gamma_apply(G, x) <= x):
                break
            x = np.maximum(x, gamma_apply(G, x))
        res = iterate(G, x, max_steps=300)
        seq = res.iterates
        for a, b in zip(seq, seq[1:]):
            assert np.all(b <= a)


def sandwich_oracle(G, x, y, max_steps=200):
    """Convergence of iterates from y when y <= x and Gamma(x) <= x.

    Also asserts the sandwich Gamma^(k)(y) <= Gamma^(k)(x) at every step.
    Preconditions (dominance, decrease at x, small gain) are enforced.
    """
    cx = as_plus_vec(x, G.n).tolist()
    cy = as_plus_vec(y, G.n).tolist()
    if not all(map(operator.le, _gamma_step(G, cx), cx)):
        raise ValueError("precondition Gamma(x) <= x fails")
    if not all(map(operator.le, cy, cx)):
        raise ValueError("precondition y <= x fails")
    if not check_small_gain(G).holds:
        raise ValueError("precondition: small-gain condition not established")
    for _ in range(max_steps):
        cx = _gamma_step(G, cx)
        cy = _gamma_step(G, cy)
        # false on nan too, so the Python max below never sees one
        if not all(map(operator.le, cy, cx)):
            raise AssertionError("sandwich Gamma^(k)(y) <= Gamma^(k)(x) broken")
        if max(cy) < TOL_CONV:
            return True
    return max(cy) < TOL_CONV


def test_sandwich_oracle_accepts_valid_setup(rng):
    for _ in range(10):
        G = random_verified_matrix(rng, 3)
        x = np.full(3, 1.0)
        for _ in range(60):
            x = np.maximum(x, gamma_apply(G, x))
        y = x * rng.uniform(0.0, 1.0, size=3)
        assert sandwich_oracle(G, x, y, max_steps=5000)


def test_sandwich_oracle_enforces_preconditions():
    G = _two_node(0.5, 0.5)
    with pytest.raises(ValueError):
        sandwich_oracle(G, [1.0, 1.0], [2.0, 2.0])  # y > x
    bad = _two_node(1.5, 1.5)
    with pytest.raises(ValueError):
        sandwich_oracle(bad, [1.0, 1.0], [0.5, 0.5])


def test_lfp_bound_random_instances(rng):
    for _ in range(50):
        G = random_verified_matrix(rng, int(rng.integers(2, 5)))
        a = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=G.n))
        assert lfp_bound_check(G, a)


def test_lfp_fixed_point_is_exactly_q_on_linear_example():
    # single 2-cycle: fixed point of x -> MAX{a, Gamma(x)} from a is
    # reached after two sweeps and equals Q(a)
    G = _two_node(0.5, 0.4)
    a = np.array([1.0, 2.0])
    assert lfp_bound_check(G, a)
    q = q_operator(G, a)
    assert np.array_equal(q, np.array([1.0, 2.0]))  # couplings below a here


def test_lfp_requires_small_gain():
    with pytest.raises(ValueError):
        lfp_bound_check(_two_node(1.2, 1.0), [1.0, 1.0])
