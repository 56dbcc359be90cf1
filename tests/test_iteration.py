import numpy as np
import pytest

from vectorgain.gains import Linear, Power, Scale, Zero
from vectorgain.iteration import iterate, sandwich_oracle, lfp_bound_check
from vectorgain.network import GainMatrix, gamma_apply, q_operator
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
