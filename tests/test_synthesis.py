import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vectorgain.gains import Linear, LogExpSq, Max, Power, Scale, Zero
from vectorgain.iteration import lfp_bound_check
from vectorgain.network import (
    GainMatrix, _gamma_step, as_plus_vec, check_small_gain, gamma_apply,
    matrix_to_json, q_operator,
)
from vectorgain.synthesis import (
    QEnvelope, SmallGainRequired, SynthesisInput, ThetaInner, build_phi,
    overall_gain,
)
from conftest import random_verified_matrix
from oracles import phi_oracle, theta_oracle


def _zeros(n):
    return tuple(Zero() for _ in range(n))


def test_build_phi_requires_small_gain():
    G = GainMatrix.zeros(2)
    G = G.with_entry(0, 1, Linear(1.1))
    G = G.with_entry(1, 0, Linear(1.0))
    with pytest.raises(SmallGainRequired):
        build_phi(G)


def test_phi_matches_all_chain_oracle(rng):
    """The Q-closure equals the literal all-chain (repeats allowed)
    evaluation under the small-gain condition."""
    for _ in range(30):
        n = int(rng.integers(2, 5))
        G = random_verified_matrix(rng, n)
        phi = build_phi(G)
        for _ in range(5):
            s = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e4))))
            for i in range(n):
                assert phi[i](s) == pytest.approx(phi_oracle(G, i, s),
                                                  rel=1e-12)


def test_phi_is_identity_without_couplings():
    phi = build_phi(GainMatrix.zeros(3))
    for s in (0.0, 1.0, 5.5):
        assert all(f(s) == s for f in phi)


def test_theta_matches_nested_loop_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        G = random_verified_matrix(rng, n)
        zeta = Linear(float(rng.uniform(0.1, 2.0)))
        p_list = tuple(Linear(float(rng.uniform(0.0, 1.5))) for _ in range(n))
        M = float(rng.choice([1.0, 1.7]))
        inp = SynthesisInput(gains=G, zeta=zeta, p_list=p_list,
                             a1=Linear(1.0), M=M)
        theta = overall_gain(inp).theta
        for _ in range(5):
            s = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e4))))
            assert theta(s) == pytest.approx(
                theta_oracle(G, zeta, p_list, s, M), rel=1e-12)


def test_theta_zero_input_gain_gives_zero():
    G = random_verified_matrix(np.random.default_rng(0), 3)
    inp = SynthesisInput(gains=G, zeta=Zero(), p_list=_zeros(3),
                         a1=Linear(1.0))
    theta = overall_gain(inp).theta
    for s in (0.0, 1.0, 100.0):
        assert theta(s) == 0.0


def test_overall_gain_single_node_analytic():
    # one node, no couplings, zeta(s) = (s/lam)^2/2, a1(s) = s^2/2:
    # overall = a1^{-1}(zeta(s)) = s/lam
    lam = 0.9
    inp = SynthesisInput(gains=GainMatrix.zeros(1),
                         zeta=Power(1.0 / (2.0 * lam * lam), 2.0),
                         p_list=_zeros(1), a1=Power(0.5, 2.0))
    comp = overall_gain(inp)
    for s in (0.01, 1.0, 42.0):
        assert comp.overall(s) == pytest.approx(s / lam, rel=1e-9)
        assert comp.gmap[0](s) == pytest.approx(0.5 * (s / lam) ** 2, rel=1e-12)
    assert comp.overall(0.0) == 0.0


def test_overall_gain_lazy_inverse_bisection():
    # non-analytic a1 forces the bisection path
    from vectorgain.gains import LogExpSq
    inp = SynthesisInput(gains=GainMatrix.zeros(1), zeta=Linear(1.0),
                         p_list=_zeros(1), a1=LogExpSq(0.5, 0.9))
    comp = overall_gain(inp)
    a1 = LogExpSq(0.5, 0.9)
    for s in (0.1, 3.0):
        g = comp.overall(s)
        assert a1(g) == pytest.approx(s, abs=1e-9)


def test_theta_dominates_gmap(rng):
    G = random_verified_matrix(rng, 3)
    inp = SynthesisInput(gains=G, zeta=Linear(0.5), p_list=_zeros(3),
                         a1=Linear(1.0))
    comp = overall_gain(inp)
    for s in np.logspace(-3, 3, 20):
        vals = [g(float(s)) for g in comp.gmap]
        assert comp.theta(float(s)) == max(vals)


def test_composite_gain_json(rng):
    import json
    G = random_verified_matrix(rng, 2)
    inp = SynthesisInput(gains=G, zeta=Linear(0.5), p_list=_zeros(2),
                         a1=Power(0.25, 2.0))
    comp = overall_gain(inp)
    d = comp.to_json()
    json.dumps(d)
    assert set(d) == {"gains", "phi", "theta", "gmap", "overall"}
    # the matrix is written once, at the top level
    assert d["gains"] == matrix_to_json(G)
    assert d["overall"]["kind"] == "inverse_compose"
    assert d["overall"]["inner"] == d["theta"]
    assert [f["index"] for f in d["phi"]] == [1, 2]
    assert [g["index"] for g in d["gmap"]] == [1, 2]
    assert d["theta"]["index"] is None
    for node in d["phi"] + d["gmap"] + [d["theta"]]:
        assert node["kind"] == "q_envelope"
        assert "gains" not in node
    assert d["phi"][0]["inner"] == {"kind": "linear", "k": 1.0}
    assert d["theta"]["inner"]["kind"] == "theta_inner"
    assert "gains" not in d["theta"]["inner"]
    assert d["theta"]["inner"]["zeta"] == {"kind": "linear", "k": 0.5}


def test_synthesis_input_validation():
    G = GainMatrix.zeros(2)
    with pytest.raises(ValueError):
        SynthesisInput(gains=G, zeta=Zero(), p_list=_zeros(3), a1=Linear(1.0))
    with pytest.raises(ValueError):
        SynthesisInput(gains=G, zeta=Zero(), p_list=_zeros(2), a1=Linear(1.0),
                       M=0.5)


# -- the float core against the numpy formulas it replaced --------------------

def _numpy_q(G, x):
    """q_operator as it was written with one numpy accumulator."""
    v = as_plus_vec(x, G.n)
    acc = v.copy()
    cur = v.tolist()
    for _ in range(G.n - 1):
        cur = _gamma_step(G, cur)
        acc = np.maximum(acc, cur)
    return acc


def _numpy_envelope(G, inner, index, s):
    q = _numpy_q(G, np.full(G.n, inner._eval(s)))
    return float(q.max() if index is None else q[index])


def _numpy_theta_inner(G, zeta, p_list, M, s):
    z = zeta._eval(s)
    y = gamma_apply(G, _numpy_q(G, np.full(G.n, z)))
    pu = max([z] + [p(z) for p in p_list])
    # p gets numpy scalars here, whose arithmetic warns where it overflows
    # to inf or makes 0*inf = NaN
    with np.errstate(over="ignore", invalid="ignore"):
        py = max(max(yi, p(yi)) for yi, p in zip(y, p_list))
    return float(max(M * pu, M * py, z))


def _numpy_lfp_bound_check(G, a, max_steps=1000, tol_conv=1e-9):
    av = as_plus_vec(a, G.n)
    if not check_small_gain(G).holds:
        raise ValueError("precondition: small-gain condition not established")
    a_list = x = av.tolist()
    for _ in range(max_steps):
        y = _gamma_step(G, x)
        if not all(map(math.isfinite, y)):
            raise ValueError("vector entries must be finite and >= 0")
        prev, x = x, list(map(max, a_list, y))
        if max(abs(u - v) for u, v in zip(x, prev)) < tol_conv:
            break
    else:
        raise RuntimeError(
            f"fixed-point iteration did not settle in {max_steps} steps")
    return bool(np.all(np.less_equal(x, _numpy_q(G, av) + tol_conv)))


def _outcome(f, *args, show=repr):
    """show(f(*args)), or the type and message of what f raised."""
    try:
        return "value", show(f(*args))
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


# zero coefficients of either sign, so Q meets zeros of both signs; Power(1,
# 500) overflows to inf past s = 4.2, at the last Gamma step or before it,
# and Scale(0, .) turns that inf into NaN
_COEF = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 3.0))
_LEAVES = st.one_of(
    st.just(Zero()),
    st.builds(Linear, _COEF),
    st.builds(Power, _COEF, st.floats(0.2, 3.0)),
    st.builds(LogExpSq, st.floats(0.01, 2.0), st.floats(0.01, 3.0)),
    st.sampled_from([Power(1.0, 500.0), Scale(0.0, Power(1.0, 500.0))]))
_GAINS = st.one_of(_LEAVES, st.builds(Max, _LEAVES, _LEAVES))
_POINTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5.0]),
                    st.floats(0.0, 1e6))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_GAINS, min_size=n, max_size=n), min_size=n,
             max_size=n),
    st.lists(_GAINS, min_size=n, max_size=n),
    st.lists(_POINTS, min_size=n, max_size=n),
    st.one_of(st.none(), st.integers(0, n - 1)))),
    _GAINS, _POINTS, st.sampled_from([1.0, 1.7]))
def test_float_core_matches_numpy_formulas_to_the_byte(case, zeta, s, M):
    entries, p_list, x, index = case
    G = GainMatrix.from_entries(entries)
    p_list = tuple(p_list)
    tobytes = lambda v: (v.dtype, v.shape, v.tobytes())
    assert (_outcome(q_operator, G, x, show=tobytes)
            == _outcome(_numpy_q, G, x, show=tobytes))
    inner = ThetaInner(G, zeta, p_list, M)
    assert (_outcome(inner._eval, s)
            == _outcome(_numpy_theta_inner, G, zeta, p_list, M, s))
    for env_inner in (Linear(1.0), inner):
        assert (_outcome(QEnvelope(G, env_inner, index)._eval, s)
                == _outcome(_numpy_envelope, G, env_inner, index, s))
    assert (_outcome(lfp_bound_check, G, x)
            == _outcome(_numpy_lfp_bound_check, G, x))


def test_an_inf_from_the_last_gamma_step_reaches_theta_inner_only():
    # with n = 2, Q takes one Gamma step, and Gamma(5*1) holds inf: Q keeps
    # it, since no later step checks it, and ThetaInner's Gamma(Q) raises
    G = GainMatrix.from_entries([[Zero(), Power(1.0, 500.0)],
                                 [Zero(), Zero()]])
    q = q_operator(G, [5.0, 5.0])
    assert q.tolist() == [math.inf, 5.0]
    assert q.tobytes() == _numpy_q(G, [5.0, 5.0]).tobytes()
    assert QEnvelope(G, Linear(1.0))(5.0) == math.inf
    with pytest.raises(ValueError, match="finite"):
        ThetaInner(G, Linear(1.0), (Zero(), Zero()), 1.0)(5.0)
