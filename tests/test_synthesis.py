import math

import numpy as np
import pytest

from vectorgain.gains import Linear, Max, Power, Zero
from vectorgain.network import GainMatrix, check_small_gain, matrix_to_json
from vectorgain.synthesis import (
    SmallGainRequired, SynthesisInput, build_phi, overall_gain,
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
