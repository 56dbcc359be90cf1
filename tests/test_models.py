import json
import math

import numpy as np
import pytest

from vectorgain.models import (
    ModelError, SystemSpec, biochem_equilibrium, biochem_hypothesis, make_g,
    model_delays, model_dim, model_rhs, spec_from_json, spec_to_json,
)
from vectorgain.signals import Signal, signal_from_json, signal_to_json


# -- signals ----------------------------------------------------------------

def test_signal_kinds():
    assert Signal()(3.0) == 0.0
    assert Signal(kind="constant", value=2.5)(10.0) == 2.5
    s = Signal(kind="sinusoid", amplitude=2.0, frequency=0.5)
    assert s(0.0) == pytest.approx(0.0, abs=1e-12)
    assert s(0.5) == pytest.approx(2.0, rel=1e-12)
    pw = Signal(kind="piecewise", times=[0.0, 1.0, 2.0], values=[1.0, -1.0, 4.0])
    assert pw(0.5) == 1.0 and pw(1.5) == -1.0 and pw(10.0) == 4.0


def test_noise_signal_deterministic_and_order_independent():
    a = Signal(kind="noise", amplitude=1.0, seed=7, dt_switch=0.5)
    b = Signal(kind="noise", amplitude=1.0, seed=7, dt_switch=0.5)
    # query in different orders; values must agree pointwise
    ts = [0.1, 3.2, 1.7, 0.9, 3.2]
    va = [a(t) for t in ts]
    vb = [b(t) for t in reversed(ts)]
    assert va == list(reversed(vb))
    assert all(abs(v) <= 1.0 for v in va)
    # piecewise-constant on switching intervals
    assert a(0.1) == a(0.4) and a(0.1) != a(0.6)


def test_noise_signal_forward_sweep_draws_geometrically(monkeypatch):
    real = np.random.default_rng
    created = []

    def counting_rng(seed):
        created.append(seed)
        return real(seed)
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    K = 10_000
    sig = Signal(kind="noise", amplitude=2.0, seed=11, dt_switch=0.1)
    values = [sig((k + 0.5) * 0.1) for k in range(K)]
    assert values == list(real(11).uniform(-2.0, 2.0, size=K))
    assert len(created) <= 2 + math.ceil(math.log2(K))


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(kind="ramp")
    with pytest.raises(ValueError):
        Signal(kind="piecewise", times=[1.0, 0.5], values=[1.0, 2.0])
    with pytest.raises(ValueError):
        Signal(kind="noise", dt_switch=0.0)


def test_signal_json_round_trip():
    for sig in [Signal(), Signal(kind="constant", value=3.0),
                Signal(kind="sinusoid", amplitude=1.0, frequency=2.0, phase=0.3),
                Signal(kind="piecewise", times=[0.0, 1.0], values=[1.0, 0.0]),
                Signal(kind="noise", amplitude=0.5, seed=3, dt_switch=0.25)]:
        d = signal_to_json(sig)
        json.dumps(d)
        sig2 = signal_from_json(d)
        for t in (0.0, 0.3, 2.7):
            assert sig2(t) == sig(t)


# -- registry and validation ------------------------------------------------

def test_unknown_model_rejected():
    with pytest.raises(ModelError):
        SystemSpec(kind="ode", model="no_such_model")
    with pytest.raises(ModelError):
        SystemSpec(kind="orbit", model="scalar_linear")


def test_linear_delay_network_validation():
    ok = SystemSpec(kind="delay", model="linear_delay_network",
                    params={"a": [1.0, 1.0], "c": [[0.1, 0.2], [0.3, 0.4]],
                            "r": 0.5})
    assert model_dim(ok) == 2
    assert model_delays(ok) == [0.5]
    with pytest.raises(ModelError):
        SystemSpec(kind="delay", model="linear_delay_network",
                   params={"a": [1.0], "c": [[0.1, 0.2]], "r": 0.5})
    with pytest.raises(ModelError):
        SystemSpec(kind="delay", model="linear_delay_network",
                   params={"a": [1.0], "c": [[-0.1]], "r": 0.5})


def test_biochem_validation():
    ok = SystemSpec(kind="delay", model="biochem_circuit",
                    params={"a": [1.0, 2.0], "tau": [0.1, 0.2],
                            "g": {"form": "mm", "c": 3.0, "K": 1.0}})
    assert model_dim(ok) == 2
    assert set(model_delays(ok)) == {0.1, 0.2}
    with pytest.raises(ModelError):
        SystemSpec(kind="delay", model="biochem_circuit",
                   params={"a": [1.0], "tau": [0.1],
                           "g": {"form": "mm", "c": -1.0, "K": 1.0}})


def test_make_g_forms():
    mm = make_g({"form": "mm", "c": 3.0, "K": 1.0})
    assert mm(2.0) == pytest.approx(2.0)
    hill = make_g({"form": "hill", "c": 2.0, "p": 2.0})
    assert hill(1.0) == pytest.approx(1.0)
    with pytest.raises(ModelError):
        make_g({"form": "linear"})


# -- right-hand sides against row-wise transcriptions -----------------------

class _StubHistory:
    """Stands in for the integrator's history: made-up functions of t.

    interp returns multiples of 1/16, so with coefficients in eighths every
    product and partial sum of a delayed_linear row is exact and the
    order of summation cannot matter.
    """

    def __init__(self, n, seed):
        rng = np.random.default_rng(seed)
        self.amp = rng.uniform(0.2, 2.0, n)
        self.freq = rng.uniform(0.5, 3.0, n)
        self.w = rng.uniform(0.0, 1.5, n)

    def interp(self, t):
        return np.round(16.0 * self.amp * np.cos(self.freq * t)) / 16.0

    def window_absmax(self, t):
        return self.w * (1.0 + 0.1 * math.sin(t))


def _same_bits(got, ref):
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _ldn_rowwise(p, d_sig, t, x, hist):
    """The model comment, one row at a time."""
    a, c, n = p["a"], p["c"], len(p["a"])
    scale = d_sig(t) if d_sig.kind != "zero" else 1.0
    if p["coupling"] == "sign_aligned":
        w = hist.window_absmax(t)
        g = [(1.0 if x[i] >= 0 else -1.0) * max(c[i][j] * w[j] for j in range(n))
             * scale for i in range(n)]
    else:
        xd = hist.interp(t - p["r"])
        g = [sum(c[i][j] * xd[j] for j in range(n)) * scale for i in range(n)]
    return np.array([-a[i] * x[i] + g[i] for i in range(n)])


@pytest.mark.parametrize("coupling", ["sign_aligned", "delayed_linear"])
@pytest.mark.parametrize("disturbance", [
    Signal(), Signal(kind="sinusoid", amplitude=0.9, frequency=0.7, phase=0.3)])
def test_ldn_rhs_matches_rowwise_formula(coupling, disturbance):
    rng = np.random.default_rng(5)
    n = 4
    c = rng.integers(0, 9, (n, n)) / 8
    c[1] = 0.0  # a row with no coupling: the drive is +0.0
    p = {"a": [float(v) for v in rng.integers(1, 9, n) / 8],
         "c": [[float(v) for v in row] for row in c],
         "r": 0.25, "coupling": coupling}
    spec = SystemSpec(kind="delay", model="linear_delay_network", params=p,
                      disturbance_signal=disturbance)
    rhs = model_rhs(spec)
    hist = _StubHistory(n, 6)
    for t in np.linspace(0.0, 5.0, 41):
        x = rng.standard_normal(n)
        x[rng.choice(n, 2, replace=False)] = (0.0, -0.0)
        assert _same_bits(rhs(t, x, hist), _ldn_rowwise(p, disturbance, t, x, hist))


def _bio_channelwise(p, t, x, hist):
    a, tau, n = p["a"], p["tau"], len(p["a"])
    g = make_g(p["g"])

    def src(j):
        return hist.interp(t - tau[j])[j] if tau[j] > 0 else x[j]
    return np.array([g(max(src(n - 1), 0.0)) - a[0] * x[0]]
                    + [src(i - 1) - a[i] * x[i] for i in range(1, n)])


@pytest.mark.parametrize("g", [{"form": "mm", "c": 3.0, "K": 0.8},
                               {"form": "hill", "c": 2.5, "p": 3.5}])
@pytest.mark.parametrize("tau", [[0.1, 0.0, 0.2], [0.1, 0.1, 0.1],
                                 [0.0, 0.0, 0.0]])
def test_bio_rhs_matches_channelwise_formula(g, tau):
    p = {"a": [1.1, 0.9, 1.3], "tau": tau, "g": g}
    rhs = model_rhs(SystemSpec(kind="delay", model="biochem_circuit", params=p))
    hist = _StubHistory(3, 8)
    rng = np.random.default_rng(9)
    for t in np.linspace(0.0, 3.0, 31):
        x = rng.uniform(-0.5, 3.0, 3)
        assert _same_bits(rhs(t, x, hist), _bio_channelwise(p, t, x, hist))


# -- equilibrium and sector hypothesis --------------------------------------

def test_biochem_equilibrium_closed_form():
    # mm with c=3, K=1, all a=1: 3X/(1+X) = X has positive root X = 2
    spec = SystemSpec(kind="delay", model="biochem_circuit",
                      params={"a": [1.0, 1.0, 1.0], "tau": [0.1, 0.1, 0.1],
                              "g": {"form": "mm", "c": 3.0, "K": 1.0}})
    xs = biochem_equilibrium(spec)
    assert xs == pytest.approx([2.0, 2.0, 2.0], rel=1e-9)
    # residual of the defining equations
    g = make_g(spec.params["g"])
    assert g(xs[-1]) == pytest.approx(xs[0], rel=1e-9)


def test_biochem_equilibrium_unequal_rates():
    # prod(a) = 2: 3X/(1+X) = 2X has root X = 1/2; X_i* = g(Xn*)/prod_{j<=i}
    spec = SystemSpec(kind="delay", model="biochem_circuit",
                      params={"a": [2.0, 1.0], "tau": [0.0, 0.0],
                              "g": {"form": "mm", "c": 3.0, "K": 1.0}})
    xs = biochem_equilibrium(spec)
    assert xs[-1] == pytest.approx(0.5, rel=1e-9)
    assert xs[0] == pytest.approx(make_g(spec.params["g"])(0.5) / 2.0, rel=1e-9)


def test_biochem_equilibrium_missing_root():
    # c < prod(a)*K: g(X) < prod(a)*X for all X > 0, no positive root
    spec_params = {"a": [2.0, 2.0], "tau": [0.0, 0.0],
                   "g": {"form": "mm", "c": 1.0, "K": 1.0}}
    spec = SystemSpec(kind="delay", model="biochem_circuit", params=spec_params)
    with pytest.raises(ModelError):
        biochem_equilibrium(spec)


def test_biochem_hypothesis_mm():
    spec = SystemSpec(kind="delay", model="biochem_circuit",
                      params={"a": [1.0, 1.0, 1.0], "tau": [0.1, 0.1, 0.1],
                              "g": {"form": "mm", "c": 3.0, "K": 1.0}})
    hyp = biochem_hypothesis(spec)
    assert hyp["ok"]
    # for mm the left sector constant is the curve's own K, and the right
    # slope approaches g'(Xn*) = 1/3 as X -> Xn* (a supremum, so the grid
    # estimate sits just below it)
    assert hyp["K"] == pytest.approx(1.0, rel=1e-6)
    assert hyp["b"] == pytest.approx(0.5, rel=1e-6)
    assert 0.33 < hyp["lam"] <= 1.0 / 3.0 + 1e-9


def test_biochem_hypothesis_failure_reported():
    # steep hill curve: sector slope exceeds 1 around the equilibrium
    spec = SystemSpec(kind="delay", model="biochem_circuit",
                      params={"a": [0.2], "tau": [0.1],
                              "g": {"form": "hill", "c": 1.0, "p": 8.0}})
    hyp = biochem_hypothesis(spec)
    if not hyp["ok"]:
        assert "failure" in hyp


# -- spec JSON --------------------------------------------------------------

def test_spec_json_round_trip():
    spec = SystemSpec(kind="sampled", model="zoh_linear", params={"n": 2},
                      h={"kind": "constant", "value": 0.25},
                      dtilde=Signal(kind="constant", value=math.log(2.0)),
                      input_signal=Signal(kind="constant", value=1.0))
    d = spec_to_json(spec)
    json.dumps(d)
    spec2 = spec_from_json(d)
    assert spec2.kind == "sampled" and spec2.model == "zoh_linear"
    assert spec2.h == {"kind": "constant", "value": 0.25}
    assert spec2.dtilde(1.0) == spec.dtilde(1.0)
    assert spec2.input_signal(0.0) == 1.0
