import math

import numpy as np
import pytest

from vectorgain.gains import Linear, LogExpSq, Power, Zero
from vectorgain.models import (
    SystemSpec, biochem_equilibrium, biochem_hypothesis, make_g,
)
from vectorgain.network import GainMatrix
from vectorgain.signals import Signal
from vectorgain.simulate import Trajectory, integrate_delay
from vectorgain.validate import (
    _IMPL_BLOCK, InconclusiveError, LyapunovSetup, biochem_rho_chain,
    biochem_rho_first, check_asymptotic_gain, check_convergence,
    check_implication, ldn_rho, recheck_violation,
)


LAM = 0.9
A, C = 2.0, 0.5


def _scalar_setup(gain_scale=1.0):
    """Scalar delay-network construction: gamma = c^2/(lam^2 a^2) s,
    rho = 2 (1 - lam) a s."""
    k = gain_scale * C * C / (LAM * LAM * A * A)
    G = GainMatrix.zeros(1).with_entry(0, 0, Linear(k))
    return LyapunovSetup(gains=G, rho_list=ldn_rho([A], LAM))


def _scalar_model():
    return SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [A], "c": [[C]], "r": 0.5})


def test_implication_holds_with_derived_gains():
    violations = check_implication(_scalar_setup(), _scalar_model(),
                                   sample_count=20_000, seed=1)
    assert violations == []


def test_implication_falsified_with_shrunk_gain():
    violations = check_implication(_scalar_setup(gain_scale=0.1),
                                   _scalar_model(),
                                   sample_count=20_000, seed=1)
    assert len(violations) >= 1
    v = violations[0]
    assert v["derivative"] > v["bound"]
    assert recheck_violation(_scalar_setup(gain_scale=0.1), _scalar_model(), v)
    # the same point does not violate the correct construction
    assert not recheck_violation(_scalar_setup(), _scalar_model(), v)


def test_implication_unknown_model_rejected():
    no_derivative = ("implication check has no derivative evaluator for "
                     "model 'scalar_linear'")
    spec = SystemSpec(kind="ode", model="scalar_linear", params={"a": 1.0})
    assert spec.parsed.deriv_sup is None
    with pytest.raises(ValueError, match=no_derivative):
        check_implication(_scalar_setup(), spec)
    with pytest.raises(ValueError, match=no_derivative):
        recheck_violation(_scalar_setup(), spec, {"i": 1, "x_i": 1.0,
                                                  "V": [1.0]})


def test_implication_network_instance():
    # three-node verified instance: zero violations expected
    a = [1.0, 1.0, 1.0]
    c = [[0.4, 0.6, 0.5], [0.5, 0.4, 0.6], [0.6, 0.5, 0.4]]
    lam = 0.95
    rows = [[Linear(c[i][j] ** 2 / (lam * lam * a[i] ** 2)) for j in range(3)]
            for i in range(3)]
    setup = LyapunovSetup(gains=GainMatrix.from_entries(rows),
                          rho_list=ldn_rho(a, lam))
    model = SystemSpec(kind="delay", model="linear_delay_network",
                       params={"a": a, "c": c, "r": 0.5})
    assert check_implication(setup, model, sample_count=20_000, seed=2) == []


def _ldn_case(gain_scale, input_gain):
    a = [1.0, 1.2, 0.9]
    c = [[0.4, 0.6, 0.0], [0.5, 0.4, 0.6], [0.0, 0.5, 0.4]]
    lam = 0.95
    rows = [[Zero() if c[i][j] == 0.0 else
             Linear(gain_scale * c[i][j] ** 2 / (lam * lam * a[i] ** 2))
             for j in range(3)] for i in range(3)]
    setup = LyapunovSetup(gains=GainMatrix.from_entries(rows),
                          zeta=Linear(0.3) if input_gain else Zero(),
                          rho_list=ldn_rho(a, lam))
    model = SystemSpec(kind="delay", model="linear_delay_network",
                       params={"a": a, "c": c, "r": 0.5,
                               "bu": 0.5 if input_gain else 0.0})
    return setup, model


def _biochem_case(gain_scale, input_gain):
    params = {"a": [1.0, 1.1, 0.9], "tau": [0.1] * 3,
              "g": {"form": "mm", "c": 3.0, "K": 1.0}}
    model = SystemSpec(kind="delay", model="biochem_circuit", params=params)
    hyp = biochem_hypothesis(model)
    theta, mu = 0.6, 1.1
    G = GainMatrix.zeros(3).with_entry(0, 2, LogExpSq(0.5, theta * gain_scale))
    for i in (1, 2):
        G = G.with_entry(i, i - 1, LogExpSq(0.5, mu * gain_scale))
    rho = [biochem_rho_first(params["a"][0], hyp["lam"], theta, hyp["b"])]
    rho += [biochem_rho_chain(params["a"][i], mu) for i in (1, 2)]
    setup = LyapunovSetup(gains=G, zeta=Linear(0.3) if input_gain else Zero(),
                          rho_list=rho)
    return setup, model


def _dsup_ldn(model):
    a, c = model.params["a"], model.params["c"]

    def dsup(i, xi, V, u):
        drive = (max(c[i][j] * math.sqrt(2.0 * V[j]) for j in range(len(a)))
                 + model.params["bu"] * abs(u))
        return -a[i] * xi * xi + abs(xi) * drive
    return dsup


def _dsup_biochem(model):
    # np.exp on single floats: the function the batch applies to arrays
    a, n = model.params["a"], len(model.params["a"])
    g = make_g(model.params["g"])
    xn = float(biochem_equilibrium(model)[-1])

    def dsup(i, xi, V, u):
        if i == 0:
            bound = math.sqrt(2.0 * V[n - 1])
            return max(a[0] * xi * (g(xn * np.exp(w)) / g(xn) * np.exp(-xi) - 1.0)
                       for w in np.linspace(-bound, bound, 41))
        bound = math.sqrt(2.0 * V[i - 1])
        return max(a[i] * xi * (np.exp(w - xi) - 1.0)
                   for w in (-bound, 0.0, bound))
    return dsup


def _implication_reference(setup, model, dsup, sample_count, seed,
                           radius=10.0, tol=1e-8):
    """One sample at a time, on the arrays check_implication draws (its
    documented block order), with scalar gains."""
    G, n = setup.gains, setup.gains.n
    has_input = not isinstance(setup.zeta, Zero)
    dsup = dsup(model)
    rng = np.random.default_rng(seed)
    lo, hi = math.log(1e-6 * radius), math.log(radius)
    out = []
    for start in range(0, sample_count, _IMPL_BLOCK):
        B = min(_IMPL_BLOCK, sample_count - start)
        idx = rng.integers(n, size=B)
        mag = np.exp(rng.uniform(lo, hi, B))
        sign = rng.random(B)
        V = np.exp(rng.uniform(lo, hi, (B, n))) ** 2 / 2.0
        u = np.exp(rng.uniform(lo, hi, B)) if has_input else np.zeros(B)
        for k in range(B):
            i, Vk, uk = int(idx[k]), V[k].tolist(), float(u[k])
            xi = float(mag[k]) * (1 if sign[k] < 0.5 else -1)
            qi = 0.5 * xi * xi
            if has_input and setup.zeta(uk) > qi:
                continue
            if not all(isinstance(G.gain(i, j), Zero) or G.gain(i, j)(Vk[j]) <= qi
                       for j in range(n)):
                continue
            deriv = float(dsup(i, xi, Vk, uk))
            bound = -float(setup.rho_list[i](qi))
            if deriv > bound + tol:
                out.append({"i": i + 1, "x_i": xi, "V": Vk, "u": uk,
                            "derivative": deriv, "bound": bound})
    return out


@pytest.mark.parametrize("case, dsup", [(_ldn_case, _dsup_ldn),
                                        (_biochem_case, _dsup_biochem)])
@pytest.mark.parametrize("input_gain", [False, True])
def test_implication_matches_per_sample_loop(case, dsup, input_gain):
    found = 0
    for gain_scale in (1.0, 0.1):
        setup, model = case(gain_scale, input_gain)
        got = check_implication(setup, model, sample_count=6000, seed=3)
        assert got == _implication_reference(setup, model, dsup, 6000, 3)
        assert all(type(v) is float for d in got
                   for v in [d["x_i"], d["u"], d["derivative"], d["bound"]] + d["V"])
        assert all(recheck_violation(setup, model, d) for d in got)
        found += len(got)
    assert found > 0


@pytest.mark.parametrize("case", [_ldn_case, _biochem_case])
def test_spec_is_read_once_on_construction(case):
    # every reader takes the values parsed on construction, never params
    setup, model = case(0.1, True)
    _, emptied = case(0.1, True)
    emptied.params = {}
    found = check_implication(setup, model, sample_count=2000, seed=3)
    assert found
    assert check_implication(setup, emptied, sample_count=2000, seed=3) == found
    history = [1.0, 0.5, 0.8]
    assert np.array_equal(integrate_delay(emptied, history, 1.0, 0.01).states,
                          integrate_delay(model, history, 1.0, 0.01).states)
    if model.model == "biochem_circuit":
        assert np.array_equal(biochem_equilibrium(emptied),
                              biochem_equilibrium(model))


# -- convergence ------------------------------------------------------------

def _decaying_traj(n=2, count=1000):
    times = np.linspace(0.0, 10.0, count)
    states = np.exp(-times)[:, None] * np.ones((count, n))
    return Trajectory(times=times, states=states)


def test_check_convergence_verdicts():
    traj = _decaying_traj()
    out = check_convergence(traj)
    assert all(c["status"] == "converged" for c in out)
    # constant trajectory does not converge
    flat = Trajectory(times=traj.times,
                      states=np.ones_like(traj.states))
    out = check_convergence(flat)
    assert all(c["status"] == "not-converged" for c in out)
    assert out[0]["tail_sup"] == 0.5


def test_check_convergence_inconclusive_on_short_tail():
    times = np.linspace(0.0, 1.0, 20)
    traj = Trajectory(times=times, states=np.zeros((20, 1)))
    with pytest.raises(InconclusiveError):
        check_convergence(traj)


@pytest.mark.parametrize("fraction", [1.5, 7.0, 0.0, -0.5, math.nan])
def test_tail_fraction_outside_unit_interval_rejected(fraction):
    # 1.5 read the last 51 of 101 samples, 7 all of them, -0.5 named a
    # negative tail and NaN failed in int()
    traj = _decaying_traj(1)
    message = f"^tail_fraction must be in \\(0, 1\\], got {fraction}$"
    with pytest.raises(ValueError, match=message):
        check_convergence(traj, tail_fraction=fraction)
    with pytest.raises(ValueError, match=message):
        check_asymptotic_gain(traj, [Zero()], u_sup=0.0,
                              tail_fraction=fraction)


def test_convergence_on_real_trajectory():
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [1.0], "c": [[0.2]], "r": 0.5})
    traj = integrate_delay(spec, np.array([1.0]), horizon=40.0, dt=0.01)
    out = check_convergence(traj)
    assert out[0]["status"] == "converged"


# -- asymptotic gain --------------------------------------------------------

def test_asymptotic_gain_scalar_bound():
    # dx = -x + u, u = c: tail V = c^2/2; channel map G(s) = (s/lam)^2/2
    lam = 0.9
    c = 1.0
    spec = SystemSpec(kind="ode", model="scalar_linear",
                      params={"a": 1.0, "bu": 1.0},
                      input_signal=Signal(kind="constant", value=c))
    traj = integrate_delay(spec, [0.0], horizon=30.0, dt=1e-2)
    gmap = [Power(1.0 / (2.0 * lam * lam), 2.0)]
    out = check_asymptotic_gain(traj, gmap, u_sup=c)
    assert out[0]["status"] == "satisfied"
    assert out[0]["tail_sup"] == pytest.approx(0.5 * c * c, rel=1e-6)
    # an artificially tight map is violated and reports the witness time
    tight = [Linear(0.25)]
    out = check_asymptotic_gain(traj, tight, u_sup=c)
    assert out[0]["status"] == "violated"
    assert "t" in out[0] and out[0]["value"] > (1.05 * 0.25)


def test_asymptotic_gain_validation():
    traj = _decaying_traj(1)
    with pytest.raises(ValueError):
        check_asymptotic_gain(traj, [Zero()], u_sup=-1.0)
    with pytest.raises(ValueError):
        check_asymptotic_gain(_decaying_traj(2), [Zero()], u_sup=0.0)


def test_tail_checks_match_per_row_reference():
    # a bump in the middle of the tail, so no channel peaks in the last row
    # or at the tail's start; channel 2 peaks twice, and its witness is the
    # first time, row 850
    times = np.linspace(0.0, 10.0, 1000)
    x = np.exp(-times)[:, None] * np.array([[1.0, -2.0, 0.5]])
    x[850] = [3e-3, -2e-3, 1e-3]
    x[900, 1] = -2e-3
    traj = Trajectory(times=times, states=x)
    start = int(math.floor(1000 * (1.0 - 0.2)))
    tail = [row.tolist() for row in x[start:]]
    gmap = [Linear(1e-6), Linear(1e-7), Linear(1.0)]
    conv = check_convergence(traj)
    gain = check_asymptotic_gain(traj, gmap, u_sup=2.0)
    for i in range(3):
        vals = [0.5 * row[i] * row[i] for row in tail]
        sup = max(vals)
        t = float(times[start + vals.index(sup)])
        assert conv[i] == {"status": "converged" if sup < 1e-6
                           else "not-converged", "tail_sup": sup, "tol": 1e-6}
        bound = 1.05 * gmap[i](2.0)
        if sup <= bound:
            assert gain[i] == {"status": "satisfied", "tail_sup": sup,
                               "bound": bound, "margin": bound - sup}
        else:
            assert gain[i] == {"status": "violated", "tail_sup": sup,
                               "bound": bound, "t": t, "value": sup}
    assert [c["status"] for c in conv] == ["not-converged"] * 2 + ["converged"]
    assert [e["status"] for e in gain] == ["violated", "violated", "satisfied"]
    assert gain[0]["t"] == gain[1]["t"] == times[850]
