import math

import numpy as np
import pytest

from vectorgain.models import SystemSpec, make_g
from vectorgain.signals import Signal
from vectorgain.simulate import (
    ConfigError, FiniteEscapeError, Trajectory, _check_escape, _History,
    integrate_delay, integrate_ode, integrate_sampled, log_transform,
)
from oracles import rk4_reference


def _scalar(a=1.0, **kw):
    return SystemSpec(kind="ode", model="scalar_linear",
                      params={"a": a, **kw.pop("params", {})}, **kw)


# -- ODE integrator ---------------------------------------------------------

def test_ode_matches_reference_rk4_exactly():
    spec = _scalar(a=1.3)
    traj = integrate_ode(spec, [2.0], horizon=2.0, dt=0.01)
    ref = rk4_reference(lambda t, x: -1.3 * x, np.array([2.0]), 0.0, 2.0, 200)
    assert traj.states[-1] == pytest.approx(ref, rel=1e-14)


def test_ode_accuracy_against_exact_solution():
    spec = _scalar(a=1.0)
    traj = integrate_ode(spec, [1.0], horizon=1.0, dt=1e-3)
    assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_rk4_order_richardson():
    spec = _scalar(a=1.0)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = integrate_ode(spec, [1.0], horizon=1.0, dt=dt)
        errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)]
    assert all(3.5 <= o <= 4.5 for o in orders)


def test_ode_with_input_signal():
    # dx = -x + u, u = 1: converges to 1
    spec = SystemSpec(kind="ode", model="scalar_linear",
                      params={"a": 1.0, "bu": 1.0},
                      input_signal=Signal(kind="constant", value=1.0))
    traj = integrate_ode(spec, [0.0], horizon=30.0, dt=1e-2)
    assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-10)


def test_ode_config_errors():
    spec = _scalar()
    with pytest.raises(ConfigError):
        integrate_ode(spec, [1.0], horizon=1.0, dt=0.0)
    with pytest.raises(ConfigError):
        integrate_ode(spec, [1.0], horizon=1.0, dt=2.0)
    delay_spec = SystemSpec(kind="delay", model="biochem_circuit",
                            params={"a": [1.0], "tau": [0.1],
                                    "g": {"form": "mm", "c": 3.0, "K": 1.0}})
    with pytest.raises(ConfigError):
        integrate_ode(delay_spec, [1.0], horizon=1.0, dt=0.01)


def test_finite_escape_detected():
    # dx = +x via negative decay rate is rejected by the model, so use the
    # sign-aligned delay network with destabilizing coupling
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [1.0], "c": [[3.0]], "r": 0.1})
    with pytest.raises(FiniteEscapeError) as exc:
        integrate_delay(spec, np.array([1.0]), horizon=100.0, dt=0.01)
    assert exc.value.time > 0


def test_check_escape_rejects_nan_inf_and_large_states():
    _check_escape(np.array([-1e12, 0.0, 1e12]), 1.0)
    for bad in (np.nan, np.inf, -np.inf, -2e12):
        with pytest.raises(FiniteEscapeError):
            _check_escape(np.array([1.0, bad, 0.0]), 1.0)


# -- delay integrator -------------------------------------------------------

def test_delay_alignment_enforced():
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [1.0], "c": [[0.1]], "r": 0.35})
    with pytest.raises(ConfigError):
        integrate_delay(spec, np.array([1.0]), horizon=1.0, dt=0.1)
    # aligned dt works
    integrate_delay(spec, np.array([1.0]), horizon=1.0, dt=0.05)


def test_delay_shorter_than_one_step_rejected():
    # a positive delay that rounds to 0 steps would read rows not yet written
    for model, params in [
            ("linear_delay_network", {"a": [1.0], "c": [[0.1]], "r": 1e-20}),
            ("biochem_circuit", {"a": [1.0, 1.0], "tau": [1e-20, 0.1],
                                 "g": {"form": "mm", "c": 1.0, "K": 1.0}})]:
        spec = SystemSpec(kind="delay", model=model, params=params)
        with pytest.raises(ConfigError, match="positive integer multiple"):
            integrate_delay(spec, np.array([1.0, 1.0][:len(params["a"])]),
                            horizon=1.0, dt=0.01)


@pytest.mark.parametrize("coupling", ["sign_aligned", "delayed_linear"])
def test_delay_network_without_delay_reads_present_state(coupling):
    # r = 0: dx = -x + 0.5*x(t) under both couplings for x > 0, so the
    # run is plain RK4 on that ODE
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [1.0], "c": [[0.5]], "r": 0.0,
                              "coupling": coupling})
    traj = integrate_delay(spec, np.array([2.0]), horizon=2.0, dt=0.01)
    ref = rk4_reference(lambda t, x: -1.0 * x + 0.5 * x, np.array([2.0]),
                        0.0, 2.0, 200)
    assert traj.states[-1] == pytest.approx(ref, rel=1e-14)


def test_delay_first_interval_analytic():
    # dx = -x + 0.5*x(t-1), history = 1: on [0,1], dx = -x + 0.5,
    # so x(t) = 0.5 + 0.5*exp(-t)
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [1.0], "c": [[0.5]], "r": 1.0,
                              "coupling": "delayed_linear"})
    traj = integrate_delay(spec, np.array([1.0]), horizon=1.0, dt=1e-3)
    for t, x in zip(traj.times[::100], traj.states[::100, 0]):
        assert x == pytest.approx(0.5 + 0.5 * math.exp(-t), abs=1e-10)


def test_delay_history_forms_agree():
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [1.0, 1.0], "c": [[0.1, 0.2], [0.2, 0.1]],
                              "r": 0.5, "coupling": "delayed_linear"})
    const = integrate_delay(spec, np.array([1.0, -1.0]), horizon=2.0, dt=0.01)
    fn = integrate_delay(spec, lambda t: np.array([1.0, -1.0]),
                         horizon=2.0, dt=0.01)
    arr = integrate_delay(spec, np.tile([1.0, -1.0], (51, 1)),
                          horizon=2.0, dt=0.01)
    assert np.array_equal(const.states, fn.states)
    assert np.array_equal(const.states, arr.states)
    with pytest.raises(ConfigError):
        integrate_delay(spec, np.ones((7, 2)), horizon=2.0, dt=0.01)


def test_delay_trajectory_exposes_history_segment():
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [1.0], "c": [[0.1]], "r": 0.5})
    traj = integrate_delay(spec, np.array([2.0]), horizon=1.0, dt=0.1)
    assert traj.history_times[0] == pytest.approx(-0.5)
    assert traj.history_times[-1] == 0.0
    assert np.all(traj.history_states == 2.0)
    assert traj.times[0] == 0.0 and traj.states[0, 0] == 2.0


def test_delay_convergence_order_at_least_two():
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [1.0, 1.0], "c": [[0.2, 0.4], [0.3, 0.1]],
                              "r": 0.4, "coupling": "delayed_linear"})
    h0 = np.array([1.0, -0.5])
    ref = integrate_delay(spec, h0, horizon=2.0, dt=0.4 / 512).states[-1]
    errs = []
    for k in (8, 16, 32):
        traj = integrate_delay(spec, h0, horizon=2.0, dt=0.4 / k)
        errs.append(np.max(np.abs(traj.states[-1] - ref)))
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)]
    assert all(o >= 1.8 for o in orders)


def test_biochem_positivity_and_equilibrium_invariance():
    spec = SystemSpec(kind="delay", model="biochem_circuit",
                      params={"a": [1.0, 1.0, 1.0], "tau": [0.1, 0.1, 0.1],
                              "g": {"form": "mm", "c": 3.0, "K": 1.0}})
    # equilibrium is invariant
    traj = integrate_delay(spec, np.array([2.0, 2.0, 2.0]),
                           horizon=5.0, dt=0.01)
    assert np.max(np.abs(traj.states - 2.0)) < 1e-12
    # positive histories stay positive (no clipping anywhere)
    rng = np.random.default_rng(3)
    for _ in range(5):
        h0 = np.exp(rng.uniform(-2.0, 2.0, size=3))
        traj = integrate_delay(spec, h0, horizon=20.0, dt=0.01)
        assert np.all(traj.states > 0.0)


def test_window_absmax_takes_its_start_from_the_step_index():
    # rows are 0-based from the oldest history row: at t_k and t_k + dt/2
    # the window is rows [k, filled), at t_k + dt it is rows [k + 1, filled)
    rng = np.random.default_rng(11)
    dt, r = 0.01, 0.2
    m = int(round(r / dt))
    steps = 300
    times = dt * np.arange(-m, steps + 1)
    states = np.zeros((m + steps + 1, 3))
    states[: m + 1] = rng.standard_normal((m + 1, 3))
    hist = _History(states, dt, float(times[0]), m, filled=m + 1)
    for k in range(steps):
        t = float(times[m + k])
        for tq, start in ((t, k), (t + 0.5 * dt, k), (t + dt, k + 1)):
            ref = np.max(np.abs(states[start:hist.filled]), axis=0)
            assert np.array_equal(hist.window_absmax(tq), ref)
        states[m + k + 1] = rng.standard_normal(3)
        hist.advance(m + k + 2)


def _reference_delay_run(deriv, hist0, r, dt, steps):
    """Plain method-of-steps RK4, written apart from integrate_delay.

    deriv(t, x, delayed, window) reads delayed(ch, d), channel ch at the
    stage time minus the grid-aligned delay d, and window(), the sup of
    |x| over the stored nodes of [t - r, t].  Both place the stage on the
    half-step grid from the step index and the stage, in integers: the
    delayed value is a stored node or the mean of two, and the window
    runs from row k (stages 1-3 of step k) or k + 1 (stage 4) to the
    newest row.
    """
    m = int(round(r / dt))
    times = dt * np.arange(-m, steps + 1)
    states = np.empty((m + steps + 1, np.shape(hist0)[-1]))
    states[: m + 1] = hist0
    filled = m + 1
    k = half = 0  # step index, and the stage offset in half-steps

    def delayed(ch, d):
        i, odd = divmod(2 * (m + k) + half - 2 * int(round(d / dt)), 2)
        if odd:
            return 0.5 * (states[i, ch] + states[i + 1, ch])
        return states[i, ch]

    def window():
        return np.max(np.abs(states[k + half // 2:filled]), axis=0)

    def f(t, x, stage_half):
        nonlocal half
        half = stage_half
        return deriv(t, x, delayed, window)

    x = states[m].copy()
    for k in range(steps):
        t = times[m + k]
        k1 = f(t, x, 0)
        k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1, 1)
        k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2, 1)
        k4 = f(t + dt, x + dt * k3, 2)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[m + k + 1] = x
        filled += 1
    return states[m:]


@pytest.mark.parametrize("disturbance", [
    Signal(), Signal(kind="sinusoid", amplitude=0.8, frequency=1.3)])
def test_delay_network_trajectory_matches_reference(disturbance):
    a = [1.0, 0.8, 1.2]
    c = [[0.4, 0.6, 0.5], [0.5, 0.0, 0.7], [0.6, 0.5, 0.4]]
    r, dt, steps = 0.2, 0.01, 300
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": a, "c": c, "r": r},
                      disturbance_signal=disturbance)

    def deriv(t, x, delayed, window):
        w = window()
        scale = disturbance(t) if disturbance.kind != "zero" else 1.0
        return np.array([
            -a[i] * x[i] + (1.0 if x[i] >= 0 else -1.0)
            * max(c[i][j] * w[j] for j in range(3)) * scale for i in range(3)])

    hist0 = np.array([0.8, -0.5, 0.0])
    traj = integrate_delay(spec, hist0, horizon=steps * dt, dt=dt)
    ref = _reference_delay_run(deriv, hist0, r, dt, steps)
    assert np.array_equal(traj.states, ref)


@pytest.mark.parametrize("tau", [[0.1, 0.1, 0.1], [0.1, 0.0, 0.2]])
def test_biochem_trajectory_matches_reference(tau):
    a, g = [1.0, 0.9, 1.1], make_g({"form": "mm", "c": 3.0, "K": 0.8})
    dt, steps = 0.01, 300
    spec = SystemSpec(kind="delay", model="biochem_circuit",
                      params={"a": a, "tau": tau,
                              "g": {"form": "mm", "c": 3.0, "K": 0.8}})

    def deriv(t, x, delayed, window):
        def src(j):
            return delayed(j, tau[j]) if tau[j] > 0 else x[j]
        return np.array([g(max(src(2), 0.0)) - a[0] * x[0],
                         src(0) - a[1] * x[1], src(1) - a[2] * x[2]])

    hist0 = lambda t: np.array([1.5 + t, 0.4 - 2.0 * t, 2.2 + math.sin(9 * t)])
    traj = integrate_delay(spec, hist0, horizon=steps * dt, dt=dt)
    ref = _reference_delay_run(deriv, traj.history_states, max(tau), dt, steps)
    assert np.array_equal(traj.states, ref)


# -- sampled-data loop ------------------------------------------------------

def _zoh(h, dtilde=0.0):
    return SystemSpec(kind="sampled", model="zoh_linear", params={"n": 1},
                      h={"kind": "constant", "value": h},
                      dtilde=Signal(kind="constant", value=dtilde))


def test_sampling_times_exact_without_jitter():
    traj = integrate_sampled(_zoh(0.25), [1.0], horizon=2.0, dt=0.01)
    expected = 0.25 * np.arange(9)
    assert np.array_equal(traj.sampling_times, expected)


def test_sampling_gaps_halved_by_ln2_jitter():
    traj = integrate_sampled(_zoh(0.25, dtilde=math.log(2.0)), [1.0],
                             horizon=2.0, dt=0.01)
    gaps = np.diff(traj.sampling_times)
    assert np.all(gaps == 0.125)


def test_sampled_trajectory_decays_for_stable_hold():
    # dx/dt = -x(tau_i): pure ZOH integrator control, stable for small h
    traj = integrate_sampled(_zoh(0.25), [1.0], horizon=20.0, dt=0.01)
    assert abs(traj.states[-1, 0]) < 1e-2
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == pytest.approx(20.0, abs=1e-12)


def test_sampled_state_dependent_period():
    spec = SystemSpec(kind="sampled", model="zoh_linear", params={"n": 1},
                      h={"kind": "state_norm", "value": 0.5},
                      dtilde=Signal())
    traj = integrate_sampled(spec, [3.0], horizon=5.0, dt=0.01)
    gaps = np.diff(traj.sampling_times)
    # sampling accelerates when the state is large: first gap shortest
    assert gaps[0] == pytest.approx(0.5 / 4.0, rel=1e-9)
    assert gaps[-1] > gaps[0]


# -- trajectory container ---------------------------------------------------

def test_trajectory_csv_format(tmp_path):
    traj = Trajectory(times=np.array([0.0, 0.5]),
                      states=np.array([[1.0, 2.0], [3.0, 4.0]]), dt=0.5)
    rows = list(traj.csv_rows())
    assert rows[0] == "t,x1,x2"
    assert rows[1].startswith("0.0,1.0,2.0")
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    # repr round trip: values parse back exactly
    assert [float(v) for v in lines[2].split(",")] == [0.5, 3.0, 4.0]


def test_log_transform():
    out = log_transform([[2.0, 4.0]], [2.0, 2.0])
    assert np.allclose(out, [[0.0, math.log(2.0)]])
    with pytest.raises(ValueError):
        log_transform([-1.0], [1.0])
    with pytest.raises(ValueError):
        log_transform([1.0], [0.0])
