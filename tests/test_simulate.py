import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vectorgain.models import SystemSpec, make_g
from vectorgain.signals import Signal
from vectorgain.simulate import (
    ConfigError, FiniteEscapeError, Trajectory, _check_escape, _History,
    integrate_delay, integrate_sampled, log_transform,
)
from oracles import rk4_reference
import vectorgain.models as models
import vectorgain.simulate as simulate


def _scalar(a=1.0, **kw):
    return SystemSpec(kind="ode", model="scalar_linear",
                      params={"a": a, **kw.pop("params", {})}, **kw)


# -- ODE integrator ---------------------------------------------------------

def test_ode_matches_reference_rk4_exactly():
    spec = _scalar(a=1.3)
    traj = integrate_delay(spec, [2.0], horizon=2.0, dt=0.01)
    ref = rk4_reference(lambda t, x: -1.3 * x, np.array([2.0]), 0.0, 2.0, 200)
    assert traj.states[-1] == pytest.approx(ref, rel=1e-14)


def test_ode_accuracy_against_exact_solution():
    spec = _scalar(a=1.0)
    traj = integrate_delay(spec, [1.0], horizon=1.0, dt=1e-3)
    assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_rk4_order_richardson():
    spec = _scalar(a=1.0)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = integrate_delay(spec, [1.0], horizon=1.0, dt=dt)
        errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)]
    assert all(3.5 <= o <= 4.5 for o in orders)


def test_ode_with_input_signal():
    # dx = -x + u, u = 1: converges to 1
    spec = SystemSpec(kind="ode", model="scalar_linear",
                      params={"a": 1.0, "bu": 1.0},
                      input_signal=Signal(kind="constant", value=1.0))
    traj = integrate_delay(spec, [0.0], horizon=30.0, dt=1e-2)
    assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-10)


def test_ode_config_errors():
    spec = _scalar()
    with pytest.raises(ConfigError):
        integrate_delay(spec, [1.0], horizon=1.0, dt=0.0)
    with pytest.raises(ConfigError):
        integrate_delay(spec, [1.0], horizon=1.0, dt=2.0)
    sampled_spec = SystemSpec(kind="sampled", model="zoh_linear",
                              params={"n": 1})
    with pytest.raises(ConfigError, match="requires kind='ode' or 'delay'"):
        integrate_delay(sampled_spec, [1.0], horizon=1.0, dt=0.01)


def test_finite_escape_detected():
    # dx = +x via negative decay rate is rejected by the model, so use the
    # sign-aligned delay network with destabilizing coupling
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [1.0], "c": [[3.0]], "r": 0.1})
    with pytest.raises(FiniteEscapeError) as exc:
        integrate_delay(spec, np.array([1.0]), horizon=100.0, dt=0.01)
    assert exc.value.time > 0


def test_check_escape_rejects_nan_inf_and_large_states():
    # Python's max skips a NaN that is not the first entry, so each bad
    # value is tried first, in the middle and last
    _check_escape((-1e12, 0.0, 1e12), 1.0)
    _check_escape((1e12, 1e12, 1e12), 1.0)
    for bad in (math.nan, math.inf, -math.inf, -2e12):
        for x in ((bad, 1.0, 0.0), (1.0, bad, 0.0), (1.0, 0.0, bad)):
            with pytest.raises(FiniteEscapeError):
                _check_escape(x, 1.0)


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


def test_callable_history_not_finite_rejected():
    # the sampled history is checked, however it was given
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [1.0, 1.0], "c": [[0.1, 0.2], [0.2, 0.1]],
                              "r": 0.1})
    with pytest.raises(ConfigError, match="^history must be finite$"):
        integrate_delay(spec, lambda t: [1.0, math.inf if t < 0 else 1.0],
                        horizon=1.0, dt=0.01)


def test_delay_history_forms_agree():
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [1.0, 1.0], "c": [[0.1, 0.2], [0.2, 0.1]],
                              "r": 0.5, "coupling": "delayed_linear"})
    const = integrate_delay(spec, np.array([1.0, -1.0]), horizon=2.0, dt=0.01)
    fn = integrate_delay(spec, lambda t: np.array([1.0, -1.0]),
                         horizon=2.0, dt=0.01)
    arr = integrate_delay(spec, np.tile([1.0, -1.0], (51, 1)),
                          horizon=2.0, dt=0.01)
    assert const.times[0] == 0.0 and np.all(const.states[0] == [1.0, -1.0])
    assert np.array_equal(const.states, fn.states)
    assert np.array_equal(const.states, arr.states)
    with pytest.raises(ConfigError):
        integrate_delay(spec, np.ones((7, 2)), horizon=2.0, dt=0.01)


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


def _identity(W):
    # the window max of the drives is then the window max of |x| itself
    return W


def _run_window_queries(n, m, drive, check, seed=11, dt=0.01, steps=300):
    """Query a history at the three RK4 stage times of each of `steps`
    steps, as a run does, and pass each result with its rows to check.

    Rows are 0-based from the oldest history row: at t_k and t_k + dt/2
    the window is rows [k, filled), at t_k + dt it is rows [k + 1, filled).
    Returns the set of block starts the history used."""
    rng = np.random.default_rng(seed)
    times = dt * np.arange(-m, steps + 1)
    states = np.zeros((m + steps + 1, n))
    states[: m + 1] = rng.standard_normal((m + 1, n))
    hist = _History(states, dt, float(times[0]), m, filled=m + 1)
    block_starts = set()
    for k in range(steps):
        t = float(times[m + k])
        for tq, start in ((t, k), (t + 0.5 * dt, k), (t + dt, k + 1)):
            check(hist.window_max(tq, drive), states[start:hist.filled])
            block_starts.add(hist._b0)
        states[m + k + 1] = rng.standard_normal(n)
        hist.advance(m + k + 2)
    return block_starts


_SIZES = ((3, 20), (1, 20), (30, 20), (3, 1), (30, 1))


def test_window_max_takes_its_start_from_the_step_index():
    # a block of suffix maxima lasts about m steps, so 300 steps rebuild it
    # many times, and m = 1 rebuilds it at nearly every step
    def check(got, rows):
        ref = np.max(np.abs(rows), axis=0)
        assert np.array(got).tobytes() == ref.tobytes()

    for n, m in _SIZES:
        blocks = _run_window_queries(n, m, _identity, check)
        assert len(blocks) >= 300 // (m + 1)


@pytest.mark.parametrize("n, m", _SIZES)
def test_window_max_of_max_times_drive_matches_brute_force(n, m):
    # the window max of D(|row|) over the rows is max_k max_j c_ij |x_kj|,
    # bit for bit, since D(w)_i = max_j c_ij w_j is max-times linear
    rng = np.random.default_rng(n + m)
    c = rng.uniform(0.0, 1.0, (n, n))
    c[0] = 0.0  # a row with no coupling
    c[-1, 0] = -0.0  # the parser admits -0.0 as >= 0; with n = 1 it is row 0
    drive = models._max_times(c)

    def check(got, rows):
        ref = (np.abs(rows)[:, None, :] * c).max(axis=(0, 2))
        assert np.array(got).tobytes() == ref.tobytes()

    _run_window_queries(n, m, drive, check)


def test_decaying_sign_aligned_run_drives_about_once_per_block(monkeypatch):
    # the running max of a decaying history rises only with the first row
    # after a block, so the coupling is applied about twice per m steps
    calls = []
    build = models._max_times

    def counting(c):
        drive = build(c)

        def counted(W):
            calls.append(len(W))
            return drive(W)
        return counted

    monkeypatch.setattr(models, "_max_times", counting)
    dt, m, steps = 1e-3, 100, 2000
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [1.0, 1.0, 1.0],
                              "c": [[0.4, 0.6, 0.5], [0.5, 0.4, 0.6],
                                    [0.6, 0.5, 0.4]],
                              "r": m * dt, "coupling": "sign_aligned"})
    traj = integrate_delay(spec, np.array([0.5, -0.5, 0.5]),
                           horizon=steps * dt, dt=dt)
    assert np.all(np.diff(np.abs(traj.states), axis=0) < 0.0)
    assert len(calls) <= 2 * (steps // m + 1)


@pytest.mark.parametrize("model, params", [
    ("biochem_circuit", {"a": [1.0, 1.0, 1.0], "tau": [0.1, 0.2, 0.1],
                         "g": {"form": "mm", "c": 3.0, "K": 1.0}}),
    ("linear_delay_network", {"a": [1.0, 1.0, 1.0], "c": [[0.0, 0.5, 0.0],
                              [0.0, 0.0, 0.5], [0.5, 0.0, 0.0]], "r": 0.1,
                              "coupling": "delayed_linear"}),
], ids=["biochem", "delayed-linear"])
def test_delay_run_without_window_query_builds_no_window_index(
        monkeypatch, model, params):
    # these models read delayed values only, so no block of suffix maxima
    # and no running max is ever made
    made = []

    class Recorded(_History):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(simulate, "_History", Recorded)
    spec = SystemSpec(kind="delay", model=model, params=params)
    traj = integrate_delay(spec, np.array([1.5, 0.5, 2.0]), horizon=1.0,
                           dt=0.01)
    assert np.all(np.isfinite(traj.states))
    assert len(made) == 1
    assert made[0]._suffix is None and made[0]._running is None


def _is_float_tuple(value):
    return type(value) is tuple and all(type(v) is float for v in value)


def test_values_handed_to_a_right_hand_side_are_float_tuples(monkeypatch):
    # a right-hand side memoizes on the identity of a delayed value, a
    # window or a held state, so each is a tuple, which cannot be written
    # to and so cannot stale a memo
    dt, m = 0.01, 5
    states = np.ones((m + 3, 2))
    hist = _History(states, dt, -m * dt, m, filled=m + 1)
    for value in (hist.interp(-2 * dt), hist.interp(-1.5 * dt),
                  hist.window_max(0.0, _identity)):
        assert _is_float_tuple(value)
        with pytest.raises(TypeError):
            value[0] = 2.0

    handed = []
    build = simulate.model_rhs

    def recording_rhs(spec):
        rhs = build(spec)

        def f(t, x, extra):
            handed.append(x)
            if isinstance(extra, tuple):
                handed.append(extra)
            return rhs(t, x, extra)
        return f

    monkeypatch.setattr(simulate, "model_rhs", recording_rhs)
    spec = SystemSpec(kind="sampled", model="zoh_linear", params={"n": 2})
    integrate_sampled(spec, np.array([1.0, -1.0]), horizon=0.5, dt=0.05)
    assert len(handed) == 2 * 4 * 10  # a state and a held state per stage
    integrate_delay(_scalar(), [1.0], horizon=0.5, dt=0.05)
    assert len(handed) == 2 * 4 * 10 + 4 * 10
    assert all(map(_is_float_tuple, handed))


def test_delay_history_counts_toward_max_steps(monkeypatch):
    # r / dt = 2 history rows plus horizon / dt steps may number 100
    monkeypatch.setattr(simulate, "MAX_STEPS", 100)
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [1.0], "c": [[0.5]], "r": 1.0})
    traj = integrate_delay(spec, np.array([1.0]), horizon=49.0, dt=0.5)
    assert len(traj.times) == 99  # the 98 steps and the initial row
    with pytest.raises(ConfigError, match="= 101 exceeds MAX_STEPS = 100$"):
        integrate_delay(spec, np.array([1.0]), horizon=49.5, dt=0.5)


def _plain_rk4_step(f, t, x, dt):
    """One RK4 step written out, one stage at a time with Python-float
    coefficients; f(t, x, half) also gets the stage's offset in half-steps."""
    k1 = f(t, x, 0)
    k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1, 1)
    k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2, 1)
    k4 = f(t + dt, x + dt * k3, 2)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_delay_run(deriv, hist0, r, dt, steps):
    """Plain method-of-steps RK4, written apart from integrate_delay.

    deriv(t, x, delayed, window) reads delayed(ch, d), channel ch at the
    stage time minus the grid-aligned delay d, and window(), the sup of
    |x| over the stored nodes of [t - r, t].  Both place the stage on the
    half-step grid from the step index and the stage, in integers: the
    delayed value is a stored node or the mean of two, and the window
    runs from row k (stages 1-3 of step k) or k + 1 (stage 4) to the
    newest row.  Nothing is kept from one stage to the next.
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
        x = _plain_rk4_step(f, times[m + k], x, dt)
        states[m + k + 1] = x
        filled += 1
    return states[m:]


def _reference_sampled_run(deriv, period, dtilde, x0, horizon, dt):
    """Plain sampled-data loop, written apart from integrate_sampled: the
    times and states of the run, with deriv(t, x, held)."""
    tau, x = 0.0, np.array(x0, dtype=float)
    times, states = [tau], [x]
    while tau < horizon - 1e-15:
        tau_next = tau + math.exp(-dtilde(tau)) * period(x)
        span = min(tau_next, horizon) - tau
        substeps = max(1, math.ceil(span / dt - 1e-12))
        hstep = span / substeps
        held = x
        for k in range(substeps):
            t = tau + k * hstep
            x = _plain_rk4_step(lambda s, y, _: deriv(s, y, held), t, x, hstep)
            times.append(t + hstep)
            states.append(x)
        tau = tau_next
    return np.array(times), np.array(states)


def _ldn_deriv(a, c, r, coupling, disturbance):
    """The delay network's right-hand side, one row at a time."""
    n = len(a)

    def deriv(t, x, delayed, window):
        scale = disturbance(t) if disturbance.kind != "zero" else 1.0
        if coupling == "sign_aligned":
            w = window() if r > 0 else np.abs(x)
            g = [(1.0 if x[i] >= 0 else -1.0)
                 * max(c[i][j] * w[j] for j in range(n)) * scale
                 for i in range(n)]
        else:
            xd = np.array([delayed(j, r) for j in range(n)]) if r > 0 else x
            g = (np.asarray(c) @ xd) * scale
        return np.array([-a[i] * x[i] + g[i] for i in range(n)])

    return deriv


def _bio_deriv(a, tau, g_params):
    """The biochemical circuit's right-hand side, one channel at a time."""
    g, n = make_g(g_params), len(a)

    def deriv(t, x, delayed, window):
        def src(j):
            return delayed(j, tau[j]) if tau[j] > 0 else x[j]
        return np.array([g(max(src(n - 1), 0.0)) - a[0] * x[0]]
                        + [src(i - 1) - a[i] * x[i] for i in range(1, n)])

    return deriv


_LDN_A = [1.0, 0.8, 1.2]
_LDN_C = [[0.4, 0.6, 0.5], [0.5, 0.0, 0.7], [0.6, 0.5, 0.4]]
_BIO_A = [1.0, 0.9, 1.1]
_MM = {"form": "mm", "c": 3.0, "K": 0.8}


def _ldn_run_and_reference(r, coupling, disturbance, dt=0.01, steps=300):
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": _LDN_A, "c": _LDN_C, "r": r,
                              "coupling": coupling},
                      disturbance_signal=disturbance)
    hist0 = np.array([0.8, -0.5, 0.0])
    traj = integrate_delay(spec, hist0, horizon=steps * dt, dt=dt)
    deriv = _ldn_deriv(_LDN_A, _LDN_C, r, coupling, disturbance)
    return traj.states, _reference_delay_run(deriv, hist0, r, dt, steps)


def _bio_run_and_reference(tau, g, dt=0.01, steps=300):
    spec = SystemSpec(kind="delay", model="biochem_circuit",
                      params={"a": _BIO_A, "tau": tau, "g": g})
    hist0 = lambda t: np.array([1.5 + t, 0.4 - 2.0 * t, 2.2 + math.sin(9 * t)])
    traj = integrate_delay(spec, hist0, horizon=steps * dt, dt=dt)
    m = int(round(max(tau) / dt))
    rows = np.array([hist0(t) for t in dt * np.arange(-m, 1)])
    ref = _reference_delay_run(_bio_deriv(_BIO_A, tau, g), rows, max(tau),
                               dt, steps)
    return traj.states, ref


@pytest.mark.parametrize("disturbance", [
    Signal(), Signal(kind="sinusoid", amplitude=0.8, frequency=1.3)])
def test_delay_network_trajectory_matches_reference(disturbance):
    got, ref = _ldn_run_and_reference(0.2, "sign_aligned", disturbance)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("tau", [[0.1, 0.1, 0.1], [0.1, 0.0, 0.2]])
def test_biochem_trajectory_matches_reference(tau):
    # one delay group, and two delay groups beside a present channel
    got, ref = _bio_run_and_reference(tau, _MM)
    assert got.tobytes() == ref.tobytes()


def _zoh_run_and_reference(h):
    A_cur = np.array([[0.0, 0.3], [-0.3, 0.0]])
    A_hold = np.array([[-1.0, 0.2], [0.1, -1.0]])
    jitter = Signal(kind="sinusoid", amplitude=0.3, frequency=0.5, phase=0.1)
    spec = SystemSpec(kind="sampled", model="zoh_linear",
                      params={"A_cur": A_cur.tolist(),
                              "A_hold": A_hold.tolist()},
                      h=h, dtilde=jitter)
    traj = integrate_sampled(spec, [2.0, -1.5], horizon=3.0, dt=1e-3)
    h0 = h["value"]
    period = ((lambda x: h0) if h["kind"] == "constant"
              else (lambda x: h0 / (1.0 + float(np.linalg.norm(x)))))
    times, states = _reference_sampled_run(
        lambda t, x, held: A_cur @ x + A_hold @ held, period, jitter,
        [2.0, -1.5], 3.0, 1e-3)
    return (np.concatenate([traj.times, traj.states.ravel()]),
            np.concatenate([times, states.ravel()]))


def _scalar_run_and_reference():
    u = Signal(kind="sinusoid", amplitude=0.7, frequency=0.9, phase=0.2)
    d = Signal(kind="piecewise", times=[0.0, 1.5], values=[0.3, -0.2])
    spec = SystemSpec(kind="ode", model="scalar_linear",
                      params={"a": 1.3, "bu": 0.6, "bd": 0.4},
                      input_signal=u, disturbance_signal=d)
    traj = integrate_delay(spec, [2.0], horizon=3.0, dt=0.01)
    times, x = 0.01 * np.arange(301), np.array([2.0])
    ref = [x]
    for t in times[:-1]:
        x = _plain_rk4_step(
            lambda s, y, _: np.array([-1.3 * y[0] + 0.6 * u(s) + 0.4 * d(s)]),
            t, x, 0.01)
        ref.append(x)
    return traj.states, np.array(ref)


@pytest.mark.parametrize("run", [
    lambda: _ldn_run_and_reference(0.0, "sign_aligned", Signal()),
    lambda: _ldn_run_and_reference(
        0.2, "delayed_linear",
        Signal(kind="sinusoid", amplitude=0.8, frequency=1.3)),
    lambda: _bio_run_and_reference([0.1, 0.1, 0.1],
                                   {"form": "hill", "c": 2.5, "p": 3.5}),
    lambda: _bio_run_and_reference([0.1, 0.2, 0.1], _MM),
    lambda: _bio_run_and_reference([0.1, 0.0, 0.2],
                                   {"form": "hill", "c": 2.5, "p": 3.5}),
    lambda: _bio_run_and_reference([0.2, 0.1, 0.0], _MM),
    lambda: _zoh_run_and_reference({"kind": "constant", "value": 0.2}),
    lambda: _zoh_run_and_reference({"kind": "state_norm", "value": 0.2}),
    _scalar_run_and_reference,
], ids=["ldn-no-delay", "delayed-linear", "bio-hill", "bio-two-groups",
        "bio-present-channel", "bio-present-drives-g", "zoh-constant",
        "zoh-state-norm", "scalar-input"])
def test_trajectory_matches_plain_rk4_bit_for_bit(run):
    # with the two tests above: every model and coupling, stepped by a
    # plain RK4 that keeps nothing between stages, gives the same floats
    got, ref = run()
    assert got.tobytes() == ref.tobytes()


_DT, _STEPS = 0.01, 40
_SIGNALS = st.sampled_from([
    Signal(), Signal(kind="sinusoid", amplitude=0.8, frequency=1.3, phase=0.4)])


def _vectors(n, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n)


@st.composite
def _ldn_cases(draw):
    n = draw(st.integers(1, 4))
    return ("ldn", {"a": draw(_vectors(n, 0.2, 2.0)),
                    "c": draw(st.lists(_vectors(n, 0.0, 1.0), min_size=n,
                                       max_size=n)),
                    "r": _DT * draw(st.integers(0, 6)),
                    "coupling": draw(st.sampled_from(["sign_aligned",
                                                      "delayed_linear"]))},
            draw(_SIGNALS), draw(_vectors(n, -2.0, 2.0)))


@st.composite
def _bio_cases(draw):
    n = draw(st.integers(1, 4))
    g = draw(st.sampled_from([{"form": "mm", "c": 3.0, "K": 0.8},
                              {"form": "hill", "c": 2.5, "p": 3.5}]))
    # each channel's delay is 0 or one of two steps counts, so the delay
    # groups are one, two, or include present channels
    steps = draw(st.lists(st.integers(1, 5), min_size=2, max_size=2))
    tau = [_DT * draw(st.sampled_from([0] + steps)) for _ in range(n)]
    return ("bio", {"a": draw(_vectors(n, 0.2, 2.0)), "tau": tau, "g": g},
            None, draw(_vectors(n, -0.5, 3.0)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_ldn_cases(), _bio_cases()))
def test_delay_run_matches_plain_reference_bit_for_bit(case):
    model, p, disturbance, hist0 = case
    if model == "ldn":
        spec = SystemSpec(kind="delay", model="linear_delay_network",
                          params=p, disturbance_signal=disturbance)
        deriv = _ldn_deriv(p["a"], p["c"], p["r"], p["coupling"], disturbance)
        r = p["r"]
    else:
        spec = SystemSpec(kind="delay", model="biochem_circuit", params=p)
        deriv, r = _bio_deriv(p["a"], p["tau"], p["g"]), max(p["tau"])
    traj = integrate_delay(spec, np.array(hist0), horizon=_STEPS * _DT, dt=_DT)
    ref = _reference_delay_run(deriv, np.array(hist0), r, _DT, _STEPS)
    assert traj.states.tobytes() == ref.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(_vectors(n, -1.0, 1.0), min_size=n, max_size=n),
    st.lists(_vectors(n, -1.0, 1.0), min_size=n, max_size=n),
    _vectors(n, -2.0, 2.0))),
    st.sampled_from(["constant", "state_norm"]), st.floats(0.02, 0.3))
def test_sampled_run_matches_plain_reference_bit_for_bit(mats, kind, h0):
    A_cur, A_hold, x0 = mats
    jitter = Signal(kind="sinusoid", amplitude=0.3, frequency=0.5, phase=0.1)
    spec = SystemSpec(kind="sampled", model="zoh_linear",
                      params={"A_cur": A_cur, "A_hold": A_hold},
                      h={"kind": kind, "value": h0}, dtilde=jitter)
    traj = integrate_sampled(spec, x0, horizon=0.6, dt=0.01)
    period = ((lambda x: h0) if kind == "constant"
              else (lambda x: h0 / (1.0 + float(np.linalg.norm(x)))))
    Ac, Ah = np.array(A_cur), np.array(A_hold)
    times, states = _reference_sampled_run(
        lambda t, x, held: Ac @ x + Ah @ held, period, jitter, x0, 0.6, 0.01)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()


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


def test_sampled_spec_is_read_once_on_construction():
    def spec():
        return SystemSpec(kind="sampled", model="zoh_linear",
                          params={"A_hold": [[-1.0, 0.2], [0.1, -1.0]]},
                          h={"kind": "state_norm", "value": 0.5})
    emptied = spec()
    emptied.params, emptied.h = {}, None
    got = integrate_sampled(emptied, [3.0, -1.0], horizon=2.0, dt=0.01)
    want = integrate_sampled(spec(), [3.0, -1.0], horizon=2.0, dt=0.01)
    assert np.array_equal(got.sampling_times, want.sampling_times)
    assert np.array_equal(got.states, want.states)


def test_sampled_node_count_capped(monkeypatch):
    # 100 steps of dt pass the grid check; a period of 0.003 needs 334 nodes
    monkeypatch.setattr(simulate, "MAX_STEPS", 100)
    spec = SystemSpec(kind="sampled", model="zoh_linear", params={"n": 1},
                      h={"kind": "constant", "value": 0.003}, dtilde=Signal())
    with pytest.raises(ConfigError, match="sampled run longer than MAX_STEPS = 100$"):
        integrate_sampled(spec, [1.0], horizon=1.0, dt=0.01)
    integrate_sampled(spec, [1.0], horizon=0.29, dt=0.01)


# -- trajectory container ---------------------------------------------------

def test_trajectory_csv_format():
    traj = Trajectory(times=np.array([0.0, 0.5]),
                      states=np.array([[1.0, 2.0], [3.0, 4.0]]))
    lines = list(traj.csv_rows())
    assert len(lines) == 3
    assert lines[0] == "t,x1,x2"
    assert lines[1].startswith("0.0,1.0,2.0")
    # repr round trip: values parse back exactly
    assert [float(v) for v in lines[2].split(",")] == [0.5, 3.0, 4.0]


def test_log_transform():
    out = log_transform([[2.0, 4.0]], [2.0, 2.0])
    assert np.allclose(out, [[0.0, math.log(2.0)]])
    with pytest.raises(ValueError):
        log_transform([-1.0], [1.0])
    with pytest.raises(ValueError):
        log_transform([1.0], [0.0])
