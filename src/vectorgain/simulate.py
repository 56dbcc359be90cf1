"""Fixed-step integrators for the three system kinds.

All integrators are classical 4-stage Runge-Kutta on a deterministic grid:
plain for ODEs, method-of-steps with grid-aligned delays for retarded
equations, and an event loop computing successive sampling instants for
sampled-data systems.  Fixed stepping is deliberate: reproducibility of
validation runs matters more than efficiency at this scale.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .models import SystemSpec, max_delay, model_delays, model_dim, model_rhs

__all__ = [
    "Trajectory", "SimulationError", "FiniteEscapeError", "ConfigError",
    "integrate_ode", "integrate_delay", "integrate_sampled", "log_transform",
]

ESCAPE_BOUND = 1e12
DELAY_ALIGN_TOL = 1e-12


class SimulationError(RuntimeError):
    pass


class ConfigError(SimulationError):
    pass


class FiniteEscapeError(SimulationError):
    def __init__(self, time: float):
        super().__init__(f"state norm exceeded {ESCAPE_BOUND:g} at t = {time:g}")
        self.time = time


@dataclass(frozen=True)
class Trajectory:
    """Time grid with state samples.

    times is uniform for ode/delay runs; for sampled-data runs it is the
    union of the locally refined inter-sample grids.  history, when
    present, holds the initial segment on [t0 - r, t0] (its last row
    coincides with states[0]).
    """

    times: np.ndarray
    states: np.ndarray
    dt: float
    sampling_times: Optional[np.ndarray] = None
    history_times: Optional[np.ndarray] = None
    history_states: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def csv_rows(self):
        yield "t," + ",".join(f"x{i+1}" for i in range(self.n))
        for t, row in zip(self.times, self.states):
            yield f"{float(t)!r}," + ",".join(repr(float(v)) for v in row)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            for line in self.csv_rows():
                fh.write(line + "\n")


def _check_escape(x: np.ndarray, t: float) -> None:
    # a NaN fails the comparison and an inf exceeds the bound
    if not abs(x).max() <= ESCAPE_BOUND:
        raise FiniteEscapeError(t)


def _rk4_step(f, t: float, x: np.ndarray, dt: float, *extra) -> np.ndarray:
    """One RK4 step of dx/dt = f(t, x, *extra); f returns an (n,) array."""
    k1 = f(t, x, *extra)
    k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1, *extra)
    k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2, *extra)
    k4 = f(t + dt, x + dt * k3, *extra)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_ode(spec: SystemSpec, x0, horizon: float, dt: float,
                  t0: float = 0.0) -> Trajectory:
    """RK4 on a uniform grid for an ODE model."""
    if spec.kind != "ode":
        raise ConfigError(f"integrate_ode requires kind='ode', got {spec.kind!r}")
    if dt <= 0 or dt > horizon:
        raise ConfigError("need 0 < dt <= horizon")
    n = model_dim(spec)
    x = np.asarray(x0, dtype=float).reshape(n)
    rhs = model_rhs(spec)
    steps = int(round(horizon / dt))
    times = t0 + dt * np.arange(steps + 1)
    states = np.empty((steps + 1, n))
    states[0] = x
    for k in range(steps):
        x = _rk4_step(rhs, times[k], x, dt)
        _check_escape(x, times[k + 1])
        states[k + 1] = x
    return Trajectory(times=times, states=states, dt=dt)


class _History:
    """Grid-backed accessor for delayed state values.

    A query time t sits at the half-step position h = round(2(t - t0)/dt)
    from the oldest row.  RK4 stage times, and stage times minus a
    grid-aligned delay, lie on the half-step grid, so h is exact; a delay
    of at least one step keeps every query at or before the newest row.
    interp(t) is row h/2 for even h, else the mean of rows (h -/+ 1)/2.
    window_absmax(t) is the per-channel max of |x| over rows
    max((h - 2m) // 2, 0) to the newest valid row, m = r/dt: the stored
    nodes of [t - r, t].  The window start only moves forward, so
    per-channel monotone deques of Python floats serve it in O(1)
    amortized per step.  The result is memoized on (start, filled), which
    RK4 stages 1-3 of a step share; callers must not write to it.
    """

    def __init__(self, states: np.ndarray, dt: float, t0: float, m: int,
                 filled: int):
        self.states = states
        self.dt = dt
        self.t0 = t0
        self.m = m
        self.filled = filled  # number of valid rows
        n = states.shape[1]
        # deques of (row index, |value|), indices increasing, values decreasing
        self._deques: List[deque] = [deque() for _ in range(n)]
        self._pushed = 0
        self._push_rows(filled)
        self._memo_key = None
        self._memo = None

    def _push_rows(self, upto: int) -> None:
        for k in range(self._pushed, upto):
            for v, dq in zip(np.abs(self.states[k]).tolist(), self._deques):
                while dq and dq[-1][1] <= v:
                    dq.pop()
                dq.append((k, v))
        self._pushed = upto

    def advance(self, filled: int) -> None:
        """Mark rows below `filled` as valid and index them for window queries."""
        self.filled = filled
        self._push_rows(filled)

    def _half_steps(self, t: float) -> int:
        return round(2.0 * (t - self.t0) / self.dt)

    def interp(self, t: float) -> np.ndarray:
        i, odd = divmod(self._half_steps(t), 2)
        if odd:
            return 0.5 * (self.states[i] + self.states[i + 1])
        return self.states[i]

    def window_absmax(self, t: float) -> np.ndarray:
        i0 = max((self._half_steps(t) - 2 * self.m) // 2, 0)
        key = (i0, self.filled)
        if key != self._memo_key:
            # front entries below i0 are never needed again; each deque
            # keeps its newest row, filled - 1 >= i0 as m >= 1, so none
            # runs empty
            for dq in self._deques:
                while dq[0][0] < i0:
                    dq.popleft()
            self._memo_key = key
            self._memo = np.array([dq[0][1] for dq in self._deques])
        return self._memo


def _history_array(history, r: float, dt: float, n: int) -> np.ndarray:
    """Sample the initial segment on [-r, 0] onto the grid."""
    m = int(round(r / dt))
    ts = dt * np.arange(-m, 1)
    if callable(history):
        return np.array([np.asarray(history(t), dtype=float).reshape(n) for t in ts])
    arr = np.asarray(history, dtype=float)
    if arr.ndim == 1:
        return np.tile(arr.reshape(1, n), (m + 1, 1))
    if arr.shape == (m + 1, n):
        return arr.copy()
    raise ConfigError(
        f"history must be a callable, a constant n-vector, or a ({m + 1}, {n}) array")


def integrate_delay(spec: SystemSpec, history, horizon: float,
                    dt: float) -> Trajectory:
    """Method of steps with RK4 inside each step.

    Every model delay must sit on the grid (a positive integer multiple
    of dt), so no stage reads past the newest stored node;
    a delayed value at a half-step stage time is the mean of the two
    stored nodes around it.  The history covers [-r, 0] and may be given as
    a callable of t, a constant vector, or a pre-sampled array.
    """
    if spec.kind != "delay":
        raise ConfigError(f"integrate_delay requires kind='delay', got {spec.kind!r}")
    if dt <= 0 or dt > horizon:
        raise ConfigError("need 0 < dt <= horizon")
    for tau in model_delays(spec):
        ratio = tau / dt
        k = round(ratio)
        if k < 1 or abs(ratio - k) > DELAY_ALIGN_TOL * max(1.0, ratio):
            raise ConfigError(
                f"delay {tau} is not a positive integer multiple of dt = {dt}")
    n = model_dim(spec)
    r = max_delay(spec)
    m = int(round(r / dt))
    hist_states = _history_array(history, r, dt, n)
    steps = int(round(horizon / dt))
    times = dt * np.arange(-m, steps + 1)
    states = np.empty((m + steps + 1, n))
    states[: m + 1] = hist_states
    hist = _History(states, dt, float(times[0]), m, filled=m + 1)
    rhs = model_rhs(spec)
    x = states[m].copy()
    for k in range(steps):
        # a Python float: the same value, cheaper arithmetic in every stage
        t = float(times[m + k])
        x = _rk4_step(rhs, t, x, dt, hist)
        _check_escape(x, t + dt)
        states[m + k + 1] = x
        hist.advance(m + k + 2)
    return Trajectory(times=times[m:], states=states[m:], dt=dt,
                      history_times=times[: m + 1],
                      history_states=states[: m + 1].copy())


def _period_fn(spec: SystemSpec) -> Callable[[np.ndarray, float], float]:
    d = spec.h or {"kind": "constant", "value": 0.1}
    kind = d.get("kind", "constant")
    if kind == "constant":
        h0 = float(d["value"])
        return lambda x, u: h0
    if kind == "state_norm":
        # h(x, u) = h0 / (1 + |x|): faster sampling far from the origin
        h0 = float(d["value"])
        return lambda x, u: h0 / (1.0 + float(np.linalg.norm(x)))
    raise ConfigError(f"unknown sampling-period kind {kind!r}")


def integrate_sampled(spec: SystemSpec, x0, horizon: float, dt: float,
                      t0: float = 0.0) -> Trajectory:
    """Sampled-data execution loop.

    Per sampling step: the next instant is the current one plus the period
    function of the held state, shrunk by exp(-dtilde); the flow on the
    inter-sample interval integrates the dynamics with the state held at
    the last instant; the new held state is the left limit at the next
    instant.  Each interval is refined so its endpoint lands on a node.
    """
    if spec.kind != "sampled":
        raise ConfigError(
            f"integrate_sampled requires kind='sampled', got {spec.kind!r}")
    if dt <= 0 or dt > horizon:
        raise ConfigError("need 0 < dt <= horizon")
    n = model_dim(spec)
    x = np.asarray(x0, dtype=float).reshape(n)
    rhs = model_rhs(spec)
    h_fn = _period_fn(spec)
    u_sig, dtilde = spec.input_signal, spec.dtilde
    tau = t0
    t_end = t0 + horizon
    times: List[float] = [tau]
    states: List[np.ndarray] = [x.copy()]
    sampling: List[float] = [tau]
    while tau < t_end - 1e-15:
        h_val = h_fn(x, u_sig(tau))
        if not (h_val > 0):
            raise ConfigError(f"sampling period must be positive, got {h_val}")
        gap = math.exp(-dtilde(tau)) * h_val
        tau_next = tau + gap
        span = min(tau_next, t_end) - tau
        substeps = max(1, int(math.ceil(span / dt - 1e-12)))
        hstep = span / substeps
        # _rk4_step returns a new array, so x is never written in place
        held = x
        for k in range(substeps):
            t = tau + k * hstep
            x = _rk4_step(rhs, t, x, hstep, held)
            _check_escape(x, t + hstep)
            times.append(t + hstep)
            states.append(x)
        tau = tau_next
        if tau <= t_end + 1e-15:
            sampling.append(tau)
    return Trajectory(times=np.asarray(times), states=np.asarray(states),
                      dt=dt, sampling_times=np.asarray(sampling))


def log_transform(X, Xstar) -> np.ndarray:
    """Componentwise ln(X / X*) for positive X, X*.

    Accepts a vector or an array of state rows; shape is preserved.
    """
    Xa = np.asarray(X, dtype=float)
    Xs = np.asarray(Xstar, dtype=float)
    if np.any(Xs <= 0):
        raise ValueError("reference point must be strictly positive")
    if np.any(Xa <= 0):
        raise ValueError("log transform requires strictly positive components")
    return np.log(Xa / Xs)
