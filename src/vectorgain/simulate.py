"""Fixed-step integrators for the three system kinds.

Both integrators are classical 4-stage Runge-Kutta on a deterministic
grid.  ODE and delay runs share one uniform-grid loop, method of steps
with grid-aligned delays, since an ODE is a retarded equation without
delays; sampled-data systems run an event loop computing successive
sampling instants.  Fixed stepping is deliberate: reproducibility of
validation runs matters more than efficiency at this scale.

The states here have a few components, so the integrators step on
tuples of Python floats: numpy's per-call overhead would cost more than
the arithmetic.  Python float +, *, / and abs round as the elementwise
ufuncs do, and each step keeps the plain formula's order of operations,
so the floats are those of the same formula on arrays.  A coupling of
all channels to all, a maximum or a sum over n x n products, stays one
numpy call in the model.  An ODE or delay run writes its states into one
float64 array as it goes.

Work that does not change between the stages of a step is done once:
`_rk4` builds its coefficients once per step size, `_History` memoizes a
delayed value by its half-step point and a window until its start or end
moves, and a right-hand side keeps what it derives from such a value, or
from a held state, for as long as it is handed the same tuple.  A tuple
cannot be written to, so no memo goes stale.

A window query returns the window max of a row map D that the model
supplies: the max-type coupling D(w)_i = max_j c_ij w_j of a delay
network, or the identity.  Such a D is max-times linear,
D(max(u, v)) = max(D(u), D(v)), and exactly so in floats: c_ij >= 0, a
correctly rounded product is non-decreasing in its other factor, and a
max is exact.  So the drive of a window, D of its max of |x|, is the
window max of the drives of its rows, and the history applies D to a
block of rows in one numpy pass and to the running max only when it
rises, instead of once per window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .models import SystemSpec, model_rhs

__all__ = [
    "Trajectory", "SimulationError", "FiniteEscapeError", "ConfigError",
    "integrate_delay", "integrate_sampled", "log_transform", "MAX_STEPS",
]

ESCAPE_BOUND = 1e12
_ESCAPE_CLEAR = ESCAPE_BOUND * (1.0 - 1e-9)
# most steps a run takes: horizon / dt, or a sampled run's node count
MAX_STEPS = 10_000_000
DELAY_ALIGN_TOL = 1e-12
# most delayed values a delay history keeps: each step adds two per delay
INTERP_MEMO = 64


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
    """Time grid with state samples, from t = 0 on.

    times is uniform for ode/delay runs; for sampled-data runs it is the
    union of the locally refined inter-sample grids, and sampling_times
    holds the sampling instants.
    """

    times: np.ndarray
    states: np.ndarray
    sampling_times: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def csv_rows(self):
        yield "t," + ",".join(f"x{i+1}" for i in range(self.n))
        for t, row in zip(self.times, self.states):
            yield f"{float(t)!r}," + ",".join(repr(float(v)) for v in row)


def _check_escape(x: Sequence[float], t: float) -> None:
    # math.hypot is the 2-norm to about an ulp, at least the largest |x_i|
    # and NaN or inf when an entry is, so a norm clearly within the bound
    # clears the state in one call; any other state is decided entry by
    # entry, where a NaN fails the comparison and an inf exceeds the bound
    if not math.hypot(*x) <= _ESCAPE_CLEAR and not all(
            abs(v) <= ESCAPE_BOUND for v in x):
        raise FiniteEscapeError(t)


def _rk4(f, dt: float):
    """The classical RK4 step of dx/dt = f(t, x, extra) with step dt, as a
    function step(t, x, extra) of a tuple x that returns the new state as
    a tuple.

    dt/2 and dt/6 are computed once per step size.  2k is k + k, and the
    update is x + (dt/6)(((k1 + 2k2) + 2k3) + k4), one channel at a time.
    """
    half, sixth = 0.5 * dt, dt / 6.0

    def step(t: float, x: Tuple[float, ...], extra) -> Tuple[float, ...]:
        k1 = f(t, x, extra)
        k2 = f(t + half, tuple([a + half * k for a, k in zip(x, k1)]), extra)
        k3 = f(t + half, tuple([a + half * k for a, k in zip(x, k2)]), extra)
        k4 = f(t + dt, tuple([a + dt * k for a, k in zip(x, k3)]), extra)
        return tuple([a + sixth * (((p + (q + q)) + (r + r)) + s)
                      for a, p, q, r, s in zip(x, k1, k2, k3, k4)])

    return step


def _check_initial(x: np.ndarray, name: str) -> None:
    """An initial state or history with a NaN or inf is a config error, not
    an escape of the system."""
    if not np.all(np.isfinite(x)):
        raise ConfigError(f"{name} must be finite")


def _check_grid(dt: float, horizon: float, r: float = 0.0) -> None:
    """Require a finite step and horizon with 0 < dt <= horizon, and at most
    MAX_STEPS rows for the horizon/dt steps together with the r/dt rows of a
    delay history."""
    if not (math.isfinite(dt) and math.isfinite(horizon) and 0 < dt <= horizon):
        raise ConfigError(f"need finite dt and horizon with 0 < dt <= horizon, "
                          f"got dt = {dt}, horizon = {horizon}")
    steps = horizon / dt
    rows = r / dt + steps
    if rows > MAX_STEPS:
        name, count = (("horizon / dt", steps) if steps > MAX_STEPS
                       else ("r / dt + horizon / dt", rows))
        raise ConfigError(f"{name} = {count:g} exceeds MAX_STEPS = {MAX_STEPS}")


def _initial_state(x0, n: int) -> Tuple[float, ...]:
    """x0 as a tuple of n finite floats."""
    x = np.asarray(x0, dtype=float).reshape(n)
    _check_initial(x, "initial state")
    return tuple(x.tolist())


class _History:
    """Delayed state values and window maxima, read from the run's states.

    Rows are 0-based from the oldest history row, and rows below `filled`
    are valid.  A query time t sits at the half-step position
    h = round(2(t - t0)/dt) from the oldest row.  RK4 stage times, and stage
    times minus a grid-aligned delay, lie on the half-step grid, so h is
    exact; a delay of at least one step keeps every query at or before the
    newest row.

    Both queries return tuples of floats.  interp(t) is row h/2 for even
    h, else the mean of the points at h -/+ 1.  It is memoized on h, since
    RK4 stages 2 and 3 query the same half-step point and stage 4 the point
    of the next step's stage 1, and a mean takes its rows from the memo, so
    a run reads each row once; the memo is emptied when it holds
    INTERP_MEMO points.

    window_max(t, drive) is the per-channel max of drive(|x|) over rows
    start = max((h - 2m) // 2, 0) to the newest valid row, m = r/dt: the
    stored nodes of [t - r, t].  drive maps a (k, n) array of rows to the
    (k, n) array of their images under a max-times linear D (see the
    module docstring); every query of one history passes the same drive,
    and the identity gives the window max of |x|.  The start only moves
    forward, so a two-stack (van Herk / Gil-Werman) max serves it.  A
    frozen block of rows [b0, b1) holds D of the max of all its rows (the
    head, a tuple) and the suffix maxima of D(|row|) for rows b0 + 1 on
    (an array), and a running max of |row| covers the rows [b1, filled):
    a tuple that keeps its identity while no new row raises it, with D
    applied to it only when it changes.  A window is the max of the block
    entry at its start and D of the running max.  When the start reaches
    b1, rows [start, filled) become the new block, about once per m
    steps: the running max covers just those rows, so its drive is the
    head, and one chunked numpy pass gives the suffix maxima of the rest
    (none when m = 1).  The first window query builds the first block, so
    a model that never asks for a window builds no window state.  The
    result is memoized on (start, filled), which RK4 stages 1-3 of a step
    share.
    """

    def __init__(self, states: np.ndarray, dt: float, t0: float, m: int,
                 filled: int):
        self.states = states
        self.dt = dt
        self.t0 = t0
        self.m = m
        self.filled = filled  # number of valid rows
        self._interp = {}  # half-step position -> value
        # window index: the head and suffix drives of rows[b0:b1], and the
        # running max of |rows[b1:pushed]| with its drive
        self._b0 = self._b1 = self._pushed = 0
        self._head = self._suffix = None
        self._running = self._running_drive = None
        self._drive = self._window_key = self._window = None

    def advance(self, filled: int) -> None:
        """Mark rows below `filled` as valid."""
        self.filled = filled

    def _half_steps(self, t: float) -> int:
        return round(2.0 * (t - self.t0) / self.dt)

    def interp(self, t: float) -> Tuple[float, ...]:
        return self._point(self._half_steps(t))

    def _point(self, h: int) -> Tuple[float, ...]:
        value = self._interp.get(h)
        if value is None:
            if h % 2:  # the mean of the rows at h -/+ 1, each read once
                value = tuple([0.5 * (a + b) for a, b in
                               zip(self._point(h - 1), self._point(h + 1))])
            else:
                value = tuple(self.states[h // 2].tolist())
            if len(self._interp) == INTERP_MEMO:
                self._interp.clear()
            self._interp[h] = value
        return value

    def window_max(self, t: float, drive) -> Tuple[float, ...]:
        start = max((self._half_steps(t) - 2 * self.m) // 2, 0)
        key = (start, self.filled, drive)
        if key != self._window_key:
            if drive is not self._drive:  # the first query: no block yet
                self._drive, self._b1, self._pushed = drive, 0, 0
            if start >= self._b1:
                self._new_block(start, drive)
            else:
                self._push(drive)
            head = (self._head if start == self._b0
                    else self._suffix[start - self._b0 - 1].tolist())
            self._window_key = key
            self._window = _max2(head, self._running_drive)
        return self._window

    def _new_block(self, start: int, drive) -> None:
        """Make rows [start, filled) the frozen block, and start an empty
        running part at filled."""
        if start == self._b1 and self._pushed == self.filled:
            # the running max covers just these rows: its drive is theirs
            head = self._running_drive
        else:
            rows = np.abs(self.states[start:self.filled]).max(axis=0)
            head = drive(rows[None]).tolist()[0]
        rest = self.states[start + 1:self.filled]
        self._suffix = (np.maximum.accumulate(drive(np.abs(rest))[::-1])[::-1]
                        if len(rest) else None)
        self._head = head
        self._b0, self._b1, self._pushed = start, self.filled, self.filled
        # the max of no |row|, and its drive
        self._running = self._running_drive = (0.0,) * self.states.shape[1]

    def _push(self, drive) -> None:
        """Raise the running max by the rows added since the last push,
        and apply the drive when the running max has risen."""
        running = self._running
        for k in range(self._pushed, self.filled):
            raised = _max2(running, map(abs, self.states[k].tolist()))
            if raised != running:
                running = raised
        self._pushed = self.filled
        if running is not self._running:
            self._running = running
            self._running_drive = drive(np.array([running])).tolist()[0]


def _max2(u, v) -> Tuple[float, ...]:
    """The channelwise max of two sequences of floats without NaN."""
    return tuple([q if q > p else p for p, q in zip(u, v)])


def _history_array(history, r: float, dt: float, n: int) -> np.ndarray:
    """Sample the initial segment on [-r, 0] onto the grid."""
    m = int(round(r / dt))
    ts = dt * np.arange(-m, 1)
    if callable(history):
        return np.array([np.asarray(history(t), dtype=float).reshape(n) for t in ts])
    arr = np.asarray(history, dtype=float)
    if arr.ndim <= 1:
        return np.tile(arr.reshape(1, n), (m + 1, 1))
    if arr.shape == (m + 1, n):
        return arr.copy()
    raise ConfigError(
        f"history must be a callable, a constant n-vector, or a ({m + 1}, {n}) array")


def integrate_delay(spec: SystemSpec, history, horizon: float,
                    dt: float) -> Trajectory:
    """RK4 on a uniform grid for an ODE or delay model: the method of steps
    with RK4 inside each step.

    Every model delay must sit on the grid (a positive integer multiple
    of dt), so no stage reads past the newest stored node;
    a delayed value at a half-step stage time is the mean of the two
    stored nodes around it.  The history covers [-r, 0] and may be given as
    a callable of t, a constant vector, or a pre-sampled array.  Its r/dt
    rows and the horizon/dt steps number at most MAX_STEPS together.  An
    ODE has no delays: r = 0, and its history is the initial state alone.
    """
    if spec.kind == "sampled":
        raise ConfigError(
            f"integrate_delay requires kind='ode' or 'delay', got {spec.kind!r}")
    delays = spec.parsed.delays
    r = max(delays, default=0.0)
    _check_grid(dt, horizon, r)  # history rows and steps share one buffer
    for tau in delays:
        ratio = tau / dt
        k = round(ratio)
        if k < 1 or abs(ratio - k) > DELAY_ALIGN_TOL * max(1.0, ratio):
            raise ConfigError(
                f"delay {tau} is not a positive integer multiple of dt = {dt}")
    n = spec.parsed.dim
    m = int(round(r / dt))
    hist_states = _history_array(history, r, dt, n)
    _check_initial(hist_states,
                   "initial state" if spec.kind == "ode" else "history")
    steps = int(round(horizon / dt))
    times = dt * np.arange(-m, steps + 1)
    states = np.empty((m + steps + 1, n))
    states[: m + 1] = hist_states
    hist = _History(states, dt, float(times[0]), m, filled=m + 1)
    step = _rk4(model_rhs(spec), dt)
    x = tuple(states[m].tolist())
    for k in range(steps):
        # a Python float: the same value, cheaper arithmetic in every stage
        t = float(times[m + k])
        x = step(t, x, hist)
        _check_escape(x, t + dt)
        states[m + k + 1] = x
        hist.advance(m + k + 2)
    return Trajectory(times=times[m:], states=states[m:])


def integrate_sampled(spec: SystemSpec, x0, horizon: float,
                      dt: float) -> Trajectory:
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
    _check_grid(dt, horizon)
    x = _initial_state(x0, spec.parsed.dim)
    rhs = model_rhs(spec)
    dtilde = spec.dtilde
    tau = 0.0
    t_end = horizon
    times: List[float] = [tau]
    # one array of states per interval: a tuple's floats live no longer
    # than the interval that made them
    states: List[np.ndarray] = [np.array([x])]
    sampling: List[float] = [tau]
    while tau < t_end - 1e-15:
        try:
            gap = math.exp(-dtilde(tau)) * spec.period(x)
        except OverflowError:
            gap = math.inf
        tau_next = tau + gap
        if not (math.isfinite(gap) and tau_next > tau):
            raise ConfigError(f"sampling gap {gap:g} at tau = {tau:g} must be "
                              f"finite and move tau forward")
        span = min(tau_next, t_end) - tau
        substeps = max(1, int(math.ceil(span / dt - 1e-12)))
        if len(times) - 1 + substeps > MAX_STEPS:
            raise ConfigError(f"sampled run longer than MAX_STEPS = {MAX_STEPS}")
        hstep = span / substeps
        step = _rk4(rhs, hstep)
        held, rows = x, []
        for k in range(substeps):
            t = tau + k * hstep
            x = step(t, x, held)
            _check_escape(x, t + hstep)
            times.append(t + hstep)
            rows.append(x)
        states.append(np.array(rows))
        tau = tau_next
        if tau <= t_end + 1e-15:
            sampling.append(tau)
    return Trajectory(times=np.asarray(times), states=np.concatenate(states),
                      sampling_times=np.asarray(sampling))


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
