"""Built-in continuous-time models and their structural data.

Each model is registered under a name with its params table and one parse
function, which a `SystemSpec` runs once, on construction.  The table,
read by `config.read`, checks the JSON type of every parameter and
rejects a key it does not have; the parse function checks that the values
are finite and in range, and returns the model's kind, dimension, delays,
right-hand side, worst-case channel derivative (or None) and the parsed
values that every reader uses.  A spec of another kind is rejected.  The
system object, `h`, the g-curve and the signals are read by tables too.
Model parameters arrive as plain dicts so specs stay JSON round-trippable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import copysign
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .config import (
    REQUIRED, integer, number, numbers, obj, one_of, read, read_kind,
)
from .signals import Signal, signal_from_json, signal_to_json

__all__ = [
    "SystemSpec", "ModelError", "make_g",
    "biochem_equilibrium", "biochem_hypothesis", "spec_from_json",
    "spec_to_json",
]


class ModelError(ValueError):
    """Unknown model or inconsistent model parameters."""


@dataclass(frozen=True)
class ParsedModel:
    """A model's checked parameters: the system kind it runs as, its
    dimension, its distinct positive delays (ascending), its right-hand-side
    builder, its worst-case channel-derivative builder or None, and the
    parsed values, by name, that its readers use.

    A worst-case channel derivative maps a batch of points (channel indices
    i, values x_i, rows of delayed levels V_j, input magnitudes u) to the
    sup of dv_i/dt over admissible disturbances and delayed arguments
    within the Razumikhin bounds sqrt(2 V_j)."""

    kind: str
    dim: int
    delays: List[float]
    rhs: Callable[[SystemSpec], Callable]
    deriv_sup: Optional[Callable[[SystemSpec], Callable]]
    values: Dict[str, object]


@dataclass
class SystemSpec:
    """Description of a continuous-time model instance.

    kind: "ode", "delay" or "sampled".  model: registry key.  params:
    model parameters.  For sampled systems, h describes the sampling
    period function and dtilde the sampling-jitter disturbance.

    A spec is parsed once, on construction: `parsed` holds the model's
    checked parameters and `period` the sampling period as a function of
    the held state, from h (a constant 0.1 when h is None).  Neither is an
    init argument or compared, and params and h are not read again.
    """

    kind: str
    model: str
    params: Dict = field(default_factory=dict)
    input_signal: Signal = field(default_factory=Signal)
    disturbance_signal: Signal = field(default_factory=Signal)
    h: Optional[Dict] = None
    dtilde: Signal = field(default_factory=Signal)
    parsed: ParsedModel = field(init=False, compare=False, repr=False)
    period: Callable[[np.ndarray], float] = field(init=False, compare=False,
                                                  repr=False)

    def __post_init__(self):
        if self.kind not in ("ode", "delay", "sampled"):
            raise ModelError(f"unknown system kind {self.kind!r}")
        if self.model not in _REGISTRY:
            raise ModelError(f"unknown model {self.model!r}; "
                             f"known: {sorted(_REGISTRY)}")
        table, parse = _REGISTRY[self.model]
        self.parsed = parse(read(self.params, table, self.model, "parameter",
                                 ModelError))
        _require(self.kind == self.parsed.kind,
                 f"model {self.model!r} does not support kind {self.kind!r}")
        self.period = _parse_period(self.h)


def _require(ok, message: str) -> None:
    if not ok:
        raise ModelError(message)


_H = (("kind", one_of("constant", "state_norm"), "constant"),
      ("value", number, REQUIRED))


def _parse_period(h: Optional[Dict]) -> Callable[[np.ndarray], float]:
    """The sampling period h(x) that an h object describes: kind "constant"
    (the default) or "state_norm", with a finite value > 0."""
    if h is None:
        h = {"kind": "constant", "value": 0.1}
    h = read(h, _H, "h", error=ModelError)
    h0 = h["value"]
    _require(0 < h0 < math.inf, f"h value must be finite and > 0, got {h0}")
    if h["kind"] == "constant":
        return lambda x: h0
    # h(x) = h0 / (1 + |x|): faster sampling far from the origin
    return lambda x: h0 / (1.0 + float(np.linalg.norm(x)))


# ---------------------------------------------------------------------------
# linear delay network:  dx_i = -a_i x_i(t) + g_i(d, history)
# with |g_i| <= max_j c_ij * sup_[t-r,t] |x_j|.
#
# coupling modes realize concrete adversaries within that bound:
#   "sign_aligned": g_i = sgn(x_i) * max_j c_ij * window-sup |x_j|
#                   (achieves the bound, worst case for decay)
#   "delayed_linear": g_i = sum_j c_ij x_j(t - r)  (plain linear lag)
# The sign_aligned drive D(w)_i = max_j c_ij w_j is max-times linear, also
# in floats (c >= 0, rounding is monotone, max is exact), so the delay
# history takes its window max over the drives of the rows, which it
# computes a block of rows at a time: `_max_times` is D on rows, and the
# right-hand side holds no memo of its own.  With r = 0 the window is the
# present state, and D is applied to |x| at each stage.
# The disturbance signal scales the coupling; values in [-1, 1] stay
# within the admissible set.  bu, the input gain, is read by the
# implication check alone.
# ---------------------------------------------------------------------------

_LDN = (("a", numbers, REQUIRED), ("c", numbers, REQUIRED),
        ("r", number, 0.0), ("bu", number, 0.0),
        ("coupling", one_of("sign_aligned", "delayed_linear"), "sign_aligned"))


def _ldn_parse(v: Dict) -> ParsedModel:
    a, c, r, bu = v["a"], v["c"], v["r"], v["bu"]
    _require(a.ndim == 1 and np.all((0 < a) & (a < math.inf)),
             "linear_delay_network: a must be finite and positive")
    _require(c.shape == (a.size, a.size) and np.all((0 <= c) & (c < math.inf)),
             "linear_delay_network: c must be n x n, finite and nonnegative")
    _require(0 <= r < math.inf,
             "linear_delay_network: delay r must be finite and >= 0")
    _require(0 <= bu < math.inf,
             "linear_delay_network: bu must be finite and >= 0")
    return ParsedModel("delay", a.size, [r] if r > 0 else [], _ldn_rhs,
                       _ldn_deriv_sup, v)


def _memo_by_identity(fn):
    """fn as a function of a tuple that is computed again only when it is
    handed a different tuple object.

    The integrators hand a right-hand side the same window, delayed value
    or held state in several RK4 stages, and a tuple cannot change, so
    what a model derives from it alone is computed once for all those
    stages.
    """
    last = value = None

    def derived(v):
        nonlocal last, value
        if v is not last:
            last, value = v, fn(v)
        return value

    return derived


# most elements of one (rows, n, n) product in a max-times drive
_DRIVE_BUDGET = 1 << 16


def _max_times(c: np.ndarray):
    """The map D(W)_ki = max_j c_ij W_kj on the rows of a (k, n) array W,
    in products of at most _DRIVE_BUDGET elements."""
    chunk = max(1, _DRIVE_BUDGET // c.size)

    def drive(W: np.ndarray) -> np.ndarray:
        if len(W) > chunk:
            return np.concatenate([drive(W[lo:lo + chunk])
                                   for lo in range(0, len(W), chunk)])
        return np.maximum.reduce(W[:, None, :] * c, axis=2)

    return drive


def _ldn_rhs(spec: SystemSpec):
    v = spec.parsed.values
    a, c, r = v["a"], v["c"], v["r"]
    d_sig = spec.disturbance_signal
    disturbed = d_sig.kind != "zero"
    neg_a = (-a).tolist()

    # the disturbance s scales the coupling; a product with 1.0 is exact
    if v["coupling"] == "sign_aligned":
        # max_j c_ij w_j >= 0, so copysign gives it the sign of x_i
        drive = _max_times(c)

        def rhs(t, x, hist):
            # with r = 0 the window [t - r, t] holds the present state alone
            g = (hist.window_max(t, drive) if r > 0
                 else drive(np.abs([x])).tolist()[0])
            s = d_sig(t) if disturbed else 1.0
            # sgn(x) with sgn(+-0) = +1: x + 0.0 turns -0.0 into +0.0
            return [na * xi + copysign(gi, xi + 0.0) * s
                    for na, xi, gi in zip(neg_a, x, g)]
    else:
        lag = _memo_by_identity(lambda xd: (c @ xd).tolist())

        def rhs(t, x, hist):
            g = lag(hist.interp(t - r) if r > 0 else x)
            s = d_sig(t) if disturbed else 1.0
            return [na * xi + gi * s for na, xi, gi in zip(neg_a, x, g)]

    return rhs


def _ldn_deriv_sup(spec: SystemSpec):
    v = spec.parsed.values
    a, c, bu = v["a"], v["c"], v["bu"]

    def dsup(idx: np.ndarray, x: np.ndarray, V: np.ndarray,
             u: np.ndarray) -> np.ndarray:
        drive = np.max(c[idx] * np.sqrt(2.0 * V), axis=1) + bu * np.abs(u)
        return -a[idx] * x * x + np.abs(x) * drive

    return dsup


# ---------------------------------------------------------------------------
# biochemical control circuit:
#   dX_1 = g(X_n(t - tau_n)) - a_1 X_1
#   dX_i = X_{i-1}(t - tau_{i-1}) - a_i X_i ,  i = 2..n
# g is either Michaelis-Menten  c*X/(K + X)  or Hill  c*X^p/(1 + X^p).
# ---------------------------------------------------------------------------

# the config table of each g-curve form, by the form's name
_G_FORMS = {
    "mm": ((("c", number, REQUIRED), ("K", number, REQUIRED)), "mm g-curve",
           "field"),
    "hill": ((("c", number, 1.0), ("p", number, REQUIRED)), "hill g-curve",
             "field"),
}


def make_g(gp: Dict) -> Callable[[float], float]:
    """The g-curve of a g object; its c, K and p must be finite and > 0."""
    form, g = read_kind(gp, _G_FORMS, "g", ModelError, key="form",
                        default="mm")
    c = g["c"]
    if form == "mm":
        K = g["K"]
        _require(0 < c < math.inf and 0 < K < math.inf,
                 "mm g-curve needs finite c > 0, K > 0")
        return lambda X: c * X / (K + X)
    p = g["p"]
    _require(0 < c < math.inf and 0 < p < math.inf,
             "hill g-curve needs finite c > 0, p > 0")

    def hill(X):
        try:
            Xp = X ** p
        except OverflowError:  # past the float range, where an array's
            Xp = math.inf      # power is inf and the curve inf/inf = NaN
        return c * Xp / (1.0 + Xp)

    return hill


_BIO = (("a", numbers, REQUIRED), ("tau", numbers, REQUIRED),
        ("g", obj, REQUIRED))


def _bio_parse(v: Dict) -> ParsedModel:
    a, tau = v["a"], v["tau"]
    _require(a.ndim == 1 and a.size > 0 and np.all((0 < a) & (a < math.inf)),
             "biochem_circuit: a must be a nonempty finite positive vector")
    _require(tau.shape == a.shape and np.all((0 <= tau) & (tau < math.inf)),
             "biochem_circuit: tau must match a and be finite and >= 0")
    v["g"] = make_g(v["g"])
    return ParsedModel("delay", a.size, sorted({float(t) for t in tau if t > 0}),
                       _bio_rhs, _bio_deriv_sup, v)


def _bio_rhs(spec: SystemSpec):
    m = spec.parsed
    a, tau, g = m.values["a"], m.values["tau"], m.values["g"]
    n = a.size
    # channels that read the same positive delay share one interpolation
    groups = [(d, [j for j in range(n) if tau[j] == d]) for d in m.delays]
    if len(groups) == 1 and len(groups[0][1]) == n:
        d0 = groups[0][0]
        source = lambda t, x, hist: hist.interp(t - d0)
    else:
        def source(t, x, hist):
            src = list(x)
            for d, idx in groups:
                xd = hist.interp(t - d)
                for j in idx:
                    src[j] = xd[j]
            return tuple(src)
    rates = a.tolist()

    @_memo_by_identity
    def production(src):  # src[j]: x_j at its own delay
        # channel j - 1 drives channel j, and g of the last drives the first
        return (g(max(src[n - 1], 0.0)), *src[:n - 1])

    def rhs(t, x, hist):
        return [p - ai * xi
                for p, ai, xi in zip(production(source(t, x, hist)), rates, x)]

    return rhs


def _bio_deriv_sup(spec: SystemSpec):
    a, g = spec.parsed.values["a"], spec.parsed.values["g"]
    xn_star = float(biochem_equilibrium(spec)[-1])
    g_star = g(xn_star)
    n = a.size

    def dsup(idx: np.ndarray, x: np.ndarray, V: np.ndarray,
             u: np.ndarray) -> np.ndarray:
        out = np.empty(x.size)
        first = idx == 0
        # for fixed x each term is monotone in the delayed log-level w, so
        # its sup over |w| <= bound lies at w = -bound or w = bound.
        # channel 1: the g-curve of the delayed last level
        x0 = x[first][:, None]
        bound = np.sqrt(2.0 * V[first, n - 1])
        ws = np.stack([-bound, bound], axis=1)
        out[first] = np.max(a[0] * x0 * (g(xn_star * np.exp(ws)) / g_star
                                          * np.exp(-x0) - 1.0), axis=1)
        # cascade channels: the delayed predecessor
        rest = ~first
        i, xr = idx[rest], x[rest][:, None]
        bound = np.sqrt(2.0 * V[rest, i - 1])
        ws = np.stack([-bound, bound], axis=1)
        out[rest] = np.max(a[i][:, None] * xr * (np.exp(ws - xr) - 1.0), axis=1)
        return out

    return dsup


def biochem_equilibrium(spec: SystemSpec) -> np.ndarray:
    """Positive equilibrium of the circuit: solves prod(a)*X = g(X), X > 0.

    Bisection, to a relative width of 1e-12, on the first sign change of
    g(X) - prod(a)*X found on a 400-point log grid over [1e-9, 1e6];
    remaining components follow from the cascade balance.
    """
    if spec.model != "biochem_circuit":
        raise ModelError("equilibrium is defined for the biochem_circuit model")
    a, g = spec.parsed.values["a"], spec.parsed.values["g"]
    prod_a = float(np.prod(a))
    f = lambda X: g(X) - prod_a * X
    grid = np.logspace(-9, 6.0, 400)
    lo = None
    for u, v in zip(grid, grid[1:]):
        if f(u) > 0 >= f(v):
            lo, hi = u, v
            break
    if lo is None:
        raise ModelError(
            "no positive root of prod(a)*X = g(X) in the bracket; "
            "the positive-equilibrium hypothesis fails for these parameters")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    xn = 0.5 * (lo + hi)
    if abs(prod_a * xn - g(xn)) > 1e-10 * max(1.0, g(xn)):
        raise ModelError("equilibrium solve did not reach residual tolerance")
    gx = g(xn)
    xs = np.empty(a.size)
    cum = 1.0
    for i in range(a.size):
        cum *= a[i]
        xs[i] = gx / cum
    return xs


def biochem_hypothesis(spec: SystemSpec) -> Dict:
    """Numerically verify the sector hypothesis on the g-curve.

    Finds the positive equilibrium Xn*, then computes the exact interval
    of constants K > 0 for which (K + Xn*)/(K + X) * X <= g(X)/prod(a)
    holds at X = 0 and on 2000 log-spaced points over [1e-8, 1e4] (the
    inequality is linear in K pointwise), and the smallest slope lam with
    g(X)/prod(a) <= Xn* + lam*|X - Xn*|.  Reports which side fails when no
    admissible pair exists.
    """
    xn = float(biochem_equilibrium(spec)[-1])
    a, g = spec.parsed.values["a"], spec.parsed.values["g"]
    prod_a = float(np.prod(a))
    X = np.concatenate([[0.0], np.logspace(-8, 4.0, 2000)])
    gn = np.array([g(x) / prod_a for x in X])
    # right side: smallest admissible lam
    mask = np.abs(X - xn) > 1e-9
    lam = float(np.max((gn[mask] - xn) / np.abs(X[mask] - xn)))
    lam = max(lam, 0.0)
    right_ok = lam < 1.0
    # left side: K*(X - gbar) <= X*(gbar - Xn*) pointwise gives a lower
    # bound where gbar > X and an upper bound where gbar < X
    slack = 1e-9
    k_lo, k_hi = 0.0, math.inf
    left_ok = True
    for x, gb in zip(X, gn):
        num = x * (gb - xn)
        den = x - gb
        if abs(den) <= 1e-12 * max(1.0, x):
            if num < -slack * max(1.0, x):
                left_ok = False
                break
            continue
        if den > 0:
            k_hi = min(k_hi, num / den)
        else:
            k_lo = max(k_lo, -num / -den)
    if left_ok:
        left_ok = k_lo <= k_hi * (1.0 + slack) + slack and k_hi > 0
    left_K = None
    if left_ok:
        if math.isinf(k_hi):
            left_K = max(k_lo, 1.0)
        else:
            left_K = 0.5 * (min(k_lo, k_hi) + k_hi)
        left_K = float(max(left_K, 1e-300))
    left_ok, right_ok = bool(left_ok), bool(right_ok)
    out = {"Xn_star": xn, "ok": left_ok and right_ok,
           "left_ok": left_ok, "right_ok": right_ok}
    if left_ok:
        out["K"] = left_K
        out["b"] = left_K / xn
    if right_ok:
        out["lam"] = lam
    if not left_ok:
        out["failure"] = "left sector inequality fails for every K scanned"
    elif not right_ok:
        out["failure"] = f"right sector inequality needs lam = {lam:.4g} >= 1"
    return out


# ---------------------------------------------------------------------------
# scalar linear test system:  dx = -a x + bu*u + bd*d   (ode)
# ---------------------------------------------------------------------------

_SCALAR = (("a", number, 1.0), ("bu", number, 1.0), ("bd", number, 0.0))


def _scalar_parse(v: Dict) -> ParsedModel:
    _require(0 < v["a"] < math.inf, "scalar_linear: a must be finite and > 0")
    _require(math.isfinite(v["bu"]) and math.isfinite(v["bd"]),
             "scalar_linear: bu and bd must be finite")
    return ParsedModel("ode", 1, [], _scalar_rhs, None, v)


def _scalar_rhs(spec: SystemSpec):
    v = spec.parsed.values
    a, bu, bd = v["a"], v["bu"], v["bd"]
    u, d = spec.input_signal, spec.disturbance_signal

    def rhs(t, x, hist):  # an ODE: the history is never read
        drive_u, drive_d = bu * u(t), bd * d(t)
        return [-a * xi + drive_u + drive_d for xi in x]

    return rhs


# ---------------------------------------------------------------------------
# zero-order-hold linear system:  dx = A_cur x(t) + A_hold x(tau_i)  (sampled)
# ---------------------------------------------------------------------------

_ZOH = (("n", integer, None), ("A_cur", numbers, None),
        ("A_hold", numbers, None))


def _zoh_parse(v: Dict) -> ParsedModel:
    given = {key: v[key] for key in ("A_cur", "A_hold") if v[key] is not None}
    # n, else the rows of A_hold, else those of A_cur, else 1
    n = v["n"] if v["n"] is not None else next(
        (len(A) for A in (v["A_hold"], v["A_cur"])
         if A is not None and A.ndim), 1)
    _require(n >= 1, f"zoh_linear: n must be >= 1, got {n}")
    for key, A in given.items():
        _require(A.shape == (n, n) and np.all(np.isfinite(A)),
                 f"zoh_linear: {key} must be {n} x {n} and finite")
    return ParsedModel("sampled", n, [], _zoh_rhs, None, given)


def _zoh_rhs(spec: SystemSpec):
    # the n x n defaults are built here, after the integrator has matched n
    # with the initial state, so a config's n alone allocates nothing
    n, given = spec.parsed.dim, spec.parsed.values
    A_cur = given["A_cur"] if "A_cur" in given else np.zeros((n, n))
    A_hold = given["A_hold"] if "A_hold" in given else -np.eye(n)

    hold = _memo_by_identity(lambda x_held: (A_hold @ x_held).tolist())

    def rhs(t, x, x_held):
        return [p + q for p, q in zip((A_cur @ x).tolist(), hold(x_held))]

    return rhs


# each model's params table and the parse function of the values read by it
_REGISTRY: Dict[str, Tuple[tuple, Callable[[Dict], ParsedModel]]] = {
    "linear_delay_network": (_LDN, _ldn_parse),
    "biochem_circuit": (_BIO, _bio_parse),
    "scalar_linear": (_SCALAR, _scalar_parse),
    "zoh_linear": (_ZOH, _zoh_parse),
}


def model_rhs(spec: SystemSpec):
    """The right-hand side of the spec's model.

    The right-hand side rhs(t, x, extra) takes the time, the state as a
    tuple of floats and, by kind, the history (ode and delay, where an ODE
    never reads it) or the held state as a tuple (sampled), and returns
    dx/dt as a sequence of floats.  The history's queries also return
    tuples.  The right-hand side may keep
    what it derives from a window, delayed value or held state for as long
    as it is handed the same tuple object; a tuple cannot change, so that
    memo cannot go stale.
    """
    return spec.parsed.rhs(spec)


def spec_to_json(spec: SystemSpec) -> dict:
    d = {"kind": spec.kind, "model": spec.model, "params": spec.params,
         "input_signal": signal_to_json(spec.input_signal),
         "disturbance_signal": signal_to_json(spec.disturbance_signal)}
    if spec.kind == "sampled":
        d["h"] = spec.h
        d["dtilde"] = signal_to_json(spec.dtilde)
    return d


def _signal(v) -> Signal:
    """Config rule: a signal object."""
    return signal_from_json(obj(v))


# the config table of a system; an absent field (or a null h or signal)
# takes SystemSpec's default
_SYSTEM = (("kind", one_of("ode", "delay", "sampled"), REQUIRED),
           ("model", one_of(*_REGISTRY), REQUIRED), ("params", obj, None),
           ("input_signal", _signal, None),
           ("disturbance_signal", _signal, None), ("h", obj, None),
           ("dtilde", _signal, None))


def spec_from_json(d: dict) -> SystemSpec:
    s = read(d, _SYSTEM, "system", error=ModelError,
             nulls=("input_signal", "disturbance_signal", "h", "dtilde"))
    return SystemSpec(**{name: v for name, v in s.items() if v is not None})
