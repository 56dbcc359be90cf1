"""Built-in continuous-time models and their structural data.

Each model is registered under a name and provides, depending on its kind:
the state dimension, the list of discrete delays, a right-hand side, and
(for the biochemical circuit) equilibrium and hypothesis checks.  Model
parameters arrive as plain dicts so specs stay JSON round-trippable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .signals import Signal, signal_from_json, signal_to_json

__all__ = [
    "SystemSpec", "ModelError", "model_dim", "model_delays", "make_g",
    "biochem_equilibrium", "biochem_hypothesis", "spec_from_json",
    "spec_to_json",
]


class ModelError(ValueError):
    """Unknown model or inconsistent model parameters."""


@dataclass
class SystemSpec:
    """Description of a continuous-time model instance.

    kind: "ode", "delay" or "sampled".  model: registry key.  params:
    model parameters.  For sampled systems, h describes the sampling
    period function and dtilde the sampling-jitter disturbance.
    """

    kind: str
    model: str
    params: Dict = field(default_factory=dict)
    input_signal: Signal = field(default_factory=Signal)
    disturbance_signal: Signal = field(default_factory=Signal)
    h: Optional[Dict] = None
    dtilde: Signal = field(default_factory=Signal)

    def __post_init__(self):
        if self.kind not in ("ode", "delay", "sampled"):
            raise ModelError(f"unknown system kind {self.kind!r}")
        if self.model not in _REGISTRY:
            raise ModelError(f"unknown model {self.model!r}; "
                             f"known: {sorted(_REGISTRY)}")
        _REGISTRY[self.model]["validate"](self)
        if self.h is not None and not (
                isinstance(self.h, dict)
                and isinstance(self.h.get("value"), (int, float))):
            raise ModelError("h must be an object with a numeric 'value', "
                             f"got {self.h!r}")


def model_dim(spec: SystemSpec) -> int:
    return _REGISTRY[spec.model]["dim"](spec.params)


def model_delays(spec: SystemSpec) -> List[float]:
    """Distinct positive delays the model reads from its history."""
    return _REGISTRY[spec.model]["delays"](spec.params)


def max_delay(spec: SystemSpec) -> float:
    ds = model_delays(spec)
    return max(ds) if ds else 0.0


# ---------------------------------------------------------------------------
# linear delay network:  dx_i = -a_i x_i(t) + g_i(d, history)
# with |g_i| <= max_j c_ij * sup_[t-r,t] |x_j|.
#
# coupling modes realize concrete adversaries within that bound:
#   "sign_aligned": g_i = sgn(x_i) * max_j c_ij * window-sup |x_j|
#                   (achieves the bound, worst case for decay)
#   "delayed_linear": g_i = sum_j c_ij x_j(t - r)  (plain linear lag)
# The disturbance signal scales the coupling; values in [-1, 1] stay
# within the admissible set.
# ---------------------------------------------------------------------------

def _ldn_validate(spec: SystemSpec) -> None:
    p = spec.params
    a = np.asarray(p["a"], dtype=float)
    c = np.asarray(p["c"], dtype=float)
    r = float(p.get("r", 0.0))
    if a.ndim != 1 or np.any(a <= 0):
        raise ModelError("linear_delay_network: a must be positive")
    if c.shape != (a.size, a.size) or np.any(c < 0):
        raise ModelError("linear_delay_network: c must be n x n nonnegative")
    if r < 0:
        raise ModelError("linear_delay_network: delay r must be >= 0")
    if p.get("coupling", "sign_aligned") not in ("sign_aligned", "delayed_linear"):
        raise ModelError("linear_delay_network: unknown coupling mode")


def _ldn_rhs(spec: SystemSpec):
    p = spec.params
    a = np.asarray(p["a"], dtype=float)
    c = np.asarray(p["c"], dtype=float)
    r = float(p.get("r", 0.0))
    d_sig = spec.disturbance_signal
    disturbed = d_sig.kind != "zero"
    neg_a = -a

    if p.get("coupling", "sign_aligned") == "sign_aligned":
        def rhs(t, x, hist):
            # with r = 0 the window [t - r, t] holds the present state alone
            w = hist.window_absmax(t) if r > 0 else np.abs(x)
            drive = (c * w).max(axis=1)  # >= 0
            # sgn(x) with sgn(+-0) = +1: x + 0.0 turns -0.0 into +0.0
            g = np.copysign(drive, x + 0.0)
            if disturbed:
                g *= d_sig(t)
            return neg_a * x + g
    else:
        def rhs(t, x, hist):
            g = c @ (hist.interp(t - r) if r > 0 else x)
            if disturbed:
                g *= d_sig(t)
            return neg_a * x + g

    return rhs


# ---------------------------------------------------------------------------
# biochemical control circuit:
#   dX_1 = g(X_n(t - tau_n)) - a_1 X_1
#   dX_i = X_{i-1}(t - tau_{i-1}) - a_i X_i ,  i = 2..n
# g is either Michaelis-Menten  c*X/(K + X)  or Hill  c*X^p/(1 + X^p).
# ---------------------------------------------------------------------------

def make_g(gp: Dict) -> Callable[[float], float]:
    form = gp.get("form", "mm")
    if form == "mm":
        c, K = float(gp["c"]), float(gp["K"])
        if c <= 0 or K <= 0:
            raise ModelError("mm g-curve needs c > 0, K > 0")
        return lambda X: c * X / (K + X)
    if form == "hill":
        c, p = float(gp.get("c", 1.0)), float(gp["p"])
        if c <= 0 or p <= 0:
            raise ModelError("hill g-curve needs c > 0, p > 0")
        return lambda X: c * X ** p / (1.0 + X ** p)
    raise ModelError(f"unknown g-curve form {form!r}")


def _bio_validate(spec: SystemSpec) -> None:
    p = spec.params
    a = np.asarray(p["a"], dtype=float)
    tau = np.asarray(p["tau"], dtype=float)
    if a.ndim != 1 or np.any(a <= 0):
        raise ModelError("biochem_circuit: a must be positive")
    if tau.shape != a.shape or np.any(tau < 0):
        raise ModelError("biochem_circuit: tau must match a and be >= 0")
    make_g(p["g"])


def _bio_rhs(spec: SystemSpec):
    p = spec.params
    a = np.asarray(p["a"], dtype=float)
    tau = np.asarray(p["tau"], dtype=float)
    g = make_g(p["g"])
    n = a.size
    # channels that read the same positive delay share one interpolation
    groups = [(d, [j for j in range(n) if tau[j] == d])
              for d in model_delays(spec)]
    if len(groups) == 1 and len(groups[0][1]) == n:
        d0 = groups[0][0]
        source = lambda t, x, hist: hist.interp(t - d0)
    else:
        def source(t, x, hist):
            src = x.copy()
            for d, idx in groups:
                src[idx] = hist.interp(t - d)[idx]
            return src
    prev = np.arange(n) - 1  # channel j - 1 drives channel j; -1 wraps to n - 1

    def rhs(t, x, hist):
        src = source(t, x, hist)  # src[j]: x_j at its own delay
        ax = a * x
        dx = src[prev] - ax
        dx[0] = g(max(src[n - 1], 0.0)) - ax[0]
        return dx

    return rhs


def biochem_equilibrium(spec: SystemSpec, x_hi: float = 1e6,
                        tol: float = 1e-12) -> np.ndarray:
    """Positive equilibrium of the circuit: solves prod(a)*X = g(X), X > 0.

    Bisection on the first sign change of g(X) - prod(a)*X found on a log
    grid; remaining components follow from the cascade balance.
    """
    if spec.model != "biochem_circuit":
        raise ModelError("equilibrium is defined for the biochem_circuit model")
    p = spec.params
    a = np.asarray(p["a"], dtype=float)
    g = make_g(p["g"])
    prod_a = float(np.prod(a))
    f = lambda X: g(X) - prod_a * X
    grid = np.logspace(-9, math.log10(x_hi), 400)
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
        if hi - lo < tol * max(1.0, hi):
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


def biochem_hypothesis(spec: SystemSpec, grid_points: int = 2000,
                       x_hi: float = 1e4) -> Dict:
    """Numerically verify the sector hypothesis on the g-curve.

    Finds the positive equilibrium Xn*, then computes the exact interval
    of constants K > 0 for which (K + Xn*)/(K + X) * X <= g(X)/prod(a)
    holds on the grid (the inequality is linear in K pointwise), and the
    smallest slope lam with g(X)/prod(a) <= Xn* + lam*|X - Xn*|.  Reports
    which side fails when no admissible pair exists.
    """
    p = spec.params
    a = np.asarray(p["a"], dtype=float)
    g = make_g(p["g"])
    prod_a = float(np.prod(a))
    xn = float(_bio_xn_star(spec))
    X = np.concatenate([[0.0], np.logspace(-8, math.log10(x_hi), grid_points)])
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


def _bio_xn_star(spec: SystemSpec) -> float:
    return float(biochem_equilibrium(spec)[-1])


# ---------------------------------------------------------------------------
# scalar linear test system:  dx = -a x + bu*u + bd*d   (ode)
# ---------------------------------------------------------------------------

def _scalar_validate(spec: SystemSpec) -> None:
    if float(spec.params.get("a", 1.0)) <= 0:
        raise ModelError("scalar_linear: a must be > 0")


def _scalar_rhs(spec: SystemSpec):
    p = spec.params
    a = float(p.get("a", 1.0))
    bu = float(p.get("bu", 1.0))
    bd = float(p.get("bd", 0.0))
    u, d = spec.input_signal, spec.disturbance_signal

    def rhs(t, x):
        return -a * x + bu * u(t) + bd * d(t)

    return rhs


# ---------------------------------------------------------------------------
# zero-order-hold linear system:  dx = A_cur x(t) + A_hold x(tau_i)  (sampled)
# ---------------------------------------------------------------------------

def _zoh_validate(spec: SystemSpec) -> None:
    n = model_dim(spec)
    for key in ("A_cur", "A_hold"):
        if key in spec.params:
            A = np.asarray(spec.params[key], dtype=float)
            if A.shape != (n, n):
                raise ModelError(f"zoh_linear: {key} must be {n} x {n}")


def _zoh_dim(params: Dict) -> int:
    if "n" in params:
        return int(params["n"])
    if "A_hold" in params:
        return len(params["A_hold"])
    if "A_cur" in params:
        return len(params["A_cur"])
    return 1


def _zoh_rhs(spec: SystemSpec):
    n = model_dim(spec)
    A_cur = np.asarray(spec.params.get("A_cur", np.zeros((n, n))), dtype=float)
    A_hold = np.asarray(spec.params.get("A_hold", -np.eye(n)), dtype=float)

    def rhs(t, x, x_held):
        return A_cur @ x + A_hold @ x_held

    return rhs


_REGISTRY: Dict[str, Dict] = {
    "linear_delay_network": {
        "validate": _ldn_validate,
        "dim": lambda p: len(p["a"]),
        "delays": lambda p: ([float(p["r"])] if float(p.get("r", 0.0)) > 0 else []),
        "rhs_delay": _ldn_rhs,
    },
    "biochem_circuit": {
        "validate": _bio_validate,
        "dim": lambda p: len(p["a"]),
        "delays": lambda p: sorted({float(t) for t in p["tau"] if float(t) > 0}),
        "rhs_delay": _bio_rhs,
    },
    "scalar_linear": {
        "validate": _scalar_validate,
        "dim": lambda p: 1,
        "delays": lambda p: [],
        "rhs_ode": _scalar_rhs,
    },
    "zoh_linear": {
        "validate": _zoh_validate,
        "dim": _zoh_dim,
        "delays": lambda p: [],
        "rhs_sampled": _zoh_rhs,
    },
}


def model_rhs(spec: SystemSpec):
    """Right-hand side builder appropriate to the spec kind."""
    entry = _REGISTRY[spec.model]
    key = {"ode": "rhs_ode", "delay": "rhs_delay", "sampled": "rhs_sampled"}[spec.kind]
    if key not in entry:
        raise ModelError(
            f"model {spec.model!r} does not support kind {spec.kind!r}")
    return entry[key](spec)


def spec_to_json(spec: SystemSpec) -> dict:
    d = {"kind": spec.kind, "model": spec.model, "params": spec.params,
         "input_signal": signal_to_json(spec.input_signal),
         "disturbance_signal": signal_to_json(spec.disturbance_signal)}
    if spec.kind == "sampled":
        d["h"] = spec.h
        d["dtilde"] = signal_to_json(spec.dtilde)
    return d


def spec_from_json(d: dict) -> SystemSpec:
    return SystemSpec(
        kind=d["kind"], model=d["model"], params=d.get("params", {}),
        input_signal=signal_from_json(d.get("input_signal")),
        disturbance_signal=signal_from_json(d.get("disturbance_signal")),
        h=d.get("h"), dtilde=signal_from_json(d.get("dtilde")))
