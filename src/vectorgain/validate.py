"""Trajectory- and sample-based validation of the stability certificates.

Three checks live here: sampled falsification of the per-channel decay
implication (premise on the gains, conclusion on the Lyapunov derivative),
tail-based convergence verdicts on simulated trajectories, and the
asymptotic-gain bound of each Lyapunov channel against the synthesized
channel maps.  All are evidence at the reported sampling density or
horizon, never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .gains import GainFn, Zero
from .models import SystemSpec, biochem_equilibrium
from .network import GainMatrix
from .simulate import Trajectory

__all__ = [
    "LyapunovSetup", "InconclusiveError", "quadratic_channels",
    "check_implication", "recheck_violation", "check_convergence",
    "check_asymptotic_gain", "ldn_rho", "biochem_rho_first", "biochem_rho_chain",
]

TOL_IMPL = 1e-8
TOL_TAIL = 1e-6
TAIL_FRACTION = 0.2
TOL_GAIN = 0.05
# samples drawn and decided per array pass of check_implication
_IMPL_BLOCK = 4096


class InconclusiveError(RuntimeError):
    """Not enough data to produce a verdict (e.g. horizon too short)."""


def quadratic_channels(n: int) -> List[Callable[[np.ndarray], float]]:
    """The standard per-block channels v_i(x) = x_i^2 / 2."""
    return [(lambda row, i=i: 0.5 * float(row[i]) ** 2) for i in range(n)]


def ldn_rho(a: Sequence[float], lam: float) -> List[Callable]:
    """Decay rates 2*(1-lam)*a_i*s for the linear delay network."""
    return [(lambda s, ai=float(ai): 2.0 * (1.0 - lam) * ai * s) for ai in a]


def biochem_rho_first(a1: float, lam: float, theta: float,
                      b: float) -> Callable:
    """Decay rate of the first (g-curve fed) channel of the circuit."""

    def rho(s):
        # with e = exp(-t), d = 1 - e: expm1(t) = d/e, written so that
        # nothing overflows at large t
        t = np.sqrt(2.0 * s)
        e, d = np.exp(-t), -np.expm1(-t)
        branch1 = (1.0 - lam / theta) * d
        branch2 = (b + 1.0 - b / theta) * d / ((b + 1.0) * e + (b / theta) * d)
        return a1 * t * np.minimum(branch1, branch2)

    return rho


def biochem_rho_chain(ai: float, mu: float) -> Callable:
    """Decay rate of the cascade channels of the circuit."""

    def rho(s):
        # (1 - e) / (1 + expm1(t)/mu) = (1 - e) e / (e + (1 - e)/mu), e = exp(-t)
        t = np.sqrt(2.0 * s)
        e, d = np.exp(-t), -np.expm1(-t)
        return (1.0 - 1.0 / mu) * ai * t * d * e / (e + d / mu)

    return rho


@dataclass
class LyapunovSetup:
    """Gains, input gain and decay rates tied to a family of channels.

    Each callable of rho_list maps a 1-d float array of channel values to
    the array of their decay rates, elementwise.
    """

    gains: GainMatrix
    zeta: GainFn = field(default_factory=Zero)
    rho_list: Optional[List[Callable[[np.ndarray], np.ndarray]]] = None

    def __post_init__(self):
        if self.rho_list is not None and len(self.rho_list) != self.gains.n:
            raise ValueError("rho_list length must equal the matrix dimension")


# ---------------------------------------------------------------------------
# Per-model worst-case channel derivatives.  Each evaluator receives a batch
# of sampled points (channel indices, pointwise values x_i, rows of delayed
# channel levels V_j, input magnitudes u) and returns, for each point, the
# supremum of the channel derivative over admissible disturbances and
# delayed arguments within the Razumikhin bounds sqrt(2 V_j).
# ---------------------------------------------------------------------------

def _ldn_deriv_sup(spec: SystemSpec):
    v = spec.parsed.values
    a, c, bu = v["a"], v["c"], v["bu"]

    def dsup(idx: np.ndarray, x: np.ndarray, V: np.ndarray,
             u: np.ndarray) -> np.ndarray:
        drive = np.max(c[idx] * np.sqrt(2.0 * V), axis=1) + bu * np.abs(u)
        return -a[idx] * x * x + np.abs(x) * drive

    return dsup


def _biochem_deriv_sup(spec: SystemSpec):
    a, g = spec.parsed.values["a"], spec.parsed.values["g"]
    xn_star = float(biochem_equilibrium(spec)[-1])
    g_star = g(xn_star)
    n = a.size

    def dsup(idx: np.ndarray, x: np.ndarray, V: np.ndarray,
             u: np.ndarray) -> np.ndarray:
        out = np.empty(x.size)
        first = idx == 0
        # channel 1: the g-curve of the delayed last level, on a 41-point grid
        x0 = x[first][:, None]
        bound = np.sqrt(2.0 * V[first, n - 1])
        ws = np.linspace(-bound, bound, 41, axis=1)
        out[first] = np.max(a[0] * x0 * (g(xn_star * np.exp(ws)) / g_star
                                          * np.exp(-x0) - 1.0), axis=1)
        # cascade channels: the delayed predecessor at -bound, 0 or bound
        rest = ~first
        i, xr = idx[rest], x[rest][:, None]
        bound = np.sqrt(2.0 * V[rest, i - 1])
        ws = np.stack([-bound, np.zeros_like(bound), bound], axis=1)
        out[rest] = np.max(a[i][:, None] * xr * (np.exp(ws - xr) - 1.0), axis=1)
        return out

    return dsup


_DERIV_SUP = {
    "linear_delay_network": _ldn_deriv_sup,
    "biochem_circuit": _biochem_deriv_sup,
}


def _deriv_sup(spec: SystemSpec):
    try:
        return _DERIV_SUP[spec.model](spec)
    except KeyError:
        raise ValueError(
            f"implication check has no derivative evaluator for model "
            f"{spec.model!r}")


def _violations(setup: LyapunovSetup, dsup, idx: np.ndarray, x: np.ndarray,
                V: np.ndarray, u: np.ndarray, tol_impl: float) -> List[Dict]:
    """The points of a batch where the premise holds and the decay
    conclusion fails, in batch order."""
    G = setup.gains
    q = 0.5 * x * x
    ok = np.ones(x.size, dtype=bool)
    if not isinstance(setup.zeta, Zero):
        ok &= setup.zeta(np.abs(u)) <= q
    for i, row in enumerate(G.rows):
        r = np.flatnonzero(idx == i)
        for j, g in row:
            ok[r] &= g(V[r, j]) <= q[r]
    hit = np.flatnonzero(ok)
    ih, qh = idx[hit], q[hit]
    deriv = dsup(ih, x[hit], V[hit], u[hit])
    bound = np.empty(hit.size)
    for i, rho in enumerate(setup.rho_list):
        bound[ih == i] = -rho(qh[ih == i])
    return [{"i": int(idx[k]) + 1, "x_i": float(x[k]),
             "V": V[k].tolist(), "u": float(u[k]),
             "derivative": float(deriv[m]), "bound": float(bound[m])}
            for m, k in enumerate(hit) if deriv[m] > bound[m] + tol_impl]


def check_implication(setup: LyapunovSetup, model: SystemSpec,
                      sample_count: int = 10_000, radius: float = 10.0,
                      seed: int = 0, tol_impl: float = TOL_IMPL) -> List[Dict]:
    """Sampled falsification of the per-channel decay implication.

    Samples channel points and delayed levels log-uniformly up to radius;
    wherever the premise (every coupling gain of the delayed levels, and
    the input gain of the input, at or below the channel value) holds,
    the worst-case channel derivative must not exceed -rho_i of the
    channel value plus tol_impl.  Returns the violations found, in sample
    order; an empty list means not falsified at this density.

    Samples are drawn in blocks of _IMPL_BLOCK (the last block holds the
    remainder).  Each block of B samples draws, in this order: the channel
    indices ``integers(n, size=B)``, the log-magnitudes of x_i
    ``uniform(lo, hi, B)``, the signs ``random(B)`` (negative where >= 0.5),
    the log-levels ``uniform(lo, hi, (B, n))`` (V_j = exp(.)**2 / 2), and,
    only when the input gain is not Zero, the log-inputs ``uniform(lo, hi,
    B)``, with lo, hi = log(1e-6 * radius), log(radius).
    """
    if setup.rho_list is None:
        raise ValueError("implication check requires rho_list")
    n = setup.gains.n
    dsup = _deriv_sup(model)
    rng = np.random.default_rng(seed)
    has_input = not isinstance(setup.zeta, Zero)
    violations: List[Dict] = []
    lo, hi = math.log(1e-6 * radius), math.log(radius)
    for start in range(0, sample_count, _IMPL_BLOCK):
        B = min(_IMPL_BLOCK, sample_count - start)
        idx = rng.integers(n, size=B)
        mag = np.exp(rng.uniform(lo, hi, B))
        x = np.where(rng.random(B) < 0.5, mag, -mag)
        V = np.exp(rng.uniform(lo, hi, (B, n))) ** 2 / 2.0
        u = np.exp(rng.uniform(lo, hi, B)) if has_input else np.zeros(B)
        violations += _violations(setup, dsup, idx, x, V, u, tol_impl)
    return violations


def recheck_violation(setup: LyapunovSetup, model: SystemSpec,
                      violation: Dict, tol_impl: float = TOL_IMPL) -> bool:
    """Re-evaluate one reported violation point in isolation: a batch of
    one sample through the code of check_implication."""
    if setup.rho_list is None:
        raise ValueError("implication check requires rho_list")
    return bool(_violations(
        setup, _deriv_sup(model), np.array([violation["i"] - 1]),
        np.array([float(violation["x_i"])]),
        np.asarray(violation["V"], dtype=float).reshape(1, setup.gains.n),
        np.array([float(violation.get("u", 0.0))]), tol_impl))


def _tail(traj: Trajectory, tail_fraction: float) -> np.ndarray:
    count = traj.states.shape[0]
    start = int(math.floor(count * (1.0 - tail_fraction)))
    if count - start < 10:
        raise InconclusiveError(
            f"tail holds only {count - start} samples; lengthen the horizon")
    return traj.states[start:]


def check_convergence(traj: Trajectory,
                      V_list: Sequence[Callable[[np.ndarray], float]],
                      tol_tail: float = TOL_TAIL,
                      tail_fraction: float = TAIL_FRACTION) -> List[Dict]:
    """Per-channel verdict: tail sup of V_i below tol_tail."""
    tail = _tail(traj, tail_fraction)
    out = []
    for v in V_list:
        sup = max(float(v(row)) for row in tail)
        out.append({"status": "converged" if sup < tol_tail else "not-converged",
                    "tail_sup": sup, "tol": tol_tail})
    return out


def check_asymptotic_gain(traj: Trajectory,
                          V_list: Sequence[Callable[[np.ndarray], float]],
                          gmap: Sequence[GainFn], u_sup: float,
                          tol_gain: float = TOL_GAIN,
                          tail_fraction: float = TAIL_FRACTION) -> List[Dict]:
    """Per-channel check: tail sup of V_i within (1+tol)*G_i(u_sup).

    The tail restriction excludes the transient, so this tests only the
    asymptotic-gain consequence of the closed-loop estimate.
    """
    if u_sup < 0:
        raise ValueError("u_sup must be >= 0")
    if len(gmap) != len(V_list):
        raise ValueError("gmap and V_list lengths must match")
    tail = _tail(traj, tail_fraction)
    count = traj.states.shape[0]
    start = count - tail.shape[0]
    out = []
    for v, gi in zip(V_list, gmap):
        vals = np.array([float(v(row)) for row in tail])
        bound = (1.0 + tol_gain) * gi(u_sup)
        k = int(np.argmax(vals))
        sup = float(vals[k])
        if sup <= bound:
            out.append({"status": "satisfied", "tail_sup": sup, "bound": bound,
                        "margin": bound - sup})
        else:
            out.append({"status": "violated", "tail_sup": sup, "bound": bound,
                        "t": float(traj.times[start + k]), "value": sup})
    return out
