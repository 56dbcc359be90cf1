"""Trajectory- and sample-based validation of the stability certificates.

Three checks live here: sampled falsification of the per-channel decay
implication (premise on the gains, conclusion on the worst-case Lyapunov
derivative that the model's registry entry gives, where it has one),
tail-based convergence verdicts on simulated trajectories, and the
asymptotic-gain bound of each Lyapunov channel against the synthesized
channel maps.  Every check uses the quadratic channels v_i = x_i^2 / 2;
the trajectory checks read them off the states as one array.  All are
evidence at the reported sampling density or horizon, never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .gains import GainFn, Zero
from .models import SystemSpec
from .network import GainMatrix, _gamma_block
from .simulate import Trajectory

__all__ = [
    "LyapunovSetup", "InconclusiveError", "check_implication",
    "recheck_violation", "check_convergence",
    "check_asymptotic_gain", "ldn_rho", "biochem_rho_first", "biochem_rho_chain",
]

TOL_IMPL = 1e-8
# check_implication samples magnitudes log-uniformly in [1e-6, 1] * this
IMPL_RADIUS = 10.0
TOL_TAIL = 1e-6
TAIL_FRACTION = 0.2
TOL_GAIN = 0.05
# samples drawn and decided per array pass of check_implication
_IMPL_BLOCK = 4096


class InconclusiveError(RuntimeError):
    """Not enough data to produce a verdict (e.g. horizon too short)."""


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
    rho_list: List[Callable[[np.ndarray], np.ndarray]]
    zeta: GainFn = field(default_factory=Zero)

    def __post_init__(self):
        if len(self.rho_list) != self.gains.n:
            raise ValueError("rho_list length must equal the matrix dimension")


def _checked_dsup(model: SystemSpec):
    """The model's worst-case channel derivative."""
    build = model.parsed.deriv_sup
    if build is None:
        raise ValueError(
            f"implication check has no derivative evaluator for model "
            f"{model.model!r}")
    return build(model)


def _violations(setup: LyapunovSetup, dsup, idx: np.ndarray, x: np.ndarray,
                V: np.ndarray, u: np.ndarray) -> List[Dict]:
    """The points of a batch where the premise holds and the decay
    conclusion fails, in batch order, as dicts of .tolist() columns."""
    G = setup.gains
    q = 0.5 * x * x
    ok = np.ones(x.size, dtype=bool)
    if not isinstance(setup.zeta, Zero):
        ok &= setup.zeta(np.abs(u)) <= q
    # each point's premise is its own channel's row of Gamma at or below q
    for i, row_i in enumerate(_gamma_block(G, V.T)):
        ok &= (idx != i) | (row_i <= q)
    hit = np.flatnonzero(ok)
    idx, x, V, u, q = idx[hit], x[hit], V[hit], u[hit], q[hit]  # hits only
    deriv = dsup(idx, x, V, u)
    bound = np.empty(hit.size)
    for i, rho in enumerate(setup.rho_list):
        bound[idx == i] = -rho(q[idx == i])
    bad = np.flatnonzero(deriv > bound + TOL_IMPL)
    cols = (idx + 1, x, V, u, deriv, bound)
    return [dict(zip(("i", "x_i", "V", "u", "derivative", "bound"), row))
            for row in zip(*(c[bad].tolist() for c in cols))]


def check_implication(setup: LyapunovSetup, model: SystemSpec,
                      sample_count: int = 10_000, seed: int = 0) -> List[Dict]:
    """Sampled falsification of the per-channel decay implication.

    Samples channel points and delayed levels log-uniformly up to
    IMPL_RADIUS; wherever the premise (every coupling gain of the delayed
    levels, and the input gain of the input, at or below the channel
    value) holds, the worst-case channel derivative must not exceed -rho_i
    of the channel value plus TOL_IMPL.  Returns the violations found, in
    sample order; an empty list means not falsified at this density.

    Samples are drawn in blocks of _IMPL_BLOCK (the last block holds the
    remainder).  Each block of B samples draws, in this order: the channel
    indices ``integers(n, size=B)``, the log-magnitudes of x_i
    ``uniform(lo, hi, B)``, the signs ``random(B)`` (negative where >= 0.5),
    the log-levels ``uniform(lo, hi, (B, n))`` (V_j = exp(.)**2 / 2), and,
    only when the input gain is not Zero, the log-inputs ``uniform(lo, hi,
    B)``, with lo, hi = log(1e-6 * IMPL_RADIUS), log(IMPL_RADIUS).
    """
    dsup = _checked_dsup(model)
    n = setup.gains.n
    rng = np.random.default_rng(seed)
    has_input = not isinstance(setup.zeta, Zero)
    violations: List[Dict] = []
    lo, hi = math.log(1e-6 * IMPL_RADIUS), math.log(IMPL_RADIUS)
    for start in range(0, sample_count, _IMPL_BLOCK):
        B = min(_IMPL_BLOCK, sample_count - start)
        idx = rng.integers(n, size=B)
        mag = np.exp(rng.uniform(lo, hi, B))
        x = np.where(rng.random(B) < 0.5, mag, -mag)
        V = np.exp(rng.uniform(lo, hi, (B, n))) ** 2 / 2.0
        u = np.exp(rng.uniform(lo, hi, B)) if has_input else np.zeros(B)
        violations += _violations(setup, dsup, idx, x, V, u)
    return violations


def recheck_violation(setup: LyapunovSetup, model: SystemSpec,
                      violation: Dict) -> bool:
    """Re-evaluate one reported violation point in isolation: a batch of
    one sample through the code of check_implication."""
    return bool(_violations(
        setup, _checked_dsup(model), np.array([violation["i"] - 1]),
        np.array([float(violation["x_i"])]),
        np.asarray(violation["V"], dtype=float).reshape(1, setup.gains.n),
        np.array([float(violation.get("u", 0.0))])))


def _tail_channels(traj: Trajectory,
                   tail_fraction: float) -> Tuple[np.ndarray, int]:
    """The channels v_i = x_i^2 / 2 on the last tail_fraction of the
    samples, one row per sample, and the index of the tail's first sample;
    tail_fraction must be in (0, 1]."""
    if not 0 < tail_fraction <= 1:  # NaN too
        raise ValueError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    count = traj.states.shape[0]
    start = int(math.floor(count * (1.0 - tail_fraction)))
    if count - start < 10:
        raise InconclusiveError(
            f"tail holds only {count - start} samples; lengthen the horizon")
    tail = traj.states[start:]
    return 0.5 * tail * tail, start


def check_convergence(traj: Trajectory, tol_tail: float = TOL_TAIL,
                      tail_fraction: float = TAIL_FRACTION) -> List[Dict]:
    """Per-channel verdict: tail sup of v_i below tol_tail."""
    V, _ = _tail_channels(traj, tail_fraction)
    return [{"status": "converged" if sup < tol_tail else "not-converged",
             "tail_sup": sup, "tol": tol_tail}
            for sup in V.max(axis=0).tolist()]


def check_asymptotic_gain(traj: Trajectory, gmap: Sequence[GainFn],
                          u_sup: float, tol_gain: float = TOL_GAIN,
                          tail_fraction: float = TAIL_FRACTION) -> List[Dict]:
    """Per-channel check: tail sup of v_i within (1+tol)*G_i(u_sup).

    The tail restriction excludes the transient, so this tests only the
    asymptotic-gain consequence of the closed-loop estimate.  A violation
    reports the first time the tail reaches its sup.
    """
    if u_sup < 0:
        raise ValueError("u_sup must be >= 0")
    if len(gmap) != traj.n:
        raise ValueError("gmap length must equal the trajectory dimension")
    V, start = _tail_channels(traj, tail_fraction)
    first = V.argmax(axis=0).tolist()
    out = []
    for gi, k, sup in zip(gmap, first, V.max(axis=0).tolist()):
        bound = (1.0 + tol_gain) * gi(u_sup)
        if sup <= bound:
            out.append({"status": "satisfied", "tail_sup": sup, "bound": bound,
                        "margin": bound - sup})
        else:
            out.append({"status": "violated", "tail_sup": sup, "bound": bound,
                        "t": float(traj.times[start + k]), "value": sup})
    return out
