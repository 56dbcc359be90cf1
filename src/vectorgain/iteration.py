"""Iteration of the monotone discrete system x_{k+1} = Gamma(x_k).

Provides the raw iterator with convergence/divergence detection plus two
oracle-style checks: convergence of dominated starts under a decreasing
majorant, and the envelope bound on the least fixed point of
x -> MAX{a, Gamma(x)}.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .network import (
    _VEC_ENTRIES, GainMatrix, _gamma_step, as_plus_vec, check_small_gain,
    q_operator,
)

__all__ = ["IterationResult", "iterate", "sandwich_oracle", "lfp_bound_check"]

TOL_CONV = 1e-9
DIVERGENCE_BOUND = 1e12


@dataclass(frozen=True)
class IterationResult:
    iterates: np.ndarray   # (steps + 1, n), read-only; row k is Gamma^(k)(x0)
    status: str            # "converged" | "stalled" | "diverged"
    steps: int
    sup_norm_trace: Tuple[float, ...]

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def iterate(G: GainMatrix, x0, max_steps: int = 200,
            tol_conv: float = TOL_CONV) -> IterationResult:
    """Apply Gamma repeatedly until the max-norm drops below tol_conv,
    exceeds the divergence bound, or max_steps is exhausted."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    x = as_plus_vec(x0, G.n)
    xs = x.tolist()
    iterates: List[np.ndarray] = [x]
    trace: List[float] = [float(x.max())]
    status = "stalled"
    steps = 0
    for k in range(max_steps):
        if trace[-1] < tol_conv:
            status = "converged"
            steps = k
            break
        if trace[-1] > DIVERGENCE_BOUND:
            status = "diverged"
            steps = k
            break
        xs = _gamma_step(G, xs)
        x = np.array(xs)
        iterates.append(x)
        trace.append(float(x.max()))
    else:
        steps = max_steps
        if trace[-1] < tol_conv:
            status = "converged"
        elif trace[-1] > DIVERGENCE_BOUND:
            status = "diverged"
    rows = np.array(iterates)
    rows.flags.writeable = False
    return IterationResult(rows, status, steps, tuple(trace))


def sandwich_oracle(G: GainMatrix, x, y, max_steps: int = 200,
                   tol_conv: float = TOL_CONV) -> bool:
    """Convergence of iterates from y when y <= x and Gamma(x) <= x.

    Also asserts the sandwich Gamma^(k)(y) <= Gamma^(k)(x) at every step.
    Preconditions (dominance, decrease at x, small gain) are enforced.
    """
    cx = as_plus_vec(x, G.n).tolist()
    cy = as_plus_vec(y, G.n).tolist()
    if not all(map(operator.le, _gamma_step(G, cx), cx)):
        raise ValueError("precondition Gamma(x) <= x fails")
    if not all(map(operator.le, cy, cx)):
        raise ValueError("precondition y <= x fails")
    if not check_small_gain(G).holds:
        raise ValueError("precondition: small-gain condition not established")
    for _ in range(max_steps):
        cx = _gamma_step(G, cx)
        cy = _gamma_step(G, cy)
        # false on nan too, so the Python max below never sees one
        if not all(map(operator.le, cy, cx)):
            raise AssertionError("sandwich Gamma^(k)(y) <= Gamma^(k)(x) broken")
        if max(cy) < tol_conv:
            return True
    return max(cy) < tol_conv


def lfp_bound_check(G: GainMatrix, a, max_steps: int = 1000,
                       tol_conv: float = TOL_CONV) -> bool:
    """Least fixed point of x -> MAX{a, Gamma(x)} stays below Q(a).

    The fixed point is reached by monotone iteration from a itself; this
    is the extremal solution of the inequality x <= MAX{a, Gamma(x)}, so
    checking it checks the sharpest case of the envelope bound.
    """
    av = as_plus_vec(a, G.n)
    if not check_small_gain(G).holds:
        raise ValueError("precondition: small-gain condition not established")
    x = av.copy()
    for _ in range(max_steps):
        y = _gamma_step(G, x.tolist())
        if not all(map(math.isfinite, y)):  # the last step has no next one
            raise ValueError(_VEC_ENTRIES)
        nxt = np.maximum(av, y)
        if np.max(np.abs(nxt - x)) < tol_conv:
            x = nxt
            break
        x = nxt
    else:
        raise RuntimeError(
            f"fixed-point iteration did not settle in {max_steps} steps")
    return bool(np.all(x <= q_operator(G, av) + tol_conv))
