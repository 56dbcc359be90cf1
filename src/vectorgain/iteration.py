"""Iteration of the monotone discrete system x_{k+1} = Gamma(x_k).

Provides the raw iterator with convergence/divergence detection plus an
oracle-style check of the envelope bound on the least fixed point of
x -> MAX{a, Gamma(x)}.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .network import (
    _VEC_ENTRIES, GainMatrix, _gamma_step, _q_step, as_plus_vec,
    check_small_gain,
)

__all__ = ["IterationResult", "iterate", "lfp_bound_check"]

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
    exceeds the divergence bound, or max_steps is exhausted.

    The iterates are stepped as lists of Python floats and stacked into
    one array at the end; sup_norm_trace is read off that array's rows."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    xs = as_plus_vec(x0, G.n).tolist()
    iterates: List[List[float]] = [xs]
    for steps in range(max_steps + 1):
        # nan if any entry is, as numpy's max; Python's keeps a leading one only
        top = math.nan if any(map(math.isnan, xs)) else max(xs)
        if top < tol_conv:
            status = "converged"
            break
        if top > DIVERGENCE_BOUND:
            status = "diverged"
            break
        if steps == max_steps:
            status = "stalled"
            break
        xs = _gamma_step(G, xs)
        iterates.append(xs)
    rows = np.array(iterates)
    rows.flags.writeable = False
    return IterationResult(rows, status, steps,
                           tuple(rows.max(axis=1).tolist()))


def lfp_bound_check(G: GainMatrix, a, max_steps: int = 1000,
                       tol_conv: float = TOL_CONV) -> bool:
    """Least fixed point of x -> MAX{a, Gamma(x)} stays below Q(a).

    The fixed point is reached by monotone iteration from a itself; this
    is the extremal solution of the inequality x <= MAX{a, Gamma(x)}, so
    checking it checks the sharpest case of the envelope bound.
    """
    a_list = x = as_plus_vec(a, G.n).tolist()
    if not check_small_gain(G).holds:
        raise ValueError("precondition: small-gain condition not established")
    for _ in range(max_steps):
        y = _gamma_step(G, x)
        if not all(map(math.isfinite, y)):  # the last step has no next one
            raise ValueError(_VEC_ENTRIES)
        prev, x = x, list(map(max, a_list, y))
        if max(map(abs, map(operator.sub, x, prev))) < tol_conv:
            break
    else:
        raise RuntimeError(
            f"fixed-point iteration did not settle in {max_steps} steps")
    # a NaN on either side fails <=, so it fails the bound
    return all(xi <= qi + tol_conv for xi, qi in zip(x, _q_step(G, a_list)))
