"""Closed-loop gain synthesis.

The per-node envelope phi_i(s) is the maximum of s and of every chain of
couplings gamma_{i,j1} o ... o gamma_{j(l-1),jl} leaving node i.  Under the
cyclic small-gain condition a chain along a walk that repeats a node is
dominated by the chain along its simple-path reduction, so the envelope is
the Q-closure phi_i(s) = Q(s*1)_i with Q(x) = MAX_{k<n} Gamma^k(x)
(Dashkovskiy, Rueffer and Wirth, "An ISS small gain theorem for general
networks", MCSS 2007).  The component maps G_i(s) = phi_i(inner(s)) bounding
each Lyapunov channel asymptotically and the scalar composite gain
theta(s) = max_i G_i(s) use the same closure, so every synthesized gain is
one small node evaluated in O(n^3) gain calls per point.  A node steps the
closure on a list of Python floats, through the float core of
:func:`network.q_operator`, and takes its maximums by numpy's rules (a NaN
passes on; of equal values the last is kept, which decides the sign of a
zero), so it gives the values of the array operator.  The overall
input-to-state gain is the lower comparison function inverted after theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .gains import GainFn, Linear, gain_to_json, invert
from .network import (
    _VEC_ENTRIES, GainMatrix, SmallGainReport, _gamma_step, _q_step,
    check_small_gain, matrix_to_json,
)

__all__ = [
    "SynthesisInput", "CompositeGain", "OverallGain", "SmallGainRequired",
    "QEnvelope", "ThetaInner", "build_phi", "overall_gain",
]


class SmallGainRequired(RuntimeError):
    """Synthesis needs the cyclic small-gain condition to be established."""


@dataclass(frozen=True)
class SynthesisInput:
    """Everything needed to assemble the composite closed-loop gain.

    gains: coupling gain matrix; zeta: input gain; p_list: per-node
    coupling of the auxiliary channel (all-zero when unused); a1: strictly
    increasing lower comparison function; M: transient overshoot constant.
    """

    gains: GainMatrix
    zeta: GainFn
    p_list: Tuple[GainFn, ...]
    a1: GainFn
    M: float = 1.0

    def __post_init__(self):
        if len(self.p_list) != self.gains.n:
            raise ValueError("p_list length must equal the matrix dimension")
        if self.M < 1.0:
            raise ValueError(f"M must be >= 1, got {self.M}")


def _closure(G: GainMatrix, z) -> List[float]:
    """Q(z*1) on floats.  z must be finite and >= 0, as q_operator requires
    of z*1, also when n = 1 and no Gamma step checks it."""
    if not (math.isfinite(z) and z >= 0):
        raise ValueError(_VEC_ENTRIES)
    return _q_step(G, [float(z)] * G.n)


def _to_json(g: GainFn) -> dict:
    """gain_to_json, extended by the synthesized nodes of this module."""
    if isinstance(g, (QEnvelope, ThetaInner)):
        return g.to_json()
    return gain_to_json(g)


@dataclass(frozen=True)
class QEnvelope(GainFn):
    """s -> Q(inner(s)*1)_index, or the maximum over all nodes when index
    is None (0-based here, 1-based in JSON)."""

    gains: GainMatrix
    inner: GainFn
    index: Optional[int] = None

    def _eval(self, s: float) -> float:
        q = _closure(self.gains, self.inner._eval(s))
        if self.index is not None:
            return q[self.index]
        # numpy's max, for n up to 8: a NaN if any entry is one, else the
        # last of equal maxima (numpy's SIMD order decides that past 8)
        top = q[0]
        for v in q:
            top = top if top > v or top != top else v
        return top

    def to_json(self) -> dict:
        # the gain matrix is written once, by CompositeGain.to_json
        return {"kind": "q_envelope",
                "index": None if self.index is None else self.index + 1,
                "inner": _to_json(self.inner)}


@dataclass(frozen=True)
class ThetaInner(GainFn):
    """The common argument fed to every phi_i in theta and in G_i.

    max{M*max(z, max_i p_i(z)), M*max_i max(y_i, p_i(y_i)), z} with
    z = zeta(s) and y = Gamma(Q(z*1)), that is y_i = max_j gamma_ij(phi_j(z)).
    """

    gains: GainMatrix
    zeta: GainFn
    p_list: Tuple[GainFn, ...]
    M: float

    def _eval(self, s: float) -> float:
        G, z = self.gains, self.zeta._eval(s)
        y = _gamma_step(G, _closure(G, z))
        pu = max([z] + [p(z) for p in self.p_list])
        py = max(max(yi, p(yi)) for yi, p in zip(y, self.p_list))
        return float(max(self.M * pu, self.M * py, z))

    def to_json(self) -> dict:
        return {"kind": "theta_inner", "zeta": gain_to_json(self.zeta),
                "p": [gain_to_json(p) for p in self.p_list], "M": self.M}


def build_phi(G: GainMatrix,
              report: Optional[SmallGainReport] = None) -> List[GainFn]:
    """Envelope gains phi_i(s) = Q(s*1)_i.

    Requires a passing small-gain report (computed if not supplied):
    under it, the first n iterates of Gamma cover every chain of couplings.
    """
    if report is None:
        report = check_small_gain(G)
    if not report.holds:
        raise SmallGainRequired(
            "phi construction requires the small-gain condition; "
            f"failing cycle {report.failing_cycle}")
    return [QEnvelope(G, Linear(1.0), i) for i in range(G.n)]


class OverallGain:
    """Evaluable a1^{-1} o theta; the inverse is taken at call time and
    rounded up, so a1(overall(s)) >= theta(s) on the float path."""

    def __init__(self, a1: GainFn, theta: GainFn):
        self.a1 = a1
        self.theta = theta

    def __call__(self, s: float) -> float:
        return self.inverse_at(self.theta(s))

    def inverse_at(self, y: float) -> float:
        """a1^{-1}(y), for a value y = theta(s) the caller already has."""
        return invert(self.a1, y)

    def to_json(self) -> dict:
        return {"kind": "inverse_compose",
                "outer_inverse": gain_to_json(self.a1),
                "inner": _to_json(self.theta)}


@dataclass(frozen=True)
class CompositeGain:
    """The synthesized closed-loop gain objects over the gain matrix."""

    gains: GainMatrix
    phi: Tuple[GainFn, ...]
    theta: GainFn
    gmap: Tuple[GainFn, ...]
    overall: OverallGain

    def to_json(self) -> dict:
        return {
            "gains": matrix_to_json(self.gains),
            "phi": [_to_json(f) for f in self.phi],
            "theta": _to_json(self.theta),
            "gmap": [_to_json(g) for g in self.gmap],
            "overall": self.overall.to_json(),
        }


def overall_gain(inp: SynthesisInput,
                 report: Optional[SmallGainReport] = None) -> CompositeGain:
    """Assemble phi, theta, the channel bounds G_i and a1^{-1} o theta."""
    G = inp.gains
    phi = build_phi(G, report)
    inner = ThetaInner(G, inp.zeta, inp.p_list, inp.M)
    theta = QEnvelope(G, inner)
    gmap = tuple(QEnvelope(G, inner, i) for i in range(G.n))
    return CompositeGain(gains=G, phi=tuple(phi), theta=theta, gmap=gmap,
                         overall=OverallGain(inp.a1, theta))
