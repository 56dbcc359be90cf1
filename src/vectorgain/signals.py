"""Deterministic input/disturbance signal descriptors.

Every signal is a pure function of time described by a small JSON-able
record, so simulation runs are reproducible from config alone.  The
"noise" kind is seeded piecewise-constant: the value on interval k is the
k-th draw of a fixed generator, independent of evaluation order.  One
table, `_FIELDS`, declares each kind's fields, their config rules and
defaults; it drives the JSON both ways, and `config.read_kind` reads a
signal object by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .config import (
    REQUIRED, Mismatch, number, numbers, read_kind, seed,
)

__all__ = ["Signal", "signal_from_json", "signal_to_json", "MAX_NOISE_DRAWS"]

# most values a noise signal draws; later intervals are refused
MAX_NOISE_DRAWS = 10_000_000


@dataclass
class Signal:
    """Scalar signal of time.  kinds: zero, constant, sinusoid, piecewise, noise."""

    kind: str = "zero"
    value: float = 0.0
    amplitude: float = 0.0
    frequency: float = 1.0                  # Hz
    phase: float = 0.0
    times: Optional[List[float]] = None     # breakpoints, ascending
    values: Optional[List[float]] = None    # one per breakpoint
    seed: int = 0
    dt_switch: float = 1.0                  # switching period
    # the draws made so far; neither an init argument nor compared
    _noise_cache: List[float] = field(default_factory=list, init=False,
                                      compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in _FIELDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")
        numbers = [self.value, self.amplitude, self.frequency, self.phase,
                   self.dt_switch, *(self.times or ()), *(self.values or ())]
        if not all(map(math.isfinite, numbers)):
            raise ValueError(f"{self.kind} signal needs finite numbers")
        if self.kind == "piecewise":
            if not self.times or not self.values or len(self.times) != len(self.values):
                raise ValueError("piecewise signal needs matching times/values")
            if any(b <= a for a, b in zip(self.times, self.times[1:])):
                raise ValueError("piecewise breakpoints must be increasing")
        if self.kind == "noise" and self.dt_switch <= 0:
            raise ValueError("noise dt_switch must be > 0")
        if self.kind == "noise" and not math.isfinite(2.0 * self.amplitude):
            # the draws are uniform on [-amplitude, amplitude]
            raise ValueError("noise amplitude must be below half the float range")

    def __call__(self, t: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.value
        if self.kind == "sinusoid":
            return self.amplitude * math.sin(
                2.0 * math.pi * self.frequency * t + self.phase)
        if self.kind == "piecewise":
            v = self.values[0]
            for bp, val in zip(self.times, self.values):
                if t >= bp:
                    v = val
                else:
                    break
            return v
        # noise
        q = t / self.dt_switch  # inf for a subnormal dt_switch
        if q >= MAX_NOISE_DRAWS:
            raise ValueError(
                f"noise signal at t = {t:g} needs more than {MAX_NOISE_DRAWS} "
                f"draws; raise dt_switch ({self.dt_switch:g})")
        k = max(0, int(math.floor(q)))
        cache = self._noise_cache
        if k >= len(cache):
            # the draws of one generator are a prefix of any longer batch, so
            # redrawing at least twice as many keeps every value and makes
            # a forward sweep over K intervals cost O(K)
            rng = np.random.default_rng(self.seed)
            size = min(max(k + 1, 2 * len(cache)), MAX_NOISE_DRAWS)
            cache[:] = list(rng.uniform(-self.amplitude, self.amplitude,
                                        size=size))
        return cache[k]


def _flat(v) -> List[float]:
    """Config rule: a flat array of numbers, as a list of floats."""
    values = numbers(v)
    if values.ndim != 1:
        raise Mismatch("a flat array of numbers", v)
    return values.tolist()


# the config table of each kind's fields, which also drives signal_to_json
_FIELDS = {
    "zero": (),
    "constant": (("value", number, REQUIRED),),
    "sinusoid": (("amplitude", number, REQUIRED),
                 ("frequency", number, Signal.frequency),
                 ("phase", number, Signal.phase)),
    "piecewise": (("times", _flat, REQUIRED), ("values", _flat, REQUIRED)),
    "noise": (("amplitude", number, REQUIRED), ("seed", seed, Signal.seed),
              ("dt_switch", number, Signal.dt_switch)),
}
_TABLES = {kind: (fields, f"{kind} signal", "field")
           for kind, fields in _FIELDS.items()}


def signal_to_json(sig: Signal) -> dict:
    d = {"kind": sig.kind}
    for name, _, _ in _FIELDS[sig.kind]:
        v = getattr(sig, name)
        d[name] = list(v) if isinstance(v, (list, tuple)) else v
    return d


def signal_from_json(d: Optional[dict]) -> Signal:
    """The signal of a JSON object, by its kind's table; None is the zero
    signal."""
    if d is None:
        return Signal()
    kind, values = read_kind(d, _TABLES, "signal", default="zero")
    return Signal(kind=kind, **values)
