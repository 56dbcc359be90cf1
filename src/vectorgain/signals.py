"""Deterministic input/disturbance signal descriptors.

Every signal is a pure function of time described by a small JSON-able
record, so simulation runs are reproducible from config alone.  The
"noise" kind is seeded piecewise-constant: the value on interval k is the
k-th draw of a fixed generator, independent of evaluation order.  One
table, `_FIELDS`, names each kind's fields and drives the JSON both ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .gains import _describe_json, _json_array, _json_known, _json_number

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
        if self.kind not in _KINDS:
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


# the readers of a JSON field: each is given the value, then the kind and
# the field's name, which an error names
_WHAT = "{} signal field {!r}"


def _number(v, kind: str, name: str) -> float:
    return _json_number(v, _WHAT, kind, name)


def _numbers(v, kind: str, name: str) -> List[float]:
    values = _json_array(v, "each entry of " + _WHAT, kind, name)
    if values.ndim != 1:
        raise ValueError(f"{_WHAT.format(kind, name)} must be a flat array "
                         f"of numbers, got {_describe_json(v)}")
    return values.tolist()


def _seed(v, kind: str, name: str) -> int:
    # a float with an integer value, such as 4.0, reads as that integer
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    return _json_number(v, _WHAT, kind, name, integer=True)


# the fields each kind reads, by name, with the reader of a JSON value
_FIELDS = {
    "zero": {},
    "constant": {"value": _number},
    "sinusoid": {"amplitude": _number, "frequency": _number, "phase": _number},
    "piecewise": {"times": _numbers, "values": _numbers},
    "noise": {"amplitude": _number, "seed": _seed, "dt_switch": _number},
}
_KINDS = tuple(_FIELDS)
# the fields a signal's JSON must give; the others take the class default
_REQUIRED = frozenset({"value", "amplitude", "times", "values"})


def signal_to_json(sig: Signal) -> dict:
    d = {"kind": sig.kind}
    for name in _FIELDS[sig.kind]:
        v = getattr(sig, name)
        d[name] = list(v) if isinstance(v, (list, tuple)) else v
    return d


def signal_from_json(d: Optional[dict]) -> Signal:
    if d is None:
        return Signal()
    if not isinstance(d, dict):
        raise ValueError(f"signal must be an object, got {_describe_json(d)}")
    kind = d.get("kind", "zero")
    if kind not in _KINDS:
        raise ValueError(f"unknown signal kind {kind!r}")
    fields = _FIELDS[kind]
    missing = [name for name in fields if name in _REQUIRED and name not in d]
    if missing:
        raise ValueError(f"{kind} signal requires a field {missing[0]!r}")
    _json_known(d, ("kind", *fields), f"{kind} signal")
    return Signal(kind=kind, **{name: read(d[name], kind, name)
                                for name, read in fields.items() if name in d})
