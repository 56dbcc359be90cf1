"""Scalar gain functions as a closed expression algebra.

Gains are continuous, non-decreasing functions on [0, inf) that vanish at
zero, represented as immutable expression trees over a small set of
parametric constructors.  Keeping the representation closed (instead of
accepting arbitrary callables) lets contraction checks be decided exactly
for the families that actually occur in practice, with a grid fallback for
everything else.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "GainFn", "Zero", "Linear", "Power", "LogExpSq", "Max", "Compose",
    "Scale", "GridSpec", "ContractionVerdict", "GainError", "BracketError",
    "compose_chain", "check_contraction", "invert", "gain_to_json",
    "gain_from_json", "MAX_JSON_DEPTH",
]

# deepest gain expression gain_from_json accepts: evaluation, normalization
# and the exact contraction rules recurse once or twice per level
MAX_JSON_DEPTH = 100
# exp argument above which LogExpSq switches to its log-space asymptote
_EXP_OVERFLOW = 700.0
_LN2 = math.log(2.0)


class GainError(ValueError):
    """Malformed gain expression or invalid gain operation."""


class BracketError(GainError):
    """No finite float reaches the inversion target."""


class GainFn:
    """Base class for gain expression nodes.  Instances are immutable.

    The nodes of this module are called on a float or, elementwise, on a
    1-d float ndarray.  Floats are evaluated with :mod:`math`, arrays with
    the matching numpy functions, whose results can differ from the float
    path in the last bit (power, expm1, log1p).
    """

    def __call__(self, s):
        if isinstance(s, np.ndarray):
            if not np.all(s >= 0):  # also catches NaN
                raise GainError("gain argument must be nonnegative, got an "
                                "array with a negative or NaN entry")
        elif not s >= 0:
            raise GainError(f"gain argument must be nonnegative, got {s}")
        return self._eval(s)

    def _eval(self, s):
        raise NotImplementedError


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise GainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Zero(GainFn):
    """The identically-zero gain."""

    def _eval(self, s):
        # not 0*s, which is NaN at s = inf
        return np.zeros_like(s) if isinstance(s, np.ndarray) else 0.0


@dataclass(frozen=True)
class Linear(GainFn):
    """s -> k*s with k >= 0."""

    k: float

    def __post_init__(self):
        _require_finite("Linear.k", self.k)
        if self.k < 0:
            raise GainError(f"Linear coefficient must be >= 0, got {self.k}")

    def _eval(self, s):
        return self.k * s


@dataclass(frozen=True)
class Power(GainFn):
    """s -> k*s**p with k >= 0, p > 0."""

    k: float
    p: float

    def __post_init__(self):
        _require_finite("Power.k", self.k)
        _require_finite("Power.p", self.p)
        if self.k < 0:
            raise GainError(f"Power coefficient must be >= 0, got {self.k}")
        if self.p <= 0:
            raise GainError(f"Power exponent must be > 0, got {self.p}")

    def _eval(self, s):
        try:
            return self.k * s ** self.p
        except OverflowError:  # float ** past the float range; numpy gives inf
            return self.k * math.inf


@dataclass(frozen=True)
class LogExpSq(GainFn):
    """s -> c*[ln(1 + th*(exp(sqrt(2s)) - 1))]**2 with c, th > 0.

    Evaluated in log-space once sqrt(2s) would overflow exp: the value
    approaches c*(sqrt(2s) + ln th)**2 from below.  The same holds earlier
    for a large th, once th*(exp(sqrt(2s)) - 1) would overflow.
    """

    c: float
    th: float

    def __post_init__(self):
        _require_finite("LogExpSq.c", self.c)
        _require_finite("LogExpSq.th", self.th)
        if self.c <= 0:
            raise GainError(f"LogExpSq scale must be > 0, got {self.c}")
        if self.th <= 0:
            raise GainError(f"LogExpSq parameter must be > 0, got {self.th}")

    def _eval(self, s):
        # with e = expm1(t), ln(1 + th*e) is ln th + ln e to rounding once
        # e passes cap, where th*e is half the float range; for th above
        # about 8.9e3 that happens below t = _EXP_OVERFLOW
        cap = 0.5 * sys.float_info.max / self.th
        if isinstance(s, np.ndarray):
            t = np.sqrt(2.0 * s)
            e = np.expm1(np.minimum(t, _EXP_OVERFLOW))
            near = np.where(e <= cap, np.log1p(self.th * np.minimum(e, cap)),
                            math.log(self.th) + np.log(np.maximum(e, cap)))
            inner = np.where(t > _EXP_OVERFLOW, t + math.log(self.th), near)
            return self.c * inner * inner
        t = math.sqrt(2.0 * s)
        if t > _EXP_OVERFLOW:
            inner = t + math.log(self.th)
        else:
            e = math.expm1(t)
            if e > cap:
                inner = math.log(self.th) + math.log(e)
            else:
                inner = math.log1p(self.th * e)
        return self.c * inner * inner


@dataclass(frozen=True)
class Max(GainFn):
    """Pointwise maximum of two gains."""

    a: GainFn
    b: GainFn

    def __post_init__(self):
        if not isinstance(self.a, GainFn) or not isinstance(self.b, GainFn):
            raise GainError("Max children must be GainFn instances")

    def _eval(self, s):
        if isinstance(s, np.ndarray):
            return np.maximum(self.a._eval(s), self.b._eval(s))
        return max(self.a._eval(s), self.b._eval(s))


@dataclass(frozen=True)
class Compose(GainFn):
    """Composition outer(inner(s))."""

    outer: GainFn
    inner: GainFn

    def __post_init__(self):
        if not isinstance(self.outer, GainFn) or not isinstance(self.inner, GainFn):
            raise GainError("Compose children must be GainFn instances")

    def _eval(self, s):
        return self.outer._eval(self.inner._eval(s))


@dataclass(frozen=True)
class Scale(GainFn):
    """s -> k*g(s) with k >= 0."""

    k: float
    fn: GainFn

    def __post_init__(self):
        _require_finite("Scale.k", self.k)
        if self.k < 0:
            raise GainError(f"Scale coefficient must be >= 0, got {self.k}")
        if not isinstance(self.fn, GainFn):
            raise GainError("Scale child must be a GainFn instance")

    def _eval(self, s):
        return self.k * self.fn._eval(s)


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced evaluation grid for contraction checks."""

    s_min: float = 1e-12
    s_max: float = 1e12
    points: int = 2048

    def __post_init__(self):
        if not (0 < self.s_min < self.s_max):
            raise GainError("grid requires 0 < s_min < s_max")
        if self.points < 2:
            raise GainError("grid requires at least 2 points")

    def values(self):
        lo, hi = math.log(self.s_min), math.log(self.s_max)
        n = self.points
        return [math.exp(lo + (hi - lo) * i / (n - 1)) for i in range(n)]


@dataclass(frozen=True)
class ContractionVerdict:
    """Outcome of testing g(s) < s for all s > 0.

    ``exact-true`` / ``exact-false`` come from closed-form rules;
    ``grid-verified`` / ``grid-refuted`` from sampling, which is evidence
    rather than proof.  A refuting verdict carries a witness with
    g(witness) >= witness when one is representable as a positive float;
    an exact refutation whose crossing point over- or underflows has none,
    and its detail says so.
    """

    status: str
    witness: Optional[float] = None
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.status in ("exact-true", "grid-verified")

    @property
    def exact(self) -> bool:
        return self.status in ("exact-true", "exact-false")


def compose_chain(gs: Sequence[GainFn]) -> GainFn:
    """Left-to-right composition g1 o g2 o ... o gm as a single gain."""
    gs = list(gs)
    if not gs:
        raise GainError("compose_chain requires a non-empty list")
    return reduce(lambda acc, g: Compose(acc, g), gs)


def _collapse(g: GainFn) -> GainFn:
    """Algebraic normalization used by the exact contraction rules.

    Rewrites compositions of linear/power gains to a single Power, products
    of half-scaled LogExpSq gains to a single LogExpSq (their parameters
    multiply under composition), and eliminates Zero subtrees.  A merged
    coefficient that is not a normal positive float is not formed.
    """
    if isinstance(g, Scale):
        if g.k == 0:
            return Zero()
        return _collapse(Compose(Linear(g.k), g.fn))
    if isinstance(g, Max):
        a, b = _collapse(g.a), _collapse(g.b)
        if isinstance(a, Zero):
            return b
        if isinstance(b, Zero):
            return a
        return Max(a, b)
    if isinstance(g, Compose):
        return _collapse_compose(_collapse(g.outer), _collapse(g.inner))
    if isinstance(g, Power) and g.p == 1.0:
        return Linear(g.k)
    if isinstance(g, Power) and g.k == 0:
        return Zero()
    if isinstance(g, Linear) and g.k == 0:
        return Zero()
    return g


def _collapse_compose(outer: GainFn, inner: GainFn) -> GainFn:
    """_collapse(Compose(o, i)) given outer = _collapse(o), inner = _collapse(i).

    One shallow step: a chain that carries the normal form of its prefix
    normalizes each extension without walking the prefix again.
    """
    if isinstance(outer, Zero) or isinstance(inner, Zero):
        return Zero()
    # a merged coefficient or exponent outside the normal floats (an
    # underflow, a subnormal or an overflow) keeps the composition as it
    # is, for the grid to decide
    if isinstance(outer, (Linear, Power)) and isinstance(inner, (Linear, Power)):
        p_out = outer.p if isinstance(outer, Power) else 1.0
        p = p_out * inner.p if isinstance(inner, Power) else p_out
        try:
            k = outer.k * inner.k ** p_out  # with p_out = 1, exactly k*k'
        except OverflowError:
            k = math.inf
        lo = sys.float_info.min
        if lo <= k < math.inf and lo <= p < math.inf:
            return Linear(k) if p == 1.0 else Power(k, p)
    if (isinstance(outer, LogExpSq) and isinstance(inner, LogExpSq)
            and outer.c == 0.5 and inner.c == 0.5):
        th = outer.th * inner.th
        if sys.float_info.min <= th < math.inf:
            return LogExpSq(0.5, th)
    return Compose(outer, inner)


def _power_witness(g: "Power") -> Optional[float]:
    """A point where k*s**p >= s (k > 0, p != 1), or None if not representable.

    The crossing point k*s**(p-1) = 1 is taken in log space and moved by a
    factor 2 to the side where the gain lies above the identity: beyond it
    for p > 1, below it for p < 1.
    """
    log_w = -math.log(g.k) / (g.p - 1.0) + (_LN2 if g.p > 1 else -_LN2)
    try:
        w = math.exp(log_w)
        return w if 0 < w <= g(w) < math.inf else None
    except OverflowError:
        return None


def _exact_contraction(g: GainFn) -> Optional[ContractionVerdict]:
    """Closed-form contraction verdict where one exists, else None."""
    if isinstance(g, Zero):
        return ContractionVerdict("exact-true", detail="zero gain")
    if isinstance(g, Linear):
        if g.k < 1:
            return ContractionVerdict("exact-true", detail=f"linear, k={g.k} < 1")
        return ContractionVerdict("exact-false", witness=1.0,
                                  detail=f"linear, k={g.k} >= 1")
    if isinstance(g, Power):
        # k*s**p vs s: for p != 1 the inequality fails near 0 (p < 1)
        # or near infinity (p > 1).
        detail = f"power with exponent {g.p} != 1 exceeds identity"
        w = _power_witness(g)
        if w is None:
            detail += "; crossing point outside the float range, no witness"
        return ContractionVerdict("exact-false", witness=w, detail=detail)
    if isinstance(g, LogExpSq) and g.c == 0.5:
        # (1/2)[ln(1+th*(e^t - 1))]^2 < t^2/2  iff  th < 1.
        if g.th < 1:
            return ContractionVerdict("exact-true",
                                      detail=f"log-exp-square, th={g.th} < 1")
        return ContractionVerdict("exact-false", witness=1.0,
                                  detail=f"log-exp-square, th={g.th} >= 1")
    if isinstance(g, Max):
        va = _exact_contraction(g.a)
        vb = _exact_contraction(g.b)
        for v in (va, vb):
            if v is not None and v.status == "exact-false":
                return ContractionVerdict("exact-false", witness=v.witness,
                                          detail="max branch: " + v.detail)
        if va is not None and vb is not None:
            return ContractionVerdict("exact-true",
                                      detail="both max branches contract")
    return None


def check_contraction(g: GainFn, grid: Optional[GridSpec] = None,
                      collapsed: Optional[GainFn] = None) -> ContractionVerdict:
    """Test whether g(s) < s for all s > 0.

    Applies closed-form rules on the normalized tree when possible,
    otherwise samples the log-spaced grid and reports the first failure.
    A caller that already holds the normal form of g passes it as
    ``collapsed``; the grid always evaluates g itself.
    """
    verdict = _exact_contraction(_collapse(g) if collapsed is None else collapsed)
    if verdict is not None:
        return verdict
    return _grid_contraction(g, GridSpec() if grid is None else grid)


def _grid_contraction(g: GainFn, grid: GridSpec) -> ContractionVerdict:
    """Sample g(s) < s on the grid; the first failing point is the witness."""
    for s in grid.values():
        if g(s) >= s:
            return ContractionVerdict(
                "grid-refuted", witness=s,
                detail=f"g({s:.6g}) = {g(s):.6g} >= {s:.6g}")
    return ContractionVerdict(
        "grid-verified",
        detail=f"{grid.points} log-spaced points on "
               f"[{grid.s_min:g}, {grid.s_max:g}]")


def _closed_inverse(c: GainFn, y: float) -> Optional[float]:
    """The inverse of a collapsed Linear, Power or LogExpSq gain at y, up to
    rounding, or None."""
    try:
        if isinstance(c, Linear):
            s = y / c.k
        elif isinstance(c, Power):
            s = (y / c.k) ** (1.0 / c.p)
        elif isinstance(c, LogExpSq):
            # sqrt(y/c) = ln(1 + th*expm1(t)) with t = sqrt(2s), or t + ln th
            # on the asymptote the gain takes past _EXP_OVERFLOW
            inner = math.sqrt(y / c.c)
            t = inner - math.log(c.th)
            if t <= _EXP_OVERFLOW:
                t = math.log1p(math.expm1(inner) / c.th)
            s = 0.5 * t * t
        else:
            return None
    except (OverflowError, ZeroDivisionError):
        return None
    return s if s < math.inf else None


def invert(g: GainFn, y: float) -> float:
    """g^{-1}(y) rounded up: a float s with g(s) >= y > g(the float below s).

    The search starts at the closed form of a collapsed Linear, Power or
    LogExpSq gain with a step of one ulp, else at 1 with a step of 1.  The
    step doubles until g(lo) < y <= g(hi), and the bracket is bisected
    until its ends are adjacent floats.  There is no tolerance.  Raises
    BracketError when the bracket reaches inf, as it does for a zero gain.
    """
    if not y >= 0:
        raise GainError(f"inversion target must be >= 0, got {y}")
    if y == 0:
        return 0.0
    start = _closed_inverse(_collapse(g), y)
    start, step = (1.0, 1.0) if start is None else (start, math.ulp(start))
    lo = hi = start
    while g(hi) < y:
        lo, hi, step = hi, start + step, 2.0 * step
        if hi == math.inf:
            raise BracketError(f"no finite float reaches g(s) >= {y:g}")
    if lo == hi:  # g(start) >= y: grow downwards, to 0 at most
        lo = max(start - step, 0.0)
        while g(lo) >= y:
            step *= 2.0
            lo, hi = max(start - step, 0.0), lo
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return hi
        if g(mid) < y:
            lo = mid
        else:
            hi = mid


def gain_to_json(g: GainFn) -> dict:
    """Serialize a gain expression tree to a JSON-compatible dict."""
    if isinstance(g, Zero):
        return {"kind": "zero"}
    if isinstance(g, Linear):
        return {"kind": "linear", "k": g.k}
    if isinstance(g, Power):
        return {"kind": "power", "k": g.k, "p": g.p}
    if isinstance(g, LogExpSq):
        return {"kind": "logexpsq", "c": g.c, "th": g.th}
    if isinstance(g, Max):
        return {"kind": "max", "a": gain_to_json(g.a), "b": gain_to_json(g.b)}
    if isinstance(g, Compose):
        return {"kind": "compose", "outer": gain_to_json(g.outer),
                "inner": gain_to_json(g.inner)}
    if isinstance(g, Scale):
        return {"kind": "scale", "k": g.k, "fn": gain_to_json(g.fn)}
    raise GainError(f"unknown gain node {type(g).__name__}")


def gain_from_json(d: dict) -> GainFn:
    """Deserialize a gain expression tree; raises GainError on bad input,
    including nesting deeper than MAX_JSON_DEPTH."""
    return _from_json(d, 1)


def _from_json(d: dict, depth: int) -> GainFn:
    if depth > MAX_JSON_DEPTH:
        raise GainError(
            f"gain expression nested deeper than {MAX_JSON_DEPTH} levels")
    try:
        kind = d["kind"]
    except (TypeError, KeyError):
        raise GainError(f"gain JSON must be an object with a 'kind': {d!r}")
    if kind == "zero":
        return Zero()
    if kind == "linear":
        return Linear(float(d["k"]))
    if kind == "power":
        return Power(float(d["k"]), float(d["p"]))
    if kind == "logexpsq":
        return LogExpSq(float(d["c"]), float(d["th"]))
    if kind == "max":
        return Max(_from_json(d["a"], depth + 1), _from_json(d["b"], depth + 1))
    if kind == "compose":
        return Compose(_from_json(d["outer"], depth + 1),
                       _from_json(d["inner"], depth + 1))
    if kind == "scale":
        return Scale(float(d["k"]), _from_json(d["fn"], depth + 1))
    raise GainError(f"unknown gain kind {kind!r}")
