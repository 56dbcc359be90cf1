"""Gain matrices, the induced MAX-preserving map and the cyclic small-gain test.

A gain matrix holds one scalar gain per ordered pair of nodes and induces
the monotone map Gamma_i(x) = max_j gamma_ij(x_j) on the nonnegative
orthant.  Global asymptotic stability of the iteration x -> Gamma(x) is
equivalent to every composition of gains around every simple cycle lying
strictly below the identity; this module enumerates the cycles and checks
them with the contraction tester from :mod:`vectorgain.gains`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .gains import (
    ContractionVerdict, GainFn, GridSpec, Zero, check_contraction,
    compose_chain, gain_from_json, gain_to_json,
)

__all__ = [
    "GainMatrix", "CycleVerdict", "SmallGainReport", "as_plus_vec",
    "vec_max", "gamma_apply", "q_operator", "enumerate_cycles",
    "check_small_gain", "gas_witness_search", "matrix_to_json",
    "matrix_from_json",
]


def as_plus_vec(x, n: Optional[int] = None) -> np.ndarray:
    """Validate and return x as a nonnegative finite float vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if n is not None and v.size != n:
        raise ValueError(f"dimension mismatch: expected {n}, got {v.size}")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError("vector entries must be finite and >= 0")
    return v


def vec_max(xs: Sequence[np.ndarray]) -> np.ndarray:
    """Componentwise maximum of a non-empty list of equal-length vectors."""
    if len(xs) == 0:
        raise ValueError("vec_max requires a non-empty list")
    vs = [as_plus_vec(x) for x in xs]
    n = vs[0].size
    for v in vs[1:]:
        if v.size != n:
            raise ValueError("vec_max: dimension mismatch")
    return np.maximum.reduce(vs)


@dataclass(frozen=True)
class GainMatrix:
    """n x n array of scalar gains; absent couplings are the zero gain.

    Diagonal entries are allowed to be nonzero (they matter for delay
    systems, where a subsystem feeds back through its own history).
    """

    n: int
    entries: Tuple[Tuple[GainFn, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"matrix dimension must be >= 1, got {self.n}")
        if len(self.entries) != self.n or any(len(row) != self.n for row in self.entries):
            raise ValueError("entries must be an n x n grid of gains")
        for row in self.entries:
            for g in row:
                if not isinstance(g, GainFn):
                    raise ValueError("matrix entries must be GainFn instances")

    @staticmethod
    def from_entries(rows: Sequence[Sequence[GainFn]]) -> "GainMatrix":
        return GainMatrix(len(rows), tuple(tuple(row) for row in rows))

    @staticmethod
    def zeros(n: int) -> "GainMatrix":
        return GainMatrix(n, tuple(tuple(Zero() for _ in range(n)) for _ in range(n)))

    def with_entry(self, i: int, j: int, g: GainFn) -> "GainMatrix":
        """Return a copy with entry (i, j) replaced (0-based indices)."""
        rows = [list(row) for row in self.entries]
        rows[i][j] = g
        return GainMatrix.from_entries(rows)

    def gain(self, i: int, j: int) -> GainFn:
        return self.entries[i][j]


def gamma_apply(G: GainMatrix, x) -> np.ndarray:
    """Apply the induced map: y_i = max_j gamma_ij(x_j)."""
    v = as_plus_vec(x, G.n)
    out = np.empty(G.n)
    for i in range(G.n):
        out[i] = max(G.entries[i][j](v[j]) for j in range(G.n))
    return out


def q_operator(G: GainMatrix, x) -> np.ndarray:
    """MAX of the first n iterates {x, Gamma(x), ..., Gamma^(n-1)(x)}."""
    v = as_plus_vec(x, G.n)
    acc = v.copy()
    cur = v
    for _ in range(G.n - 1):
        cur = gamma_apply(G, cur)
        acc = np.maximum(acc, cur)
    return acc


def enumerate_cycles(n: int) -> List[Tuple[int, ...]]:
    """All simple cycles on n nodes, one representative per rotation.

    Returns 0-based index tuples: the n self-loops, then for each subset of
    r >= 2 nodes the (r-1)! cyclic orders anchored at the subset's smallest
    index.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cycles: List[Tuple[int, ...]] = [(i,) for i in range(n)]
    for r in range(2, n + 1):
        for subset in itertools.combinations(range(n), r):
            first, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                cycles.append((first,) + perm)
    return cycles


@dataclass(frozen=True)
class CycleVerdict:
    cycle: Tuple[int, ...]
    verdict: Optional[ContractionVerdict]
    skipped: bool = False

    @property
    def holds(self) -> bool:
        return self.skipped or (self.verdict is not None and self.verdict.holds)


@dataclass(frozen=True)
class SmallGainReport:
    holds: bool
    cycles: Tuple[CycleVerdict, ...]
    failing_cycle: Optional[Tuple[int, ...]] = None
    witness: Optional[float] = None

    def to_json(self) -> dict:
        entries = []
        for cv in self.cycles:
            if cv.skipped:
                entries.append({"cycle": [i + 1 for i in cv.cycle],
                                "status": "skipped (zero gain)"})
            else:
                e = {"cycle": [i + 1 for i in cv.cycle],
                     "status": cv.verdict.status,
                     "detail": cv.verdict.detail}
                if cv.verdict.witness is not None:
                    e["witness"] = cv.verdict.witness
                entries.append(e)
        out = {"holds": self.holds, "cycles": entries}
        if self.failing_cycle is not None:
            out["failing_cycle"] = [i + 1 for i in self.failing_cycle]
            out["witness"] = self.witness
        return out

    def table(self) -> str:
        lines = [f"{'cycle':<16} {'status':<14} detail"]
        for cv in self.cycles:
            cyc = "(" + ",".join(str(i + 1) for i in cv.cycle) + ")"
            if cv.skipped:
                lines.append(f"{cyc:<16} {'skipped':<14} zero gain on cycle")
            else:
                lines.append(f"{cyc:<16} {cv.verdict.status:<14} {cv.verdict.detail}")
        lines.append(f"overall: {'holds' if self.holds else 'REFUTED'}")
        return "\n".join(lines)


def _cycle_gains(G: GainMatrix, cycle: Tuple[int, ...]) -> List[GainFn]:
    """Gains along the cycle i1 -> i2 -> ... -> ir -> i1, composition order."""
    r = len(cycle)
    return [G.gain(cycle[j], cycle[(j + 1) % r]) for j in range(r)]


def check_small_gain(G: GainMatrix, grid: Optional[GridSpec] = None) -> SmallGainReport:
    """Check every simple-cycle gain composition against the identity.

    One rotation per cycle suffices: for non-decreasing gains, a o b below
    the identity everywhere is equivalent to b o a below the identity
    everywhere.  Cycles through a zero gain pass trivially and are marked
    skipped.
    """
    verdicts: List[CycleVerdict] = []
    failing: Optional[Tuple[int, ...]] = None
    witness: Optional[float] = None
    for cycle in enumerate_cycles(G.n):
        gains = _cycle_gains(G, cycle)
        if any(isinstance(g, Zero) for g in gains):
            verdicts.append(CycleVerdict(cycle, None, skipped=True))
            continue
        v = check_contraction(compose_chain(gains), grid)
        verdicts.append(CycleVerdict(cycle, v))
        if not v.holds and failing is None:
            failing = cycle
            witness = v.witness
    return SmallGainReport(holds=failing is None, cycles=tuple(verdicts),
                           failing_cycle=failing, witness=witness)


def gas_witness_search(G: GainMatrix, samples: int = 100_000,
                       radius: float = 1e6, seed: int = 0,
                       report: Optional[SmallGainReport] = None
                       ) -> Optional[np.ndarray]:
    """Search for a nonzero x with Gamma(x) >= x componentwise.

    Such an x refutes global asymptotic stability of the iteration.  Tries
    the deterministic cycle-based witness for every refuted cycle of the
    small-gain report (computed if not supplied) first, then samples
    log-uniformly.  Returns the witness vector or None.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if report is None:
        report = check_small_gain(G)
    for cv in report.cycles:
        if cv.skipped or cv.holds or cv.verdict.witness is None:
            continue
        x = _cycle_witness(G, cv.cycle, cv.verdict.witness)
        if x is not None:
            return x
    rng = np.random.default_rng(seed)
    lo = np.log(1e-6 * radius)
    hi = np.log(radius)
    for _ in range(samples):
        x = np.exp(rng.uniform(lo, hi, size=G.n))
        if np.all(gamma_apply(G, x) >= x):
            return x
    return None


def _cycle_witness(G: GainMatrix, cycle: Tuple[int, ...],
                   s: float) -> Optional[np.ndarray]:
    """Deterministic GAS-refuting vector built along a failing cycle.

    For a cycle (i1, ..., ir) whose composed gain reaches the identity at
    s: set x_{i1} = s and walk the cycle backwards, x_{ij} the composition
    of the remaining gains applied to s.  Verifies Gamma(x) >= x before
    returning.
    """
    r = len(cycle)
    x = np.zeros(G.n)
    x[cycle[0]] = s
    for j in range(r - 1, 0, -1):
        # gains from position j around to the cycle start, applied to s
        gains = [G.gain(cycle[m], cycle[(m + 1) % r]) for m in range(j, r)]
        x[cycle[j]] = compose_chain(gains)(s)
    if np.any(x > 0) and np.all(gamma_apply(G, x) >= x):
        return x
    return None


def matrix_to_json(G: GainMatrix) -> dict:
    """Serialize with 1-based indices; zero entries are omitted."""
    gains = []
    for i in range(G.n):
        for j in range(G.n):
            g = G.entries[i][j]
            if not isinstance(g, Zero):
                gains.append({"i": i + 1, "j": j + 1, "fn": gain_to_json(g)})
    return {"n": G.n, "gains": gains}


def matrix_from_json(d: dict) -> GainMatrix:
    try:
        n = int(d["n"])
    except (TypeError, KeyError):
        raise ValueError(f"matrix JSON requires an integer field 'n': {d!r}")
    G = GainMatrix.zeros(n)
    rows = [list(row) for row in G.entries]
    for item in d.get("gains", []):
        i, j = int(item["i"]) - 1, int(item["j"]) - 1
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"gain index out of range: {item}")
        rows[i][j] = gain_from_json(item["fn"])
    return GainMatrix.from_entries(rows)
