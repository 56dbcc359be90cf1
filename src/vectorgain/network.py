"""Gain matrices, the induced MAX-preserving map and the cyclic small-gain test.

A gain matrix holds one scalar gain per ordered pair of nodes and induces
the monotone map Gamma_i(x) = max_j gamma_ij(x_j) on the nonnegative
orthant.  Global asymptotic stability of the iteration x -> Gamma(x) is
equivalent to every composition of gains around every simple cycle lying
strictly below the identity.  A cycle through a zero gain passes trivially,
so only the elementary circuits of the support graph (edge i -> j iff
gamma_ij is not the Zero gain) are enumerated, with Johnson's algorithm
(SIAM J. Comput. 4(1), 1975), and checked with the contraction tester from
:mod:`vectorgain.gains`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .gains import (
    Compose, ContractionVerdict, GainFn, GridSpec, Zero, _collapse,
    _collapse_compose, check_contraction, gain_from_json, gain_to_json,
)

__all__ = [
    "GainMatrix", "CycleVerdict", "SmallGainReport", "as_plus_vec",
    "gamma_apply", "q_operator", "support_circuits",
    "check_small_gain", "gas_witness_search", "matrix_to_json",
    "matrix_from_json",
]

# sampled values (rows times n) per block of the GAS witness sampler
_WITNESS_BLOCK = 1 << 16
# relative slack of the witness sampler's array filter: array gains can
# differ from the float path in the last bit, and gamma_apply decides
_WITNESS_SLACK = 1e-12
_VEC_ENTRIES = "vector entries must be finite and >= 0"


def as_plus_vec(x, n: Optional[int] = None) -> np.ndarray:
    """Validate and return x as a nonnegative finite float vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if n is not None and v.size != n:
        raise ValueError(f"dimension mismatch: expected {n}, got {v.size}")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError(_VEC_ENTRIES)
    return v


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
        return GainMatrix(n, ((Zero(),) * n,) * n)

    def with_entry(self, i: int, j: int, g: GainFn) -> "GainMatrix":
        """Return a copy with entry (i, j) replaced (0-based indices)."""
        rows = [list(row) for row in self.entries]
        rows[i][j] = g
        return GainMatrix.from_entries(rows)

    def gain(self, i: int, j: int) -> GainFn:
        return self.entries[i][j]

    @cached_property
    def support(self) -> Tuple[Tuple[int, ...], ...]:
        """Columns of the entries of each row that are not the Zero gain,
        ascending: the successors of each node in the support graph."""
        return tuple(tuple(j for j, g in enumerate(row) if not isinstance(g, Zero))
                     for row in self.entries)


def gamma_apply(G: GainMatrix, x) -> np.ndarray:
    """Apply the induced map: y_i = max_j gamma_ij(x_j)."""
    return np.array(_gamma_step(G, as_plus_vec(x, G.n).tolist()))


def _gamma_step(G: GainMatrix, xs: List[float]) -> List[float]:
    """Gamma on a list of n nonnegative Python floats; it checks only that
    they are finite, which a step can break (overflow, or 0*inf = nan).

    Only the support entries of each row are evaluated, plus entry 0 when
    it is Zero: max keeps the first of equal values, so a row whose values
    are all zero then yields the signed zero that the full row would.
    """
    if not all(map(math.isfinite, xs)):
        raise ValueError(_VEC_ENTRIES)
    out = []
    for i, cols in enumerate(G.support):
        row = G.entries[i]
        vals = [row[j]._eval(xs[j]) for j in cols]
        if not cols or cols[0] != 0:
            vals.insert(0, 0.0)
        out.append(max(vals))
    return out


def q_operator(G: GainMatrix, x) -> np.ndarray:
    """MAX of the first n iterates {x, Gamma(x), ..., Gamma^(n-1)(x)}."""
    v = as_plus_vec(x, G.n)
    acc = v.copy()
    cur = v.tolist()
    for _ in range(G.n - 1):
        cur = _gamma_step(G, cur)
        # np.maximum, not max: it decides the sign of a zero differently
        acc = np.maximum(acc, cur)
    return acc


def _cyclic_components(succ: Sequence[Sequence[int]], nodes: Set[int]) -> List[Set[int]]:
    """Strongly connected components of the subgraph induced by `nodes`
    that contain a cycle (Tarjan's algorithm, iterative)."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    on_stack: Set[int] = set()
    found: List[Set[int]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in nodes:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp: Set[int] = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    if len(comp) > 1 or v in succ[v]:
                        found.append(comp)
    return found


def support_circuits(G: GainMatrix
                     ) -> Iterator[Tuple[Tuple[int, ...], GainFn, GainFn]]:
    """Elementary circuits of the support graph with their composed gains.

    Yields (cycle, chain, normal): the 0-based nodes of each circuit once,
    anchored at its smallest node; the left-fold chain gamma_{i1 i2} o ...
    o gamma_{ir i1} that compose_chain builds; and its _collapse normal
    form.  Johnson's search runs on each strongly connected component from
    its smallest node, then on the components left without that node.  The
    depth-first search keeps an explicit stack, so long rings do not hit
    the recursion limit, and carries the chain and normal form of the
    current path, so each extension costs one Compose and one shallow
    normalization step.
    """
    succ = G.support
    normal = [{w: _collapse(G.entries[v][w]) for w in succ[v]}
              for v in range(G.n)]
    todo = _cyclic_components(succ, set(range(G.n)))
    while todo:
        comp = todo.pop()
        s = min(comp)
        sub = {v: [w for w in succ[v] if w in comp] for v in comp}
        path = [s]
        chains: List[Optional[GainFn]] = [None]
        normals: List[Optional[GainFn]] = [None]
        closed = [False]
        blocked = {s}
        blockers: Dict[int, Set[int]] = {v: set() for v in comp}
        frames = [iter(sub[s])]
        while frames:
            v = path[-1]
            for w in frames[-1]:
                if w != s and w in blocked:
                    continue
                g, gn = G.entries[v][w], normal[v][w]
                chain, norm = chains[-1], normals[-1]
                if chain is not None:
                    g, gn = Compose(chain, g), _collapse_compose(norm, gn)
                if w == s:
                    yield tuple(path), g, gn
                    closed[-1] = True
                    continue
                path.append(w)
                chains.append(g)
                normals.append(gn)
                closed.append(False)
                blocked.add(w)
                frames.append(iter(sub[w]))
                break
            else:
                frames.pop()
                path.pop()
                chains.pop()
                normals.pop()
                if closed.pop():
                    if closed:
                        closed[-1] = True
                    unblock = [v]
                    while unblock:
                        u = unblock.pop()
                        if u in blocked:
                            blocked.discard(u)
                            unblock.extend(blockers[u])
                            blockers[u].clear()
                else:
                    for w in sub[v]:
                        blockers[w].add(v)
        todo.extend(_cyclic_components(succ, comp - {s}))


@dataclass(frozen=True)
class CycleVerdict:
    cycle: Tuple[int, ...]
    verdict: ContractionVerdict
    # always False: cycles through a zero gain are no longer listed
    skipped: bool = False

    @property
    def holds(self) -> bool:
        return self.verdict.holds


@dataclass(frozen=True)
class SmallGainReport:
    holds: bool
    cycles: Tuple[CycleVerdict, ...]
    failing_cycle: Optional[Tuple[int, ...]] = None
    witness: Optional[float] = None

    def to_json(self) -> dict:
        entries = []
        for cv in self.cycles:
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
            lines.append(f"{cyc:<16} {cv.verdict.status:<14} {cv.verdict.detail}")
        lines.append(f"overall: {'holds' if self.holds else 'REFUTED'}")
        return "\n".join(lines)


def _cycle_order(cv: CycleVerdict):
    """Length, then node set in combinations order, then rotation."""
    return len(cv.cycle), sorted(cv.cycle), cv.cycle


def check_small_gain(G: GainMatrix, grid: Optional[GridSpec] = None) -> SmallGainReport:
    """Check every simple-cycle gain composition against the identity.

    One rotation per cycle suffices: for non-decreasing gains, a o b below
    the identity everywhere is equivalent to b o a below the identity
    everywhere.  Cycles through a zero gain pass trivially and are not
    listed.  The verdicts are ordered by cycle length, then node set, then
    rotation, and the failing cycle is the first refuted one in that order.
    """
    verdicts = sorted(
        (CycleVerdict(cycle, check_contraction(chain, grid, collapsed=norm))
         for cycle, chain, norm in support_circuits(G)),
        key=_cycle_order)
    failing = next((cv for cv in verdicts if not cv.holds), None)
    return SmallGainReport(
        holds=failing is None, cycles=tuple(verdicts),
        failing_cycle=None if failing is None else failing.cycle,
        witness=None if failing is None else failing.verdict.witness)


def gas_witness_search(G: GainMatrix, samples: int = 100_000,
                       radius: float = 1e6, seed: int = 0,
                       report: Optional[SmallGainReport] = None
                       ) -> Optional[np.ndarray]:
    """Search for a nonzero x with Gamma(x) >= x componentwise.

    Such an x refutes global asymptotic stability of the iteration.  Tries
    the deterministic cycle-based witness for every refuted cycle of the
    small-gain report (computed if not supplied) first, then samples
    log-uniformly.  The samples are drawn in blocks of rows, the same values
    in the same order as one draw per row.  Array gains filter a block with
    a small relative slack, and the candidates are decided in order with
    gamma_apply, so the witness is the one a per-row gamma_apply loop finds.
    Returns the witness vector or None.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if report is None:
        report = check_small_gain(G)
    for cv in report.cycles:
        if cv.holds or cv.verdict.witness is None:
            continue
        x = _cycle_witness(G, cv.cycle, cv.verdict.witness)
        if x is not None:
            return x
    rng = np.random.default_rng(seed)
    lo = np.log(1e-6 * radius)
    hi = np.log(radius)
    rows = max(1, _WITNESS_BLOCK // G.n)
    for start in range(0, samples, rows):
        X = np.exp(rng.uniform(lo, hi, size=(min(rows, samples - start), G.n)))
        hits = np.ones(X.shape[0], dtype=bool)
        for i, cols in enumerate(G.support):
            y = np.zeros(X.shape[0])
            for j in cols:
                y = np.maximum(y, G.entries[i][j](X[:, j]))
            hits &= y >= X[:, i] * (1.0 - _WITNESS_SLACK)
            if not hits.any():
                break
        for k in np.flatnonzero(hits):
            x = X[k].copy()
            if np.all(gamma_apply(G, x) >= x):
                return x
    return None


def _cycle_witness(G: GainMatrix, cycle: Tuple[int, ...],
                   s: float) -> Optional[np.ndarray]:
    """Deterministic GAS-refuting vector built along a failing cycle.

    For a cycle (i1, ..., ir) whose composed gain reaches the identity at
    s: set x_{i1} = s and walk the cycle backwards, x_{ij} the composition
    of the remaining gains applied to s, one gain per position:
    x_{ir} = gamma_{ir i1}(s), x_{ij} = gamma_{ij i(j+1)}(x_{i(j+1)}).
    Verifies Gamma(x) >= x before returning.
    """
    r = len(cycle)
    x = np.zeros(G.n)
    x[cycle[0]] = v = s
    for j in range(r - 1, 0, -1):
        v = G.gain(cycle[j], cycle[(j + 1) % r])(v)
        x[cycle[j]] = v
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
    zero = Zero()
    rows = [[zero] * n for _ in range(n)]
    for item in d.get("gains", []):
        i, j = int(item["i"]) - 1, int(item["j"]) - 1
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"gain index out of range: {item}")
        rows[i][j] = gain_from_json(item["fn"])
    return GainMatrix(n, tuple(map(tuple, rows)))
