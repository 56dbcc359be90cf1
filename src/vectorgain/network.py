"""Gain matrices, the induced MAX-preserving map and the cyclic small-gain test.

A gain matrix holds one scalar gain per ordered pair of nodes and induces
the monotone map Gamma_i(x) = max_j gamma_ij(x_j) on the nonnegative
orthant.  It is stored as its support rows: the (j, gamma_ij) pairs of
each row i whose gain is not the Zero gain, so every pass over it costs
O(n + m) for m couplings.  Global asymptotic stability of the iteration
x -> Gamma(x) is equivalent to every composition of gains around every
simple cycle lying strictly below the identity.  A cycle through a zero
gain passes trivially, so only the elementary circuits of the support graph
(edge i -> j iff gamma_ij is not the Zero gain) are enumerated, as node
tuples, with Johnson's algorithm (SIAM J. Comput. 4(1), 1975).  A row's
gains are normalized once per matrix, when a circuit first reads the row,
so an acyclic matrix normalizes none.  The search hands out circuits
in depth-first order, so consecutive circuits share most of their path:
each circuit's normal form is folded from the fold of the path prefix it
shares with the circuit before it, and decided by the contraction rule of
:mod:`vectorgain.gains`, which composes the gains into a chain only when
no closed-form rule decides.

Up to ``_LIST_CAP`` circuits each one is listed with its verdict.  Above
it, a strongly connected component whose gains all collapse to ``Linear``
(or all to ``LogExpSq(0.5, .)``) composes by multiplying k (or th), so its
cycles all contract exactly when the maximum cycle mean of the log weights
is below 0.  Karp's algorithm (Discrete Math. 23(3), 1978) computes that
mean in O(n*m) time, and only one critical cycle per component is listed;
its two (c + 1) x c tables are capped at 2**30 bytes, so a component of
more than 8,191 nodes is a ValueError there.
If any component over the cap is not multiplicative, every circuit of
every component is listed.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .gains import (
    ARRAY_SLACK, ContractionVerdict, GainFn, GridSpec, Linear, LogExpSq,
    Zero, _chain_verdict, _collapse, _collapse_compose, gain_from_json,
    gain_to_json,
)
from .config import REQUIRED, array, integer, obj, read

__all__ = [
    "GainMatrix", "CycleVerdict", "SmallGainReport", "as_plus_vec",
    "gamma_apply", "q_operator", "support_circuits",
    "check_small_gain", "gas_witness_search", "matrix_to_json",
    "matrix_from_json", "MAX_NODES",
]

# most nodes matrix_from_json accepts
MAX_NODES = 1 << 20
_ZERO = Zero()

# sampled values (rows times n) per block of the GAS witness sampler
_WITNESS_BLOCK = 1 << 16
_VEC_ENTRIES = "vector entries must be finite and >= 0"
# most elementary circuits check_small_gain lists one verdict for each
_LIST_CAP = 10_000
# a maximum cycle mean within this of 0, relative to max(1, max |weight|),
# is a tie that the critical cycle's own contraction verdict decides
_MEAN_TIE = 1e-12
_CRITICAL_NOTE = (f"more than {_LIST_CAP} circuits: one critical cycle "
                  "per component listed")
# most bytes of Karp's two (c + 1) x c tables for a component of c nodes:
# 2**30 admits c up to 8,191
_KARP_MAX_BYTES = 1 << 30


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
    """n x n matrix of scalar gains, stored as its support rows.

    Row i holds the (j, gamma_ij) pairs of its nonzero couplings in
    ascending j; every other entry is the zero gain.  Storage, loading and
    every pass over the matrix cost O(n + m) for m couplings.  Diagonal
    entries are allowed to be nonzero (they matter for delay systems,
    where a subsystem feeds back through its own history).
    """

    n: int
    rows: Tuple[Tuple[Tuple[int, GainFn], ...], ...]

    def __post_init__(self):
        if self.n < 1 or len(self.rows) != self.n:
            raise ValueError(f"need n >= 1 and n rows, got n = {self.n}")
        for row in self.rows:
            prev = -1
            for j, g in row:
                if (not prev < j < self.n or isinstance(g, Zero)
                        or not isinstance(g, GainFn)):
                    raise ValueError("a row holds (j, gain) pairs, ascending in "
                                     "0 <= j < n, each gain a GainFn but not Zero")
                prev = j

    @staticmethod
    def from_entries(rows: Sequence[Sequence[GainFn]]) -> "GainMatrix":
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("entries must be an n x n grid of gains")
        return GainMatrix(len(rows), tuple(_row(enumerate(row)) for row in rows))

    @staticmethod
    def zeros(n: int) -> "GainMatrix":
        return GainMatrix(n, ((),) * n)

    def with_entry(self, i: int, j: int, g: GainFn) -> "GainMatrix":
        """Return a copy with entry (i, j) replaced (0-based indices)."""
        rows = list(self.rows)
        rows[i] = _row({**dict(rows[i]), j: g}.items())
        return GainMatrix(self.n, tuple(rows))

    def gain(self, i: int, j: int) -> GainFn:
        row = self.rows[i]
        # (j,) sorts just before (j, g): no gain is ever compared
        k = bisect.bisect_left(row, (j,))
        return row[k][1] if k < len(row) and row[k][0] == j else _ZERO

    @cached_property
    def support(self) -> Tuple[Tuple[int, ...], ...]:
        """The columns of each row, ascending: the successors of each node
        in the support graph."""
        return tuple(tuple(j for j, _ in row) for row in self.rows)

    @cached_property
    def _normal_rows(self) -> Dict[int, Dict[int, GainFn]]:
        """The rows that normal_row has made so far, by index."""
        return {}

    def normal_row(self, i: int) -> Dict[int, GainFn]:
        """Row i as {j: _collapse(gamma_ij)} over the support.  A row is
        normalized once per matrix, when it is first read, so rows that lie
        on no examined circuit are never normalized."""
        row = self._normal_rows.get(i)
        if row is None:
            row = self._normal_rows[i] = {j: _collapse(g)
                                          for j, g in self.rows[i]}
        return row


def _row(pairs: Iterable[Tuple[int, GainFn]]) -> Tuple[Tuple[int, GainFn], ...]:
    """Support row of (j, gain) pairs with distinct j: no Zero, ascending j."""
    return tuple(sorted([(j, g) for j, g in pairs if not isinstance(g, Zero)]))


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
    for row in G.rows:
        vals = [g._eval(xs[j]) for j, g in row]
        if not row or row[0][0] != 0:
            vals.insert(0, 0.0)
        out.append(max(vals))
    return out


def _gamma_block(G: GainMatrix, X: np.ndarray) -> Iterator[np.ndarray]:
    """Gamma's rows, max_j gamma_ij(X[j]), on the K columns of an (n, K)
    array, each made when asked for, so a caller can stop early.  Only the
    support entries are evaluated; a NaN gain value passes on."""
    for row in G.rows:
        y = np.zeros(X.shape[1])
        for j, g in row:
            y = np.maximum(y, g(X[j]))
        yield y


def q_operator(G: GainMatrix, x) -> np.ndarray:
    """MAX of the first n iterates {x, Gamma(x), ..., Gamma^(n-1)(x)}: the
    array wrapper of :func:`_q_step`, which steps on Python floats."""
    return np.array(_q_step(G, as_plus_vec(x, G.n).tolist()))


def _q_step(G: GainMatrix, xs: List[float]) -> List[float]:
    """Q on a list of n nonnegative finite Python floats (xs itself when
    n = 1).

    Each of the n - 1 Gamma steps is merged into the running MAX by
    np.maximum's rule, not max's: a NaN from either side passes on, and of
    equal values the second is kept, which decides the sign of a zero."""
    acc = cur = xs
    for _ in range(G.n - 1):
        cur = _gamma_step(G, cur)
        acc = [a if a > b or a != a else b for a, b in zip(acc, cur)]
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


def support_circuits(G: GainMatrix) -> Iterator[Tuple[int, ...]]:
    """Elementary circuits of the support graph, as node tuples.

    Yields the 0-based nodes of each circuit once, anchored at its smallest
    node.  Johnson's search runs on each strongly connected component from
    its smallest node, then on the components left without that node.  The
    depth-first search keeps an explicit stack, so long rings do not hit
    the recursion limit.  No gain is composed here: the consumer,
    _circuit_verdicts, folds each circuit's gains from the path prefix it
    shares with the circuit yielded before it.
    """
    succ = G.support
    todo = _cyclic_components(succ, set(range(G.n)))
    while todo:
        comp = todo.pop()
        s = min(comp)
        sub = {v: [w for w in succ[v] if w in comp] for v in comp}
        path = [s]
        closed = [False]
        blocked = {s}
        blockers: Dict[int, Set[int]] = {v: set() for v in comp}
        frames = [iter(sub[s])]
        while frames:
            v = path[-1]
            for w in frames[-1]:
                if w != s and w in blocked:
                    continue
                if w == s:
                    yield tuple(path)
                    closed[-1] = True
                    continue
                path.append(w)
                closed.append(False)
                blocked.add(w)
                frames.append(iter(sub[w]))
                break
            else:
                frames.pop()
                path.pop()
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
    # True when cycles holds one critical cycle per component, not every
    # circuit (more than _LIST_CAP circuits, all components multiplicative)
    critical_only: bool = False

    # the keys of an entry of to_json's "cycles", in sort_keys order; an
    # entry holds the last, "witness", only when its verdict has one
    ENTRY_KEYS = ("cycle", "detail", "status", "witness")

    @staticmethod
    def entry_values(cv: CycleVerdict) -> tuple:
        """The values of cv's "cycles" entry, by ENTRY_KEYS: the cycle's
        nodes 1-based, its detail, its status and its witness (None when
        the entry has none)."""
        v = cv.verdict
        return [i + 1 for i in cv.cycle], v.detail, v.status, v.witness

    def to_json(self) -> dict:
        entries = []
        for cv in self.cycles:
            values = self.entry_values(cv)
            if values[-1] is None:
                values = values[:-1]
            entries.append(dict(zip(self.ENTRY_KEYS, values)))
        return {"cycles": entries, **self.summary_json()}

    def summary_json(self) -> dict:
        """Every field of to_json but "cycles"."""
        out = {"holds": self.holds}
        if self.critical_only:
            out["cycles_listed"] = _CRITICAL_NOTE
        if self.failing_cycle is not None:
            out["failing_cycle"] = [i + 1 for i in self.failing_cycle]
            out["witness"] = self.witness
        return out

    def table(self) -> str:
        lines = [f"{'cycle':<16} {'status':<14} detail"]
        for cv in self.cycles:
            cyc = "(" + ",".join(str(i + 1) for i in cv.cycle) + ")"
            lines.append(f"{cyc:<16} {cv.verdict.status:<14} {cv.verdict.detail}")
        if self.critical_only:
            lines.append(f"note: {_CRITICAL_NOTE}")
        lines.append(f"overall: {'holds' if self.holds else 'REFUTED'}")
        return "\n".join(lines)


def _cycle_order(cv: CycleVerdict):
    """Length, then node set in combinations order, then rotation."""
    return len(cv.cycle), sorted(cv.cycle), cv.cycle


def _circuit_verdicts(G: GainMatrix, circuits: Iterable[Tuple[int, ...]],
                      grid: Optional[GridSpec]) -> Iterator[CycleVerdict]:
    """Verdict of the chain gamma_{c0 c1} o ... o gamma_{c(r-1) c0} of each
    circuit (c0, ..., c(r-1)), in the order given.

    The chain's normal form is the left fold, by _collapse_compose, of its
    edges' normal forms: the operands and order of check_contraction, so
    the verdict is check_contraction's.  The fold over each path edge is
    kept, and a circuit whose first k nodes are those of the circuit before
    it reuses the folds of their first k - 1 edges.  So it costs one
    _collapse_compose per new edge and one for the closing edge, and the
    depth-first order of support_circuits makes that about two per circuit.
    """
    normal_row = G.normal_row
    last: Tuple[int, ...] = ()
    folds: List[GainFn] = []  # folds[m]: normal form of the path's edges 0..m
    for cycle in circuits:
        shared = 0
        for u, v in zip(last, cycle):
            if u != v:
                break
            shared += 1
        del folds[max(shared - 1, 0):]
        for v, w in zip(cycle[len(folds):], cycle[len(folds) + 1:]):
            normal = normal_row(v)[w]
            folds.append(
                _collapse_compose(folds[-1], normal) if folds else normal)
        normal = normal_row(cycle[-1])[cycle[0]]
        if folds:
            normal = _collapse_compose(folds[-1], normal)
        # the raw gains are looked up only if the grid decides
        gains = map(G.gain, cycle, cycle[1:] + cycle[:1])
        yield CycleVerdict(cycle, _chain_verdict(normal, gains, grid))
        last = cycle


def _log_weights(G: GainMatrix, comp: Set[int]
                 ) -> Optional[Dict[Tuple[int, int], float]]:
    """ln k, or ln th, of each edge (v, w) inside comp when every entry
    there collapses to Linear(k), or every one to LogExpSq(0.5, th); a
    Zero normal form weighs -inf.  None for any other component."""
    weights: Dict[Tuple[int, int], float] = {}
    families = set()
    for v in comp:
        for w, g in G.normal_row(v).items():
            if w not in comp:
                continue
            if isinstance(g, Zero):
                weights[v, w] = -math.inf
            elif isinstance(g, Linear):
                families.add(Linear)
                weights[v, w] = math.log(g.k)
            elif isinstance(g, LogExpSq) and g.c == 0.5:
                families.add(LogExpSq)
                weights[v, w] = math.log(g.th)
            else:
                return None
    return weights if len(families) <= 1 else None


def _max_cycle_mean(weights: Dict[Tuple[int, int], float]
                    ) -> Tuple[float, Tuple[int, ...]]:
    """Maximum cycle mean of a strongly connected digraph, and a simple
    cycle attaining it, anchored at its smallest node.

    ``weights`` maps each edge (u, v) to its weight, -inf allowed.  With
    D_k(v) the largest weight of a walk of k edges that ends at v, the
    maximum mean over c nodes is max_v min_{k<c} (D_c(v) - D_k(v))/(c - k)
    (Karp, Discrete Math. 23(3), 1978), taken over the v with D_c(v)
    finite.  Every simple cycle on a heaviest c-edge walk to a maximizing v
    attains it; the first one met walking back is returned.  The mean is
    -inf when every cycle has a -inf edge, and the cycle then any cycle.
    A component whose tables would take more than _KARP_MAX_BYTES raises
    ValueError before they are allocated.
    """
    nodes = sorted({u for u, _ in weights})
    c = len(nodes)
    size = 2 * (c + 1) * c * 8
    if size > _KARP_MAX_BYTES:
        raise ValueError(
            f"a strongly connected component of c = {c} nodes is too large "
            f"for the maximum cycle mean: Karp's two tables would take "
            f"{size} bytes, more than {_KARP_MAX_BYTES}")
    pos = {v: i for i, v in enumerate(nodes)}
    edges = sorted(weights, key=lambda e: (pos[e[1]], pos[e[0]]))
    src = np.array([pos[u] for u, _ in edges])
    dst = np.array([pos[v] for _, v in edges])
    w = np.array([weights[e] for e in edges])
    ids = np.arange(len(edges))
    # edges grouped by head; each node of a strongly connected graph has one
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    D = np.zeros((c + 1, c))
    pred = np.zeros((c + 1, c), dtype=np.intp)
    for k in range(1, c + 1):
        vals = D[k - 1, src] + w
        D[k] = np.maximum.reduceat(vals, starts)
        best = np.where(vals == D[k, dst], ids, len(edges))
        pred[k] = src[np.minimum.reduceat(best, starts)]
    finite = np.flatnonzero(np.isfinite(D[c]))
    if finite.size:
        Df = D[:, finite]
        means = ((Df[c] - Df[:c]) / (c - np.arange(c))[:, None]).min(axis=0)
        lam, v = float(means.max()), int(finite[np.argmax(means)])
    else:
        lam, v = -math.inf, 0
    # pred[k, v] is the tail of the last edge of the heaviest k-edge walk
    # to v, so the walk back from (c, v) repeats a node within c steps
    seen: Dict[int, int] = {}
    back: List[int] = []
    k = c
    while v not in seen:
        seen[v] = len(back)
        back.append(v)
        v = int(pred[k, v])
        k -= 1
    cycle = [nodes[u] for u in reversed(back[seen[v]:])]
    m = cycle.index(min(cycle))
    return lam, tuple(cycle[m:] + cycle[:m])


def _critical_cycles(G: GainMatrix, grid: Optional[GridSpec]
                     ) -> Optional[List[CycleVerdict]]:
    """One critical cycle per cyclic component, with its contraction
    verdict, when every component is multiplicative; else None.

    The critical cycle's verdict is the component's: beyond the tie band
    it must agree with the sign of the maximum cycle mean, and None is
    returned where it does not (a product outside the float range can
    leave a cycle to the grid), so that the caller lists every circuit.
    """
    found = []
    for comp in _cyclic_components(G.support, set(range(G.n))):
        weights = _log_weights(G, comp)
        if weights is None:
            return None
        lam, cycle = _max_cycle_mean(weights)
        cv, = _circuit_verdicts(G, [cycle], grid)
        scale = max([1.0] + [abs(x) for x in weights.values() if x > -math.inf])
        if abs(lam) > _MEAN_TIE * scale and cv.holds != (lam < 0):
            return None
        found.append(cv)
    return found


def check_small_gain(G: GainMatrix, grid: Optional[GridSpec] = None) -> SmallGainReport:
    """Check every simple-cycle gain composition against the identity.

    One rotation per cycle suffices: for non-decreasing gains, a o b below
    the identity everywhere is equivalent to b o a below the identity
    everywhere.  Cycles through a zero gain pass trivially and are not
    listed.  The verdicts are ordered by cycle length, then node set, then
    rotation, and the failing cycle is the first refuted one in that order.

    A row's gains are normalized once per matrix, when a circuit first
    reads the row (GainMatrix.normal_row), and each circuit's normal form is folded from the prefix it shares with the circuit listed
    before it (_circuit_verdicts); its verdict is check_contraction's on its
    chain, which is composed only for the grid.  At most ``_LIST_CAP``
    (10,000) circuits are listed, and learning that a graph has more only
    counts node tuples: no circuit is folded.  Past that, when
    every cyclic component is multiplicative (all gains collapse to
    ``Linear``, or all to ``LogExpSq(0.5, .)``), each component is decided
    by the maximum cycle mean of its log weights (Karp): below 0 it holds,
    above 0 it fails, and within ``_MEAN_TIE`` of 0 the left-fold
    contraction verdict of its critical cycle decides.  ``cycles`` then
    holds that critical cycle alone per component and ``critical_only`` is
    set.  Otherwise, or where a critical cycle's verdict disagrees with
    the sign of its mean, every circuit of every component is listed.
    """
    circuits = support_circuits(G)
    head = list(itertools.islice(circuits, _LIST_CAP + 1))
    critical = _critical_cycles(G, grid) if len(head) > _LIST_CAP else None
    verdicts = sorted(
        critical if critical is not None else
        _circuit_verdicts(G, itertools.chain(head, circuits), grid),
        key=_cycle_order)
    failing = next((cv for cv in verdicts if not cv.holds), None)
    return SmallGainReport(
        holds=failing is None, cycles=tuple(verdicts),
        failing_cycle=None if failing is None else failing.cycle,
        witness=None if failing is None else failing.verdict.witness,
        critical_only=critical is not None)


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
        for i, y in enumerate(_gamma_block(G, X.T)):
            hits &= y >= X[:, i] * (1.0 - ARRAY_SLACK)
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
    Verifies Gamma(x) >= x before returning; None once an entry overflows.
    """
    r = len(cycle)
    x = np.zeros(G.n)
    x[cycle[0]] = v = s
    for j in range(r - 1, 0, -1):
        v = G.gain(cycle[j], cycle[(j + 1) % r])(v)
        if not math.isfinite(v):
            return None
        x[cycle[j]] = v
    if np.any(x > 0) and np.all(gamma_apply(G, x) >= x):
        return x
    return None


def matrix_to_json(G: GainMatrix) -> dict:
    """Serialize with 1-based indices; zero entries are omitted."""
    return {"n": G.n, "gains": [{"i": i + 1, "j": j + 1, "fn": gain_to_json(g)}
                                for i, row in enumerate(G.rows)
                                for j, g in row]}


# the config tables of a gain matrix and of one of its entries
_MATRIX = (("n", integer, REQUIRED), ("gains", array, ()))
_ENTRY = (("i", integer, REQUIRED), ("j", integer, REQUIRED),
          ("fn", obj, REQUIRED))


def matrix_from_json(d: dict) -> GainMatrix:
    """Parse {"n": n, "gains": [{"i", "j", "fn"}, ...]} with 1-based indices
    and 1 <= n <= MAX_NODES; a later entry for (i, j) replaces an earlier
    one, and a zero gain removes it.  n, i and j must be JSON integers: a
    float, a string or a bool is rejected, not truncated.  An entry's
    indices are checked before its gain is read."""
    m = read(d, _MATRIX, "gain matrix")
    n = m["n"]
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"matrix dimension must be 1 to {MAX_NODES}, got {n}")
    rows: Dict[int, Dict[int, GainFn]] = {}
    for item in m["gains"]:
        i, j, fn = read(item, _ENTRY, "gain entry").values()
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"gain index out of range: i = {i}, "
                             f"j = {j} with n = {n}")
        g = gain_from_json(fn)
        row = rows.setdefault(i - 1, {})
        if isinstance(g, Zero):
            row.pop(j - 1, None)
        else:
            row[j - 1] = g
    # each row holds no Zero, so it is its entries in ascending j
    return GainMatrix(n, tuple(tuple(sorted(rows[i].items())) if i in rows
                               else () for i in range(n)))
