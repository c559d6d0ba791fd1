"""Conductance, exact k-way Cheeger constants, and signed variants.

One exact engine answers each graph size:

* Up to n = 15 unsigned and n = 14 signed, a subset dynamic program over
  vertex bitmasks (:func:`rho_profile` / :func:`rho_signed_profile`)
  returns certificates for every k = 1..kmax at once.  Level 1 is a
  subset-min transform, O(n 2^n); each middle level 2..kmax-1 is one
  O(3^n) pass over a (mask, part) pair table that depends only on n; the
  top level is evaluated only at the n suffix masks its reconstruction
  reads, O(2^n).  Small pair tables are cached per n, larger ones are
  built chunk by chunk within one memory budget, in a single pass per
  call.  :func:`rho_exact` / :func:`rho_signed_exact` answer a single k
  from it.
* Beyond those sizes, :func:`rho_exact` / :func:`rho_signed_exact` run a
  depth-first search over canonical label assignments with
  branch-and-bound pruning and a state budget.  Labels are canonicalized
  so that part j+1 can only appear after part j (and, in the signed case,
  side 1 of a pair before side 2), which collapses part-permutation
  symmetry.

The DFS engines score candidates through the same canonical per-set
evaluation as :func:`conductance` / :func:`beta_signed` (terms accumulated
in stored-edge order, measures in ascending vertex order), so their optima
agree to the last bit with a naive enumeration that scores the same way.
The unsigned DP selects among the same subset table with min/max only, so
it agrees bit for bit too.  The signed DP tabulates splits through
per-vertex sums and agrees within SIGNED_PROFILE_TOL.  Every DP table
entry it computes and every certificate is bit-identical to the textbook
loop kept in the test suite; DP certificates break ties among optimal
tuples by the DP's scan order, which can differ from the DFS's
lexicographic choice.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import WeightedGraph, require_valid
from .nodal import strong_nodal

_MAX_SEARCH_N = 20   # bitmask tables; exhaustive search is hopeless beyond this anyway

# Size policy of the all-k profile DPs.  The signed split tabulation costs
# about n DP levels on top of the packing DP, so its limit sits one lower.
_MAX_DP_N = 15
_MAX_SIGNED_DP_N = 14


def _dp_answers(n: int, signed: bool) -> bool:
    """Whether the profile DP, rather than the search, answers size n."""
    return n <= (_MAX_SIGNED_DP_N if signed else _MAX_DP_N)


# Memory budget (bytes) for the pair-indexed arrays of one profile call.
# The pair table holds two native index arrays (numpy gathers three times
# slower through int32 indices), 16 bytes a pair.  A table that fits in half
# the budget (n <= 10) is built once per n and cached; a larger one is built
# chunk by chunk on every call, once per call.  Work arrays are built per
# chunk of masks whose pairs fit in half the budget at the bytes per pair
# below (peak use measured with tracemalloc, a built table's share included).
_PAIR_BUDGET = 2 << 20
_DP_PAIR_BYTES = 64
_SPLIT_PAIR_BYTES = 96

# The signed profile sums beta's terms per vertex rather than per edge, so
# its values agree with beta_signed and the signed DFS to within this.
SIGNED_PROFILE_TOL = 1e-12

# Pruning guard: a branch is cut only when its lower bound beats the
# incumbent by this relative margin.  Leaf scores and bound arithmetic
# round independently at ~1e-16, so without the guard a branch whose exact
# bound ties the incumbent could hide a leaf that *evaluates* one ulp
# better, breaking exact agreement with unpruned enumeration.
_PRUNE_EPS = 1e-12


def _prune_margin(incumbent: float) -> float:
    return incumbent + _PRUNE_EPS * max(1.0, incumbent)


@dataclass(frozen=True)
class SearchBudget:
    """State budget of the branch-and-bound searches (graphs beyond the DP sizes)."""

    max_states: int = 200_000_000

    def __post_init__(self):
        m = self.max_states
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ValueError(f"max_states must be an integer >= 1, got {m!r}")


class BudgetExceededError(RuntimeError):
    """Search state budget ran out; carries the best certificate found so far."""

    def __init__(self, states: int, best: "PartitionCertificate | None"):
        self.states = states
        self.best = best
        msg = f"search budget exhausted after {states} states"
        if best is not None:
            msg += f"; best upper bound so far: {best.value}"
        super().__init__(msg)


@dataclass(frozen=True)
class PartitionCertificate:
    """Witness for a k-way (signed) Cheeger value.

    Unsigned: `parts` holds k disjoint nonempty vertex sets and `value` is
    the max conductance over them.  Signed: `parts` holds 2k sets, pair
    (parts[2i], parts[2i+1]) being the ordered sub-bipartition (V1, V2),
    and `value` is the max of beta over the pairs.  `exact` is False for
    upper-bound certificates (budget overflow, nodal sweeps).  `states`
    counts DFS states, or for a DP certificate the inner iterations of the
    textbook recurrence (:func:`_dp_iterations`), which is not the work
    the DP does.
    """

    k: int
    value: float
    parts: tuple[tuple[int, ...], ...]
    signed: bool = False
    exact: bool = True
    states: int = 0

    def recompute(self, g: WeightedGraph) -> float:
        if self.signed:
            vals = [
                beta_signed(g, self.parts[2 * i], self.parts[2 * i + 1])
                for i in range(self.k)
            ]
        else:
            vals = [conductance(g, p) for p in self.parts]
        return max(vals)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "value": self.value,
            "parts": [list(p) for p in self.parts],
            "signed": self.signed,
            "exact": self.exact,
            "states": self.states,
        }


# ---------------------------------------------------------------------------
# canonical per-set evaluation

def conductance(g: WeightedGraph, subset) -> float:
    """Phi(A): cut weight leaving A divided by mu(A).  A must be nonempty."""
    require_valid(g)
    if g.is_signed():
        raise ValueError("conductance is defined for unsigned graphs")
    member = np.zeros(g.n, dtype=bool)
    for v in subset:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        member[v] = True
    if not member.any():
        raise ValueError("conductance of the empty set is undefined")
    cut = 0.0
    for e in g.edges:
        if member[e.u] != member[e.v]:
            cut += e.w
    mu_sum = 0.0
    for v in range(g.n):
        if member[v]:
            mu_sum += g.mu[v]
    return cut / mu_sum


def beta_signed(g: WeightedGraph, v1, v2) -> float:
    """Signed bipartiteness ratio beta(V1, V2).

    Numerator: 2|E+(V1,V2)| + |E-(V1)| + |E-(V2)| + |boundary(V1 u V2)|,
    where |E+-(S,T)| double-sums over ordered pairs (so an internal edge
    counts twice); denominator: mu(V1 u V2).  V1, V2 must be disjoint with
    nonempty union; either one may be empty.
    """
    require_valid(g)
    in1 = np.zeros(g.n, dtype=bool)
    in2 = np.zeros(g.n, dtype=bool)
    for v in v1:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        in1[v] = True
    for v in v2:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        if in1[v]:
            raise ValueError("V1 and V2 must be disjoint")
        in2[v] = True
    if not (in1.any() or in2.any()):
        raise ValueError("V1 and V2 cannot both be empty")
    return _beta_eval(g, in1, in2)


def _beta_eval(g: WeightedGraph, in1: np.ndarray, in2: np.ndarray) -> float:
    # Accumulation order (edges as stored, then vertices ascending) is the
    # canonical one shared with the naive enumeration oracle.
    ep = 0.0
    em = 0.0
    bnd = 0.0
    for e in g.edges:
        a1, b1 = in1[e.u], in1[e.v]
        a2, b2 = in2[e.u], in2[e.v]
        if e.sigma > 0 and ((a1 and b2) or (a2 and b1)):
            ep += e.w
        if e.sigma < 0 and ((a1 and b1) or (a2 and b2)):
            em += 2.0 * e.w
        if (a1 or a2) != (b1 or b2):
            bnd += e.w
    mu_sum = 0.0
    for v in range(g.n):
        if in1[v] or in2[v]:
            mu_sum += g.mu[v]
    return (2.0 * ep + em + bnd) / mu_sum


def phi_table(g: WeightedGraph) -> list[float]:
    """Phi for every nonempty vertex subset, indexed by bitmask.

    Entry 0 is +inf.  Accumulates each edge in canonical order, matching
    :func:`conductance` bit for bit.
    """
    return _phi_array(g).tolist()


def _phi_array(g: WeightedGraph) -> np.ndarray:
    n = g.n
    if n > _MAX_SEARCH_N:
        raise ValueError(f"subset table limited to n <= {_MAX_SEARCH_N} (got {n})")
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    cut = np.zeros(size)
    for e in g.edges:
        cut += e.w * (((idx >> e.u) ^ (idx >> e.v)) & 1)
    mu_sum = np.zeros(size)
    for v in range(n):
        mu_sum += g.mu[v] * ((idx >> v) & 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = cut / mu_sum
    phi[0] = math.inf
    return phi


# ---------------------------------------------------------------------------
# exact rho_k: the profile DP within its size limit, the DFS beyond it

class _Overflow(Exception):
    pass


def _parts_from_masks(masks: list[int], n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for m in masks:
        out.append(tuple(v for v in range(n) if (m >> v) & 1))
    return tuple(out)


def rho_exact(g: WeightedGraph, k: int, budget: SearchBudget | None = None) -> PartitionCertificate:
    """Exact k-way Cheeger constant with a witness tuple.

    Minimizes max_i Phi(A_i) over all tuples of k pairwise-disjoint
    nonempty vertex sets (the sets need not cover V).  Up to n = 15 this is
    certificate k of :func:`rho_profile`: the budget is not consulted,
    `states` counts the textbook recurrence's iterations and ties follow
    the DP's scan order.  Beyond that the budgeted branch-and-bound search
    runs, and raises BudgetExceededError, carrying the best certificate
    found so far (flagged inexact), when the budget runs out.
    """
    require_valid(g)
    if g.is_signed():
        raise ValueError("rho_exact needs an unsigned graph; see rho_signed_exact")
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if _dp_answers(n, signed=False):
        return rho_profile(g, k)[-1]
    return _search(g, k, budget)


def _search(g: WeightedGraph, k: int, budget: SearchBudget | None = None) -> PartitionCertificate:
    """rho_k by canonical branch-and-bound DFS (arguments already checked).

    The DFS assigns vertices in order to labels {0 (unassigned), 1..k};
    label j+1 may first appear only after label j.  A branch is pruned when
    some partial part already satisfies  cross-cut(A_i) / (mu(A_i) +
    mu(unassigned)) >= incumbent, where cross-cut counts edges to other
    parts (permanently cut) and mu(unassigned) is the measure not yet in
    any part.  Among optimal tuples, the lexicographically smallest
    canonical assignment wins.
    """
    n = g.n
    budget = budget or SearchBudget()
    phi = phi_table(g)
    mu = list(g.mu)
    mu_total = 0.0
    for x in mu:
        mu_total += x
    adj_lo: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for e in g.edges:
        adj_lo[e.v].append((e.u, e.w))

    label = [0] * n
    part_mask = [0] * (k + 1)
    part_mu = [0.0] * (k + 1)
    cross = [0.0] * (k + 1)
    best_val = math.inf
    best_masks: list[int] | None = None
    states = 0
    max_states = budget.max_states

    def dfs(v: int, t: int) -> None:
        nonlocal states, best_val, best_masks
        states += 1
        if states > max_states:
            raise _Overflow
        if v == n:
            if t == k:
                val = phi[part_mask[1]]
                for i in range(2, k + 1):
                    pv = phi[part_mask[i]]
                    if pv > val:
                        val = pv
                if val < best_val:
                    best_val = val
                    best_masks = part_mask[1 : k + 1].copy()
            return
        if t + (n - v) < k:
            return
        dfs(v + 1, t)  # label 0: leave v out of every part
        top = t + 1 if t < k else t
        bit = 1 << v
        for a in range(1, top + 1):
            t2 = t + 1 if a == t + 1 else t
            label[v] = a
            part_mask[a] |= bit
            part_mu[a] += mu[v]
            hits = []
            for u, w in adj_lo[v]:
                lu = label[u]
                if lu > 0 and lu != a:
                    cross[a] += w
                    cross[lu] += w
                    hits.append((lu, w))
            assigned_mu = 0.0
            for i in range(1, t2 + 1):
                assigned_mu += part_mu[i]
            mu_un = mu_total - assigned_mu
            threshold = _prune_margin(best_val)
            pruned = False
            for i in range(1, t2 + 1):
                if cross[i] >= threshold * (part_mu[i] + mu_un):
                    pruned = True
                    break
            if not pruned:
                dfs(v + 1, t2)
            for lu, w in hits:
                cross[a] -= w
                cross[lu] -= w
            part_mu[a] -= mu[v]
            part_mask[a] ^= bit
            label[v] = 0

    overflowed = False
    try:
        dfs(0, 0)
    except _Overflow:
        overflowed = True

    if best_masks is None:
        if overflowed:
            raise BudgetExceededError(states, None)
        raise AssertionError("search finished without a feasible tuple")
    cert = PartitionCertificate(
        k=k,
        value=best_val,
        parts=_parts_from_masks(best_masks, n),
        signed=False,
        exact=not overflowed,
        states=states,
    )
    if overflowed:
        raise BudgetExceededError(states, cert)
    return cert


# ---------------------------------------------------------------------------
# exact signed rho_k: the same split

def rho_signed_exact(g: WeightedGraph, k: int, budget: SearchBudget | None = None) -> PartitionCertificate:
    """Exact k-way signed Cheeger constant over k-sub-bipartitions.

    Up to n = 14 this is certificate k of :func:`rho_signed_profile`
    (within SIGNED_PROFILE_TOL of the canonical beta evaluation; the budget
    is not consulted, `states` counts the textbook recurrence's iterations
    and ties follow the DP's scan order).  Beyond that the budgeted
    branch-and-bound search runs, with the overflow behaviour of
    :func:`rho_exact`.
    """
    require_valid(g)
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if n > _MAX_SEARCH_N:
        raise ValueError(f"search limited to n <= {_MAX_SEARCH_N} (got {n})")
    if _dp_answers(n, signed=True):
        return rho_signed_profile(g, k)[-1]
    return _signed_search(g, k, budget)


def _signed_search(g: WeightedGraph, k: int, budget: SearchBudget | None = None) -> PartitionCertificate:
    """rho^sigma_k by canonical branch-and-bound DFS (arguments already checked).

    Assignments map each vertex to 0 (out) or to (pair i, side s); pair
    unions must be disjoint and nonempty.  Canonical order: pairs are
    numbered by first-touched vertex and side 1 of a pair is touched before
    side 2.  Pruning uses the irrevocable part of each pair's numerator
    (positive edges across the pair's sides, negative edges inside a side,
    and boundary edges to other pairs or to permanently-unassigned
    vertices) over mu(U_i) + mu(unassigned).
    """
    n = g.n
    budget = budget or SearchBudget()
    mu = list(g.mu)
    mu_total = 0.0
    for x in mu:
        mu_total += x
    adj_lo: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
    for e in g.edges:
        adj_lo[e.v].append((e.u, e.w, e.sigma))

    label = [0] * n  # 0, or 2i-1 / 2i for pair i's side 1 / side 2
    locked = [0.0] * (k + 1)
    pair_mu = [0.0] * (k + 1)
    best_val = math.inf
    best_labels: list[int] | None = None
    states = 0
    max_states = budget.max_states

    def leaf_value() -> float:
        val = -math.inf
        for i in range(1, k + 1):
            in1 = np.zeros(n, dtype=bool)
            in2 = np.zeros(n, dtype=bool)
            for v in range(n):
                if label[v] == 2 * i - 1:
                    in1[v] = True
                elif label[v] == 2 * i:
                    in2[v] = True
            b = _beta_eval(g, in1, in2)
            if b > val:
                val = b
        return val

    def dfs(v: int, t: int) -> None:
        nonlocal states, best_val, best_labels
        states += 1
        if states > max_states:
            raise _Overflow
        if v == n:
            if t == k:
                val = leaf_value()
                if val < best_val:
                    best_val = val
                    best_labels = label.copy()
            return
        if t + (n - v) < k:
            return
        dfs(v + 1, t)
        top = 2 * t + 1 if t < k else 2 * t
        for a in range(1, top + 1):
            pi = (a + 1) // 2
            t2 = t + 1 if a == 2 * t + 1 else t
            label[v] = a
            pair_mu[pi] += mu[v]
            hits = []
            for u, w, s in adj_lo[v]:
                lu = label[u]
                if lu == 0:
                    # u < v, so u's label-0 choice is final: this edge stays
                    # in the boundary of pair pi forever.
                    locked[pi] += w
                    hits.append((pi, w))
                    continue
                pu = (lu + 1) // 2
                if pu == pi:
                    same_side = (lu % 2) == (a % 2)
                    if same_side and s < 0:
                        locked[pi] += 2.0 * w
                        hits.append((pi, 2.0 * w))
                    elif not same_side and s > 0:
                        locked[pi] += 2.0 * w
                        hits.append((pi, 2.0 * w))
                else:
                    locked[pi] += w
                    locked[pu] += w
                    hits.append((pi, w))
                    hits.append((pu, w))
            assigned_mu = 0.0
            for i in range(1, t2 + 1):
                assigned_mu += pair_mu[i]
            mu_un = mu_total - assigned_mu
            threshold = _prune_margin(best_val)
            pruned = False
            for i in range(1, t2 + 1):
                if locked[i] >= threshold * (pair_mu[i] + mu_un):
                    pruned = True
                    break
            if not pruned:
                dfs(v + 1, t2)
            for i, w in hits:
                locked[i] -= w
            pair_mu[pi] -= mu[v]
            label[v] = 0

    overflowed = False
    try:
        dfs(0, 0)
    except _Overflow:
        overflowed = True

    if best_labels is None:
        if overflowed:
            raise BudgetExceededError(states, None)
        raise AssertionError("search finished without a feasible sub-bipartition")
    parts = []
    for i in range(1, k + 1):
        parts.append(tuple(v for v in range(n) if best_labels[v] == 2 * i - 1))
        parts.append(tuple(v for v in range(n) if best_labels[v] == 2 * i))
    cert = PartitionCertificate(
        k=k,
        value=best_val,
        parts=tuple(parts),
        signed=True,
        exact=not overflowed,
        states=states,
    )
    if overflowed:
        raise BudgetExceededError(states, cert)
    return cert


# ---------------------------------------------------------------------------
# all-k profiles by subset dynamic programming
#
# Both profiles run over the (mask, part) pairs of the n-vertex bitmasks:
# for every nonempty mask, the parts a = low | sub where low is the mask's
# lowest vertex and sub runs over the submasks of mask ^ low in descending
# order.  That is (3^n - 1) / 2 pairs.  Masks are laid out by popcount, then
# by value, and each mask's parts form one contiguous segment, so the masks
# with at least j vertices are a suffix of the layout.

@dataclass(frozen=True)
class _MaskOrder:
    masks: np.ndarray   # nonempty masks by popcount, then value
    start: np.ndarray   # pair offset of each mask's segment; start[-1] = pair count
    first: np.ndarray   # first[p]: position in `masks` of the first mask with >= p vertices
    index: np.ndarray   # position of every mask in `masks` (entry 0 unused)


@lru_cache(maxsize=None)
def _mask_order(n: int) -> _MaskOrder:
    """The mask layout of n (O(2^n), cached; the arrays are read-only)."""
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    pc = np.zeros(size, dtype=np.int64)
    for v in range(n):
        pc += (idx >> v) & 1
    masks = np.argsort(pc, kind="stable")[1:]
    start = np.zeros(size, dtype=np.int64)
    np.cumsum(np.left_shift(1, pc[masks] - 1), out=start[1:])
    first = np.searchsorted(pc[masks], np.arange(n + 2))
    index = np.zeros(size, dtype=np.int64)
    index[masks] = np.arange(size - 1)
    for a in (masks, start, first, index):
        a.flags.writeable = False
    return _MaskOrder(masks=masks, start=start, first=first, index=index)


def _build_pairs(order: _MaskOrder, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(parts, rests) of the segments of order.masks[lo:hi], as index arrays.

    Each popcount group fills one (masks, 2^(p-1)) block of the output in
    place, by doubling from the right over the mask's vertices above its
    lowest, lowest first: the copy with the new vertex goes to the left of
    the current columns, which keeps every row descending.
    """
    base = order.start[lo]
    parts = np.empty(order.start[hi] - base, dtype=np.intp)
    rests = np.empty_like(parts)
    cuts = [lo] + [c for c in order.first.tolist() if lo < c < hi] + [hi]
    for g_lo, g_hi in zip(cuts, cuts[1:]):
        group = order.masks[g_lo:g_hi, None]
        o0, o1 = order.start[g_lo] - base, order.start[g_hi] - base
        block = parts[o0:o1].reshape(len(group), -1)
        width = block.shape[1]
        low = group & -group
        block[:, -1:] = low
        left = group ^ low
        w = 1
        while w < width:
            bit = left & -left
            np.bitwise_or(block[:, width - w :], bit, out=block[:, width - 2 * w : width - w])
            left ^= bit
            w *= 2
        np.bitwise_xor(group, block, out=rests[o0:o1].reshape(block.shape))
    return parts, rests


@lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The whole pair table of n (read-only), or None when it exceeds half the budget."""
    if 16 * ((3**n - 1) // 2) > _PAIR_BUDGET // 2:
        return None
    order = _mask_order(n)
    table = _build_pairs(order, 0, len(order.masks))
    for a in table:
        a.flags.writeable = False
    return table


def _pairs(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of order.masks[lo:hi]: views of the cached table, or built afresh."""
    table = _pair_table(n)
    if table is None:
        return _build_pairs(_mask_order(n), lo, hi)
    start = _mask_order(n).start
    p0, p1 = start[lo], start[hi]
    return table[0][p0:p1], table[1][p0:p1]


def _segment(n: int, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """(parts, rests) of one mask's segment: a view of the cached table, or
    built directly by _build_pairs' doubling when n has no cached table."""
    if _pair_table(n) is not None:
        i = int(_mask_order(n).index[mask])
        return _pairs(n, i, i + 1)
    low = mask & -mask
    left = mask ^ low
    parts = np.empty(1 << left.bit_count(), dtype=np.intp)
    end = len(parts)
    parts[-1] = low
    w = 1
    while left:
        bit = left & -left
        np.bitwise_or(parts[end - w :], bit, out=parts[end - 2 * w : end - w])
        left ^= bit
        w *= 2
    return parts, mask ^ parts


def _chunks(n: int, lo: int, end: int, pair_bytes: int):
    """Yield (lo, hi, parts, rests) over order.masks[lo:end] in mask ranges of
    at most half the budget at `pair_bytes` per pair (one mask at least)."""
    order = _mask_order(n)
    cap = _PAIR_BUDGET // 2 // pair_bytes
    while lo < end:
        hi = int(np.searchsorted(order.start, order.start[lo] + cap, side="right")) - 1
        hi = min(max(hi, lo + 1), end)
        yield (lo, hi) + _pairs(n, lo, hi)
        lo = hi


def _dp_iterations(n: int, kmax: int) -> int:
    """Inner iterations of the textbook loop over the same recurrence:
    every pair of every mask with at least j vertices, for j = 1..kmax.

    This counts the recurrence, not the work done: the engine computes
    level 1 by a transform and the top level at n masks only.
    """
    return sum((math.comb(n, p) << (p - 1)) * min(p, kmax) for p in range(1, n + 1))


def _packing_dp(score: np.ndarray, n: int, kmax: int) -> list[np.ndarray]:
    """min over j disjoint nonempty subsets of max score, for every j <= kmax.

    dp[j][mask] restricts all parts to live inside `mask`.  Either the
    mask's lowest vertex stays out, dp[j][mask ^ low], or it lies in a part
    a of the mask's segment, max(score[a], dp[j-1][mask ^ a]); dp[j][mask]
    is the least of these.  With dp[0] = -inf, level 1 is the least score
    over the nonempty submasks of the mask: a subset-min transform folds,
    for each vertex v, the half of the table without v into the half with
    it.  Levels 2..kmax read only smaller popcount groups, so one pass over
    the groups in increasing popcount fills them: each chunk of a group
    gathers score[parts] once and runs levels 2..min(p, kmax).  Only min
    and max select among table values, so every entry is exact.
    """
    dp = np.full((kmax + 1, 1 << n), math.inf)
    dp[0] = -math.inf
    if kmax == 0:
        return list(dp)
    level1 = dp[1]
    level1[1:] = score[1:]
    for v in range(n):
        halves = level1.reshape(-1, 2, 1 << v)
        np.minimum(halves[:, 1], halves[:, 0], out=halves[:, 1])
    if kmax == 1:
        return list(dp)
    order = _mask_order(n)
    for p in range(2, n + 1):
        for lo, hi, parts, rests in _chunks(n, int(order.first[p]), int(order.first[p + 1]), _DP_PAIR_BYTES):
            masks = order.masks[lo:hi]
            without_low = masks ^ (masks & -masks)
            sc = score[parts].reshape(len(masks), -1)
            rests = rests.reshape(sc.shape)
            for j in range(2, min(p, kmax) + 1):
                cand = dp[j - 1][rests]
                np.maximum(cand, sc, out=cand)
                best = cand.min(axis=1)
                np.minimum(best, dp[j][without_low], out=best)
                dp[j][masks] = best
    return list(dp)


def _profile_tables(score: np.ndarray, n: int, kmax: int) -> list[np.ndarray]:
    """The tables `_reconstruct` reads for every k = 1..kmax.

    Levels 0..kmax-1 are :func:`_packing_dp`'s full tables.  Level kmax
    is read only at the suffix masks V_i = {i..n-1}: from the full mask,
    reconstruction either drops the lowest vertex (V_i to V_{i+1}) or takes
    a part and goes down a level.  So level kmax is filled by the same
    recurrence at the V_i with at least kmax vertices, from the top down;
    every other entry is inf (at the shorter V_i that is the true value).
    """
    dp_all = _packing_dp(score, n, kmax - 1)
    prev = dp_all[-1]
    top = np.full(1 << n, math.inf)
    full = (1 << n) - 1
    best = math.inf
    for i in range(n - kmax, -1, -1):
        mask = full >> i << i
        parts, rests = _segment(n, mask)
        cand = np.maximum(score[parts], prev[rests])
        best = min(best, float(cand.min()))
        top[mask] = best
    dp_all.append(top)
    return dp_all


def _reconstruct(dp_all: list[np.ndarray], score: np.ndarray, n: int, k: int) -> list[int]:
    """Parts of an optimal k-packing, walking the tables back from the full mask.

    At each mask the lowest vertex stays out if that keeps the value;
    otherwise the first part of the mask's segment that attains it is taken.
    """
    parts = []
    mask = (1 << n) - 1
    j = k
    while j > 0:
        if mask == 0:
            raise AssertionError("packing reconstruction ran out of vertices")
        dp = dp_all[j]
        low = mask & -mask
        if dp[mask ^ low] == dp[mask]:
            mask ^= low
            continue
        seg, rests = _segment(n, mask)
        cand = np.maximum(score[seg], dp_all[j - 1][rests])
        a = int(seg[np.argmax(cand == dp[mask])])
        parts.append(a)
        mask ^= a
        j -= 1
    return parts


def rho_profile(g: WeightedGraph, kmax: int | None = None) -> tuple[PartitionCertificate, ...]:
    """Exact rho_k certificates for every k = 1..kmax in one subset DP.

    Same optima as :func:`rho_exact` (cross-checked in the test suite).
    The DP runs in numpy (:func:`_profile_tables`): level 1 by a subset-min
    transform, levels 2..kmax-1 over the (mask, part) pair table, chunked
    by mask range within a fixed memory budget, and level kmax at the n
    suffix masks only.  Every value is a Phi-table entry chosen by min/max
    only, so it is bit-identical to the textbook loop
    (``tests/brute.py``).  Certificates are rebuilt by
    rescanning each mask's parts on the optimal path; they follow the DP's
    own tie-break (first optimal part in scan order), not the DFS
    lexicographic rule.  Limited to n <= 15.
    """
    require_valid(g)
    if g.is_signed():
        raise ValueError("rho_profile needs an unsigned graph; see rho_signed_profile")
    n = g.n
    if not _dp_answers(n, signed=False):
        raise ValueError(f"profile DP limited to n <= {_MAX_DP_N} (got {n})")
    kmax = n if kmax is None else kmax
    if not 1 <= kmax <= n:
        raise ValueError(f"kmax must be in [1, {n}]")
    phi = _phi_array(g)
    dp_all = _profile_tables(phi, n, kmax)
    states = _dp_iterations(n, kmax)
    full = (1 << n) - 1
    certs = []
    for k in range(1, kmax + 1):
        masks = _reconstruct(dp_all, phi, n, k)
        parts = sorted(_parts_from_masks(masks, n))
        certs.append(
            PartitionCertificate(
                k=k,
                value=float(dp_all[k][full]),
                parts=tuple(parts),
                signed=False,
                exact=True,
                states=states,
            )
        )
    return tuple(certs)


@dataclass(frozen=True)
class _SignedTables:
    betamin: np.ndarray
    split: np.ndarray  # V1 bitmask realizing betamin per union mask


def _signed_tables(g: WeightedGraph) -> _SignedTables:
    """Least beta over the splits (V1, V2) of every union mask U.

    V1 runs over U's segment (it holds U's lowest vertex) and V2 = U ^ V1.
    beta's terms are summed per member of U in ascending order, through
    per-vertex tables of edge weight into each mask; the other vertices add
    an exact 0.0 (False times a finite weight).  Among equal splits the
    first in scan order is kept.
    """
    n = g.n
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    wplus = np.zeros((n, size))
    wminus = np.zeros((n, size))
    wall = np.zeros((n, size))
    for e in g.edges:
        for v, u in ((e.u, e.v), (e.v, e.u)):
            ind = (idx >> u) & 1
            wall[v] += e.w * ind
            (wplus if e.sigma > 0 else wminus)[v] += e.w * ind
    deg = g.degrees()
    mu_u = np.zeros(size)
    bnd = np.zeros(size)
    for v in range(n):
        inside = (idx & (1 << v)) != 0
        np.add(mu_u, g.mu[v], out=mu_u, where=inside)
        np.add(bnd, deg[v] - wall[v], out=bnd, where=inside)

    order = _mask_order(n)
    betamin = np.full(size, math.inf)
    split = np.zeros(size, dtype=np.int64)
    for lo, hi, m1, m2 in _chunks(n, 0, len(order.masks), _SPLIT_PAIR_BYTES):
        ep = np.zeros(len(m1))
        em = np.zeros(len(m1))
        for v in range(n):
            in1 = (m1 & (1 << v)) != 0
            in_u = in1 | ((m2 & (1 << v)) != 0)
            ep += in1 * wplus[v][m2]
            em += in_u * wminus[v][np.where(in1, m1, m2)]
        umask = m1 | m2
        beta = (2.0 * ep + em + bnd[umask]) / mu_u[umask]
        seg = order.start[lo:hi] - order.start[lo]
        best = np.minimum.reduceat(beta, seg)
        hits = np.flatnonzero(beta == np.repeat(best, np.diff(order.start[lo : hi + 1])))
        masks = order.masks[lo:hi]
        betamin[masks] = best
        split[masks] = m1[hits[np.searchsorted(hits, seg)]]
    return _SignedTables(betamin=betamin, split=split)


def rho_signed_profile(g: WeightedGraph, kmax: int | None = None) -> tuple[PartitionCertificate, ...]:
    """Exact signed rho^sigma_k certificates for every k = 1..kmax.

    First tabulates, per union mask U, the best split of U into (V1, V2)
    over the same pair table; then packs unions with the same subset DP as
    the unsigned profile.  Values agree with :func:`beta_signed` and the
    signed DFS within SIGNED_PROFILE_TOL, since the split table sums
    beta's terms per vertex rather than per edge.  Limited to
    n <= 14 (the split tabulation costs about n DP levels).
    """
    require_valid(g)
    n = g.n
    if not _dp_answers(n, signed=True):
        raise ValueError(f"signed profile DP limited to n <= {_MAX_SIGNED_DP_N} (got {n})")
    kmax = n if kmax is None else kmax
    if not 1 <= kmax <= n:
        raise ValueError(f"kmax must be in [1, {n}]")
    tables = _signed_tables(g)
    dp_all = _profile_tables(tables.betamin, n, kmax)
    states = _dp_iterations(n, kmax)
    full = (1 << n) - 1
    certs = []
    for k in range(1, kmax + 1):
        unions = _reconstruct(dp_all, tables.betamin, n, k)
        unions.sort(key=lambda m: m & -m)
        parts = []
        for um in unions:
            m1 = int(tables.split[um])
            m2 = um ^ m1
            parts.append(tuple(v for v in range(n) if (m1 >> v) & 1))
            parts.append(tuple(v for v in range(n) if (m2 >> v) & 1))
        certs.append(
            PartitionCertificate(
                k=k,
                value=float(dp_all[k][full]),
                parts=tuple(parts),
                signed=True,
                exact=True,
                states=states,
            )
        )
    return tuple(certs)


# ---------------------------------------------------------------------------
# nodal sweep upper bound

@dataclass(frozen=True)
class SweepResult:
    m: int
    bound: float
    certificate: PartitionCertificate

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "bound": self.bound,
            "certificate": self.certificate.to_json_dict(),
        }


def rho_upper_nodal_sweep(g: WeightedGraph, f, zero_tol: float | None = None) -> SweepResult:
    """Constructive upper bound on rho_m from the strong nodal domains of f.

    Each of the m domains S_i is swept through its level sets
    S_i(t) = {x in S_i : |f(x)| >= t} over the distinct values t of |f| on
    S_i, keeping the set of least conductance.  Level sets of disjoint
    domains stay disjoint, so the returned m-tuple certifies
    bound >= rho_m(g).
    """
    require_valid(g)
    if g.is_signed():
        raise ValueError("nodal sweep is defined for unsigned graphs")
    decomposition = strong_nodal(g, f, zero_tol)
    m = decomposition.count
    if m == 0:
        raise ValueError("function is identically zero (after zero rounding)")
    absf = [abs(x) for x in np.asarray(f, dtype=float).tolist()]
    mu = g.mu
    parts = []
    part_values = []
    for domain in decomposition.domains():
        best_phi = math.inf
        best_set: tuple[int, ...] = ()
        for t in sorted({absf[x] for x in domain}):
            # Phi of the level set, summed in conductance()'s order (cut in
            # stored-edge order, measure in ascending vertex order), so the
            # value is bit-identical to conductance(g, level).
            level = [x for x in domain if absf[x] >= t]
            member = [False] * g.n
            for x in level:
                member[x] = True
            cut = 0.0
            for u, v, w, _ in g.edges:
                if member[u] != member[v]:
                    cut += w
            mu_sum = 0.0
            for x in level:
                mu_sum += mu[x]
            val = cut / mu_sum
            if val < best_phi:
                best_phi = val
                best_set = tuple(level)
        parts.append(best_set)
        part_values.append(best_phi)
    bound = max(part_values)
    cert = PartitionCertificate(
        k=m,
        value=bound,
        parts=tuple(sorted(parts)),
        signed=False,
        exact=False,
        states=0,
    )
    return SweepResult(m=m, bound=bound, certificate=cert)
