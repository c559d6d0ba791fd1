"""Conductance, exact k-way Cheeger constants, and signed variants.

One exact engine answers every request: a subset dynamic program over
vertex bitmasks (:func:`rho_profile` / :func:`rho_signed_profile`) that
returns certificates for every k = 1..kmax at once.  Level 1 is a
subset-min transform, O(n 2^n); each middle level 2..kmax-1 is one O(3^n)
pass over a (mask, part) pair table that depends only on n; the top level
is evaluated only at the n suffix masks {i..n-1} its reconstruction reads,
O(2^n), in one gather over their concatenated segments.  Small pair tables
are cached per n; larger ones are built chunk by chunk within one memory
budget, once per pass that reads them, so the signed profile at n >= 11
builds its pair table twice (for the split table, and again for the
packing levels when kmax >= 3).  :func:`rho_exact` / :func:`rho_signed_exact`
answer a single k from it and rebuild only certificate k.  One certificate
builder serves both signs: it packs a score table (Phi, or the signed
split table's least beta per union with the split that attains it) and
orders each certificate's parts, or unions, by lowest vertex.

One work policy (:func:`_dp_admits`) decides which requests the engine
takes, from n, the edge count, kmax and the sign: the element operations
of the request and the bytes its tables hold must stay within
_MAX_ELEMENT_OPS and _MAX_TABLE_BYTES.  It admits every unsigned request up
to n = 15 and every signed one up to n = 14, whatever kmax and the edge
count; beyond that it depends on them (k = 2 reaches n = 21 on a tree).
A refused request raises ValueError before any table is built.

The subset tables add each edge's or vertex's term as a weight times one
row of a bool membership table, bits[v][mask].  It and the concatenated
suffix segments are cached per n and read-only: n 2^n + 16 2^n bytes,
about 1 MB at n = 15.  Phi and the signed split table read the same cut
and measure arrays, and the split pass adds beta's edge terms edge by
edge in stored-edge order over the pairs.  So every score is the same sum,
in the same order, as the canonical per-set evaluation of
:func:`conductance` / :func:`beta_signed`, and as the DP selects among
scores with min/max only, every value it returns agrees to the last bit
with a naive enumeration that scores the same way.  DP certificates break
ties among optimal tuples by the DP's scan order.

The per-set evaluation is one private evaluator per score, on Python bool
lists, behind `conductance`, `beta_signed`, every certificate's
`recompute` and every level set of :func:`rho_upper_nodal_sweep`.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

import numpy as np

from .graph import WeightedGraph
from .nodal import strong_nodal

# Memory budget (bytes) for the pair-indexed arrays of one profile call.
# The pair table holds two native index arrays (numpy gathers three times
# slower through int32 indices), 16 bytes a pair.  A table that fits in half
# the budget (n <= 10) is built once per n and cached; a larger one is built
# chunk by chunk on every call, once per call.  Work arrays are built per
# chunk of masks whose pairs fit in half the budget at the bytes per pair
# below (peak use measured with tracemalloc, a built table's share included).
_PAIR_BUDGET = 2 << 20
_DP_PAIR_BYTES = 64
_SPLIT_PAIR_BYTES = 128

# Work policy of the exact engine (_dp_admits): the element operations of a
# request and the bytes its tables hold must stay within these.  On a 2-vCPU
# VM 1e9 element operations take 10 to 15 s.
_MAX_ELEMENT_OPS = 1_000_000_000
_MAX_TABLE_BYTES = 256 << 20


def _dp_admits(n: int, m: int, kmax: int, signed: bool) -> bool:
    """Whether the work policy takes a profile up to kmax on n vertices and
    m edges.

    Bytes held, per mask: the DP levels 0..kmax, the membership table's n
    bools, the suffix segments' 16 bytes, the cut, measure and score
    arrays, the four arrays of the mask layout and, if signed, the split
    tables; plus the pair budget.  Checked first, it bounds n before the
    operations are summed: the cut and measure passes, level 1's transform
    and the top level's gather, O(2^n) each; every pair of a mask with at
    least j vertices for each middle level j = 2..kmax-1; and, if signed,
    the split pass's m passes over every pair.
    """
    per_mask = 8 * (kmax + 1) + n + 16 + 24 + 32 + (16 if signed else 0)
    if (per_mask << n) + _PAIR_BUDGET > _MAX_TABLE_BYTES:
        return False
    ops = (m + 2 * n + 1) << n
    ops += sum((math.comb(n, p) << (p - 1)) * max(0, min(p, kmax - 1) - 1) for p in range(2, n + 1))
    if signed:
        ops += m * ((3**n - 1) // 2)
    return ops <= _MAX_ELEMENT_OPS


def _require_admitted(g: WeightedGraph, kmax: int, signed: bool) -> None:
    if not _dp_admits(g.n, g.m, kmax, signed):
        kind = "signed rho_k" if signed else "rho_k"
        raise ValueError(
            f"exact {kind} on n = {g.n} vertices up to kmax = {kmax} is beyond the exact "
            f"engine's limits ({_MAX_ELEMENT_OPS:.0e} element operations, "
            f"{_MAX_TABLE_BYTES >> 20} MiB of tables)"
        )


@dataclass(frozen=True)
class PartitionCertificate:
    """Witness for a k-way (signed) Cheeger value.

    Unsigned: `parts` holds k disjoint nonempty vertex sets and `value` is
    the max conductance over them.  Signed: `parts` holds 2k sets, pair
    (parts[2i], parts[2i+1]) being the ordered sub-bipartition (V1, V2),
    and `value` is the max of beta over the pairs.  `exact` is False only
    for the upper-bound certificates of nodal sweeps.  `states` counts, for
    an exact certificate, the inner iterations of the textbook recurrence
    (:func:`_dp_iterations`), which is not the work the DP does; a sweep
    certificate has 0.
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
#
# Each evaluator sums the edge terms in stored-edge order and the measure in
# ascending vertex order: the order that the subset tables and the naive
# enumeration oracle share, so their values agree to the last bit.

def conductance(g: WeightedGraph, subset) -> float:
    """Phi(A): cut weight leaving A divided by mu(A).  A must be nonempty."""
    if g.is_signed():
        raise ValueError("conductance is defined for unsigned graphs")
    member = _members(g, subset)
    if not any(member):
        raise ValueError("conductance of the empty set is undefined")
    return _phi_eval(g, member)


def beta_signed(g: WeightedGraph, v1, v2) -> float:
    """Signed bipartiteness ratio beta(V1, V2).

    Numerator: 2|E+(V1,V2)| + |E-(V1)| + |E-(V2)| + |boundary(V1 u V2)|,
    where |E+-(S,T)| double-sums over ordered pairs (so an internal edge
    counts twice); denominator: mu(V1 u V2).  V1, V2 must be disjoint with
    nonempty union; either one may be empty.
    """
    in1 = _members(g, v1)
    in2 = _members(g, v2)
    if any(a and b for a, b in zip(in1, in2)):
        raise ValueError("V1 and V2 must be disjoint")
    if not (any(in1) or any(in2)):
        raise ValueError("V1 and V2 cannot both be empty")
    return _beta_eval(g, in1, in2)


def _members(g: WeightedGraph, subset) -> list[bool]:
    """Membership list of a vertex set; ValueError on an id out of range."""
    n = g.n
    member = [False] * n
    for v in subset:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
        member[v] = True
    return member


def _phi_eval(g: WeightedGraph, member: list[bool]) -> float:
    cut = 0.0
    for u, v, w, _ in g.edges:
        if member[u] != member[v]:
            cut += w
    mu_sum = 0.0
    for m in compress(g.mu, member):
        mu_sum += m
    return cut / mu_sum


def _beta_eval(g: WeightedGraph, in1: list[bool], in2: list[bool]) -> float:
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


@lru_cache(maxsize=None)
def _bits(n: int) -> np.ndarray:
    """Membership table of n (read-only, cached): bits[v][mask] is whether
    vertex v lies in mask.

    The subset tables add each edge's or vertex's term as weight times a
    row of it: w * True = w and w * False = 0.0, and adding +0.0 to a sum
    of nonnegative terms changes no bit, so each entry is the same sum, in
    the same order, as the canonical per-set evaluation.
    """
    bits = np.zeros((n, 1 << n), dtype=bool)
    for v in range(n):
        bits[v].reshape(-1, 2, 1 << v)[:, 1] = True
    bits.flags.writeable = False
    return bits


def _cut_and_measure(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(cut, measure) of every vertex subset, indexed by bitmask: the weight
    of the edges leaving it, summed in stored-edge order, and its measure,
    summed in ascending vertex order (entry 0 is 0.0 in both)."""
    n = g.n
    bits = _bits(n)
    size = 1 << n
    cross = np.empty(size, dtype=bool)
    term = np.empty(size)
    cut = np.zeros(size)
    for e in g.edges:
        np.not_equal(bits[e.u], bits[e.v], out=cross)
        np.multiply(cross, e.w, out=term)
        cut += term
    mu_sum = np.zeros(size)
    for v in range(n):
        np.multiply(bits[v], g.mu[v], out=term)
        mu_sum += term
    return cut, mu_sum


def _phi_array(g: WeightedGraph) -> np.ndarray:
    cut, mu_sum = _cut_and_measure(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.divide(cut, mu_sum, out=cut)
    phi[0] = math.inf
    return phi


def _parts_from_masks(masks: list[int], n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for m in masks:
        out.append(tuple(v for v in range(n) if (m >> v) & 1))
    return tuple(out)


def rho_exact(g: WeightedGraph, k: int) -> PartitionCertificate:
    """Exact k-way Cheeger constant with a witness tuple.

    Minimizes max_i Phi(A_i) over all tuples of k pairwise-disjoint
    nonempty vertex sets (the sets need not cover V).  This is certificate
    k of :func:`rho_profile` up to kmax = k: `states` counts the textbook
    recurrence's iterations and ties follow the DP's scan order.  A request
    beyond the work policy raises ValueError before any table is built.
    """
    if g.is_signed():
        raise ValueError("rho_exact needs an unsigned graph; see rho_signed_exact")
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    _require_admitted(g, k, signed=False)
    return _certificates(_phi_array(g), None, n, k, (k,))[0]


def rho_signed_exact(g: WeightedGraph, k: int) -> PartitionCertificate:
    """Exact k-way signed Cheeger constant over k-sub-bipartitions.

    Certificate k of :func:`rho_signed_profile` up to kmax = k, with the
    work policy and tie-break of :func:`rho_exact`.
    """
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    _require_admitted(g, k, signed=True)
    return _certificates(*_signed_tables(g), n, k, (k,))[0]


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
    pc = _bits(n).sum(axis=0, dtype=np.int64)
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


@dataclass(frozen=True)
class _SuffixSegments:
    masks: np.ndarray   # masks[i] = V_i = {i..n-1}
    start: np.ndarray   # V_i's segment is parts[start[i]:start[i+1]]
    parts: np.ndarray
    rests: np.ndarray


@lru_cache(maxsize=None)
def _suffix_segments(n: int) -> _SuffixSegments:
    """The segments of the suffix masks V_0..V_{n-1}, concatenated in that
    order (cached, read-only): 2^n - 1 pairs, 16 bytes a pair.

    V_i's parts are {i} joined with every submask of V_{i+1}, descending,
    as _build_pairs lays them out.
    """
    full = (1 << n) - 1
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.left_shift(1, np.arange(n - 1, -1, -1)), out=start[1:])
    parts = np.empty(start[-1], dtype=np.intp)
    rests = np.empty_like(parts)
    masks = np.empty(n, dtype=np.intp)
    for i in range(n):
        masks[i] = full >> i << i
        seg = parts[start[i] : start[i + 1]]
        np.left_shift(np.arange(len(seg) - 1, -1, -1), i + 1, out=seg)
        seg |= 1 << i
        np.bitwise_xor(masks[i], seg, out=rests[start[i] : start[i + 1]])
    for a in (masks, start, parts, rests):
        a.flags.writeable = False
    return _SuffixSegments(masks=masks, start=start, parts=parts, rests=rests)


def _segment(n: int, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """(parts, rests) of one mask's segment: a view of the cached suffix
    segments or pair table, or built directly by _build_pairs' doubling."""
    low = mask & -mask
    if mask + low == 1 << n:
        sfx = _suffix_segments(n)
        i = low.bit_length() - 1
        p0, p1 = sfx.start[i], sfx.start[i + 1]
        return sfx.parts[p0:p1], sfx.rests[p0:p1]
    if _pair_table(n) is not None:
        i = int(_mask_order(n).index[mask])
        return _pairs(n, i, i + 1)
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
    recurrence at the V_i with at least kmax vertices: one gather over
    their concatenated segments, the least candidate of each segment, then
    a running minimum from V_{n-kmax} up to V_0 for the dropped lowest
    vertices.  Every other entry is inf (at the shorter V_i that is the
    true value).
    """
    dp_all = _packing_dp(score, n, kmax - 1)
    prev = dp_all[-1]
    sfx = _suffix_segments(n)
    count = n - kmax + 1
    end = sfx.start[count]
    cand = score[sfx.parts[:end]]
    np.maximum(cand, prev[sfx.rests[:end]], out=cand)
    best = np.minimum.reduceat(cand, sfx.start[:count])
    top = np.full(1 << n, math.inf)
    top[sfx.masks[:count]] = np.minimum.accumulate(best[::-1])[::-1]
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


def _certificates(
    score: np.ndarray, split: np.ndarray | None, n: int, kmax: int, ks
) -> tuple[PartitionCertificate, ...]:
    """Certificates k in ks of the profile up to kmax (arguments already checked).

    `score` is Phi's table, or the signed split table's betamin with
    `split` its V1 masks (None unsigned).  The parts of each certificate
    are ordered by lowest vertex, each union followed, if signed, by its
    split (V1, V2).
    """
    dp_all = _profile_tables(score, n, kmax)
    states = _dp_iterations(n, kmax)
    full = (1 << n) - 1
    certs = []
    for k in ks:
        masks = sorted(_reconstruct(dp_all, score, n, k), key=lambda m: m & -m)
        if split is not None:
            masks = [side for u in masks for side in (int(split[u]), u ^ int(split[u]))]
        certs.append(
            PartitionCertificate(
                k=k,
                value=float(dp_all[k][full]),
                parts=_parts_from_masks(masks, n),
                signed=split is not None,
                exact=True,
                states=states,
            )
        )
    return tuple(certs)


def rho_profile(g: WeightedGraph, kmax: int | None = None) -> tuple[PartitionCertificate, ...]:
    """Exact rho_k certificates for every k = 1..kmax in one subset DP.

    The DP runs in numpy (:func:`_profile_tables`): level 1 by a subset-min
    transform, levels 2..kmax-1 over the (mask, part) pair table, chunked
    by mask range within a fixed memory budget, and level kmax at the n
    suffix masks only.  Every value is a Phi-table entry chosen by min/max
    only, so it is bit-identical to the textbook loop and to naive
    enumeration (``tests/brute.py``).  Certificates are rebuilt by
    rescanning each mask's parts on the optimal path; they follow the DP's
    own tie-break (first optimal part in scan order).  A request beyond the
    work policy raises ValueError before any table is built.
    """
    if g.is_signed():
        raise ValueError("rho_profile needs an unsigned graph; see rho_signed_profile")
    n = g.n
    kmax = n if kmax is None else kmax
    if not 1 <= kmax <= n:
        raise ValueError(f"kmax must be in [1, {n}]")
    _require_admitted(g, kmax, signed=False)
    return _certificates(_phi_array(g), None, n, kmax, range(1, kmax + 1))


class _SignedTables(NamedTuple):
    betamin: np.ndarray
    split: np.ndarray  # V1 bitmask realizing betamin per union mask


def _signed_tables(g: WeightedGraph) -> _SignedTables:
    """Least beta over the splits (V1, V2) of every union mask U.

    V1 runs over U's segment (it holds U's lowest vertex) and V2 = U ^ V1.
    As in :func:`beta_signed`, the positive edges across the sides and the
    negative edges inside one side are added edge by edge in stored-edge
    order (every other edge adds an exact 0.0, False times a finite
    weight), and the boundary and measure of U are Phi's cut and measure.
    So every entry is bit-identical to beta_signed of its split.  Among
    equal splits the first in scan order is kept.
    """
    n = g.n
    size = 1 << n
    bits = _bits(n)
    bnd, mu_u = _cut_and_measure(g)
    order = _mask_order(n)
    betamin = np.full(size, math.inf)
    split = np.zeros(size, dtype=np.int64)
    for lo, hi, m1, m2 in _chunks(n, 0, len(order.masks), _SPLIT_PAIR_BYTES):
        in1 = bits[:, m1]
        in2 = bits[:, m2]
        hit = np.empty(len(m1), dtype=bool)
        hit2 = np.empty_like(hit)
        term = np.empty(len(m1))
        ep = np.zeros(len(m1))
        em = np.zeros(len(m1))
        for e in g.edges:
            if e.sigma > 0:  # across the sides
                np.logical_and(in1[e.u], in2[e.v], out=hit)
                np.logical_and(in2[e.u], in1[e.v], out=hit2)
                w, acc = e.w, ep
            else:  # inside one side
                np.logical_and(in1[e.u], in1[e.v], out=hit)
                np.logical_and(in2[e.u], in2[e.v], out=hit2)
                w, acc = 2.0 * e.w, em
            np.logical_or(hit, hit2, out=hit)
            np.multiply(hit, w, out=term)
            acc += term
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
    the unsigned profile.  Every split is scored bit for bit as
    :func:`beta_signed` scores it, so every value is too.  The work policy
    of :func:`rho_profile` applies, with the split pass counted.
    """
    n = g.n
    kmax = n if kmax is None else kmax
    if not 1 <= kmax <= n:
        raise ValueError(f"kmax must be in [1, {n}]")
    _require_admitted(g, kmax, signed=True)
    return _certificates(*_signed_tables(g), n, kmax, range(1, kmax + 1))


# ---------------------------------------------------------------------------
# nodal sweep upper bound

def rho_upper_nodal_sweep(g: WeightedGraph, f, zero_tol: float | None = None) -> PartitionCertificate:
    """Constructive upper bound on rho_m from the strong nodal domains of f.

    Each of the m domains S_i is swept through its level sets
    S_i(t) = {x in S_i : |f(x)| >= t} over the distinct values t of |f| on
    S_i, keeping the set of least conductance.  Level sets of disjoint
    domains stay disjoint, so the returned certificate (k = m, exact
    False) certifies value >= rho_m(g).
    """
    if g.is_signed():
        raise ValueError("nodal sweep is defined for unsigned graphs")
    decomposition = strong_nodal(g, f, zero_tol)
    m = decomposition.count
    if m == 0:
        raise ValueError("function is identically zero (after zero rounding)")
    absf = [abs(x) for x in np.asarray(f, dtype=float).tolist()]
    parts = []
    part_values = []
    for domain in decomposition.domains():
        best_phi = math.inf
        best_set: tuple[int, ...] = ()
        for t in sorted({absf[x] for x in domain}):
            level = [x for x in domain if absf[x] >= t]
            val = _phi_eval(g, _members(g, level))
            if val < best_phi:
                best_phi = val
                best_set = tuple(level)
        parts.append(best_set)
        part_values.append(best_phi)
    return PartitionCertificate(
        k=m,
        value=max(part_values),
        parts=tuple(sorted(parts)),
        signed=False,
        exact=False,
        states=0,
    )
