"""Conductance, exact k-way Cheeger constants, and signed variants.

One exact engine answers every request: a subset dynamic program over
vertex bitmasks (:func:`rho_profile` / :func:`rho_signed_profile`) that
returns certificates for every k = 1..kmax at once.  Every part of the full
mask V holds vertex 0, so from V every read of the recurrence lands on a
mask without vertex 0: the DP runs on the n - 1 vertices 1..n-1.  In that
sub-cube level 1 is a subset-min transform, O(n 2^n); each middle level
2..kmax-1 is one O(3^(n-1)) pass over the (mask, part) pairs; the top
level holds no table.  The pairs of each popcount group form one
column-major block of shape (2^(p-1), masks), one contiguous column per
mask, so each level of a group is one gather, one maximum, one argmin
down the columns and one gather of the least candidates, and the split
pass picks each union's split by argmin down its column.  Up to n = 10
every block is held in one per-n plan (so the DP's sub-cube reads it up
to n = 11); beyond it the blocks are built in column ranges, and the
signed profile runs its split pass over every block of n, then the
packing levels over the sub-cube's.

One walk back from V (:func:`_reconstruct`) builds every certificate k.
Its first step reads level k at the suffix masks {i..n-1}, each by one
strided pass over level k - 1 with no gather: V's pass alone where level
k holds a table (whose entry at {1..n-1} covers the shorter suffixes),
else every suffix from the last with k vertices down to V.  So a profile
runs n passes, and :func:`rho_exact` / :func:`rho_signed_exact`, which
rebuild only certificate k of the profile up to k, run n - k + 1.  One
certificate builder serves both signs: it packs a score table (Phi, or
the signed split table's least beta per union with the split that
attains it) and orders each certificate's parts, or unions, by lowest
vertex.  With the sub-cube's held plan the DP keeps each level's argmin
rows (level 1's from the argmin of the score gather), and a certificate
reads each later part from them; only a step beyond the held plan, or at
level 1 when kmax = 2, rescans its mask's segment.

One work policy (:func:`_dp_admits`) decides which requests the engine
takes, from n, the edge count, kmax and the sign: the element operations
of the passes the request runs and the bytes its tables hold must stay
within _MAX_ELEMENT_OPS and _MAX_TABLE_BYTES.  It admits every unsigned
request up to n = 18 and every signed one up to n = 15, whatever kmax and
the edge count; beyond that it depends on them (k = 2 reaches n = 21 on a
tree).  An admitted request takes at most about 4.6 s unsigned and 6 s
signed on a 2-vCPU VM.  All four public entries run through one solve
(:func:`_solve`), which asks the policy, so a refused request raises
ValueError before any table is built.

The per-n tables (the membership table bits[v][mask], the mask layout
and the plan) are read-only and held only while each holds at most
_HELD_BYTES (1 MiB): all of them up to n = 10, the plan no further, the
rest up to n = 16; a larger n builds them per call.  Each held table is
built by the first pass that reads it, so a request at k <= 2, whose DP
keeps no rows and runs no pair pass, builds no plan of the sub-cube (a
signed one still builds n's for its split pass).
A graph holds its Phi table under the same bound (graph._derived).
The cut pass sums every edge's term, a weight times a crossing row of
bits, over the masks without vertex n-1 in one reduction down the edges
per range of masks, and mirrors the other half (cut(S) = cut(V - S), the
same terms in the same order); the measure doubles, mu(S + v) = mu(S) +
mu_v for v above S.  Phi and the signed split table read the same cut and
measure, and the split pass sums beta's positive and negative edge terms
per sign class the same way, over ranges of flat pairs, reading each
vertex's side (+1 in V1, -1 in V2, 0 outside the union) by shifting the
pair masks.  One rule (:func:`_ranges`) sizes the ranges of all three
ranged passes (the cut pass's masks, the split pass's pairs and the
packing levels' columns of a built block): as many items as fit in half
the 2 MiB budget of work arrays, a column too tall for it alone, and a
one-item tail folded into the range before it, since numpy sums a lone
item's edge terms pairwise.  numpy reduces down the edges one add at a
time, in stored-edge order, so every score is the same sum, in the same
order, as the canonical per-set evaluation of :func:`conductance` /
:func:`beta_signed`, and as the DP selects among scores with min/max
only, every value it returns agrees to the last bit with a naive
enumeration that scores the same way.  DP certificates break ties among
optimal tuples by the DP's scan order.

The per-set evaluation is one private evaluator per score, on Python bool
lists, behind `conductance`, `beta_signed` and every certificate's
`recompute`.  :func:`rho_upper_nodal_sweep` reads each level set's Phi
from the table its graph holds, if it holds one (a level set is a prefix
of its domain by descending |f|, so one mask), and evaluates it per set
otherwise: the same value either way.
"""

import math
from dataclasses import dataclass
from functools import wraps
from itertools import compress
from typing import NamedTuple

import numpy as np

from .graph import WeightedGraph, _derived, _json_form
from .nodal import strong_nodal

# Memory budget (bytes) for the work arrays of one profile call: each ranged
# pass cuts its work into ranges whose arrays fit in half of it (_ranges).
_PAIR_BUDGET = 2 << 20
_DP_PAIR_BYTES = 64

# The per-n tables (the membership table, the mask layout and the pair plan)
# are held while each holds at most this many bytes: every n up to 10 keeps
# all of them, since a cold rebuild there costs about a tenth of a corpus op,
# and a larger n builds what it cannot hold per call rather than keeping it
# for the life of the process.
_HELD_BYTES = 1 << 20

# Work policy of the exact engine (_dp_admits): the element operations a
# request runs and the bytes its tables hold must stay within these.  On a
# 2-vCPU VM full profiles took 3.1 to 4.6 s per 1e9 counted operations
# unsigned (n = 16..18) and 2.5 to 6.0 s signed (n = 14..16: up to 4.5 s on
# 22 to 63 edges, 4.6 to 6.0 s on the sparsest graph, a tree at n = 16, whose
# split pass pays more per pair than its m counted operations), so an
# admitted request takes at most about 4.6 s unsigned and 6 s signed.
_MAX_ELEMENT_OPS = 1_000_000_000
_MAX_TABLE_BYTES = 256 << 20


def _dp_admits(n: int, m: int, kmax: int, signed: bool) -> bool:
    """Whether the work policy takes a profile up to kmax on n vertices and
    m edges.

    Bytes held: per mask of n, the membership table's n bools, the cut,
    measure and score arrays, 32 bytes for the mask layout and, if signed,
    the split tables; the DP levels 0..kmax-1 over the 2^(n-1) masks
    without vertex 0 (the top level holds no table); plus the pair budget.
    Checked first, it bounds n before the operations of the passes
    :func:`_solve` runs are summed: the cut pass's m terms, the measure
    and the membership table, per mask of n; in the sub-cube of the n - 1
    vertices above vertex 0, level 1's transform (n - 1 a mask), V's pass
    at each level 1..kmax-1, 2^(n-1) each, the top level's passes at the
    suffix masks, 2^(n-1) + 2^(n-2) + ... + 1 < 2^n, and every pair of a
    sub-cube mask with at least j vertices for each middle level
    j = 2..kmax-1; and, if signed, the split pass's m passes over every
    pair of n.  V's passes at levels 1..kmax-1 are those a profile's walks
    run for its certificates below the top; a single-k request walks only
    the top level and runs none of them, so for it the count is a bound.
    """
    s = n - 1
    per_mask = n + 24 + 32 + (16 if signed else 0)
    if (per_mask << n) + (8 * kmax << s) + _PAIR_BUDGET > _MAX_TABLE_BYTES:
        return False
    ops = ((m + n + 1) << n) + ((s + kmax + 1) << s)
    ops += sum((math.comb(s, p) << (p - 1)) * max(0, min(p, kmax - 1) - 1) for p in range(2, n))
    if signed:
        ops += m * ((3**n - 1) // 2)
    return ops <= _MAX_ELEMENT_OPS


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
        """The JSON form, built on the first call and returned by every
        later one, so the records that read one certificate share one dict;
        a caller must not modify it."""
        held = self.__dict__.get("_json")
        if held is None:
            held = _json_form(self)
            object.__setattr__(self, "_json", held)
        return held


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


def _nbytes(table) -> int:
    """Bytes of the arrays in `table` that own their data (a view counts
    in its base)."""
    if isinstance(table, np.ndarray):
        return table.nbytes if table.base is None else 0
    if isinstance(table, tuple):
        return sum(_nbytes(t) for t in table)
    return 0


def _held(build):
    """Per-n cache of build(n) that keeps a table only while its arrays hold
    at most _HELD_BYTES; a larger one is built again on every call."""
    held = {}

    @wraps(build)
    def table(n: int):
        t = held.get(n)
        if t is None:
            t = build(n)
            if _nbytes(t) <= _HELD_BYTES:
                held[n] = t
        return t

    table.cache_clear = held.clear
    return table


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@_held
def _bits(n: int) -> np.ndarray:
    """Membership table of n (read-only): bits[v][mask] is whether vertex v
    lies in mask.

    The cut pass multiplies each edge's crossing row by its weight:
    w * True = w and w * False = 0.0, and adding +0.0 to a sum of
    nonnegative terms changes no bit, so each entry is the same sum, in the
    same order, as the canonical per-set evaluation.
    """
    bits = np.zeros((n, 1 << n), dtype=bool)
    for v in range(n):
        bits[v].reshape(-1, 2, 1 << v)[:, 1] = True
    _read_only(bits)
    return bits


def _ranges(total: int, item_bytes: int):
    """Yield the (lo, hi) ranges that cut 0..total in order, each holding
    as many items as fit in half of _PAIR_BUDGET at item_bytes an item, or
    one item if it alone does not fit.

    A one-item tail joins the range before it, when that holds two or
    more: the summing passes reduce each range down its edges, and numpy
    would sum a lone item's terms pairwise (see _edge_sum).  Their items
    take a few KiB, so every range of theirs holds two items or more, and
    a folded range stays within the budget.
    """
    step = max(1, _PAIR_BUDGET // 2 // item_bytes)
    lo = 0
    while lo < total:
        hi = total if lo + step >= total - (step > 1) else lo + step
        yield lo, hi
        lo = hi


def _edge_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of the per-edge rows of `terms` (C-contiguous, edges first, two
    or more entries per edge) in stored-edge order.

    numpy reduces the outer axis of a C-contiguous array row by row, one
    add per row in order, so every entry is the sequential sum of the
    canonical evaluators; with one entry per edge it would sum pairwise.
    """
    return np.add.reduce(terms, axis=0)


def _weighted(hit: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The per-edge terms w * hit (hit bool, C-contiguous, one row per
    edge; w one weight per row): w where hit, else 0.0.

    Cast first, then scaled in place: a bool-times-float multiply casts
    through numpy's buffers, which is slower and holds more memory.
    """
    terms = hit.astype(np.float64)
    terms *= w
    return terms


def _cut_and_measure(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(cut, measure) of every vertex subset, indexed by bitmask: the weight
    of the edges leaving it, summed in stored-edge order, and its measure,
    summed in ascending vertex order (entry 0 is 0.0 in both).

    The cut is summed over the masks without vertex n-1, every edge's term
    at once per range of masks, and mirrored: cut(S) = cut(V - S), the same
    terms in the same order.  The measure doubles: mu(S + v) = mu(S) + mu_v
    for every v above S.
    """
    n = g.n
    size = 1 << n
    half = size >> 1
    bits = _bits(n)
    u = np.array([e.u for e in g.edges], dtype=np.intp)
    v = np.array([e.v for e in g.edges], dtype=np.intp)
    w = np.array([e.w for e in g.edges])[:, None]
    cut = np.empty(size)
    # 11 bytes a mask and edge: two gathered rows, their comparison, the term.
    for lo, hi in _ranges(half, 11 * len(w)):
        cut[lo:hi] = _edge_sum(_weighted(bits[u, lo:hi] != bits[v, lo:hi], w))
    cut[half:] = cut[half - 1 :: -1]
    mu_sum = np.empty(size)
    mu_sum[0] = 0.0
    for x, mu_x in enumerate(g.mu):
        np.add(mu_sum[: 1 << x], mu_x, out=mu_sum[1 << x : 2 << x])
    return cut, mu_sum


def _phi_array(g: WeightedGraph) -> np.ndarray:
    """Phi of every vertex subset, indexed by bitmask (read-only; entry 0
    is inf), held with g while it fits _HELD_BYTES (n <= 17): the nodal
    sweeps of g read their level sets from it."""
    if 8 << g.n > _HELD_BYTES:
        return _phi_table(g)
    return _derived(g, "phi", _phi_table)


def _phi_table(g: WeightedGraph) -> np.ndarray:
    cut, mu_sum = _cut_and_measure(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.divide(cut, mu_sum, out=cut)
    phi[0] = math.inf
    _read_only(phi)
    return phi


def _parts_from_masks(masks: list[int]) -> tuple[tuple[int, ...], ...]:
    out = []
    for m in masks:
        part = []
        while m:
            low = m & -m
            part.append(low.bit_length() - 1)
            m ^= low
        out.append(tuple(part))
    return tuple(out)


def _solve(g: WeightedGraph, kmax: int, ks, signed: bool) -> tuple[PartitionCertificate, ...]:
    """Certificates k in ks of the profile of g up to kmax (arguments
    already checked): the score table, Phi or the signed split table, packed
    by :func:`_packing_dp` up to kmax - 1 and walked by
    :func:`_reconstruct`.  A request beyond the work policy raises
    ValueError before any table is built."""
    n = g.n
    if not _dp_admits(n, g.m, kmax, signed):
        kind = "signed rho_k" if signed else "rho_k"
        raise ValueError(
            f"exact {kind} on n = {n} vertices up to kmax = {kmax} is beyond the exact "
            f"engine's limits ({_MAX_ELEMENT_OPS:.0e} element operations, "
            f"{_MAX_TABLE_BYTES >> 20} MiB of tables)"
        )
    if signed:
        sp = _signed_tables(g)
        score, split = sp.betamin, sp.split
    else:
        score, split = _phi_array(g), None
    return _certificates(_packing_dp(score, n, kmax - 1), score, split, n, ks)


def rho_exact(g: WeightedGraph, k: int) -> PartitionCertificate:
    """Exact k-way Cheeger constant with a witness tuple.

    Minimizes max_i Phi(A_i) over all tuples of k pairwise-disjoint
    nonempty vertex sets (the sets need not cover V).  This is certificate
    k of :func:`rho_profile` up to kmax = k: `states` counts the textbook
    recurrence's iterations and ties follow the DP's scan order; the parts
    are read as the profile reads them.  The Phi table is held with g
    while it fits _HELD_BYTES.  A request beyond the work policy raises
    ValueError before any table is built.  On a signed graph this is
    rho^sigma_k, the certificate of :func:`rho_signed_exact`.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {k}")
    return _solve(g, k, (k,), g.is_signed())[0]


def rho_signed_exact(g: WeightedGraph, k: int) -> PartitionCertificate:
    """Exact k-way signed Cheeger constant over k-sub-bipartitions.

    Certificate k of :func:`rho_signed_profile` up to kmax = k, with the
    work policy and tie-break of :func:`rho_exact`.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {k}")
    return _solve(g, k, (k,), signed=True)[0]


# ---------------------------------------------------------------------------
# all-k profiles by subset dynamic programming
#
# The passes run over the (mask, part) pairs of the n-vertex bitmasks:
# for every nonempty mask, the parts a = low | sub where low is the mask's
# lowest vertex and sub runs over the submasks of mask ^ low in descending
# order.  That is (3^n - 1) / 2 pairs: the split pass visits those of n,
# the packing levels those of the sub-cube of n - 1 (see _packing_dp).
# Masks are grouped by popcount, and each group's pairs form one
# column-major block of shape (2^(p-1), masks):
# column c holds the segment of the group's mask c, in that descending scan
# order, contiguous, so every pass reduces a group down its columns by
# argmin, whose first occurrence is the scan order's tie-break.  A level or
# a split of a p-vertex mask reads only masks of popcount below p, and the
# mask itself, so the passes run group by group in increasing popcount.

class _MaskOrder(NamedTuple):
    masks: np.ndarray   # nonempty masks by popcount, then value
    first: np.ndarray   # first[p]: position in `masks` of the first mask with >= p vertices


@_held
def _mask_order(n: int) -> _MaskOrder:
    """The mask layout of n (O(2^n); the arrays are read-only)."""
    pc = _bits(n).sum(axis=0, dtype=np.int64)
    masks = np.argsort(pc, kind="stable")[1:]
    first = np.searchsorted(pc[masks], np.arange(n + 2))
    order = _MaskOrder(masks=masks, first=first)
    _read_only(*order)
    return order


class _Group(NamedTuple):
    """Masks of one popcount p (or a column range of them) and their block."""

    masks: np.ndarray        # (M,) ascending
    without_low: np.ndarray  # (M,) each mask without its lowest vertex
    parts: np.ndarray        # (2^(p-1), M): column c is the segment of masks[c]
    rests: np.ndarray        # masks ^ parts


def _build_pairs(masks: np.ndarray, p: int, parts=None, rests=None) -> tuple[np.ndarray, np.ndarray]:
    """(parts, rests) blocks of masks of popcount p, written into the given
    blocks or new ones.

    The block is filled by doubling from the bottom over each mask's
    vertices above its lowest, lowest first: the copy with the new vertex
    goes above the current rows, which keeps every column descending.
    """
    shape = (1 << (p - 1), len(masks))
    height = shape[0]
    # Native indices: numpy gathers three times slower through int32 ones.
    if parts is None:
        parts = np.empty(shape, dtype=np.intp, order="F")
        rests = np.empty_like(parts)
    low = masks & -masks
    parts[-1] = low
    left = masks ^ low
    h = 1
    while h < height:
        bit = left & -left
        np.bitwise_or(parts[height - h :], bit, out=parts[height - 2 * h : height - h])
        left ^= bit
        h *= 2
    np.bitwise_xor(masks, parts, out=rests)
    return parts, rests


def _group(masks: np.ndarray, p: int, *blocks: np.ndarray) -> _Group:
    return _Group(masks, masks ^ (masks & -masks), *_build_pairs(masks, p, *blocks))


class _Plan(NamedTuple):
    groups: tuple[_Group, ...]  # groups[p - 1]: the masks of popcount p, p = 1..n
    column: np.ndarray          # column[mask]: the mask's column in its group's block
    parts: np.ndarray           # every block, one after another: the groups' blocks are views
    rests: np.ndarray
    starts: np.ndarray          # groups[p - 1]'s pairs are parts[starts[p - 1]:starts[p]]


@_held
def _plan(n: int) -> _Plan | None:
    """Every popcount group of n with its block (read-only), or None when
    the blocks would hold more than _HELD_BYTES (n > 10)."""
    pairs = (3**n - 1) // 2
    if 16 * pairs > _HELD_BYTES:
        return None
    order = _mask_order(n)
    parts = np.empty(pairs, dtype=np.intp)
    rests = np.empty_like(parts)
    column = np.zeros(1 << n, dtype=np.intp)
    starts = np.zeros(n + 1, dtype=np.intp)
    groups = []
    for p in range(1, n + 1):
        masks = order.masks[order.first[p] : order.first[p + 1]]
        shape = (1 << (p - 1), len(masks))
        starts[p] = starts[p - 1] + shape[0] * shape[1]
        blocks = [flat[starts[p - 1] : starts[p]].reshape(shape, order="F") for flat in (parts, rests)]
        group = _group(masks, p, *blocks)
        column[masks] = np.arange(len(masks))
        _read_only(*group)
        groups.append(group)
    _read_only(column, parts, rests, starts)
    return _Plan(groups=tuple(groups), column=column, parts=parts, rests=rests, starts=starts)


def _blocks(n: int, first: int):
    """Yield (p, group) for the popcount groups p >= first, in increasing p.

    Within the held plan each group is yielded whole: every held group
    fits in one range (at n = 10 the largest, p = 7, has 7,680 pairs).
    Beyond it each group is built afresh in the column ranges of
    :func:`_ranges`, at _DP_PAIR_BYTES a pair (the peak use of the packing
    levels, measured with tracemalloc, the built block included), so a
    column too tall for half the budget gets a range of its own.
    """
    plan = _plan(n)
    if plan is not None:
        yield from enumerate(plan.groups[first - 1 :], first)
        return
    order = _mask_order(n)
    for p in range(first, n + 1):
        masks = order.masks[order.first[p] : order.first[p + 1]]
        for lo, hi in _ranges(len(masks), _DP_PAIR_BYTES << (p - 1)):
            yield p, _group(masks[lo:hi], p)


def _segment(mask: int) -> tuple[np.ndarray, np.ndarray]:
    """(parts, rests) of one mask's segment, its column of its popcount
    group's block, built by _build_pairs' doubling on Python ints."""
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


def _dp_iterations(n: int, kmax: int) -> int:
    """Inner iterations of the textbook loop over the same recurrence:
    every pair of every mask with at least j vertices, for j = 1..kmax.

    This counts the recurrence, not the work done: the engine runs its
    levels on the masks without vertex 0, level 1 without the pairs, and
    each certificate's walk runs its level's passes at the full mask or
    the suffix masks only.
    """
    return sum((math.comb(n, p) << (p - 1)) * min(p, kmax) for p in range(1, n + 1))


class _Tables(NamedTuple):
    """The tables of one profile up to kmax, and the DP's own choices.

    Every mask the walk back from V reads below its first step is a mask
    without vertex 0 (see :func:`_packing_dp`).  dp[j] is level j of the
    packing DP of the vertices 1..n-1, indexed by mask >> 1, for each level
    j = 0..kmax-1: the top level holds no table.  rows[j] is None where
    level j kept no choices, else indexed like the masks of
    :func:`_mask_order` of n - 1: at the position first[p] + c of the mask
    in column c of group p's held block, the row of that column's first
    part that attains the least candidate (set for every p >= j).
    """

    dp: list[np.ndarray]
    rows: list[np.ndarray | None]


def _packing_dp(score: np.ndarray, n: int, kmax: int) -> _Tables:
    """min over j disjoint nonempty subsets of max score, for every j <= kmax,
    at every mask without vertex 0.

    dp[j][mask] restricts all parts to live inside `mask`.  Either the
    mask's lowest vertex stays out, dp[j][mask ^ low], or it lies in a part
    a of the mask's segment, max(score[a], dp[j-1][mask ^ a]); dp[j][mask]
    is the least of these.  Every part of V holds vertex 0, so from V every
    read lands on a mask without it, and from there on another: those are
    all the entries a result reads.  So the levels run as the packing DP of
    the n - 1 vertices 1..n-1 on score[0::2], over the sub-cube's
    (3^(n-1) - 1) / 2 pairs (a third of the full cube's); a level at V is
    read by the walk (:func:`_reconstruct`), which runs V's pass itself.

    With dp[0] = -inf, level 1 is the least score over the nonempty
    submasks of the mask: a subset-min transform folds, for each vertex v,
    the half of the table without v into the half with it.  Levels 2..kmax
    read only smaller popcount groups, so one pass over the sub-cube's
    groups in increasing popcount fills them: each block gathers
    score[parts] once, and each level is one gather, one maximum, one
    argmin down the columns and one gather of the least candidates.

    With the sub-cube's held plan (n <= 11) the group pass keeps each argmin
    as the level's rows, and the argmin of the score gather as level 1's (a
    singleton's one part is row 0), so the reconstruction reads its parts
    instead of rescanning their segments.  Each argmin writes into its
    group's slice of one table per profile, which is allocated before the
    pass: small arrays held through the pass raised a corpus run's peak
    RSS.  Beyond the held plan nothing is kept, and at kmax <= 1 (a
    request at k <= 2) no group pass runs, no rows are kept and no plan is
    built.  Only min and max select among table values, so every entry is
    exact.
    """
    m = n - 1
    sub = score[0::2]
    # Level 0 is -inf at every mask: one broadcast value, no table of 2^m floats.
    dp = [np.broadcast_to(-math.inf, 1 << m), *np.full((kmax, 1 << m), math.inf)]
    rows = [None] * (kmax + 1)
    if kmax >= 1:
        level1 = dp[1]
        level1[1:] = sub[1:]
        for v in range(m):
            halves = level1.reshape(-1, 2, 1 << v)
            np.minimum(halves[:, 1], halves[:, 0], out=halves[:, 1])
    if kmax >= 2:
        if _plan(m) is not None:
            first = _mask_order(m).first
            rows[1:] = np.empty((kmax, first[-1]), dtype=np.intp)
            rows[1][:m] = 0
        for p, group in _blocks(m, 2):
            masks = group.masks
            sc = sub[group.parts]
            kept = None
            if rows[1] is not None:
                kept = slice(first[p], first[p + 1])
                sc.argmin(axis=0, out=rows[1][kept])
            # Column c's entries start at c * height of the column-major block.
            starts = np.arange(0, sc.size, sc.shape[0])
            for j in range(2, min(p, kmax) + 1):
                cand = dp[j - 1][group.rests]
                np.maximum(cand, sc, out=cand)
                arg = cand.argmin(axis=0, out=None if kept is None else rows[j][kept])
                best = cand.ravel("F").take(arg + starts)
                np.minimum(best, dp[j][group.without_low], out=best)
                dp[j][masks] = best
    return _Tables(dp, rows)


def _suffix_pass(score: np.ndarray, prev: np.ndarray, i: int) -> tuple[float, int]:
    """The least candidate over the segment of the suffix mask
    V_i = {i..n-1} at one level, and the first part of the segment that
    attains it, as a mask of n; prev is the level below, indexed by
    mask >> 1.

    V_i's parts are i joined with each submask of V_{i+1}, descending:
    score[1 << i :: 2 << i] reversed.  The rest of the part at position q
    is q << i as a mask of the vertices 1..n-1, so the rests are
    prev[:: 1 << i], and the pass is one maximum and one argmin with no
    gather; the first argmin is the scan order's tie-break.
    """
    cand = np.maximum(score[1 << i :: 2 << i][::-1], prev[:: 1 << i])
    q = int(cand.argmin())
    return cand.item(q), (1 << i) | (len(cand) - 1 - q) << (i + 1)


def _reconstruct(tables: _Tables, score: np.ndarray, n: int, k: int) -> tuple[float, list[int]]:
    """rho_k and the parts of an optimal k-packing, walking the tables back
    from the full mask V.

    From V the walk either drops the lowest vertex (V_i to V_{i+1},
    V_i = {i..n-1}) or takes a part and goes down a level, so its first
    step reads level k only at the suffix masks.  Level k at V_i is the
    least of its value at V_{i+1} and of V_i's pass over level k - 1
    (:func:`_suffix_pass`).  With a table for level k the walk starts from
    its entry at V_1, with no part, and runs V's pass alone; the top level
    holds none, so the walk starts from inf at V_{n-k+1}, the first suffix
    with fewer than k vertices.  The passes run down to V, and a pass's
    pick replaces the kept one only where its value is strictly lower, so
    the walk leaves from the last suffix that attains rho_k.

    Every later step is in the DP of vertices 1..n-1, on masks shifted down
    by one: the lowest vertex stays out if that keeps the value; otherwise
    the first part of the mask's segment that attains it is taken, read
    from the level's rows where it kept them, else found by rescanning the
    segment (every level of a table without rows, and every level beyond
    the held plan).  The sub-cube's plan is fetched once, and only where
    the DP kept rows: a walk at k <= 2 (kmax <= 1) builds none.  Table
    entries are read as Python scalars (`.item`), the same values.
    """
    dp_all, rows = tables
    m = n - 1
    sub = score[0::2]
    # The DP keeps rows at every level 1..kmax or at none.
    if rows[-1] is not None:
        plan, first = _plan(m), _mask_order(m).first
    if k < len(dp_all):
        last, best = 1, dp_all[k].item(-1)
    else:
        last, best = n - k + 1, math.inf
    pick = 0
    for i in range(last - 1, -1, -1):
        value, a = _suffix_pass(score, dp_all[k - 1], i)
        if value < best:
            best, last, pick = value, i, a
    parts = [pick] if pick else []
    # V_last = {last..n-1} less the part, as a mask of the vertices 1..n-1.
    mask = (((1 << n) - (1 << last)) ^ pick) >> 1
    j = k - len(parts)
    while j > 0:
        if mask == 0:
            raise AssertionError("packing reconstruction ran out of vertices")
        dp = dp_all[j]
        low = mask & -mask
        value = dp.item(mask)
        if dp.item(mask ^ low) == value:
            mask ^= low
            continue
        row = rows[j]
        if row is not None:
            p = mask.bit_count()
            c = plan.column.item(mask)
            a = plan.groups[p - 1].parts.item(row.item(first.item(p) + c), c)
        else:
            seg, rests = _segment(mask)
            cand = sub.take(seg)
            np.maximum(cand, dp_all[j - 1].take(rests), out=cand)
            a = seg.item((cand == value).argmax())
        parts.append(a << 1)
        mask ^= a
        j -= 1
    return best, parts


def _certificates(
    tables: _Tables, score: np.ndarray, split: np.ndarray | None, n: int, ks
) -> tuple[PartitionCertificate, ...]:
    """Certificates k in ks of the profile tables (arguments already checked).

    `score` is Phi's table, or the signed split table's betamin with
    `split` its V1 masks (None unsigned).  The parts of each certificate
    are ordered by lowest vertex, each union followed, if signed, by its
    split (V1, V2).
    """
    states = _dp_iterations(n, len(tables.dp))
    certs = []
    for k in ks:
        value, parts = _reconstruct(tables, score, n, k)
        masks = sorted(parts, key=lambda m: m & -m)
        if split is not None:
            masks = [side for u in masks for side in (int(split[u]), u ^ int(split[u]))]
        certs.append(
            PartitionCertificate(
                k=k,
                value=value,
                parts=_parts_from_masks(masks),
                signed=split is not None,
                exact=True,
                states=states,
            )
        )
    return tuple(certs)


def rho_profile(g: WeightedGraph, kmax: int | None = None) -> tuple[PartitionCertificate, ...]:
    """Exact rho_k certificates for every k = 1..kmax in one subset DP.

    The DP runs in numpy (:func:`_packing_dp`) on the vertices 1..n-1:
    level 1 by a subset-min transform, levels 2..kmax-1 over the
    column-major pair blocks of each popcount group, in column ranges
    within a fixed memory budget; level kmax holds no table.  One walk
    back from the full mask (:func:`_reconstruct`) gives each certificate:
    its first step reads level k at the suffix masks by strided passes,
    n in all over the profile.  Every value is a Phi-table entry chosen by
    min/max only, so it is bit-identical to the textbook loop and to naive
    enumeration (``tests/brute.py``).  Certificates follow the DP's own
    tie-break (first optimal part in scan order): the first part is the
    pick of the last suffix mask that attains the value; up to n = 11 the
    others are read from the argmin rows the DP kept; beyond it, and at
    level 1 when kmax = 2, each later part on the optimal path is found by
    rescanning its mask's segment.  A request
    beyond the work policy raises ValueError before any table is built.
    On a signed graph these are the rho^sigma_k certificates of
    :func:`rho_signed_profile`.
    """
    kmax = g.n if kmax is None else kmax
    if not 1 <= kmax <= g.n:
        raise ValueError(f"kmax must be in [1, {g.n}]")
    return _solve(g, kmax, range(1, kmax + 1), g.is_signed())


class _SplitPass:
    """The signed split table of g: betamin[U] is the least beta over the
    splits (V1, V2) of the union U, and split[U] the V1 that attains it
    first in scan order.  :meth:`scores` scores pairs of flat arrays and
    :meth:`pick` takes each union's least down its column of a block.

    V1 runs over U's segment (it holds U's lowest vertex) and V2 = U ^ V1.
    An edge with both ends in U crosses the split iff its ends' sides
    differ; one with an end outside U neither crosses nor lies inside a
    side.  So, as in :func:`beta_signed`, the positive edges across the
    sides and the negative edges inside one side add their terms (weight,
    and twice the weight) in stored-edge order, every other edge of the
    class adding an exact 0.0; the boundary and measure of U are Phi's cut
    and measure.  So every entry is bit-identical to beta_signed of its
    split.
    """

    def __init__(self, g: WeightedGraph):
        n = g.n
        self.bnd, self.mu = _cut_and_measure(g)
        self.betamin = np.full(1 << n, math.inf)
        self.split = np.zeros(1 << n, dtype=np.int64)
        # The smallest signed type that holds every mask: the sides are
        # read by shifting the masks in it, which is faster than in int64.
        self.mask_type = np.min_scalar_type(-(1 << n))
        self.shifts = np.arange(n, dtype=self.mask_type)[:, None]
        # The positive edges first, then the negative ones, each class in
        # stored-edge order and weighted by its term's factor.  A pair gives
        # each vertex a side: +1 in V1, -1 in V2, 0 outside the union.  A
        # positive edge crosses iff its ends' sides multiply to -1, and a
        # negative edge lies inside one side iff they multiply to +1.
        edges = sorted(g.edges, key=lambda e: e.sigma < 0)
        self.positive = sum(e.sigma > 0 for e in edges)
        self.u = np.array([e.u for e in edges], dtype=np.intp)
        self.v = np.array([e.v for e in edges], dtype=np.intp)
        self.w = np.array([e.w if e.sigma > 0 else 2.0 * e.w for e in edges])[:, None]
        self.hit_product = np.array([-e.sigma for e in edges], dtype=np.int8)[:, None]
        # Bytes a pair of the work arrays of one range: the union and the
        # masks in mask_type (16), the sides (two words of mask_type and an
        # int8 copy per vertex), per edge two gathered sides rows, their
        # product and the hit (4), the terms of one sign class at a time (8
        # per edge of the larger class), and beta's temporaries (40).
        word = self.mask_type.itemsize
        widest = max(self.positive, len(edges) - self.positive)
        self.pair_bytes = 56 + (2 * word + 1) * n + 4 * len(edges) + 8 * widest

    def scores(self, parts: np.ndarray, rests: np.ndarray) -> np.ndarray:
        """beta of every pair (V1, V2) = (parts[i], rests[i]) of flat
        arrays, over the ranges of :func:`_ranges`."""
        beta = np.empty(len(parts))
        for lo, hi in _ranges(len(parts), self.pair_bytes):
            v1 = parts[lo:hi]
            v2 = rests[lo:hi]
            side = (v1.astype(self.mask_type) >> self.shifts) & 1
            side -= (v2.astype(self.mask_type) >> self.shifts) & 1
            side = side.astype(np.int8, copy=False)
            hit = side[self.u] * side[self.v] == self.hit_product
            ep = _edge_sum(_weighted(hit[: self.positive], self.w[: self.positive]))
            em = _edge_sum(_weighted(hit[self.positive :], self.w[self.positive :]))
            union = v1 | v2
            np.divide(2.0 * ep + em + self.bnd[union], self.mu[union], out=beta[lo:hi])
        return beta

    def pick(self, group: _Group, beta: np.ndarray) -> None:
        """Each union's least beta down its column of the flat `beta`
        (laid out as group.parts in column-major order), and the V1 of its
        first occurrence."""
        masks = group.masks
        beta = beta.reshape(group.parts.shape, order="F")
        arg = beta.argmin(axis=0)
        cols = np.arange(len(masks))
        self.betamin[masks] = beta[arg, cols]
        self.split[masks] = group.parts[arg, cols]


def _signed_tables(g: WeightedGraph) -> _SplitPass:
    """The signed split pass of g, run: its betamin and split (see
    :class:`_SplitPass`) fill every union, vertex 0's included (the full
    mask's pass reads them).

    Beyond the held plan the pass runs block by block over every built
    block of n.  Within it the held plan's flat pairs are scored in one call
    (beta holds at most _HELD_BYTES / 2: 231 KiB at n = 10) and each group's
    unions pick their splits from its slice of beta.
    """
    sp = _SplitPass(g)
    plan = _plan(g.n)
    if plan is None:
        for _, group in _blocks(g.n, 1):
            sp.pick(group, sp.scores(group.parts.ravel("F"), group.rests.ravel("F")))
    else:
        beta = sp.scores(plan.parts, plan.rests)
        for group, lo, hi in zip(plan.groups, plan.starts[:-1], plan.starts[1:]):
            sp.pick(group, beta[lo:hi])
    return sp


def rho_signed_profile(g: WeightedGraph, kmax: int | None = None) -> tuple[PartitionCertificate, ...]:
    """Exact signed rho^sigma_k certificates for every k = 1..kmax.

    Tabulates, per union mask U, the best split of U into (V1, V2) over the
    same pair blocks, and packs unions with the same subset DP as the
    unsigned profile.  Every split is scored bit for bit
    as :func:`beta_signed` scores it, so every value is too.  The work
    policy of :func:`rho_profile` applies, with the split pass counted.
    """
    kmax = g.n if kmax is None else kmax
    if not 1 <= kmax <= g.n:
        raise ValueError(f"kmax must be in [1, {g.n}]")
    return _solve(g, kmax, range(1, kmax + 1), signed=True)


# ---------------------------------------------------------------------------
# nodal sweep upper bound

def rho_upper_nodal_sweep(g: WeightedGraph, f) -> PartitionCertificate:
    """Constructive upper bound on rho_m from the strong nodal domains of f
    (entries with |f| <= 1e-10 max|f| count as zero, as in strong_nodal).

    Each of the m domains S_i is swept through its level sets
    S_i(t) = {x in S_i : |f(x)| >= t} over the distinct values t of |f| on
    S_i, keeping the set of least conductance (the largest such set on a
    tie).  Level sets of disjoint domains stay disjoint, so the returned
    certificate (k = m, exact False) certifies value >= rho_m(g).

    A level set is a prefix of its domain sorted by descending |f|.  If
    g holds its Phi table (a profile or rho_exact of this graph object
    ran, at n <= 17), each level set's Phi is read from it at the
    prefix's mask; otherwise it is evaluated per set, and no table is
    built.  Both are the same sum in the same order, so the bound is
    bit-identical either way.
    """
    if g.is_signed():
        raise ValueError("nodal sweep is defined for unsigned graphs")
    decomposition = strong_nodal(g, f)
    m = decomposition.count
    if m == 0:
        raise ValueError("function is identically zero (after zero rounding)")
    absf = [abs(x) for x in np.asarray(f, dtype=float).tolist()]
    phi = g._held.get("phi")  # read if held, never built here
    parts = []
    part_values = []
    for domain in decomposition.domains():
        # The level sets, largest first: the domain, then what is left as
        # the vertices of each least remaining |f| drop out.
        member = [False] * g.n
        mask = 0
        for x in domain:
            member[x] = True
            mask |= 1 << x
        best_phi = math.inf
        best_mask = 0
        by_value = sorted(domain, key=absf.__getitem__)
        for i, x in enumerate(by_value):
            if i == 0 or absf[by_value[i - 1]] != absf[x]:
                val = _phi_eval(g, member) if phi is None else phi.item(mask)
                if val < best_phi:
                    best_phi = val
                    best_mask = mask
            member[x] = False
            mask ^= 1 << x
        parts.extend(_parts_from_masks([best_mask]))
        part_values.append(best_phi)
    return PartitionCertificate(
        k=m,
        value=max(part_values),
        parts=tuple(sorted(parts)),
        signed=False,
        exact=False,
        states=0,
    )
