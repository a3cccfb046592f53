"""Exact combinatorial primitives: counts, bitmask subsets, partitions,
permutations, and two-row standard tableaux.

Subsets of {1, ..., n} are plain int bitmasks, bit i-1 standing for element
i, with n capped at 62 so a subset always fits in one machine word.  The
canonical enumeration order everywhere is by size, then by mask value within
a size; every matrix row/column layout downstream derives from this order.
Permutations are tuples p of length n with p[i] the 0-based image of
position i.  Brute-force sweeps over S_n read one numpy table per n,
perm_table: every image tuple in lexicographic order (the order of
itertools.permutations, which permutations_iter in tests/test_combinatorics.py
states), as bit columns 1 << p[i], with each row's conjugacy class;
conjugacy_classes is memoized the same way.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import InconsistentBlockError
from .scalars import Q

MAX_N = 62
BRUTE_FORCE_MAX_N = 9      # full S_n sweeps stay below 9! = 362880 elements
PARTITION_MAX_N = 30


def check_n(n: int, cap: int = MAX_N) -> None:
    if not isinstance(n, int) or n < 0 or n > cap:
        raise ValueError(f"n must be an int in [0, {cap}], got {n!r}")


def d_max(n: int) -> int:
    """Largest subset size indexing the pseudomoment matrix: floor(n/2)."""
    return n // 2


def binomial(n: int, k: int) -> int:
    """C(n, k), with 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_le(n: int, k: int) -> int:
    """Number of subsets of [n] of size at most k."""
    return sum(binomial(n, j) for j in range(0, min(k, n) + 1)) if k >= 0 else 0


def multinomial(n: int, parts) -> int:
    """n! / (parts[0]! * parts[1]! * ...), parts nonnegative and summing to n."""
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial parts must be nonnegative, got {parts}")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {parts} do not sum to n = {n}")
    out = 1
    rest = n
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def double_factorial(m: int) -> int:
    """m!!, with the empty-product conventions (-1)!! = 0!! = 1."""
    if m < -1:
        raise ValueError(f"double factorial needs m >= -1, got {m}")
    return math.prod(range(m, 1, -2))


def formal_half_binomial(n: int, m: int):
    """The binomial C(n/2, m) read formally at half-integer n/2.

    Defined as n!! / (2^m * m! * (n-2m)!!), which agrees with C(n/2, m) for
    even n and interpolates it for odd n.  Requires 0 <= 2m <= n+1 so the
    trailing double factorial stays in its domain.
    """
    if m < 0 or 2 * m > n + 1:
        raise ValueError(f"formal_half_binomial needs 0 <= 2m <= n+1, got n={n}, m={m}")
    return Q(double_factorial(n), (2 ** m) * math.factorial(m) * double_factorial(n - 2 * m))


# ---------------------------------------------------------------------------
# bitmask subsets


def elements_of_mask(mask: int) -> tuple:
    """Sorted tuple of the 1-based elements of a bitmask."""
    if mask < 0:
        raise ValueError("subset masks are nonnegative")
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def subsets_of_size(n: int, k: int) -> list:
    """All size-k subsets of [n] as masks, ascending by mask value."""
    check_n(n)
    if k < 0 or k > n:
        return []
    masks = [sum(1 << i for i in combo) for combo in itertools.combinations(range(n), k)]
    masks.sort()
    return masks


def overlap_pairs(n: int, a: int, b: int) -> list:
    """One (k, A, B) for each feasible overlap k = |A cap B| of an a-subset
    A and a b-subset B of [n], ascending in k: A = {1..a}, and B is {1..k}
    plus the b-k elements right after a.  S_n acts transitively on the pairs
    with given (a, b, k), so these represent every orbit."""
    a_mask = (1 << a) - 1
    return [
        (k, a_mask, ((1 << k) - 1) | (((1 << (b - k)) - 1) << a))
        for k in range(max(0, a + b - n), min(a, b) + 1)
    ]


def enumerate_subsets(n: int, max_size: int) -> list:
    """All subsets of [n] of size <= max_size in canonical (size, mask) order."""
    check_n(n)
    out = []
    for k in range(0, min(max_size, n) + 1):
        out.extend(subsets_of_size(n, k))
    return out


# ---------------------------------------------------------------------------
# partitions and conjugacy classes


def partitions(n: int) -> list:
    """Integer partitions of n as non-increasing tuples, descending lex order."""
    check_n(n, cap=PARTITION_MAX_N)

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for tail in gen(remaining - part, part):
                yield (part,) + tail

    return list(gen(n, n))


def conjugacy_class_size(n: int, cycle_type) -> int:
    """Number of permutations of [n] with the given cycle type."""
    cycle_type = tuple(cycle_type)
    if sum(cycle_type) != n or any(c < 1 for c in cycle_type):
        raise ValueError(f"cycle type {cycle_type} is not a partition of {n}")
    centralizer = 1
    for length in set(cycle_type):
        m = cycle_type.count(length)
        centralizer *= (length ** m) * math.factorial(m)
    return math.factorial(n) // centralizer


@lru_cache(maxsize=None)
def conjugacy_classes(n: int) -> tuple:
    """(cycle_type, class_size) pairs for S_n, in descending lex order of type."""
    return tuple((ct, conjugacy_class_size(n, ct)) for ct in partitions(n))


# ---------------------------------------------------------------------------
# permutations


def cycle_type_of_perm(perm) -> tuple:
    """Cycle type of an image tuple, non-increasing."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


# bounds take_along_axis's index arrays: perm_table(9) peaks ~11 MB above imports, not ~22
_ROW_CHUNK = 1 << 14


def _row_classes(n: int, perms):
    """Each row's index into conjugacy_classes(n), coded as sum_i (n+1)^(cycle length at i),
    over chunks of _ROW_CHUNK rows, so that no index array spans the whole table."""
    keys = np.array([sum(l * (n + 1) ** l for l in ct) for ct, _ in conjugacy_classes(n)])
    order, ranked = np.argsort(keys), np.sort(keys)
    classes = np.empty(len(perms), np.int8)
    for lo in range(0, len(perms), _ROW_CHUNK):
        rows = perms[lo:lo + _ROW_CHUNK]
        codes, cur, unseen = np.zeros(len(rows), np.int64), rows, np.ones(rows.shape, bool)
        for step in range(1, n + 1):  # cur = p^step: positions back home now lie on step-cycles
            home = unseen & (cur == np.arange(n))
            codes += home.sum(axis=1) * (n + 1) ** step
            unseen &= ~home
            cur = np.take_along_axis(rows, cur, axis=1)
        classes[lo:lo + len(rows)] = order[np.searchsorted(ranked, codes)]
    return classes


@lru_cache(maxsize=None)
def perm_table(n: int) -> tuple:
    """Read-only (bits, classes) over S_n in lexicographic order of image tuples, n <= 9:
    bits[p, i] = 1 << p(i), and classes[p] indexes p's cycle type in
    conjugacy_classes(n).  InconsistentBlockError unless each class tallies its size."""
    check_n(n, cap=BRUTE_FORCE_MAX_N)
    perms = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, n + 1):  # each first image f in turn, then S_(m-1) relabelled past f
        perms = np.concatenate([np.insert(perms + (perms >= f), 0, f, axis=1) for f in range(m)])
    classes = _row_classes(n, perms)
    tally, sizes = np.bincount(classes).tolist(), [size for _, size in conjugacy_classes(n)]
    if tally != sizes:
        raise InconsistentBlockError(f"S_{n} table tallies classes {tally}, not {sizes}")
    bits = np.left_shift(1, perms, dtype=np.int8 if n < 7 else np.int16)
    bits.setflags(write=False)
    classes.setflags(write=False)
    return bits, classes


def perm_image_mask(perm, mask: int) -> int:
    """Image of a subset mask under a permutation of positions."""
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << perm[i]
        mask >>= 1
        i += 1
    return out


def canonical_perm_of_cycle_type(n: int, cycle_type) -> tuple:
    """One representative with cycles laid out left to right on 0..n-1."""
    if sum(cycle_type) != n:
        raise ValueError(f"cycle type {tuple(cycle_type)} is not a partition of {n}")
    perm = list(range(n))
    start = 0
    for length in cycle_type:
        for t in range(length):
            perm[start + t] = start + (t + 1) % length
        start += length
    return tuple(perm)


# ---------------------------------------------------------------------------
# two-row standard tableaux

# A standard tableau of shape (n-d, d) is determined by its second row
# {j_1 < ... < j_d}: column strictness is exactly j_a >= 2a for every a.


def standard_two_row_tableaux(n: int, d: int) -> list:
    """Standard tableaux of shape (n-d, d) as (row1, row2) tuples of 1-based
    entries, enumerated in lexicographic order of the second row."""
    if d < 0 or 2 * d > n:
        raise ValueError(f"two-row shape needs 0 <= d <= n/2, got n={n}, d={d}")
    if d == 0:
        return [(tuple(range(1, n + 1)), ())]
    out = []
    for row2 in itertools.combinations(range(1, n + 1), d):
        if all(j >= 2 * (a + 1) for a, j in enumerate(row2)):
            row1 = tuple(sorted(set(range(1, n + 1)) - set(row2)))
            out.append((row1, row2))
    return out


def tableau_column_pairs(tableau) -> list:
    """(top, bottom) entries of the d two-cell columns of a two-row tableau."""
    row1, row2 = tableau
    return list(zip(row1[: len(row2)], row2))


def two_row_tableau_count(n: int, d: int) -> int:
    """C(n, d) - C(n, d-1), the number of standard two-row tableaux."""
    return binomial(n, d) - binomial(n, d - 1)
