"""Dense exact matrix helpers over rational scalars.

Matrices are plain list-of-list rows holding ints or exact rationals; all
arithmetic stays exact.  dot is the exact inner product of two vectors,
skipping zero factors.  integer_form scales a rational matrix to ints by
the lcm of its denominators, so products can run over Python ints and be
divided back once at the end.  rank, det, solve_consistent and the Schur
complement in schur.py share one Gaussian elimination kernel, eliminate,
which divides by its pivots over Q and picks them deterministically (first
nonzero entry of each column, from the top).  The semidefiniteness check
psd_pivots runs its own sparse symmetric elimination with diagonal pivots.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul

from .errors import InconsistentBlockError
from .scalars import Q, QZERO


def mat_mul(a: list, b: list) -> list:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a != 0 and b != 0), QZERO)


def _scaled_int(x, den: int) -> int:
    """den * x for an exact rational x, as a Python int; a product that is
    not an integer raises InconsistentBlockError and is never truncated."""
    value, rest = divmod(int(x.numerator) * den, int(x.denominator))
    if rest:
        raise InconsistentBlockError(f"{den} * {x} is not an integer")
    return value


def integer_form(rows: list):
    """(int_rows, den): den is the lcm of the denominators of the exact
    entries of rows and int_rows = den * rows entrywise, over Python ints."""
    den = math.lcm(*(int(x.denominator) for row in rows for x in row))
    return [[_scaled_int(x, den) for x in row] for row in rows], den


def mat_trace(a: list):
    return sum(a[i][i] for i in range(len(a)))


def mat_eq(a: list, b: list) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def is_symmetric(a: list) -> bool:
    m = len(a)
    return all(a[i][j] == a[j][i] for i in range(m) for j in range(i + 1, m))


def eliminate(
    work: list, cols: int, pivot_rows: int = None, reduce_above: bool = False
):
    """Gaussian elimination of work's first cols columns, in place.

    Columns go left to right; the pivot is the first nonzero entry from the
    top among the unused rows of range(pivot_rows) (default: every row), and
    it is swapped up to the next pivot position.  Each pivot clears its
    column in the rows below it, including rows past pivot_rows, and in the
    rows above it too when reduce_above is set.  Rows with a zero in the
    pivot column are skipped; the others are updated from the pivot column
    onward.  Returns (pivot columns, number of row swaps); the pivot of
    pivot_cols[i] sits in work[i].
    """
    rows = len(work)
    width = len(work[0]) if rows else 0
    if pivot_rows is None:
        pivot_rows = rows
    pivot_cols = []
    swaps = 0
    for c in range(cols):
        r = len(pivot_cols)
        if r == pivot_rows:
            break
        pivot_row = next((i for i in range(r, pivot_rows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            swaps += 1
        wr = work[r]
        inv = 1 / wr[c]
        targets = range(r + 1, rows)
        if reduce_above:
            targets = chain(range(r), targets)
        for i in targets:
            wi = work[i]
            if wi[c] != 0:
                f = wi[c] * inv
                for j in range(c, width):
                    wi[j] = wi[j] - f * wr[j]
        pivot_cols.append(c)
    return pivot_cols, swaps


def require_zero_tails(rows: list, start: int) -> None:
    """Raise InconsistentBlockError unless the given rows, eliminated rows
    left without a pivot, are zero from column start on."""
    for row in rows:
        bad = next((j for j, x in enumerate(row[start:]) if x != 0), None)
        if bad is not None:
            raise InconsistentBlockError(
                f"right-hand side column {bad} is outside the column space"
            )


def _exact(a: list) -> list:
    return [[Q(x) for x in row] for row in a]


def rank(a: list) -> int:
    """Exact rank via row elimination; works for rectangular matrices."""
    return len(eliminate(_exact(a), len(a[0]) if a else 0)[0])


def det(a: list):
    """Exact determinant via elimination with row swaps."""
    m = len(a)
    work = _exact(a)
    pivot_cols, swaps = eliminate(work, m)
    if len(pivot_cols) < m:
        return QZERO
    out = Q(1)
    for i in range(m):
        out = out * work[i][i]
    return -out if swaps % 2 else out


def solve_consistent(a: list, b: list) -> list:
    """One exact solution X of A X = B, free variables pinned to zero.

    A may be singular; if some column of B leaves the column space of A the
    system has no solution and InconsistentBlockError is raised.  For
    symmetric A the returned X makes expressions of the form C - B^T X
    independent of which solution was picked.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    width = len(b[0]) if rows else 0
    work = [[Q(x) for x in a[i]] + [Q(y) for y in b[i]] for i in range(rows)]
    pivot_cols, _ = eliminate(work, cols, reduce_above=True)
    require_zero_tails(work[len(pivot_cols):], cols)
    x = [[QZERO] * width for _ in range(cols)]
    for idx, c in enumerate(pivot_cols):
        inv = 1 / work[idx][c]
        for j in range(width):
            x[c][j] = work[idx][cols + j] * inv
    return x


def psd_pivots(a: list):
    """Exact semidefiniteness test for a symmetric matrix.

    Symmetric elimination with diagonal pivoting: returns (True, pivots) when
    the matrix is positive semidefinite, with pivots the rank-many positive
    pivots encountered; returns (False, witness_string) otherwise.  Relies on
    the fact that a PSD matrix with a zero diagonal entry has that whole row
    zero, so finding a nonzero off-diagonal entry among zero-diagonal rows
    refutes semidefiniteness.
    """
    m = len(a)
    if not is_symmetric(a):
        return (False, "matrix is not symmetric")
    work = {i: {j: Q(a[i][j]) for j in range(m) if a[i][j] != 0} for i in range(m)}
    active = set(range(m))
    pivots = []
    while True:
        pivot = next((i for i in sorted(active) if work[i].get(i, QZERO) != 0), None)
        if pivot is None:
            for i in sorted(active):
                row = work[i]
                bad = next((j for j in sorted(row) if j in active and row[j] != 0), None)
                if bad is not None:
                    return (False, f"zero diagonal at {i} with nonzero entry at column {bad}")
            return (True, pivots)
        p = work[pivot].get(pivot)
        if p < 0:
            return (False, f"negative pivot {p} at index {pivot}")
        pivots.append(p)
        active.discard(pivot)
        prow = work[pivot]
        targets = [i for i in active if prow.get(i, QZERO) != 0]
        for i in targets:
            f = prow[i] / p
            wi = work[i]
            for j, v in prow.items():
                if j in active:
                    new = wi.get(j, QZERO) - f * v
                    if new == 0:
                        wi.pop(j, None)
                    else:
                        wi[j] = new
    # unreachable
