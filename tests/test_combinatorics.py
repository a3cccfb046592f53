import itertools
import math

import numpy as np
import pytest

from cubemoments import combinatorics as cb
from cubemoments.errors import InconsistentBlockError
from cubemoments.scalars import Q


def test_binomial_edges():
    assert cb.binomial(5, 2) == 10
    assert cb.binomial(5, -1) == 0
    assert cb.binomial(5, 6) == 0
    with pytest.raises(ValueError):
        cb.binomial(-1, 0)


def test_binomial_le():
    assert cb.binomial_le(4, 2) == 1 + 4 + 6
    assert cb.binomial_le(4, 0) == 1
    assert cb.binomial_le(4, 9) == 16


def test_multinomial():
    assert cb.multinomial(4, (2, 2)) == 6
    assert cb.multinomial(6, (1, 2, 3)) == 60
    assert cb.multinomial(3, (1, 1, 1)) == 6
    with pytest.raises(ValueError):
        cb.multinomial(4, (2, 1))
    with pytest.raises(ValueError):
        cb.multinomial(4, (5, -1))


def test_double_factorial():
    assert cb.double_factorial(-1) == 1
    assert cb.double_factorial(0) == 1
    assert cb.double_factorial(5) == 15
    assert cb.double_factorial(6) == 48
    with pytest.raises(ValueError):
        cb.double_factorial(-2)


def test_formal_half_binomial_frozen():
    # 3!!/(2 * 1! * 1!!) and 4!!/(2 * 1! * 2!!)
    assert cb.formal_half_binomial(3, 1) == Q(3, 2)
    assert cb.formal_half_binomial(4, 1) == 2
    assert cb.formal_half_binomial(7, 0) == 1
    with pytest.raises(ValueError):
        cb.formal_half_binomial(3, 3)


def test_formal_half_binomial_matches_integer_binomial_for_even_n():
    for n in range(0, 21, 2):
        for m in range(0, n // 2 + 1):
            assert cb.formal_half_binomial(n, m) == math.comb(n // 2, m)


def test_subset_order_frozen():
    # canonical order at n = 3: empty set then singletons by mask value
    assert cb.enumerate_subsets(3, 1) == [0, 0b001, 0b010, 0b100]
    subs = cb.enumerate_subsets(4, 2)
    sizes = [bin(s).count("1") for s in subs]
    assert sizes == sorted(sizes)
    for k in range(3):
        block = [s for s in subs if bin(s).count("1") == k]
        assert block == sorted(block)
    assert len(subs) == cb.binomial_le(4, 2)


def test_mask_round_trip():
    assert cb.elements_of_mask(0b1101) == (1, 3, 4)
    assert cb.elements_of_mask(0) == ()
    with pytest.raises(ValueError):
        cb.elements_of_mask(-1)


def test_subset_guard():
    with pytest.raises(ValueError):
        cb.enumerate_subsets(63, 1)
    with pytest.raises(ValueError):
        cb.subsets_of_size(-1, 0)


def test_partitions_and_classes():
    parts4 = cb.partitions(4)
    assert parts4 == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    sizes = dict(cb.conjugacy_classes(4))
    assert sizes[(1, 1, 1, 1)] == 1
    assert sizes[(2, 1, 1)] == 6
    assert sizes[(2, 2)] == 3
    assert sizes[(3, 1)] == 8
    assert sizes[(4,)] == 6
    for n in range(1, 8):
        assert sum(s for _, s in cb.conjugacy_classes(n)) == math.factorial(n)


def permutations_iter(n: int):
    """All of S_n as image tuples, in the lexicographic order of perm_table's
    rows: the order reference for the table.  Guarded like the table."""
    cb.check_n(n, cap=cb.BRUTE_FORCE_MAX_N)
    return itertools.permutations(range(n))


def test_permutation_helpers():
    perms = list(permutations_iter(3))
    assert len(perms) == 6
    assert cb.cycle_type_of_perm((1, 2, 0, 3)) == (3, 1)
    assert cb.cycle_type_of_perm((0, 1, 2)) == (1, 1, 1)
    assert cb.perm_image_mask((1, 2, 0), 0b001) == 0b010
    assert cb.perm_image_mask((1, 2, 0), 0b101) == 0b011
    with pytest.raises(ValueError):
        permutations_iter(10)


def test_perm_cycle_types_table():
    # perm_table against its references: permutations_iter's rows, cycle_type_of_perm's types
    for n in range(1, 8):
        bits, classes = cb.perm_table(n)
        perms = list(permutations_iter(n))
        types = [ct for ct, _ in cb.conjugacy_classes(n)]
        assert bits.dtype == (np.int8 if n < 7 else np.int16)
        assert not bits.flags.writeable and not classes.flags.writeable
        assert [tuple(b.bit_length() - 1 for b in row) for row in bits.tolist()] == perms
        assert [types[c] for c in classes.tolist()] == [cb.cycle_type_of_perm(p) for p in perms]
    for n in (8, 9):
        bits, classes = cb.perm_table(n)
        assert bits.shape == (math.factorial(n), n)
        tally = np.bincount(classes).tolist()
        assert tally == [cb.conjugacy_class_size(n, ct) for ct in cb.partitions(n)]
    with pytest.raises(ValueError):
        cb.perm_table(cb.BRUTE_FORCE_MAX_N + 1)


def test_perm_table_refuses_a_corrupted_class_index(monkeypatch):
    true_classes = cb._row_classes

    def corrupted(n, perms):
        classes = true_classes(n, perms)
        classes[1] = classes[0]  # the transposition (0, 1, 2, 4, 3) read as the identity
        return classes

    monkeypatch.setattr(cb, "_row_classes", corrupted)
    cb.perm_table.cache_clear()
    try:
        tallies = r"S_5 table tallies classes \[24, 30, 20, 20, 15, 9, 2\], not"
        with pytest.raises(InconsistentBlockError, match=tallies):
            cb.perm_table(5)
    finally:
        cb.perm_table.cache_clear()


def test_conjugacy_classes_is_a_tuple():
    classes = cb.conjugacy_classes(5)
    assert isinstance(classes, tuple)
    assert classes is cb.conjugacy_classes(5)
    assert [ct for ct, _ in reversed(classes)] == cb.partitions(5)[::-1]


def test_canonical_perm_of_cycle_type():
    for n in range(1, 8):
        for ct in cb.partitions(n):
            rep = cb.canonical_perm_of_cycle_type(n, ct)
            assert cb.cycle_type_of_perm(rep) == ct


def test_standard_tableaux_counts_and_order():
    for n in range(1, 11):
        for d in range(0, n // 2 + 1):
            tabs = cb.standard_two_row_tableaux(n, d)
            assert len(tabs) == cb.two_row_tableau_count(n, d)
            rows2 = [t[1] for t in tabs]
            assert rows2 == sorted(rows2)
            for row1, row2 in tabs:
                assert len(row1) == n - d and len(row2) == d
                for top, bottom in cb.tableau_column_pairs((row1, row2)):
                    assert top < bottom


def test_standard_tableaux_frozen_example():
    tabs = cb.standard_two_row_tableaux(3, 1)
    assert [cb.tableau_column_pairs(t) for t in tabs] == [[(1, 2)], [(1, 3)]]
    with pytest.raises(ValueError):
        cb.standard_two_row_tableaux(3, 2)
