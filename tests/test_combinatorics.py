import math

import pytest

from cubemoments import combinatorics as cb
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


def test_permutation_helpers():
    perms = list(cb.permutations_iter(3))
    assert len(perms) == 6
    assert cb.cycle_type_of_perm((1, 2, 0, 3)) == (3, 1)
    assert cb.cycle_type_of_perm((0, 1, 2)) == (1, 1, 1)
    assert cb.perm_image_mask((1, 2, 0), 0b001) == 0b010
    assert cb.perm_image_mask((1, 2, 0), 0b101) == 0b011
    with pytest.raises(ValueError):
        cb.permutations_iter(10)


def test_perm_cycle_types_table():
    for n in range(1, 8):
        table = cb.perm_cycle_types(n)
        assert list(table) == [cb.cycle_type_of_perm(p) for p in cb.permutations_iter(n)]
        # one shared tuple per conjugacy class
        assert len({id(ct) for ct in table}) == len(cb.partitions(n))
    with pytest.raises(ValueError):
        cb.perm_cycle_types(cb.BRUTE_FORCE_MAX_N + 1)


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
