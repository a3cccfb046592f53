import math

import pytest

from cubemoments import characters as ch
from cubemoments import combinatorics as cb
from cubemoments.errors import UnsupportedCaseError
from cubemoments.scalars import Q


def test_fixed_subset_counts_frozen():
    assert ch.fixed_subset_counts(3, (2, 1)) == [1, 1, 1, 1]
    assert ch.fixed_subset_counts(4, (1, 1, 1, 1)) == [1, 4, 6, 4, 1]
    assert ch.fixed_subset_counts(4, (4,)) == [1, 0, 0, 0, 1]
    with pytest.raises(ValueError):
        ch.fixed_subset_counts(4, (3, 2))


def test_char_two_row_frozen_table_s4():
    # chi_(2,2) on classes (1^4), (2,1,1), (2,2), (3,1), (4)
    expected = {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0}
    for ct, value in expected.items():
        assert ch.char_two_row(4, 2, ct) == value
    # chi_(3,1) is the standard representation character
    expected1 = {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1}
    for ct, value in expected1.items():
        assert ch.char_two_row(4, 1, ct) == value


def test_two_routes_agree():
    for n in range(1, 9):
        for d in range(0, n // 2 + 1):
            for ct, _ in cb.conjugacy_classes(n):
                assert ch.char_two_row(n, d, ct) == ch.char_two_row_frobenius(n, d, ct)


def test_identity_dimension():
    for n in range(1, 21):
        ident = (1,) * n
        for d in range(0, n // 2 + 1):
            assert ch.char_two_row(n, d, ident) == cb.two_row_tableau_count(n, d)


def test_orthonormality():
    for n in range(2, 8):
        for d1 in range(0, n // 2 + 1):
            for d2 in range(0, n // 2 + 1):
                ip = ch.char_class_function(n, d1).inner(ch.char_class_function(n, d2))
                assert ip == (1 if d1 == d2 else 0)


def test_youngs_rule_multiplicities():
    # c_d decomposes with one copy of each two-row character up to d
    for n in range(2, 8):
        for d in range(0, n // 2 + 1):
            c_d = ch._class_function(n, lambda ct: ch.fixed_subset_counts(n, ct)[d])
            for dp in range(0, n // 2 + 1):
                ip = c_d.inner(ch.char_class_function(n, dp))
                assert ip == (1 if dp <= d else 0)


def test_restricted_sum_closed_frozen():
    assert ch.restricted_char_sum_closed(4, 1, 1, 1, 0, 1) == Q(-1, 12)
    assert ch.restricted_char_sum_closed(3, 1, 1, 1, 1, 1) == Q(1, 3)
    assert ch.restricted_char_sum_closed(3, 1, 1, 1, 0, 0) == Q(1, 6)
    assert ch.restricted_char_sum_closed(4, 2, 1, 2, 1, 1) == 0
    with pytest.raises(UnsupportedCaseError):
        ch.restricted_char_sum_closed(6, 2, 3, 2, 1, 1)
    with pytest.raises(ValueError):
        ch.restricted_char_sum_closed(4, 1, 1, 1, 1, 2)


def masks_with_overlap(a, b, overlap, d):
    # A = {1..a}; B shares exactly `overlap` low elements then continues past a
    b_elems = list(range(1, overlap + 1)) + list(range(a + 1, a + 1 + b - overlap))
    return (1 << a) - 1, sum(1 << (e - 1) for e in b_elems)


def test_restricted_sum_closed_vs_bruteforce():
    for n in range(2, 7):
        for d in range(1, n // 2 + 1):
            for a in range(0, d + 1):
                for b in range(0, d + 1):
                    for overlap in range(max(0, a + b - n), min(a, b) + 1):
                        a_mask, b_mask = masks_with_overlap(a, b, overlap, d)
                        for k in range(0, min(a, b) + 1):
                            closed = ch.restricted_char_sum_closed(n, d, a, b, overlap, k)
                            brute = ch.restricted_char_sum_bruteforce(n, d, a_mask, b_mask, k)
                            assert closed == brute, (n, d, a, b, overlap, k)


def test_restricted_sum_conjugation_invariance():
    # the average only depends on (|A|, |B|, |A cap B|), not on the sets
    n, d = 5, 2
    pairs = [((1, 2), (3, 4)), ((2, 5), (1, 3)), ((1, 4), (2, 3))]
    values = []
    for a_elems, b_elems in pairs:
        a_mask = sum(1 << (e - 1) for e in a_elems)
        b_mask = sum(1 << (e - 1) for e in b_elems)
        values.append([ch.restricted_char_sum_bruteforce(n, d, a_mask, b_mask, k) for k in range(3)])
    assert values[0] == values[1] == values[2]


def test_euler_transform_check():
    for n in range(1, 6):
        report = ch.euler_transform_check(n)
        assert report.ok, report.details[:3]
        assert report.checked > 0


def test_char_g_inner_closed_vs_direct():
    # the comparison itself is char_inner_check, run by acceptance criterion 06
    with pytest.raises(UnsupportedCaseError):
        ch.char_g_inner(6, 2, 3, 3, 0, 0)


def test_char_g_inner_frozen():
    assert ch.char_g_inner(4, 1, 1, 1, 0, 0) == 1
    assert ch.char_g_inner(4, 1, 0, 2, 0, 0) == 0


def test_class_function_inner_normalization():
    # inner of the trivial character with itself is 1
    for n in range(1, 7):
        triv = ch.char_class_function(n, 0)
        assert all(v == 1 for _, v in triv.values)
        assert triv.inner(triv) == 1
        assert sum(cb.conjugacy_class_size(n, ct) for ct, _ in triv.values) == math.factorial(n)
