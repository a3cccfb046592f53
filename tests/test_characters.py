import itertools
import math

import numpy as np
import pytest

from cubemoments import characters as ch
from cubemoments import combinatorics as cb
from cubemoments import pseudomoments as pm
from cubemoments.errors import UnsupportedCaseError
from cubemoments.scalars import Q
from test_combinatorics import cycle_type_of_perm, perm_image_mask


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
    # c_a counted by enumeration: the a-subsets the representative fixes
    for n in range(1, 9):
        for d in range(0, n // 2 + 1):
            for ct, _ in cb.conjugacy_classes(n):
                fixed = [0] + [ch._f_counts(n, a)[ct][a] for a in range(d + 1)]
                assert ch.char_two_row(n, d, ct) == fixed[-1] - fixed[-2]


def f_walk(n, a):
    # reference for _f_counts: each a-subset's image under the class
    # representative, one subset at a time
    table = {}
    for ct, _ in cb.conjugacy_classes(n):
        rep = cb.canonical_perm_of_cycle_type(n, ct)
        counts = [0] * (a + 1)
        for s in cb.subsets_of_size(n, a):
            counts[(perm_image_mask(rep, s) & s).bit_count()] += 1
        table[ct] = counts
    return table


def g_walk(n, a, b):
    # reference for _g_counts: every (A, B) subset pair per class
    table = {}
    for ct, _ in cb.conjugacy_classes(n):
        rep = cb.canonical_perm_of_cycle_type(n, ct)
        counts = [[0] * (min(a, b) + 1) for _ in range(min(a, b) + 1)]
        for s in cb.subsets_of_size(n, a):
            image = perm_image_mask(rep, s)
            for t in cb.subsets_of_size(n, b):
                counts[(s & t).bit_count()][(image & t).bit_count()] += 1
        table[ct] = counts
    return table


def test_g_counts_match_the_subset_pair_walk():
    for n in range(2, 10):
        top = n if n <= 7 else 4
        for a in range(top + 1):
            for b in range(a, top + 1):
                got = ch._g_counts(n, a, b)
                assert got == g_walk(n, a, b), (n, a, b)
                assert list(got) == [ct for ct, _ in cb.conjugacy_classes(n)]
                assert all(type(v) is int for m in got.values() for row in m for v in row)


# g_(a,b,k,l) on every class of S_4, rows k and columns l, for (a, b) =
# (1, 2) and (2, 2): each entry counted from image_overlap_counts, as the
# sum over pi of the class of #{(A, B) : |A cap B| = k, |pi(A) cap B| = l}
# over the class size
FROZEN_G_COUNTS_4 = {
    (1, 2): {
        (4,): [[4, 8], [8, 4]],
        (3, 1): [[6, 6], [6, 6]],
        (2, 2): [[4, 8], [8, 4]],
        (2, 1, 1): [[8, 4], [4, 8]],
        (1, 1, 1, 1): [[12, 0], [0, 12]],
    },
    (2, 2): {
        (4,): [[0, 4, 2], [4, 16, 4], [2, 4, 0]],
        (3, 1): [[0, 6, 0], [6, 12, 6], [0, 6, 0]],
        (2, 2): [[2, 0, 4], [0, 24, 0], [4, 0, 2]],
        (2, 1, 1): [[2, 4, 0], [4, 16, 4], [0, 4, 2]],
        (1, 1, 1, 1): [[6, 0, 0], [0, 24, 0], [0, 0, 6]],
    },
}


def test_g_counts_frozen_at_n4():
    # a tally kernel that counted every class as the identity would leave
    # each table diagonal
    for (a, b), frozen in FROZEN_G_COUNTS_4.items():
        assert ch._g_counts(4, a, b) == frozen, (a, b)


def test_frozen_g_counts_come_from_the_image_counts():
    for (a, b), frozen in FROZEN_G_COUNTS_4.items():
        for ct, size in cb.conjugacy_classes(4):
            total = [[0] * (a + 1) for _ in range(a + 1)]
            for s in cb.subsets_of_size(4, a):
                for image, by_type in ch.image_overlap_counts(4, s).items():
                    for t in cb.subsets_of_size(4, b):
                        total[(s & t).bit_count()][(image & t).bit_count()] += by_type.get(ct, 0)
            assert total == [[size * x for x in row] for row in frozen[ct]], (a, b, ct)


def test_f_counts_match_the_subset_walk():
    for n in range(2, 10):
        for a in range(n + 1):
            got = ch._f_counts(n, a)
            assert got == f_walk(n, a), (n, a)
            assert all(type(v) is int for row in got.values() for v in row)


def test_two_routes_check_detects_corrupted_counts(monkeypatch):
    # c_1 shifted by one on the generating-function side only
    true_counts = ch.fixed_subset_counts
    monkeypatch.setattr(
        ch,
        "fixed_subset_counts",
        lambda n, ct: [c + (t == 1) for t, c in enumerate(true_counts(n, ct))],
    )
    report = ch.two_row_routes_check(4)
    assert not report.ok and all("n=4" in w for w in report.details)


def test_identity_dimension():
    for n in range(1, 21):
        ident = (1,) * n
        for d in range(0, n // 2 + 1):
            assert ch.char_two_row(n, d, ident) == cb.two_row_tableau_count(n, d)


def test_orthonormality():
    for n in range(2, 8):
        for d1 in range(0, n // 2 + 1):
            for d2 in range(0, n // 2 + 1):
                ip = ch.class_inner(n, ch.char_class_function(n, d1), ch.char_class_function(n, d2))
                assert ip == (1 if d1 == d2 else 0)


def test_youngs_rule_multiplicities():
    # c_d decomposes with one copy of each two-row character up to d
    for n in range(2, 8):
        for d in range(0, n // 2 + 1):
            c_d = ch._class_function(n, lambda ct: ch.fixed_subset_counts(n, ct)[d])
            for dp in range(0, n // 2 + 1):
                ip = ch.class_inner(n, c_d, ch.char_class_function(n, dp))
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


def test_restricted_sums_sweep_once_per_a_subset():
    n = 5
    a_masks = {
        a_mask
        for d in range(1, cb.d_max(n) + 1)
        for a in range(d + 1)
        for b in range(d + 1)
        for _, a_mask, _ in cb.overlap_pairs(n, a, b)
    }
    ch.image_overlap_counts.cache_clear()
    assert ch.restricted_sums_check(n).ok
    assert ch.image_overlap_counts.cache_info().misses == len(a_masks)
    for a_mask in a_masks:
        counts = ch.image_overlap_counts(n, a_mask)
        assert len(counts) == cb.binomial(n, a_mask.bit_count())
        assert all(image.bit_count() == a_mask.bit_count() for image in counts)
        assert sum(sum(by_type.values()) for by_type in counts.values()) == math.factorial(n)


def test_image_overlap_counts_match_a_loop_over_the_permutations():
    for n in range(1, 7):
        for a_mask in range(1 << n):
            want = {}
            for perm in itertools.permutations(range(n)):
                by_type = want.setdefault(perm_image_mask(perm, a_mask), {})
                ct = cycle_type_of_perm(perm)
                by_type[ct] = by_type.get(ct, 0) + 1
            got = ch.image_overlap_counts(n, a_mask)
            assert got == want
            assert all(type(k) is int for k in got)
            assert all(type(c) is int for by_type in got.values() for c in by_type.values())


@pytest.fixture
def swapped_row(monkeypatch):
    """perm_table(5) with row 1, (0, 1, 2, 4, 3), overwritten by (1, 0, 2, 3, 4):
    the same cycle type, so its class index and every class tally still hold."""
    n = 5
    bits, classes = cb.perm_table(n)
    true_table = cb.perm_table
    row, swapped = (0, 1, 2, 4, 3), (1, 0, 2, 3, 4)
    assert [b.bit_length() - 1 for b in bits[1].tolist()] == list(row)
    assert cycle_type_of_perm(swapped) == cycle_type_of_perm(row)
    corrupt = bits.copy()
    corrupt[1] = [1 << i for i in swapped]
    sizes = [size for _, size in cb.conjugacy_classes(n)]
    assert np.bincount(classes).tolist() == sizes
    monkeypatch.setattr(cb, "perm_table", lambda m: (corrupt, classes) if m == n else true_table(m))
    ch.image_overlap_counts.cache_clear()
    yield n
    ch.image_overlap_counts.cache_clear()


@pytest.mark.parametrize(
    "check, witness",
    [
        (pm.isotypic_projection_check, "h_S projection differs at n=5, S="),
        (ch.restricted_sums_check, "restricted sum at n=5, d="),
    ],
)
def test_sweep_checks_fail_on_a_swapped_row_of_the_table(swapped_row, check, witness):
    report = check(swapped_row)
    assert not report.ok
    assert report.details and all(w.startswith(witness) for w in report.details)


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
        assert all(v == 1 for v in triv.values())
        assert ch.class_inner(n, triv, triv) == 1
        assert sum(cb.conjugacy_class_size(n, ct) for ct in triv) == math.factorial(n)


def test_cached_character_tables_are_read_only():
    # char_class_function caches and shares its table, so a write must fail
    # and leave the shared value in place for the next caller
    with pytest.raises(TypeError):
        ch.char_class_function(5, 1)[(5,)] = 0
    assert ch.char_class_function(5, 1)[(5,)] == ch.char_two_row(5, 1, (5,))
