"""Argument guards: each refuses a bad argument with its own error and text."""

import numpy as np
import pytest

from cubemoments import apolar as ap
from cubemoments import characters as ch
from cubemoments import combinatorics as cb
from cubemoments import exactmat as xm
from cubemoments import pseudomoments as pm
from cubemoments import schur as su
from cubemoments import spectrum as sp
from cubemoments.rng import SplitMix64

_GUARDS = {
    # characters
    "char_g_inner d": (lambda: ch.char_g_inner(4, 3, 1, 1, 0, 0), "need 1 <= d <= n/2"),
    "char_g_inner sizes": (
        lambda: ch.char_g_inner(6, 2, 3, 2, 0, 0),
        "need 0 <= a <= b <= n",
    ),
    "char_g_inner overlaps": (
        lambda: ch.char_g_inner(6, 2, 2, 3, 3, 0),
        "overlaps k=3, l=0 outside [0, a]",
    ),
    "class_fn_g sizes": (lambda: ch.class_fn_g(4, 5, 1, 0, 0), "sizes a=5, b=1 outside"),
    "class_fn_g overlaps": (
        lambda: ch.class_fn_g(4, 2, 1, 2, 0),
        "overlaps k=2, l=0 outside [0, min(a,b)]",
    ),
    "g_to_f_expand sizes": (
        lambda: ch.g_to_f_expand(4, 2, 1, 0, 0),
        "expansion needs 0 <= a <= b <= n",
    ),
    "g_to_f_expand overlaps": (
        lambda: ch.g_to_f_expand(4, 1, 2, 0, 2),
        "overlaps k=0, l=2 outside [0, a]",
    ),
    "restricted_char_sum_closed d": (
        lambda: ch.restricted_char_sum_closed(4, 0, 0, 0, 0, 0),
        "need 1 <= d <= n/2",
    ),
    "restricted_char_sum_closed sizes": (
        lambda: ch.restricted_char_sum_closed(4, 2, -1, 2, 0, 0),
        "subset sizes a=-1, b=2 outside [0, 4]",
    ),
    "restricted_char_sum_closed overlap": (
        lambda: ch.restricted_char_sum_closed(4, 2, 2, 2, 3, 0),
        "impossible overlap 3 for sizes 2, 2",
    ),
    "char_two_row": (lambda: ch.char_two_row(4, 3, (4,)), "two-row shape needs"),
    "image_overlap_counts mask": (
        lambda: ch.image_overlap_counts(4, 16),
        "subset mask 16 outside subsets of [4]",
    ),
    "class_inner": (
        lambda: ch.class_inner(4, ch.char_class_function(3, 1), ch.char_class_function(4, 1)),
        "class functions live on different groups",
    ),
    # spectrum
    "multiplicity": (lambda: sp.multiplicity(4, 3), "need 0 <= d <= n/2"),
    "eta_sq": (lambda: sp.eta_sq(4, 1, 2), "need 0 <= d <= d' <= n/2"),
    "eta_sq_summation": (
        lambda: sp.eta_sq_summation(4, 3, 0),
        "need 0 <= d <= d' <= n/2",
    ),
    "lambda_via_frames": (lambda: sp.lambda_via_frames(4, 3), "need 0 <= d <= n/2"),
    "distinctness_and_order_report": (
        lambda: sp.distinctness_and_order_report(1),
        "need n >= 2, got 1",
    ),
    "gram_reconstruction_check": (
        lambda: sp.gram_reconstruction_check(1),
        "need n >= 2, got 1",
    ),
    "numeric_eigensolve": (lambda: sp.numeric_eigensolve(0), "need n >= 2, got 0"),
    # apolar
    "SpanPoly n": (lambda: ap.SpanPoly(1, 1), "frame needs n >= 2"),
    "SpanPoly degree": (lambda: ap.SpanPoly(3, -1), "degree must be nonnegative"),
    "SpanPoly indices": (
        lambda: ap.SpanPoly(3, 2, {(1, 4): 1}),
        "uses indices outside [1, 3]",
    ),
    "johnson_slice_gram d": (lambda: ap.johnson_slice_gram(6, 0), "need 1 <= d <= n/2"),
    # pseudomoments
    "balanced_measure_moment cap": (
        lambda: pm.balanced_measure_moment(pm.BALANCED_CLOSED_MAX_N + 2, 0),
        f"guarded at n <= {pm.BALANCED_CLOSED_MAX_N}",
    ),
    "balanced_measure_moment mask": (
        lambda: pm.balanced_measure_moment(4, 16),
        "subset mask 16 outside subsets of [4]",
    ),
    "balanced_measure_moment_enum": (
        lambda: pm.balanced_measure_moment_enum(5, 0),
        "the balanced measure needs even n >= 2, got 5",
    ),
    "isotypic_coefficient": (
        lambda: pm.isotypic_coefficient(4, 2, 3),
        "impossible overlap 3 for size 2",
    ),
    "E_hS_squared": (lambda: pm.E_hS_squared(4, 3), "need 0 <= d <= n/2"),
    # rng, combinatorics, schur
    "randint": (lambda: SplitMix64(1).randint(3, 2), "empty range [3, 2]"),
    "choice": (lambda: SplitMix64(1).choice([]), "cannot choose from an empty sequence"),
    "conjugacy_class_size": (
        lambda: cb.conjugacy_class_size(4, (2, 1)),
        "cycle type (2, 1) is not a partition of 4",
    ),
    "perm_table": (lambda: cb.perm_table(10), "n must be an int in [0, 9], got 10"),
    "check_n lower bound": (lambda: cb.check_n(1, 5, lo=2), "need n >= 2, got 1"),
    "canonical_perm_of_cycle_type": (
        lambda: cb.canonical_perm_of_cycle_type(4, [3]),
        "cycle type (3,) is not a partition of 4",
    ),
    "iterated_schur_on_Y": (lambda: su.iterated_schur_on_Y(1), "need n >= 2, got 1"),
    # exactmat
    "product_equals shapes": (
        lambda: xm.product_equals(
            ([1], np.zeros((2, 3), dtype=np.intp)),
            ([1], np.zeros((3, 2), dtype=np.intp)),
            ([1], np.zeros((2, 3), dtype=np.intp)),
            1,
            1,
        ),
        "shapes (2, 3) x (3, 2) != (2, 3)",
    ),
}


@pytest.mark.parametrize("name", sorted(_GUARDS))
def test_guard_refuses_bad_argument(name):
    call, fragment = _GUARDS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert fragment in str(info.value)
