"""The two sparse polynomial kinds and the frame image between them."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemoments import apolar as ap
from cubemoments import combinatorics as cb
from cubemoments import pseudomoments as pm
from cubemoments.scalars import Q
from test_combinatorics import perm_image_mask

PROPERTY = settings(max_examples=25, deadline=None)

coefficients = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))


def multilinear(n, masks=None):
    """Random MultilinearPoly on n coordinates, keys drawn from masks."""
    keys = st.integers(0, (1 << n) - 1) if masks is None else st.sampled_from(masks)
    return st.dictionaries(keys, coefficients, max_size=4).map(
        lambda c: pm.MultilinearPoly(n, c)
    )


def span(n, degree):
    """Random degree-d SpanPoly on an n-frame."""
    keys = st.lists(st.integers(1, n), min_size=degree, max_size=degree).map(
        lambda k: tuple(sorted(k))
    )
    return st.dictionaries(keys, coefficients, max_size=3).map(
        lambda c: ap.SpanPoly(n, degree, c)
    )


def relabel(p, perm):
    """p with its n coordinates permuted (perm a 0-based image tuple):
    subset masks map by perm_image_mask, frame index tuples pointwise."""
    if isinstance(p, pm.MultilinearPoly):
        return pm.MultilinearPoly(p.n, {perm_image_mask(perm, k): c for k, c in p.coeffs.items()})
    return ap.SpanPoly(
        p.n, p.degree, {tuple(sorted(perm[i - 1] + 1 for i in k)): c for k, c in p.coeffs.items()}
    )


def exact(p) -> bool:
    """No coefficient is a float: each is an int or an exact rational."""
    return all(isinstance(c, (int, Fraction, Q)) for c in p.coeffs.values())


def test_mixed_kinds_refuse_to_multiply():
    cube, frame = pm.x_sum(3), ap.frame_sum(3)
    with pytest.raises(TypeError, match="'MultilinearPoly' and 'SpanPoly'"):
        cube * frame
    with pytest.raises(TypeError, match="'SpanPoly' and 'MultilinearPoly'"):
        frame * cube
    with pytest.raises(TypeError):
        cube + frame


def test_multilinear_refuses_floats():
    with pytest.raises(TypeError, match="float"):
        pm.x_sum(3) * 0.5
    with pytest.raises(TypeError, match="float"):
        0.5 * pm.x_sum(3)
    with pytest.raises(TypeError, match="float"):
        pm.MultilinearPoly(3, {1: 0.5})
    assert (pm.x_sum(3) * Q(1, 2)).coeffs == {1: Q(1, 2), 2: Q(1, 2), 4: Q(1, 2)}


def test_span_poly_refuses_floats():
    with pytest.raises(TypeError, match="float"):
        ap.SpanPoly(3, 1, {(1,): 0.5})
    with pytest.raises(TypeError, match="float"):
        ap.frame_sum(3) * 0.5
    with pytest.raises(TypeError, match="float"):
        ap.frame_sum(3).scaled(0.5)
    with pytest.raises(TypeError, match="float"):
        ap.span_monomial(3, (1, 2), 0.5)


def test_frame_image_needs_one_degree():
    assert ap.frame_image(3 * pm.x_monomial(4, 0b0101), 2) == ap.span_monomial(4, (1, 3), 3)
    assert ap.frame_image(pm.MultilinearPoly(4), 2) == ap.SpanPoly(4, 2)
    with pytest.raises(ValueError):
        ap.frame_image(pm.x_monomial(4, 0b0101) + pm.x_monomial(4, 0b0001), 2)
    with pytest.raises(ValueError):
        ap.frame_image(pm.x_sum(4), 2)
    with pytest.raises(TypeError):
        ap.frame_image(ap.frame_sum(4), 1)


@PROPERTY
@given(st.data(), st.integers(1, 4))
def test_multilinear_ring_laws(data, n):
    p, q, r = (data.draw(multilinear(n)) for _ in range(3))
    perm = data.draw(st.permutations(range(n)))
    square = pm.x_monomial(n, data.draw(st.integers(0, (1 << n) - 1)))
    assert p * square * square == p  # x_i^2 = 1
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert relabel(p * q, perm) == relabel(p, perm) * relabel(q, perm)
    assert relabel(p - q, perm) == relabel(p, perm) - relabel(q, perm)
    assert all(exact(x) for x in (p * q, p + r, -q, p * (q - r), 3 * p, relabel(p, perm)))


@PROPERTY
@given(st.data(), st.integers(2, 4), st.integers(0, 2), st.integers(0, 2))
def test_span_poly_ring_laws(data, n, a, b):
    p, r = data.draw(span(n, a)), data.draw(span(n, a))
    q, s = data.draw(span(n, b)), data.draw(span(n, 1))
    perm = data.draw(st.permutations(range(n)))
    assert (p * q) * s == p * (q * s)
    assert q * (p + r) == q * p + q * r
    assert p * q == q * p
    assert relabel(p * q, perm) == relabel(p, perm) * relabel(q, perm)
    assert relabel(p - r, perm) == relabel(p, perm) - relabel(r, perm)
    assert all(exact(x) for x in (p * q, p + r, -q, q * (p - r), Q(2, 3) * p, relabel(p, perm)))


@PROPERTY
@given(st.data(), st.integers(2, 6), st.integers(0, 2))
def test_frame_image_is_additive_and_equivariant(data, n, d):
    masks = cb.subsets_of_size(n, d)
    p, q = data.draw(multilinear(n, masks)), data.draw(multilinear(n, masks))
    perm = data.draw(st.permutations(range(n)))
    image = ap.frame_image(p, d)
    assert ap.frame_image(p + q, d) == image + ap.frame_image(q, d)
    assert ap.frame_image(relabel(p, perm), d) == relabel(image, perm)
    assert exact(image)


@PROPERTY
@given(st.data(), st.integers(2, 6))
def test_frame_image_is_multiplicative_on_disjoint_supports(data, n):
    split = data.draw(st.integers(1, n - 1))
    a = data.draw(st.integers(0, split))
    b = data.draw(st.integers(0, n - split))
    low = [m for m in cb.subsets_of_size(n, a) if m < 1 << split]
    high = [m for m in cb.subsets_of_size(n, b) if m & ((1 << split) - 1) == 0]
    p, q = data.draw(multilinear(n, low)), data.draw(multilinear(n, high))
    assert ap.frame_image(p * q, a + b) == ap.frame_image(p, a) * ap.frame_image(q, b)
