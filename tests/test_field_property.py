"""Property tests: a term-list field computes each row alone, in any layout,
by square-and-multiply powers, products in axis order and sums in term order,
one output column at a time.
"""

import numpy as np
import pytest

from boxflow.flows import polynomial_field

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

coefficient = st.floats(-10.0, 10.0, allow_nan=False)
coordinate = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def fields(draw, top=12):
    """A term list of dimension 1 to 3 with exponents 0 to top, and some points."""
    d = draw(st.integers(1, 3))
    terms = draw(st.lists(st.fixed_dictionaries({
        "coeffs": st.lists(coefficient, min_size=d, max_size=d),
        "exponents": st.lists(st.integers(0, top), min_size=d, max_size=d),
    }), min_size=1, max_size=6))
    n = draw(st.integers(1, 8))
    pts = np.array(draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                                 min_size=n, max_size=n)))
    return terms, pts


def _oracle(terms, row):
    """One row of the field in plain floats: each power x*x*...*x left to
    right, their product in axis order, the terms summed in list order."""
    out = [0.0] * len(row)
    for term in terms:
        mono = 1.0
        for x, k in zip(row, term["exponents"]):
            if k:
                p = x
                for _ in range(k - 1):
                    p = p * x
                mono = mono * p
        for j, c in enumerate(term["coeffs"]):
            out[j] += mono * c
    return out


@settings(deadline=None)
@given(fields())
def test_a_row_has_the_bits_it_has_alone(case):
    terms, pts = case
    field = polynomial_field(terms, pts.shape[1])
    got = field(pts)
    for i in range(len(pts)):
        np.testing.assert_array_equal(got[i], field(pts[i:i + 1])[0])


@settings(deadline=None)
@given(fields())
def test_the_bits_do_not_depend_on_the_layout_of_the_points(case):
    terms, pts = case
    field = polynomial_field(terms, pts.shape[1])
    want = field(np.ascontiguousarray(pts))
    wide = np.zeros((2 * len(pts), 2 * pts.shape[1]))
    wide[::2, ::2] = pts
    for layout in (np.asfortranarray(pts), wide[::2, ::2]):
        np.testing.assert_array_equal(field(layout), want)


@settings(deadline=None)
@given(fields(top=3))
def test_low_powers_have_the_bits_of_left_to_right_products(case):
    terms, pts = case
    got = polynomial_field(terms, pts.shape[1])(pts)
    np.testing.assert_array_equal(got, [_oracle(terms, row) for row in pts.tolist()])


def _broadcast_sum(terms, pts):
    """The term sum as one broadcast product per term, out += mono[:, None] * c,
    with low powers as left-to-right products."""
    out = np.zeros_like(pts)
    for term in terms:
        mono = np.ones(len(pts))
        for x, k in zip(pts.T, term["exponents"]):
            if k:
                p = x
                for _ in range(k - 1):
                    p = p * x
                mono = mono * p
        out += mono[:, None] * np.array(term["coeffs"], dtype=float)
    return out


@settings(deadline=None)
@given(fields(top=3))
def test_the_column_sum_has_the_bits_of_the_broadcast_sum(case):
    terms, pts = case
    got = polynomial_field(terms, pts.shape[1])(pts)
    np.testing.assert_array_equal(got, _broadcast_sum(terms, pts))


def test_a_zero_coefficient_times_an_overflowed_power_stays_nan():
    # x^400 is exact at 0.5, 1 and 2 and overflows past 5.89, where the
    # zero coefficient of the second term turns it into NaN
    terms = [{"coeffs": [1.0, 0.0], "exponents": [0, 0]},
             {"coeffs": [0.0, 0.0], "exponents": [400, 0]}]
    pts = np.column_stack([[0.5, 1.0, 2.0, 6.0, 9.5], np.full(5, 0.5)])
    with np.errstate(over="ignore", invalid="ignore"):
        got = polynomial_field(terms, 2)(pts)
        np.testing.assert_array_equal(got, _broadcast_sum(terms, pts))
    assert np.isnan(got[3:]).all() and np.array_equal(got[:3], [[1.0, 0.0]] * 3)
