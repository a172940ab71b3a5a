"""Exponential integral, inverse table and quadrature helpers."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levykle.models import from_density
from levykle.special import (
    E1_SERIES_FROM,
    MonotoneInverseTable,
    QuadratureError,
    build_e1_inverse,
    default_e1_inverse,
    e1_inverse,
    exp_integral_e1,
    quad,
    quad_vector,
)

# Reference values computed with mpmath at 50 significant digits.
E1_AT_ONE = 0.21938393439552026
E1_INV_AT_TWO = 0.08237202962072026
E1_INV_AT_DOMAIN_HI = 1.0044962730171222e-20
E1_INV_AT_DOMAIN_LO = 44.99995139515026
# E1 at x spanning the table's abscissae and beyond, from mpmath at 40 digits.
E1_PINNED = {
    1e-18: 40.86931600899129,
    1e-06: 13.23829589306249,
    0.5: 0.5597735947761608,
    3.0: 0.013048381094197037,
    45.0: 6.225690809462384e-22,
    600.0: 4.409989794509838e-264,
}
# relative error allowed for exp_integral_e1 by the monotonicity property
E1_REL_ERR = 1e-13


class TestExpIntegral:
    def test_reference_value_at_one(self):
        assert exp_integral_e1(1.0) == pytest.approx(E1_AT_ONE, rel=1e-14)

    def test_agrees_with_mpmath_across_range(self):
        for x, ref in E1_PINNED.items():
            assert exp_integral_e1(x) == pytest.approx(ref, rel=1e-14), x

    def test_series_and_continued_fraction_meet_smoothly(self):
        # E1 codes commonly switch from a power series to a continued
        # fraction at x = 1; the value must not jump there.
        for x in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
            assert exp_integral_e1(x) == pytest.approx(E1_AT_ONE, rel=1e-9)

    def test_vector_input_matches_scalars(self):
        xs = np.array([1e-6, 0.5, 1.0, 3.0, 50.0])
        vec = exp_integral_e1(xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert exp_integral_e1(float(x)) == v

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(ValueError):
            exp_integral_e1(bad)

    @given(st.floats(min_value=1e-18, max_value=600.0),
           st.floats(min_value=1e-18, max_value=600.0))
    @settings(max_examples=80, deadline=None)
    @example(1e-18, 1.0000000000000003e-18)
    def test_strictly_decreasing(self, a, b):
        # E1' = -exp(-x)/x, so E1(lo) - E1(hi) >= (hi - lo) exp(-hi) / hi.
        # The decrease must show wherever that gap exceeds twice the
        # documented relative error; closer points (such as adjacent doubles
        # near 1e-18) may round to equal values but never increase.
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        e_lo, e_hi = exp_integral_e1(lo), exp_integral_e1(hi)
        if (hi - lo) * math.exp(-hi) / hi > 2.0 * E1_REL_ERR * e_lo:
            assert e_lo > e_hi
        else:
            assert e_hi <= e_lo * (1.0 + 2.0 * E1_REL_ERR)


class TestInverseTable:
    def test_default_table_shape_and_spacing(self, e1_table):
        assert len(e1_table.breakpoints) == 200_000
        assert e1_table.domain_lo == 6.226e-22
        assert e1_table.domain_hi == 45.47
        assert np.diff(e1_table.breakpoints).max() <= 0.00231

    def test_reference_inversions(self, e1_table):
        assert e1_table(2.0) == pytest.approx(E1_INV_AT_TWO, rel=1e-12)
        assert e1_table(e1_table.domain_hi) == pytest.approx(E1_INV_AT_DOMAIN_HI, rel=1e-9)
        assert e1_table(e1_table.domain_lo) == pytest.approx(E1_INV_AT_DOMAIN_LO, rel=1e-12)

    def test_roundtrip_identity_over_tabulated_range(self, e1_table):
        xs = np.logspace(math.log10(e1_table.values.min() * 1.01),
                         math.log10(e1_table.values.max() * 0.99), 500)
        err = np.abs(e1_table(exp_integral_e1(xs)) - xs) / np.maximum(1.0, xs)
        assert err.max() <= 1e-8

    def test_clamp_above_domain_returns_smallest_x(self, e1_table):
        # Larger y than tabulated means a jump smaller than the floor.
        assert e1_table(1e3) == e1_table.values[-1]

    def test_clamp_below_domain_returns_zero(self, e1_table):
        assert e1_table(1e-30) == 0.0
        assert e1_table(0.0) == 0.0

    def test_vectorized_matches_scalar_with_clamps(self, e1_table):
        ys = np.array([1e-30, 6.226e-22, 1e-5, 2.0, 45.47, 1e3])
        vec = e1_table(ys)
        assert np.array_equal(vec, np.array([e1_table(float(y)) for y in ys]))

    def test_rejects_nan(self, e1_table):
        with pytest.raises(ValueError):
            e1_table(math.nan)

    @given(y=st.floats(min_value=1e-19, max_value=45.46))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, e1_table, y):
        x = e1_table(y)
        assert x > 0.0
        assert abs(exp_integral_e1(x) - y) <= 1e-8 * max(1.0, y)

    def test_custom_build_respects_spacing_bound(self):
        with pytest.raises(ValueError, match="spacing"):
            build_e1_inverse(6.226e-22, 45.47, 2000)

    def test_custom_build_small_domain(self):
        table = build_e1_inverse(1e-3, 1.0, 5000)
        xs = np.logspace(math.log10(table.values.min() * 1.01),
                         math.log10(table.values.max() * 0.99), 50)
        err = np.abs(table(exp_integral_e1(xs)) - xs) / np.maximum(1.0, xs)
        assert err.max() <= 1e-8

    def test_table_validates_monotonicity(self):
        # Four points, so that the size check does not fire first.
        with pytest.raises(ValueError, match="breakpoints must be strictly increasing"):
            MonotoneInverseTable(
                breakpoints=np.array([0.1, 0.3, 0.2, 0.4]),
                values=np.array([4.0, 3.0, 2.0, 1.0]),
                forward=exp_integral_e1,
                forward_derivative=lambda x: -math.exp(-x) / x,
            )
        with pytest.raises(ValueError, match="values must be strictly decreasing"):
            MonotoneInverseTable(breakpoints=np.array([0.1, 0.2, 0.3, 0.4]),
                                 values=np.array([4.0, 3.0, 3.0, 1.0]))

    def test_domain_is_the_breakpoints(self):
        table = MonotoneInverseTable(breakpoints=np.array([0.1, 0.2, 0.3, 0.5]),
                                     values=np.array([4.0, 3.0, 2.0, 1.0]))
        assert (table.domain_lo, table.domain_hi) == (0.1, 0.5)
        assert table(0.1) == 4.0 and table(0.5) == pytest.approx(1.0, rel=1e-15)
        assert table(0.05) == 0.0 and table(0.7) == 1.0
        with pytest.raises(AttributeError):
            table.domain_lo = 0.0

    def test_default_table_is_cached(self):
        assert default_e1_inverse() is default_e1_inverse()


class TestE1Inverse:
    """The closed form from y = 20 and the table below it."""

    @staticmethod
    def _series_grid(e1_table):
        below = np.nextafter(E1_SERIES_FROM, 0.0)
        above = np.nextafter(E1_SERIES_FROM, np.inf)
        grid = np.linspace(E1_SERIES_FROM, e1_table.domain_hi, 20001)
        return np.concatenate([[below, E1_SERIES_FROM, above], grid])

    def test_agrees_with_table_past_branch_point(self, e1_table):
        ys = self._series_grid(e1_table)
        ref = e1_table(ys)
        assert np.max(np.abs(e1_inverse(ys) - ref) / ref) <= 1e-14

    def test_branch_point_neighbours(self, e1_table):
        below = np.nextafter(E1_SERIES_FROM, 0.0)
        # Below 20 the table answers; from 20 on the closed form does.
        assert e1_inverse(below) == e1_table(below)
        for y in (E1_SERIES_FROM, np.nextafter(E1_SERIES_FROM, np.inf)):
            x0 = math.exp(-np.euler_gamma - y)
            assert e1_inverse(y) == pytest.approx(x0 * (1.0 + x0), rel=1e-15)
        assert e1_inverse(below) > e1_inverse(E1_SERIES_FROM)

    def test_below_branch_point_is_the_table(self, e1_table):
        bp = e1_table.breakpoints[::997]
        ys = np.concatenate([bp[bp < E1_SERIES_FROM], [1e-30, 0.0, 19.999]])
        assert np.array_equal(e1_inverse(ys), e1_table(ys))

    def test_residual_within_a_few_rounding_errors(self, e1_table):
        ys = self._series_grid(e1_table)[1:]
        resid = np.abs(exp_integral_e1(e1_inverse(ys)) - ys)
        assert np.max(resid / (ys * np.finfo(float).eps)) <= 1.1

    def test_table_contract(self, e1_table):
        assert e1_inverse(1e3) == e1_table.values[-1]
        assert e1_inverse(math.inf) == e1_table.values[-1]
        assert e1_inverse(1e-30) == 0.0 and e1_inverse(-1.0) == 0.0
        for bad in (math.nan, np.array([30.0, math.nan, 2.0])):
            with pytest.raises(ValueError):
                e1_inverse(bad)
        for y in (30.0, 2.0, 1e3, 1e-30):
            assert type(e1_inverse(y)) is float
        assert e1_inverse(np.full((2, 3), 30.0)).shape == (2, 3)

    def test_element_bits_do_not_depend_on_the_array(self, e1_table):
        # np.exp and the table run on the gathered subsets of each branch,
        # whose lengths and positions change with the other elements.
        rng = np.random.default_rng(15)
        ys = np.concatenate([rng.uniform(0.0, 46.0, 997), self._series_grid(e1_table)[:3],
                             [1e-30, 45.47, 1e3]])
        together = e1_inverse(ys).view(np.int64)
        alone = np.array([e1_inverse(float(y)) for y in ys]).view(np.int64)
        assert np.array_equal(together, alone)
        shuffled = rng.permutation(len(ys))
        assert np.array_equal(e1_inverse(ys[shuffled]).view(np.int64), together[shuffled])
        assert np.array_equal(e1_inverse(ys[ys >= E1_SERIES_FROM]).view(np.int64),
                              together[ys >= E1_SERIES_FROM])


def _density_table(density):
    """The log-log inverse table that ``from_density`` binds into ``g_inv``."""
    g_inv = from_density("indexed", density).tail_pos.g_inv
    return inspect.signature(g_inv).parameters["_t"].default


@pytest.fixture(scope="module")
def indexed_tables(e1_table):
    # Two E1 tables (u = 1 + log y below 1) and three from_density tables
    # (u = y); the finite-activity 2 exp(-x) has near-equal log g just below
    # log 2, so its cell count is capped at 4n.
    return {
        "e1_default": e1_table,
        "e1_small": build_e1_inverse(1e-3, 1.0, 5000),
        "exp/x": _density_table(lambda x: math.exp(-x) / x),
        "exp*x^-1.5": _density_table(lambda x: math.exp(-x) * x**-1.5),
        "2exp": _density_table(lambda x: 2.0 * math.exp(-x)),
    }


def _lagrange(bp, vals, y):
    """The 4-point Lagrange interpolation the Horner coefficients replace,
    with the largest stencil value of each point (its rounding scale)."""
    m = 4
    idx = np.searchsorted(bp, y, side="right") - 1
    lo = np.clip(idx - (m - 1) // 2, 0, bp.size - m)
    nodes = bp[lo[:, None] + np.arange(m)]
    fvals = vals[lo[:, None] + np.arange(m)]
    center = nodes[:, :1]
    scale = nodes[:, -1:] - center
    t = (y[:, None] - center) / scale
    tn = (nodes - center) / scale
    out = np.zeros_like(y)
    for i in range(m):
        w = np.ones_like(y)
        for j in range(m):
            if j != i:
                w *= (t[:, 0] - tn[:, j]) / (tn[:, i] - tn[:, j])
        out += w * fvals[:, i]
    return out, np.abs(fvals).max(axis=1)


def _check_index(table, y):
    bp = table.breakpoints
    expected = np.clip(np.searchsorted(bp, y, side="right") - 1, 0, bp.size - 2)
    assert np.array_equal(table._locate(y), expected)
    inside = (y >= table.domain_lo) & (y <= table.domain_hi)
    ref, scale = _lagrange(bp, table.values, y[inside])
    assert np.all(np.abs(table._interpolate(y[inside]) - ref) <= 1e-14 * scale)


class TestInverseTableIndex:
    @pytest.mark.parametrize(
        "name", ["e1_default", "e1_small", "exp/x", "exp*x^-1.5", "2exp"])
    def test_locates_searchsorted_interval_at_breakpoints(self, indexed_tables, name):
        table = indexed_tables[name]
        bp = table.breakpoints
        one = np.array([1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)])
        y = np.concatenate([bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf), one])
        _check_index(table, y)
        # Never more compare passes than a binary search over the table.
        assert table._passes <= math.ceil(math.log2(bp.size))

    def test_e1_table_needs_one_pass(self, e1_table):
        assert e1_table._passes == 1

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_locates_searchsorted_interval_anywhere(self, indexed_tables, data):
        table = indexed_tables[data.draw(st.sampled_from(sorted(indexed_tables)))]
        ys = data.draw(st.lists(st.floats(min_value=table.domain_lo, max_value=table.domain_hi),
                                min_size=1, max_size=8))
        _check_index(table, np.array(ys))


class TestQuad:
    def test_polynomial(self):
        assert quad(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_zero_integrand(self):
        assert quad(lambda x: 0.0, 0.0, 1.0) == 0.0

    def test_complex_integrand(self):
        val = quad(lambda t: np.exp(1j * t), 0.0, math.pi)
        assert val == pytest.approx(complex(0.0, 2.0), abs=1e-12)

    def test_infinite_interval(self):
        assert quad(lambda x: math.exp(-x), 0.0, math.inf) == pytest.approx(1.0, rel=1e-10)

    def test_divergent_raises(self):
        with pytest.raises(QuadratureError):
            quad(lambda x: 1.0 / x, 0.0, 1.0)


class TestQuadVector:
    def test_components_match_scalar_quadrature(self):
        ks = np.arange(1.0, 6.0)
        got = quad_vector(lambda t: np.exp(1j * ks * t) / (1.0 + t), 0.0, 2.0, rtol=1e-10)
        for k, val in zip(ks, got):
            want = quad(lambda t: np.exp(1j * k * t) / (1.0 + t), 0.0, 2.0)
            assert abs(val - want) <= 1e-10 * np.linalg.norm(got)

    def test_divergent_raises(self):
        with pytest.raises(QuadratureError) as err:
            quad_vector(lambda x: np.array([1.0, 2.0]) / x, 0.0, 1.0, rtol=1e-10)
        assert err.value.estimate is not None
