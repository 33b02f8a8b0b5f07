import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varq import grid as grid_module
from varq.grid import (
    DIRICHLET,
    PERIODIC,
    Axis,
    ComplexField,
    GridMismatchError,
    GridSpec,
    NonFiniteFieldError,
    RealField,
    box_reduce,
    diff_values,
    fd_weights,
    integrate_values,
    l2_norm,
    shift_derivative,
    stencil_operator,
    stencil_reach,
)


def test_axis_spacing_periodic_excludes_endpoint():
    ax = Axis(64, 0.0, 2.0 * np.pi, "periodic")
    x = ax.coordinates()
    assert ax.dx == pytest.approx(2.0 * np.pi / 64)
    assert x[0] == 0.0
    assert x[-1] < 2.0 * np.pi


def test_axis_spacing_dirichlet_includes_endpoint():
    ax = Axis(101, -1.0, 1.0, "dirichlet")
    assert ax.dx == pytest.approx(0.02)
    assert ax.coordinates()[-1] == pytest.approx(1.0)


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        Axis(32, 1.0, 0.0)
    with pytest.raises(ValueError):
        Axis(32, 0.0, 1.0, "reflecting")
    with pytest.raises(ValueError, match="finite"):
        Axis(8, -np.inf, 0.0)
    # both ends finite, but their difference overflows, so dx would be inf
    with pytest.raises(ValueError, match="finite"):
        GridSpec.line(64, -1e308, 1e308)


def test_field_shape_mismatch_raises():
    g = GridSpec.line(32, 0.0, 1.0)
    with pytest.raises(GridMismatchError):
        RealField(g, np.zeros(31))


def test_field_rejects_non_finite():
    g = GridSpec.line(32, 0.0, 1.0)
    bad = np.zeros(32)
    bad[3] = np.nan
    with pytest.raises(NonFiniteFieldError):
        RealField(g, bad)


# -- fd_weights oracles: classic textbook stencils ---------------------------

def test_fd_weights_central_second_derivative():
    w = fd_weights((-1, 0, 1), 2)
    assert np.allclose(w, [1.0, -2.0, 1.0])


def test_fd_weights_one_sided_first_derivative():
    w = fd_weights((0, 1, 2), 1)
    assert np.allclose(w, [-1.5, 2.0, -0.5])


def test_fd_weights_fourth_order_first_derivative():
    w = fd_weights((-2, -1, 0, 1, 2), 1)
    assert np.allclose(w, [1 / 12, -8 / 12, 0.0, 8 / 12, -1 / 12])


def test_fd_weights_polynomial_exactness():
    # a p-point stencil must differentiate degree p-1 polynomials exactly
    offsets = (0, 1, 2, 3, 4, 5)
    w = fd_weights(offsets, 2)
    h = 0.1
    for k in range(6):
        vals = np.array([(o * h) ** k for o in offsets])
        exact = 0.0 if k < 2 else k * (k - 1) * 0.0 ** (k - 2) if k > 2 else 2.0
        if k == 2:
            exact = 2.0
        elif k != 2:
            exact = 0.0
        assert np.dot(w, vals) / h**2 == pytest.approx(exact, abs=1e-8)


# -- derivative examples -----------------------------------------------------

def test_derivative_of_constant_is_zero():
    # interior central rows cancel exactly; one-sided edge rows leave roundoff
    g = GridSpec.line(128, -1.0, 1.0)
    f = RealField.full(g, 3.7)
    for order in (2, 4):
        d = diff_values(f.values, g, order=order)
        assert np.max(np.abs(d)) <= 1e-13


def test_derivative_sin_periodic_order2():
    g = GridSpec.line(256, 0.0, 2.0 * np.pi, "periodic")
    x = g.coordinates()[0]
    df = diff_values(np.sin(x), g, order=2)
    assert np.max(np.abs(df - np.cos(x))) <= 1e-3


def test_derivative_sin_periodic_order4_much_tighter():
    g = GridSpec.line(256, 0.0, 2.0 * np.pi, "periodic")
    x = g.coordinates()[0]
    df = diff_values(np.sin(x), g, order=4)
    assert np.max(np.abs(df - np.cos(x))) <= 1e-7


def test_derivative_quadratic_exact_everywhere_dirichlet():
    # one-sided boundary rows are exact on polynomials within the stencil degree
    g = GridSpec.line(64, -2.0, 3.0)
    x = g.coordinates()[0]
    for order in (2, 4):
        df = diff_values(x**2, g, order=order)
        assert np.max(np.abs(df - 2.0 * x)) <= 1e-10 * np.max(np.abs(2 * x))


def test_derivative_quartic_exact_order4():
    g = GridSpec.line(64, 0.0, 1.0)
    x = g.coordinates()[0]
    df = diff_values(x**4, g, order=4)
    assert np.max(np.abs(df - 4.0 * x**3)) <= 1e-9


def test_second_derivative_quadratic_exact():
    g = GridSpec.line(64, -1.0, 1.0)
    x = g.coordinates()[0]
    for order in (2, 4):
        d2 = diff_values(x**2, g, order=order, deriv=2)
        assert np.max(np.abs(d2 - 2.0)) <= 1e-9


def test_convergence_order_dirichlet():
    # halving dx shrinks the max error by about 2**order, boundaries included
    def err(n, order):
        g = GridSpec.line(n, 0.0, 1.0)
        x = g.coordinates()[0]
        df = diff_values(np.exp(np.sin(3 * x)), g, order=order)
        exact = 3 * np.cos(3 * x) * np.exp(np.sin(3 * x))
        return np.max(np.abs(df - exact))

    for order in (2, 4):
        e1, e2 = err(129, order), err(257, order)
        rate = np.log2(e1 / e2)
        assert rate > order - 0.5


def test_derivative_linearity():
    rng = np.random.default_rng(7)
    g = GridSpec.line(128, 0.0, 2.0 * np.pi, "periodic")
    x = g.coordinates()[0]
    f = np.sin(x) + 0.2 * np.cos(3 * x)
    h = np.cos(2 * x)
    for _ in range(5):
        a, b = rng.normal(size=2)
        lhs = diff_values(a * f + b * h, g)
        rhs = a * diff_values(f, g) + b * diff_values(h, g)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_periodic_derivative_integrates_to_zero():
    # wrapped stencils telescope exactly under the rectangle rule
    g = GridSpec.line(200, 0.0, 5.0, "periodic")
    x = g.coordinates()[0]
    f = np.exp(np.cos(2 * np.pi * x / 5.0))
    for order in (2, 4):
        assert abs(integrate_values(diff_values(f, g, order=order), g)) <= 1e-13


def test_complex_field_derivative():
    g = GridSpec.line(128, 0.0, 2.0 * np.pi, "periodic")
    x = g.coordinates()[0]
    psi = ComplexField(g, np.exp(1j * x))
    dpsi = diff_values(psi.values, g, order=4)
    assert np.max(np.abs(dpsi - 1j * psi.values)) <= 1e-6


def test_invalid_axis_raises():
    g = GridSpec.line(32, 0.0, 1.0)
    f = RealField.full(g, 1.0)
    with pytest.raises(ValueError):
        diff_values(f.values, g, axis=1)
    with pytest.raises(ValueError):
        diff_values(f.values, g, axis=-1)


def test_invalid_order_raises():
    g = GridSpec.line(32, 0.0, 1.0)
    f = RealField.full(g, 1.0)
    with pytest.raises(ValueError):
        diff_values(f.values, g, order=3)


# -- 2D ----------------------------------------------------------------------

def test_2d_partial_derivatives():
    g = GridSpec.square(96, 0.0, 2.0 * np.pi, "periodic")
    A, B = g.meshes()
    f = np.sin(A) * np.cos(2 * B)
    da = diff_values(f, g, axis=0, order=4)
    db = diff_values(f, g, axis=1, order=4)
    assert np.max(np.abs(da - np.cos(A) * np.cos(2 * B))) <= 1e-4
    assert np.max(np.abs(db + 2 * np.sin(A) * np.sin(2 * B))) <= 1e-4


def test_2d_laplacian():
    g = GridSpec.square(96, 0.0, 2.0 * np.pi, "periodic")
    A, B = g.meshes()
    f = np.sin(A) * np.sin(B)
    lap = sum(diff_values(f, g, axis=ax, order=4, deriv=2) for ax in (0, 1))
    assert np.max(np.abs(lap + 2.0 * f)) <= 1e-4


def test_2d_mixed_boundary_grid():
    ga = Axis(65, -1.0, 1.0, "dirichlet")
    gb = Axis(64, 0.0, 2.0 * np.pi, "periodic")
    g = GridSpec((ga, gb))
    A, B = g.meshes()
    da = diff_values(A**2 * np.cos(B), g, axis=0, order=4)
    assert np.max(np.abs(da - 2 * A * np.cos(B))) <= 1e-9


# -- quadrature --------------------------------------------------------------

def test_integrate_constant():
    g = GridSpec.line(51, 0.0, 2.0)
    assert integrate_values(np.ones(g.shape), g) == pytest.approx(2.0,
                                                                  abs=1e-14)
    gp = GridSpec.line(50, 0.0, 2.0, "periodic")
    assert integrate_values(np.ones(gp.shape), gp) == pytest.approx(2.0,
                                                                    abs=1e-14)


def test_integrate_gaussian_unit_mass():
    g = GridSpec.line(1024, -8.0, 8.0)
    x = g.coordinates()[0]
    rho = np.exp(-0.5 * x**2) / np.sqrt(2.0 * np.pi)
    assert integrate_values(rho, g) == pytest.approx(1.0, abs=1e-8)


def test_integrate_sin_half_period():
    g = GridSpec.line(1024, 0.0, np.pi)
    x = g.coordinates()[0]
    assert integrate_values(np.sin(x), g) == pytest.approx(2.0, abs=1e-5)


def test_integrate_2d_separable():
    g = GridSpec.square(256, -6.0, 6.0)
    A, B = g.meshes()
    rho = np.exp(-(A**2 + B**2)) / np.pi
    assert integrate_values(rho, g) == pytest.approx(1.0, abs=1e-10)


def test_l2_norm_plane_wave():
    g = GridSpec.line(128, 0.0, 1.0, "periodic")
    x = g.coordinates()[0]
    psi = ComplexField(g, np.exp(2j * np.pi * x))
    assert l2_norm(psi) == pytest.approx(1.0, abs=1e-12)


# -- the operator layer: properties over random axes -------------------------

@st.composite
def stencil_cases(draw, boundaries=(PERIODIC, DIRICHLET)):
    """A grid of one or two axes, the axis to differentiate, order, deriv."""
    n = draw(st.integers(8, 64))
    boundary = draw(st.sampled_from(boundaries))
    x_min = draw(st.floats(-5.0, 5.0))
    span = draw(st.floats(0.5, 20.0))
    ax = Axis(n, x_min, x_min + span, boundary)
    dim, axis = draw(st.sampled_from([(1, 0), (2, 0), (2, 1)]))
    if dim == 1:
        grid = GridSpec((ax,))
    else:
        # a different spacing and boundary on the other axis, so applying
        # the operator along the wrong axis shows
        other = Axis(draw(st.integers(8, 16)), 0.0, 3.7 * span,
                     DIRICHLET if boundary == PERIODIC else PERIODIC)
        grid = GridSpec((ax, other) if axis == 0 else (other, ax))
    order = draw(st.sampled_from([2, 4]))
    deriv = draw(st.sampled_from([1, 2]))
    return grid, axis, order, deriv


def expected_row(n, i, boundary, order, deriv, dx):
    """fd_weights of row i's offsets over dx**deriv, laid out on the axis."""
    half, width = order // 2, order + deriv
    offsets = range(-half, half + 1)
    if boundary == DIRICHLET and i < half:
        offsets = range(-i, width - i)
    elif boundary == DIRICHLET and i >= n - half:
        offsets = range(n - i - width, n - i)
    row = np.zeros(n)
    for off, w in zip(offsets, fd_weights(tuple(offsets), deriv)):
        row[(i + off) % n] += w / dx**deriv
    return row


def operator_matrix(grid, axis, order, deriv):
    """The matrix diff_values applies, read off column by column from unit
    impulses; every line across the other axis must see the same one."""
    n = grid.shape[axis]
    cols = []
    for j in range(n):
        impulse = np.zeros(grid.shape)
        np.moveaxis(impulse, axis, 0)[j] = 1.0
        out = diff_values(impulse, grid, axis=axis, order=order, deriv=deriv)
        cols.append(np.moveaxis(out, axis, 0).reshape(n, -1))
    lines = np.stack(cols, axis=1)
    assert np.all(lines == lines[:, :, :1])
    return lines[:, :, 0]


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@PROPERTY
@given(stencil_cases())
def test_operator_rows_are_fd_weights(case):
    grid, axis, order, deriv = case
    ax = grid.axes[axis]
    mat = operator_matrix(grid, axis, order, deriv)
    for i in range(ax.n_points):
        want = expected_row(ax.n_points, i, ax.boundary, order, deriv, ax.dx)
        scale = np.max(np.abs(want))
        assert np.allclose(mat[i], want, rtol=0.0, atol=1e-13 * scale), i


@PROPERTY
@given(stencil_cases(boundaries=(DIRICHLET,)), st.data())
def test_dirichlet_rows_exact_on_polynomials(case, data):
    grid, axis, order, deriv = case
    ax = grid.axes[axis]
    degree = data.draw(st.integers(0, order + deriv - 1), label="degree")
    mid, half_span = 0.5 * (ax.x_min + ax.x_max), 0.5 * ax.span
    t = (grid.meshes()[axis] - mid) / half_span  # in [-1, 1]
    poly = np.polynomial.Polynomial.basis(degree)
    exact = poly.deriv(deriv)(t) / half_span**deriv
    got = diff_values(poly(t), grid, axis=axis, order=order, deriv=deriv)
    # roundoff of one row: eps times the row's |weights| times max |f|
    row_l1 = np.max(np.abs(operator_matrix(grid, axis, order, deriv)).sum(1))
    assert np.max(np.abs(got - exact)) <= 64 * np.finfo(float).eps * row_l1


@PROPERTY
@given(stencil_cases(), st.integers(-2**20, 2**20), st.integers(-8, 8))
def test_constant_maps_to_exact_zero(case, mantissa, exponent):
    # integer numerators times a constant with a short mantissa are exact
    # products, so every row, periodic or one-sided, cancels exactly; an
    # arbitrary float constant leaves roundoff wherever a product rounds:
    # in order-4 rows (30 c) and in the order-2 one-sided rows at a hard
    # wall (3 c, 10 c). Only the order-2 periodic rows, of weights 1 and
    # 2, cancel every constant
    grid, axis, order, deriv = case
    const = np.full(grid.shape, mantissa * 2.0**exponent)
    out = diff_values(const, grid, axis=axis, order=order, deriv=deriv)
    assert np.all(out == 0.0)


def test_second_derivative_divisor_is_denominator_dx_squared():
    # the Hamiltonian scales the numerators by 1 / (denominator dx^2)
    # itself, while apply divides by the divisor: the two must agree
    ax = Axis(8, 0.0, 0.7)
    lap = stencil_operator(ax, 2, 2)
    assert lap.divisor == lap.denominator * ax.dx * ax.dx


@pytest.mark.parametrize("order", [2, 4])
def test_stencil_reach_counts_wrap_and_edge_rows(order):
    # central rows reach order/2, also across the wrap; the one-sided
    # d2/dx2 edge row of order + 2 points reaches order + 1 into the grid
    assert stencil_reach(Axis(16, 0.0, 1.0, PERIODIC), order) == order // 2
    assert stencil_reach(Axis(16, 0.0, 1.0, DIRICHLET), order) == order + 1


# every built-in row as whole numerators over its order's denominator,
# largest offset first: the central row, then the one-sided rows of the
# first nodes and of the last nodes (row -1 first), textbook values
BUILT_IN_ROWS = {
    (2, 1): ((1, 0, -1), [(-1, 4, -3)], [(3, -4, 1)]),
    (2, 2): ((2, -4, 2), [(-2, 8, -10, 4)], [(4, -10, 8, -2)]),
    (4, 1): ((-1, 8, 0, -8, 1),
             [(-3, 16, -36, 48, -25), (1, -6, 18, -10, -3)],
             [(25, -48, 36, -16, 3), (3, 10, -18, 6, -1)]),
    (4, 2): ((-1, 16, -30, 16, -1),
             [(-10, 61, -156, 214, -154, 45), (1, -6, 14, -4, -15, 10)],
             [(45, -154, 214, -156, 61, -10), (10, -15, -4, 14, -6, 1)]),
}


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("order, deriv", sorted(BUILT_IN_ROWS))
def test_built_in_stencils_are_exact_integer_rows(order, deriv, boundary):
    # the CSR arrays hold the exact weights times the denominator, zero
    # weights dropped, with the textbook rows' values and layout
    n, half, width = 10, order // 2, order + deriv
    denominator = 12 if order == 4 else 2
    central, first, last = BUILT_IN_ROWS[order, deriv]
    rows = {i: (half, central) for i in range(n)}
    if boundary == DIRICHLET:
        for i in range(half):
            rows[i] = (width - 1 - i, first[i])
            rows[n - 1 - i] = (i, last[i])
    data, indices, indptr = [], [], [0]
    for i in range(n):
        top, ints = rows[i]
        offsets = tuple(range(top, top - len(ints), -1))
        weights = fd_weights(offsets, deriv)
        assert all(isinstance(w, Fraction) for w in weights)
        assert [w * denominator for w in weights] == list(ints)
        for off, num in zip(offsets, ints):
            if num:
                data.append(float(num))
                indices.append((i + off) % n)
        indptr.append(len(data))
    stencil = stencil_operator(Axis(n, 0.0, 1.0, boundary), order, deriv)
    mat = stencil.numerators
    assert stencil.denominator == denominator
    assert mat.data.dtype == np.float64
    assert np.array_equal(mat.data, data)
    assert np.array_equal(mat.indices, indices)
    assert np.array_equal(mat.indptr, indptr)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("order, denominator", [(2, 1), (4, 6)])
def test_row_not_whole_at_its_denominator_raises(monkeypatch, order,
                                                 denominator, boundary):
    # the central d/dx rows are (1, 0, -1) / 2 and (-1, 8, 0, -8, 1) / 12:
    # halving the denominator leaves halves, which are refused, never
    # truncated; __wrapped__ skips the cache of the true operators
    monkeypatch.setitem(grid_module._DENOMINATOR, order, denominator)
    with pytest.raises(ValueError, match=f"not whole at denominator "
                                         f"{denominator}"):
        stencil_operator.__wrapped__(Axis(16, 0.0, 1.0, boundary), order, 1)


@st.composite
def box_cases(draw):
    """A 1D or 2D grid of 8-40 points per axis, a reach of 0-9 per axis,
    and a reduction with an input of a kind it takes."""
    grid = GridSpec(tuple(
        Axis(draw(st.integers(8, 40)), 0.0, 1.0,
             draw(st.sampled_from([PERIODIC, DIRICHLET])))
        for _ in range(draw(st.integers(1, 2)))))
    reach = [draw(st.integers(0, 9)) for _ in grid.axes]
    reduce, kind = draw(st.sampled_from(
        [(np.add, bool), (np.add, float), (np.maximum, float)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind is bool:
        values = rng.random(grid.shape) < 0.3
    else:
        values = (rng.normal(0.0, 1.0, grid.shape)
                  * 10.0 ** rng.integers(-3, 4, grid.shape))
    return grid, values, reach, reduce


def loop_box_reduce(values, grid, reach, reduce):
    """reduce over every offset -r..r per axis, one offset at a time,
    indexed modulo n on periodic axes and cut at Dirichlet walls."""
    start = -np.inf if reduce is np.maximum else 0
    out = np.full(grid.shape, start, dtype=np.result_type(values, start))
    for offset in itertools.product(*(range(-r, r + 1) for r in reach)):
        index, inside = [], np.ones(grid.shape, dtype=bool)
        for ax, (axis, d) in enumerate(zip(grid.axes, offset)):
            j = np.arange(axis.n_points) + d
            if axis.boundary == PERIODIC:
                j %= axis.n_points
            else:
                shape = [-1 if a == ax else 1 for a in range(grid.dimension)]
                inside &= ((j >= 0) & (j < axis.n_points)).reshape(shape)
                j = np.clip(j, 0, axis.n_points - 1)
            index.append(j)
        out = reduce(out, np.where(inside, values[np.ix_(*index)], start))
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(box_cases())
def test_box_reduce_matches_a_loop_over_offsets(case):
    grid, values, reach, reduce = case
    got = box_reduce(values, grid, reach, reduce)
    want = loop_box_reduce(values, grid, reach, reduce)
    if values.dtype == bool or reduce is np.maximum or grid.dimension == 1:
        # on a line the box adds offsets -r..r in order, as the loop does
        assert np.array_equal(got, want)
    else:
        # the box sums its axes one after the other, the loop offset by
        # offset: the two orders round apart by a few ulps of the sum of
        # magnitudes
        scale = loop_box_reduce(np.abs(values), grid, reach, np.add)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


def windowed_box_reduce(values, grid, reach, reduce):
    """numpy's own reduce over a sliding window of each axis in turn,
    padded by np.pad: wrapped on periodic axes, filled beyond walls."""
    fill = {np.add: 0, np.maximum: -np.inf}[reduce]
    for ax, (axis, r) in enumerate(zip(grid.axes, reach)):
        pad = [(0, 0)] * values.ndim
        pad[ax] = (r, r)
        if axis.boundary == PERIODIC:
            padded = np.pad(values, pad, mode="wrap")
        else:
            padded = np.pad(values, pad, constant_values=fill)
        values = reduce.reduce(np.lib.stride_tricks.sliding_window_view(
            padded, 2 * r + 1, axis=ax), axis=-1)
    return values


@st.composite
def oracle_cases(draw):
    """box_cases with signed zeros among the floats, windows of at most 7
    nodes for np.add and any reach for np.maximum."""
    grid, values, reach, reduce = draw(box_cases())
    if reduce is np.add:
        reach = [min(r, 3) for r in reach]
    if values.dtype != bool:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pick = rng.random(grid.shape)
        values[pick < 0.2] = 0.0
        values[pick > 0.8] = -0.0
    return grid, values, reach, reduce


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(oracle_cases())
def test_box_reduce_equals_numpy_reduce_over_sliding_windows(case):
    grid, values, reach, reduce = case
    got = box_reduce(values, grid, reach, reduce)
    want = windowed_box_reduce(values, grid, reach, reduce)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    if reduce is np.add:
        # bit for bit once a window of negative zeros, which numpy sums
        # from +0.0, is given the same start
        assert (got + 0).tobytes() == want.tobytes()


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_box_reduce_names_a_reduction_it_has_no_wall_fill_for(boundary):
    grid = GridSpec.line(16, 0.0, 1.0, boundary)
    with pytest.raises(ValueError, match="multiply"):
        box_reduce(np.ones(16), grid, [1], np.multiply)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_box_reduce_refuses_the_maximum_of_a_bool_array(boundary):
    # the -inf wall fill reads True as a bool, so a Dirichlet wall would
    # light up every node within reach of it
    grid = GridSpec.line(8, 0.0, 1.0, boundary)
    with pytest.raises(ValueError, match="maximum of dtype bool"):
        box_reduce(np.zeros(8, bool), grid, [2], np.maximum)


@st.composite
def stack_cases(draw):
    """A stack of 1-5 fields on a line or a pair grid, each axis periodic
    or walled, and a box reach of 0-4 per axis."""
    grid = GridSpec(tuple(
        Axis(draw(st.integers(8, 24)), 0.0, 1.0,
             draw(st.sampled_from([PERIODIC, DIRICHLET])))
        for _ in range(draw(st.integers(1, 2)))))
    shape = (draw(st.integers(1, 5)),) + grid.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-3, 4, shape)
    return grid, stack, [draw(st.integers(0, 4)) for _ in grid.axes]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(stack_cases())
def test_a_stack_of_fields_gets_the_bits_of_each_field_alone(case):
    # the grid's axes are the last ones: leading axes ride along in one
    # multi-vector product or one box reduction, field by field
    grid, stack, reach = case
    ops = [lambda v, a=axis, o=order, d=deriv: diff_values(v, grid, a, o, d)
           for axis in range(grid.dimension)
           for order in (2, 4) for deriv in (1, 2)]
    ops += [lambda v, o=order: shift_derivative(v, grid, o) for order in (2, 4)]
    ops += [lambda v, r=reduce: box_reduce(v, grid, reach, r)
            for reduce in (np.add, np.maximum)]
    ops.append(lambda v: box_reduce(v > 0, grid, reach, np.add))
    for op in ops:
        alone = np.stack([op(values) for values in stack])
        together = op(stack)
        assert together.dtype == alone.dtype
        assert together.tobytes() == alone.tobytes()


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(stack_cases())
def test_a_derivative_comes_back_in_c_order(case):
    # along every axis, of one field or a stack: a per-field reduction over
    # a transposed layout costs several times more
    grid, stack, _ = case
    for values in (stack, stack[0]):
        for axis in range(grid.dimension):
            assert diff_values(values, grid, axis).flags.c_contiguous


# -- grid constants: built once, read-only ----------------------------------

def constant_caches():
    return (grid_module._coordinates, grid_module._quadrature_weights,
            grid_module._node_volumes)


def test_grid_constants_are_built_once_per_equal_axis_or_grid():
    for cache in constant_caches():
        cache.cache_clear()
    # equal axes and grids built apart, one of them with int bounds
    for ax in (Axis(16, -1.0, 1.0), Axis(16, -1, 1), Axis(16, -1.0, 1.0)):
        pair = GridSpec((ax, Axis(9, 0.0, 2.0, PERIODIC)))
        ax.coordinates(), ax.quadrature_weights(), pair.node_volumes()
        pair.coordinates(), GridSpec((ax,)).node_volumes()
    # the two axes' coordinates and weights, and one pair grid's volumes
    assert [cache.cache_info().misses for cache in constant_caches()] == [
        2, 2, 1]
    line = GridSpec.line(16, -1.0, 1.0)
    assert line.node_volumes() is line.axes[0].quadrature_weights()
    assert Axis(16, -1, 1).coordinates() is line.coordinates()[0]


def test_grid_constants_are_read_only():
    pair = GridSpec((Axis(16, -1.0, 1.0), Axis(9, 0.0, 2.0, PERIODIC)))
    arrays = [*pair.coordinates(), pair.node_volumes(),
              *(ax.quadrature_weights() for ax in pair.axes)]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


@st.composite
def constant_axes(draw):
    """An axis of either boundary with 8-4,096 points whose one end is
    often a zero of either sign, and its twin: the equal axis with the
    sign of every zero bound flipped."""
    n = draw(st.integers(8, 4096))
    boundary = draw(st.sampled_from([PERIODIC, DIRICHLET]))
    zero = draw(st.sampled_from([-0.0, 0.0]))
    length = draw(st.floats(1e-3, 1e3))
    x_min, x_max = draw(st.sampled_from([
        (zero, length), (-length, zero),
        (draw(st.floats(-1e3, 1e3)), None)]))
    if x_max is None:
        x_max = x_min + length
    twin = [-x if x == 0.0 else x for x in (x_min, x_max)]
    return Axis(n, x_min, x_max, boundary), Axis(n, *twin, boundary)


def written_out(ax):
    """The coordinates and quadrature weights of an axis, from the
    formulas: n nodes dx apart from x_min with x_max left out on a ring,
    n nodes from x_min to x_max between walls; dx at every node, halved
    at the walls."""
    n = ax.n_points
    if ax.boundary == PERIODIC:
        x = ax.x_min + (ax.x_max - ax.x_min) / n * np.arange(n)
        w = np.full(n, (ax.x_max - ax.x_min) / n)
    else:
        x = np.linspace(ax.x_min, ax.x_max, n)
        w = np.full(n, (ax.x_max - ax.x_min) / (n - 1))
        w[[0, -1]] *= 0.5
    return x, w


@PROPERTY
@given(constant_axes(), st.booleans())
def test_grid_constants_match_the_formulas_bit_for_bit(axes, twin_first):
    # an axis and its twin are equal, so they share one cache entry for the
    # weights and volumes; neither's coordinates depend on which came first
    for cache in constant_caches():
        cache.cache_clear()
    ax, twin = axes
    assert ax == twin
    for a in ((twin, ax) if twin_first else (ax, twin)):
        x, w = written_out(a)
        assert a.coordinates().tobytes() == x.tobytes()
        assert a.quadrature_weights().tobytes() == w.tobytes()
        other = Axis(8, 0.0, 1.0, DIRICHLET)
        _, v = written_out(other)
        pair = GridSpec((a, other))
        assert pair.node_volumes().tobytes() == np.outer(w, v).tobytes()
        assert GridSpec((a,)).node_volumes().tobytes() == w.tobytes()
