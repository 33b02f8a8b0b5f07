"""Uniform 1D/2D grids, finite-difference operators, and quadrature.

Fields live on tensor products of up to two uniform axes. Every stencil
row comes from fd_weights (exact Fractions), and each operator is a
sparse matrix of whole numerators built once per axis by
stencil_operator. Derivatives use central rows of order 2 or 4, wrapped
on periodic axes; on Dirichlet axes the edge rows are one-sided of the
same order, so smooth fields that do not vanish there keep full
accuracy, and no row reads beyond a wall. Quadrature is the rectangle
rule on periodic axes (every node carries dx) and the trapezoidal rule
on Dirichlet axes.

scipy.sparse is imported inside stencil_operator, the one place that
builds a matrix, and fractions inside fd_weights, so importing this
module loads numpy alone: both load with the first stencil, and a run
that never differentiates (fluctuate) never pays for them.

What depends on an axis or a grid alone is built once per process, in
a bounded cache, and shared read-only by every later call: the stencil
weights (fd_weights) and operators (stencil_operator, stencil_reach),
each axis's coordinates and quadrature weights, and a pair grid's node
volumes (a line's are its axis weights). A caller that needs to write
makes its own array. The coordinates are keyed also on the sign bits of
the bounds (sign_bits), since -0.0 == 0.0 but a Dirichlet x_max of -0.0
ends them with -0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

PERIODIC = "periodic"
DIRICHLET = "dirichlet"

# Stencil order used when the caller does not ask for one. Order 2 is only
# selected explicitly (propagator/eigensolver matrices keep themselves
# consistent with their own discretization).
DEFAULT_ORDER = 4


class GridMismatchError(ValueError):
    """Two fields (or a field and an operator) disagree about the grid."""


class NonFiniteFieldError(ValueError):
    """A field was built from values that overflowed or are NaN."""


@dataclass(frozen=True)
class Axis:
    """One uniform coordinate axis with its boundary treatment."""

    n_points: int
    x_min: float
    x_max: float
    boundary: str = DIRICHLET

    def __post_init__(self):
        if self.boundary not in (PERIODIC, DIRICHLET):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.n_points < 8:
            raise ValueError(f"axis needs at least 8 points, got {self.n_points}")
        if not self.x_max > self.x_min:
            raise ValueError("axis requires x_max > x_min")
        if not np.isfinite(self.span):
            raise ValueError("axis span must be finite")

    @property
    def dx(self) -> float:
        span = self.x_max - self.x_min
        # periodic: x_max is identified with x_min and carries no node
        if self.boundary == PERIODIC:
            return span / self.n_points
        return span / (self.n_points - 1)

    @property
    def span(self) -> float:
        return self.x_max - self.x_min

    def coordinates(self) -> np.ndarray:
        """The node coordinates, x_min first; built once per axis and
        read-only."""
        return _coordinates(self, sign_bits((self,)))

    def quadrature_weights(self) -> np.ndarray:
        """Each node's quadrature weight; built once per axis and
        read-only."""
        return _quadrature_weights(self)


@dataclass(frozen=True)
class GridSpec:
    """Tensor product of one or two axes."""

    axes: tuple[Axis, ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("only 1D and 2D grids are supported")

    @classmethod
    def line(cls, n_points: int, x_min: float, x_max: float,
             boundary: str = DIRICHLET) -> "GridSpec":
        return cls((Axis(n_points, x_min, x_max, boundary),))

    @classmethod
    def square(cls, n_points: int, x_min: float, x_max: float,
               boundary: str = DIRICHLET) -> "GridSpec":
        ax = Axis(n_points, x_min, x_max, boundary)
        return cls((ax, ax))

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n_points for ax in self.axes)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def coordinates(self) -> tuple[np.ndarray, ...]:
        return tuple(ax.coordinates() for ax in self.axes)

    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.coordinates(), indexing="ij"))

    def node_volumes(self) -> np.ndarray:
        """Per-node quadrature weight, the outer product of the axis
        weights (on a line, the axis weights themselves); built once per
        grid and read-only."""
        if self.dimension == 1:
            return self.axes[0].quadrature_weights()
        return _node_volumes(self)


def sign_bits(axes: Sequence[Axis]) -> tuple[bool, ...]:
    """The sign bit of each bound of the axes, x_min then x_max. -0.0 ==
    0.0, so two equal axes can differ here, and a Dirichlet x_max of
    -0.0 ends the coordinates with -0.0: a cache of arrays built from
    coordinates keys on these too, so that no bit of its arrays depends
    on which of two equal axes asked first."""
    return tuple(math.copysign(1.0, x) < 0.0
                 for ax in axes for x in (ax.x_min, ax.x_max))


@lru_cache(maxsize=128)
def _coordinates(axis: Axis, signs: tuple[bool, ...]) -> np.ndarray:
    """Axis.coordinates, cached per axis and sign_bits of its bounds."""
    if axis.boundary == PERIODIC:
        x = axis.x_min + axis.dx * np.arange(axis.n_points)
    else:
        x = np.linspace(axis.x_min, axis.x_max, axis.n_points)
    x.setflags(write=False)
    return x


@lru_cache(maxsize=128)
def _quadrature_weights(axis: Axis) -> np.ndarray:
    """Axis.quadrature_weights: dx at every node, halved at the two ends
    of a Dirichlet axis."""
    w = np.full(axis.n_points, axis.dx)
    if axis.boundary == DIRICHLET:
        w[0] *= 0.5
        w[-1] *= 0.5
    w.setflags(write=False)
    return w


@lru_cache(maxsize=16)
def _node_volumes(grid: GridSpec) -> np.ndarray:
    """GridSpec.node_volumes of a pair grid."""
    volumes = np.outer(*(ax.quadrature_weights() for ax in grid.axes))
    volumes.setflags(write=False)
    return volumes


@dataclass(frozen=True, eq=False)
class _NodeField:
    grid: GridSpec
    values: np.ndarray
    _dtype = float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=self._dtype)
        if v.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}")
        if not np.isfinite(v).all():
            raise NonFiniteFieldError("field contains non-finite values")
        object.__setattr__(self, "values", v)


class RealField(_NodeField):
    """Real scalar samples on every node of a grid."""

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> "RealField":
        return cls(grid, np.full(grid.shape, float(value)))


class ComplexField(_NodeField):
    """Complex scalar samples on every node of a grid."""

    _dtype = complex


Field = RealField | ComplexField


@lru_cache(maxsize=None)
def fd_weights(offsets: tuple, deriv: int) -> tuple:
    """Finite-difference weights at offset 0 for the given integer node
    offsets, as exact Fractions: node j's is the deriv-th derivative at 0
    of its Lagrange basis polynomial. Caller divides by dx**deriv."""
    from fractions import Fraction

    if len(offsets) <= deriv:
        raise ValueError("not enough stencil points for requested derivative")
    weights = []
    for j, xj in enumerate(offsets):
        others = offsets[:j] + offsets[j + 1:]
        # coefficients, lowest degree first, of the product of (x - xk)
        coeffs = [Fraction(1)]
        for xk in others:
            coeffs = [a - xk * b for a, b in zip([0] + coeffs, coeffs + [0])]
        weights.append(math.factorial(deriv) * coeffs[deriv]
                       / math.prod(xj - xk for xk in others))
    return tuple(weights)


@dataclass(frozen=True, eq=False)
class Stencil:
    """One derivative along one axis: numerators / (denominator dx^deriv).

    The numerators are fd_weights times the denominator (whole numbers),
    each row stored largest offset first; reach is the farthest node a row
    reads, the short way round. Dividing after the product keeps constant
    fields cancelling exactly wherever the integer products are.
    """

    numerators: sparse.csr_array
    denominator: int
    divisor: float
    reach: int

    def apply(self, values: np.ndarray, axis: int) -> np.ndarray:
        """The derivative along one array axis (a negative one counts from
        the end), in C order; every other axis passes through. A 1D
        array is one vector product; any other is one multi-vector
        product over the rest of the axes, which sums each row in the
        vector's order, so every field of a stack gets the bits it gets
        alone. The product comes out with the derivative's axis first,
        so off axis 0 the division writes it back in the field's
        layout."""
        if values.ndim == 1:
            out = self.numerators @ values
            out /= self.divisor
            return out
        front = values.swapaxes(0, axis)
        out = self.numerators @ front.reshape(len(front), -1)
        out = out.reshape(front.shape).swapaxes(0, axis)
        if out.flags.c_contiguous:
            out /= self.divisor
            return out
        return np.divide(out, self.divisor, order="C")


# the denominator of every row of each order, so its numerators are whole
_DENOMINATOR = {2: 2, 4: 12}


def stencil_divisor(axis: Axis, order: int, deriv: int) -> float:
    """What each d^deriv/dx^deriv row of stencil_operator is divided by."""
    return _DENOMINATOR[order] * axis.dx * (axis.dx if deriv == 2 else 1.0)


@lru_cache(maxsize=128)
def stencil_operator(axis: Axis, order: int, deriv: int) -> Stencil:
    """d^deriv/dx^deriv along one axis, one-sided at Dirichlet edges; a
    ValueError if a row is not whole at its order's denominator. Built
    once per (axis, order, deriv); the matrix's arrays are read-only."""
    from scipy import sparse

    n, half = axis.n_points, order // 2
    width = order + deriv  # points of a one-sided edge row
    denominator = _DENOMINATOR[order]
    # rows padded to `width` entries; zero weights are dropped below
    offsets = np.zeros((n, width), dtype=int)
    num = np.zeros((n, width))

    def put(rows, row):
        scaled = [w * denominator for w in fd_weights(tuple(row), deriv)]
        if any(w.denominator != 1 for w in scaled):
            raise ValueError(f"d^{deriv}/dx^{deriv} row at offsets {list(row)} "
                             f"is not whole at denominator {denominator}")
        offsets[rows, :len(row)] = row
        num[rows, :len(row)] = [int(w) for w in scaled]

    put(slice(None), range(half, -half - 1, -1))
    if axis.boundary == DIRICHLET:
        for i in range(half):
            put(i, range(width - 1 - i, -i - 1, -1))
            put(-1 - i, range(i, i - width, -1))
    keep = num != 0
    dist = np.abs(offsets[keep])
    cols = np.arange(n)[:, None] + offsets
    if axis.boundary == PERIODIC:
        cols %= n
        dist = np.minimum(dist, n - dist)
    indptr = np.r_[0, np.cumsum(keep.sum(axis=1))]
    mat = sparse.csr_array((num[keep], cols[keep], indptr), shape=(n, n))
    for array in (mat.data, mat.indices, mat.indptr):
        array.setflags(write=False)
    return Stencil(mat, denominator, stencil_divisor(axis, order, deriv),
                   int(dist.max()))


@lru_cache(maxsize=128)
def stencil_reach(axis: Axis, order: int) -> int:
    """Farthest node any row of d/dx or d2/dx2 reads along the axis: wrap
    rows measured the short way round, one-sided edge rows included."""
    return max(stencil_operator(axis, order, deriv).reach for deriv in (1, 2))


def diff_values(values: np.ndarray, grid: GridSpec, axis: int = 0,
                order: int = DEFAULT_ORDER, deriv: int = 1) -> np.ndarray:
    """Array-level derivative along one grid axis (used by hot loops). The
    grid's axes are the array's last ones, so a stack of fields on leading
    axes gets each field's derivative."""
    if order not in _DENOMINATOR:
        raise ValueError(
            f"stencil order must be one of {tuple(_DENOMINATOR)}, got {order}")
    if deriv not in (1, 2):
        raise ValueError("only first and second derivatives are provided")
    if not 0 <= axis < grid.dimension:
        raise ValueError(f"axis {axis} out of range for {grid.dimension}D grid")
    return stencil_operator(grid.axes[axis], order, deriv).apply(
        values, axis - grid.dimension)


def shift_derivative(values: np.ndarray, grid: GridSpec,
                     order: int) -> np.ndarray:
    """Sum over the axes of d/dx_axis, summed from axis 0 up: the
    generator of a rigid shift of every coordinate."""
    out = diff_values(values, grid, axis=0, order=order)
    for axis in range(1, grid.dimension):
        out = out + diff_values(values, grid, axis=axis, order=order)
    return out


# what a box reduction pads a Dirichlet axis with beyond the wall
_BOX_PAD = {np.add: 0, np.maximum: -np.inf}


def box_reduce(values: np.ndarray, grid: GridSpec, reach: Sequence[int],
               reduce: np.ufunc) -> np.ndarray:
    """np.add or np.maximum over the box of the given per-axis half-widths
    around every node, around the ring on periodic axes and cut at
    Dirichlet walls.

    Each axis in turn is padded by r nodes on each side, wrapped on a
    periodic axis and filled with the reduction's identity beyond a wall,
    and reduced over its 2r + 1 shifted slices, offset -r first: a node's
    sum is ((v[-r] + v[-r+1]) + ...) + v[r]. For a window of at most 7
    nodes that is the order of numpy's own add.reduce, so the sums equal
    it, bit for bit but for one sign: a window of negative zeros sums to
    -0.0, where numpy, starting from +0.0, gives +0.0. A maximum equals
    numpy's in value for any window. A bool input is summed as int64; its
    maximum is refused with a ValueError on either boundary, since the
    wall fill -inf would read True. The grid's axes are the array's last
    ones, so a stack of fields on leading axes is reduced field by field.
    """
    if reduce not in _BOX_PAD:
        raise ValueError(f"box_reduce has no wall fill for np.{reduce.__name__}")
    if values.dtype == bool:
        if reduce is np.maximum:
            raise ValueError(
                f"box_reduce takes no np.maximum of dtype {values.dtype}: "
                "its wall fill -inf would read True")
        values = values.astype(np.int64)
    for ax, (axis, r) in enumerate(zip(grid.axes, reach),
                                   values.ndim - grid.dimension):
        n = axis.n_points
        if axis.boundary == PERIODIC:
            padded = values.take(np.arange(-r, n + r), axis=ax, mode="wrap")
        else:
            wall = np.full(values.shape[:ax] + (r,) + values.shape[ax + 1:],
                           _BOX_PAD[reduce], dtype=values.dtype)
            padded = np.concatenate([wall, values, wall], axis=ax)
        lead = (slice(None),) * ax
        values = padded[lead + (slice(0, n),)]
        for k in range(1, 2 * r + 1):
            # the first call allocates the result, the later ones write into it
            values = reduce(values, padded[lead + (slice(k, k + n),)],
                            out=values if k > 1 else None)
    return values


def integrate_values(values: np.ndarray, grid: GridSpec) -> float:
    return float(np.sum(values * grid.node_volumes()))


def l2_norm(f: Field) -> float:
    """sqrt(integral of |f|^2)."""
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2 * f.grid.node_volumes())))
