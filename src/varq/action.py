"""Ensemble action functionals on the density/action field pair.

The total action is the classical ensemble action, integral dt dx
rho (dS/dt + sum_axes (dS/dx)^2 / 2 m + V), plus hbar/2 times the
information metric

    I = integral dt dx (hbar / 4 m) (d rho / dx)^2 / rho,

summed over axes with their own masses in 2D. Its integrand at one time
slice is rho dS/dt plus `constraints.EnsembleHamiltonian`'s integrand.
Here are the local densities both are built from and a node-perturbation
numeric gradient that cross-checks analytic functional derivatives. The
kinetic and information densities take value arrays, one field or a
stack of them on leading axes, so one call serves every field of a
stack. The gradient perturbs a whole color of nodes at once, far enough
apart that their stencil windows cannot meet, and stacks the +h and -h
copies of every color with the unperturbed field, so it evaluates the
integrand once, on a stack whose size is set by the stencil width
instead of the grid size, and it checks at run time that the integrand
is as local as that requires. Its colors, their locality masks and
divisors depend only on the grid and the stencil order, so they are
built once per (grid, order) and cached read-only. The integrand is a
function of the perturbed component's values alone:
`constraints.functional_derivative` closes a functional's
`integrand_values` over the other component's values, so that
component's term is computed once, on one field. The analytic gradients,
the quantum Hamilton-Jacobi and continuity expressions, are those of
`constraints.EnsembleHamiltonian`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .fields import DENSITY_FLOOR, MadelungState, PhysicalParams, hbar_squared
from .grid import (
    DEFAULT_ORDER,
    GridSpec,
    RealField,
    box_reduce,
    diff_values,
    integrate_values,
    stencil_reach,
)

# absolute nudge of a node value in the node-perturbation gradient
GRADIENT_STEP = 1e-6


def low_density_mask(rho: np.ndarray, grid: GridSpec,
                     floor: float = DENSITY_FLOOR) -> np.ndarray:
    """Nodes where the density is numerically zero: below `floor` times the
    peak of its own field, each field of a stack against its own."""
    return rho < floor * rho.max(axis=tuple(range(-grid.dimension, 0)),
                                 keepdims=True)


def kinetic_density(action: np.ndarray, grid: GridSpec,
                    params: PhysicalParams,
                    order: int = DEFAULT_ORDER) -> np.ndarray:
    """sum_axes (dS/dx_axis)^2 / 2 m_axis at every node, of one action
    field or of each field of a stack."""
    total = np.zeros(action.shape)
    for ax in range(grid.dimension):
        ds = diff_values(action, grid, axis=ax, order=order)
        total += ds**2 / (2.0 * params.mass_along(ax))
    return total


def information_density(rho: np.ndarray, grid: GridSpec,
                        params: PhysicalParams,
                        order: int = DEFAULT_ORDER,
                        axis: int | None = None) -> np.ndarray:
    """sum_axes (hbar / 4 m_axis) (d rho/dx_axis)^2 / rho, of one density
    field or of each field of a stack, zero where the density is below
    DENSITY_FLOOR of its field's peak (only the given axis's term unless
    axis=None). Each field's squares are taken at 2^-e, e the exponent
    of its peak |d rho/dx|, and scaled back exactly, so a term overflows
    only where its value does."""
    dead = low_density_mask(rho, grid)
    # a dead node divides by inf, so its term is 0 before it is scaled back
    safe = np.where(dead, np.inf, rho)
    fields = tuple(range(-grid.dimension, 0))
    axes = range(grid.dimension) if axis is None else (axis,)
    total = None
    for ax in axes:
        term = np.abs(diff_values(rho, grid, axis=ax, order=order))
        e = np.frexp(np.max(term, axis=fields, keepdims=True))[1]
        np.ldexp(term, -e, out=term)
        term *= term
        term *= params.hbar
        term /= 4.0 * params.mass_along(ax) * safe
        np.ldexp(term, 2 * e, out=term)
        total = term if total is None else np.add(total, term, out=total)
    total[dead] = 0.0
    return total


def information_metric(rho: RealField, params: PhysicalParams,
                       order: int = DEFAULT_ORDER,
                       axis: int | None = None) -> float:
    """Spatial integral of the information density (one time slice)."""
    return integrate_values(
        information_density(rho.values, rho.grid, params, order, axis=axis),
        rho.grid)


def bohm_potential(rho: RealField, params: PhysicalParams,
                   axis: int | None = None,
                   order: int = DEFAULT_ORDER) -> RealField:
    """Q = -(hbar^2 / 2 m) (d2 sqrt(rho) / dx2) / sqrt(rho), set to 0 where
    the density is below DENSITY_FLOOR of its peak.

    axis=None sums the per-axis contributions with their own masses.
    """
    grid = rho.grid
    dead = low_density_mask(rho.values, grid)
    amp = np.sqrt(rho.values)
    # guard only the division; the stencil must see the true amplitudes
    denom = np.where(dead, 1.0, amp)
    axes = range(grid.dimension) if axis is None else (axis,)
    square, scale = hbar_squared(params)
    total = np.zeros(grid.shape)
    for ax in axes:
        d2 = diff_values(amp, grid, axis=ax, order=order, deriv=2)
        total += (-square * d2 / (2.0 * params.mass_along(ax) * denom)
                  * scale * scale)
    total[dead] = 0.0
    return RealField(grid, total)


def flux_divergence(state: MadelungState, params: PhysicalParams,
                    order: int = DEFAULT_ORDER) -> np.ndarray:
    """sum_axes d(rho dS/dx / m)/dx, the divergence of the probability flux."""
    grid = state.grid
    div = np.zeros(grid.shape)
    for ax in range(grid.dimension):
        ds = diff_values(state.action.values, grid, axis=ax, order=order)
        flux = state.density.values * ds / params.mass_along(ax)
        div += diff_values(flux, grid, axis=ax, order=order)
    return div


def numeric_functional_gradient(integrand: Callable[[np.ndarray], np.ndarray],
                                state: MadelungState, component: str,
                                order: int = DEFAULT_ORDER) -> RealField:
    """Colored central-difference gradient of the grid integral of a local
    integrand.

    The integrand is a function of the perturbed component's values
    alone, the other component held at state's: given a stack of fields
    on a leading axis, it returns the integrand of each, as
    `constraints.functional_derivative` closes a functional's
    `integrand_values` over the other component.

    The continuum functional derivative at node j is the partial
    derivative with respect to the node value divided by the node's
    quadrature volume. The integrand at a node reads the fields within
    `stencil_reach` nodes of it along each axis, so nudging node j moves
    it only in the window of nodes that close to j. Each axis is cut into
    blocks of at least 2 reach + 2 nodes (around the ring on periodic
    axes) and a node is colored by its offset in its block, so the
    windows of one color are disjoint with at least one node between
    them. A whole color is perturbed at once, by +h and by -h with
    h = GRADIENT_STEP, and node j's functional derivative is sum over
    window(j) of vol (I+ - I-), divided by 2 h vol_j. The 2 C perturbed
    copies of C colors and the unperturbed one are one stack, so the
    integrand is evaluated once per gradient, on 2 C + 1 fields, a
    number set by the stencil width, not the grid size. The density
    component needs every density to be at least h, so that the minus
    side stays a density; otherwise a ValueError names both.

    Locality is checked, not assumed: one mask marks the nodes where the
    plus or the minus side differs from the unperturbed integrand (a NaN
    differs from everything), and if any of them lies outside the windows
    of the perturbed color, the nodes whose box sum of the color is zero,
    a ValueError names the first such color instead of a gradient being
    returned. The check uses no analytic formula, so it stays independent
    of the expressions it cross-checks.

    What depends on the grid alone is built once per (grid, order) and
    shared, read-only, by every later call: the colors and, stacked one
    field per color, their nodes and their masks of the nodes outside
    every window, where each node's own color sits in such a stack, and
    the divisors 2 h vol_j. A call forms the stack, evaluates the
    integrand once and sums vol (I+ - I-) over the windows of every
    color in one box reduction.
    """
    if component not in ("density", "action"):
        raise ValueError(f"unknown component {component!r}")
    grid = state.grid
    base = (state.density if component == "density" else state.action).values
    if component == "density" and np.min(base) < GRADIENT_STEP:
        raise ValueError(
            f"the density step {GRADIENT_STEP:g} exceeds the smallest density "
            f"{np.min(base):.3g}: the minus side would be a negative density")
    reach = [stencil_reach(axis, order) for axis in grid.axes]
    colors, picked, outside, own, divisor = _colors(grid, order)
    n = len(colors)
    values = integrand(np.concatenate([
        np.where(picked, base + GRADIENT_STEP, base),
        np.where(picked, base - GRADIENT_STEP, base), base[None]]))
    plus, minus, rest = values[:n], values[n:2 * n], values[2 * n]
    far = (((plus != rest) | (minus != rest)) & outside).reshape(n, -1)
    if far.any():
        color = colors[far.any(axis=1).argmax()]
        raise ValueError(
            f"integrand is not local: perturbing color {color} moved it "
            f"farther than the stencil reach {tuple(reach)} from every "
            "perturbed node")
    moved = box_reduce(grid.node_volumes() * (plus - minus), grid, reach,
                       np.add)
    return RealField(grid, moved.take(own) / divisor)


@lru_cache(maxsize=16)
def _colors(grid: GridSpec, order: int) -> tuple[
        tuple[int, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The colors of the node-perturbation gradient on a grid at a stencil
    order: their ids; stacked one field per color, each color's nodes and
    the nodes outside every window of them; at each node, the flat index
    into such a stack of that node in its own color's field; and
    2 GRADIENT_STEP times each node's volume. Built once per
    (grid, order); every array is read-only."""
    reach = [stencil_reach(axis, order) for axis in grid.axes]
    offsets = [_block_offsets(axis.n_points, 2 * r + 2)
               for axis, r in zip(grid.axes, reach)]
    labels = np.ravel_multi_index(np.meshgrid(*offsets, indexing="ij"),
                                  [c.max() + 1 for c in offsets])
    colors, color_of = np.unique(labels, return_inverse=True)
    color_of = color_of.reshape(grid.shape)
    picked = color_of == np.arange(len(colors)).reshape(
        (-1,) + (1,) * grid.dimension)
    outside = box_reduce(picked, grid, reach, np.add) == 0
    own = color_of * grid.n_nodes + np.arange(grid.n_nodes).reshape(grid.shape)
    divisor = 2.0 * GRADIENT_STEP * grid.node_volumes()
    for array in (picked, outside, own, divisor):
        array.setflags(write=False)
    return tuple(int(c) for c in colors), picked, outside, own, divisor


def _block_offsets(n: int, spacing: int) -> np.ndarray:
    """Offset of each of n nodes in its block, the blocks as even as
    possible and each at least `spacing` long (one block if n is
    shorter), so equal offsets lie at least `spacing` apart, also
    across a periodic wrap."""
    blocks = max(n // spacing, 1)
    starts = np.arange(blocks) * n // blocks
    nodes = np.arange(n)
    return nodes - starts[np.searchsorted(starts, nodes, side="right") - 1]
