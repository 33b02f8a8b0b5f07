"""Ensemble action functionals on the density/action field pair.

The total action is the classical ensemble action, integral dt dx
rho (dS/dt + sum_axes (dS/dx)^2 / 2 m + V), plus hbar/2 times the
information metric

    I = integral dt dx (hbar / 4 m) (d rho / dx)^2 / rho,

summed over axes with their own masses in 2D. Its integrand at one time
slice is rho dS/dt plus `constraints.EnsembleHamiltonian.integrand`.
Here are the local densities both are built from, the time derivatives
of a trajectory's slices, and a node-perturbation numeric gradient that
cross-checks analytic functional derivatives. It perturbs a whole color
of nodes at once, far enough apart that their stencil windows cannot
meet, so it costs a few integrand evaluations set by the stencil width
instead of two per node, and it checks at run time that the integrand
is as local as that requires. The analytic ones, the quantum
Hamilton-Jacobi and continuity expressions, are the gradients of
`constraints.EnsembleHamiltonian`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .fields import DENSITY_FLOOR, MadelungState, PhysicalParams
from .grid import (
    DEFAULT_ORDER,
    RealField,
    box_reduce,
    diff_values,
    integrate_values,
    stencil_reach,
)

# absolute nudge of a node value in the node-perturbation gradient
GRADIENT_STEP = 1e-6


def low_density_mask(rho: RealField, floor: float = DENSITY_FLOOR) -> np.ndarray:
    """Nodes where the density is numerically zero (relative floor)."""
    return rho.values < floor * np.max(rho.values)


def kinetic_density(state: MadelungState, params: PhysicalParams,
                    order: int = DEFAULT_ORDER) -> RealField:
    """sum_axes (dS/dx_axis)^2 / 2 m_axis at every node."""
    grid = state.grid
    total = np.zeros(grid.shape)
    for ax in range(grid.dimension):
        ds = diff_values(state.action.values, grid, axis=ax, order=order)
        total += ds**2 / (2.0 * params.mass_along(ax))
    return RealField(grid, total)


def information_density(rho: RealField, params: PhysicalParams,
                        order: int = DEFAULT_ORDER,
                        axis: int | None = None) -> RealField:
    """sum_axes (hbar / 4 m_axis) (d rho/dx_axis)^2 / rho, zero where the
    density is below DENSITY_FLOOR of its peak (only the given axis's
    term unless axis=None)."""
    grid = rho.grid
    dead = low_density_mask(rho)
    safe = np.where(dead, 1.0, rho.values)
    axes = range(grid.dimension) if axis is None else (axis,)
    total = np.zeros(grid.shape)
    for ax in axes:
        dr = diff_values(rho.values, grid, axis=ax, order=order)
        total += params.hbar * dr**2 / (4.0 * params.mass_along(ax) * safe)
    total[dead] = 0.0
    return RealField(grid, total)


def information_metric(rho: RealField, params: PhysicalParams,
                       order: int = DEFAULT_ORDER,
                       axis: int | None = None) -> float:
    """Spatial integral of the information density (one time slice)."""
    return integrate_values(
        information_density(rho, params, order, axis=axis).values, rho.grid)


def bohm_potential(rho: RealField, params: PhysicalParams,
                   axis: int | None = None,
                   order: int = DEFAULT_ORDER) -> RealField:
    """Q = -(hbar^2 / 2 m) (d2 sqrt(rho) / dx2) / sqrt(rho), set to 0 where
    the density is below DENSITY_FLOOR of its peak.

    axis=None sums the per-axis contributions with their own masses.
    """
    grid = rho.grid
    dead = low_density_mask(rho)
    amp = np.sqrt(rho.values)
    # guard only the division; the stencil must see the true amplitudes
    denom = np.where(dead, 1.0, amp)
    axes = range(grid.dimension) if axis is None else (axis,)
    total = np.zeros(grid.shape)
    for ax in axes:
        d2 = diff_values(amp, grid, axis=ax, order=order, deriv=2)
        total += -params.hbar**2 * d2 / (2.0 * params.mass_along(ax) * denom)
    total[dead] = 0.0
    return RealField(grid, total)


def time_derivatives(slices: Sequence[np.ndarray], dt: float) -> list[np.ndarray]:
    """Second-order time derivative of each slice along a trajectory.

    Centered differences inside, one-sided at the two ends.
    """
    if len(slices) < 3:
        raise ValueError("need at least three time slices")
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = []
    for i in range(len(slices)):
        if i == 0:
            d = (-3.0 * slices[0] + 4.0 * slices[1] - slices[2]) / (2.0 * dt)
        elif i == len(slices) - 1:
            d = (3.0 * slices[-1] - 4.0 * slices[-2] + slices[-3]) / (2.0 * dt)
        else:
            d = (slices[i + 1] - slices[i - 1]) / (2.0 * dt)
        out.append(d)
    return out


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


def numeric_functional_gradient(integrand: Callable[[MadelungState], np.ndarray],
                                state: MadelungState, component: str,
                                order: int = DEFAULT_ORDER) -> RealField:
    """Colored central-difference gradient of the grid integral of a local
    integrand.

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
    window(j) of vol (I+ - I-), divided by 2 h vol_j. That is 2 colors + 1
    integrand evaluations, a number set by the stencil width, not the
    grid size. The density component needs every density to be at least
    h, so that the minus side stays a density; otherwise a ValueError
    names both.

    Locality is checked, not assumed: if the integrand moved anywhere
    outside the windows of the perturbed color, a ValueError names the
    failure instead of a gradient being returned. The check uses no
    analytic formula, so it stays independent of the expressions it
    cross-checks.
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
    colors = [_block_offsets(axis.n_points, 2 * r + 2)
              for axis, r in zip(grid.axes, reach)]
    labels = np.ravel_multi_index(np.meshgrid(*colors, indexing="ij"),
                                  [c.max() + 1 for c in colors])
    vols = grid.node_volumes()
    rest = integrand(state)
    out = np.empty(grid.shape)
    for color in np.unique(labels):
        picked = labels == color
        plus = integrand(_with_component(
            state, component, np.where(picked, base + GRADIENT_STEP, base)))
        minus = integrand(_with_component(
            state, component, np.where(picked, base - GRADIENT_STEP, base)))
        outside = box_reduce(picked, grid, reach, np.add) == 0
        if (np.any(plus[outside] != rest[outside])
                or np.any(minus[outside] != rest[outside])):
            raise ValueError(
                f"integrand is not local: perturbing color {color} moved it "
                f"farther than the stencil reach {tuple(reach)} from every "
                "perturbed node")
        moved = box_reduce(vols * (plus - minus), grid, reach, np.add)
        out[picked] = moved[picked] / (2.0 * GRADIENT_STEP * vols[picked])
    return RealField(grid, out)


def _block_offsets(n: int, spacing: int) -> np.ndarray:
    """Offset of each of n nodes in its block, the blocks as even as
    possible and each at least `spacing` long (one block if n is
    shorter), so equal offsets lie at least `spacing` apart, also
    across a periodic wrap."""
    blocks = max(n // spacing, 1)
    starts = np.arange(blocks) * n // blocks
    nodes = np.arange(n)
    return nodes - starts[np.searchsorted(starts, nodes, side="right") - 1]


def _with_component(state: MadelungState, component: str,
                    values: np.ndarray) -> MadelungState:
    if component == "density":
        return MadelungState(RealField(state.grid, values), state.action)
    return MadelungState(state.density, RealField(state.grid, values))
