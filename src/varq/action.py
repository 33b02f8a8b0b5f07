"""Ensemble action functionals on the density/action field pair.

The total action is the classical ensemble action, integral dt dx
rho (dS/dt + sum_axes (dS/dx)^2 / 2 m + V), plus hbar/2 times the
information metric

    I = integral dt dx (hbar / 4 m) (d rho / dx)^2 / rho,

summed over axes with their own masses in 2D. Here are the local
densities both are built from, the trapezoid-in-time total action, and
a slow node-by-node numeric gradient that cross-checks analytic
functional derivatives. The analytic ones, the quantum Hamilton-Jacobi
and continuity expressions, are the gradients of
`constraints.EnsembleHamiltonian`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import DENSITY_FLOOR, MadelungState, PhysicalParams, potential_values
from .grid import (
    DEFAULT_ORDER,
    GridMismatchError,
    RealField,
    diff_values,
    integrate_values,
)


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
                        floor: float = DENSITY_FLOOR,
                        axis: int | None = None) -> RealField:
    """sum_axes (hbar / 4 m_axis) (d rho/dx_axis)^2 / rho, floored at nodes
    (only the given axis's term unless axis=None)."""
    grid = rho.grid
    dead = low_density_mask(rho, floor)
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
                   axis: int | None = None, order: int = DEFAULT_ORDER,
                   floor: float = DENSITY_FLOOR) -> RealField:
    """Q = -(hbar^2 / 2 m) (d2 sqrt(rho) / dx2) / sqrt(rho), set to 0 at nodes.

    axis=None sums the per-axis contributions with their own masses.
    """
    grid = rho.grid
    dead = low_density_mask(rho, floor)
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


@dataclass(frozen=True)
class ActionBreakdown:
    """Classical part, information part, and their weighted total."""

    classical: float
    information: float
    total: float


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


def trapezoid_weights(n: int, dt: float) -> np.ndarray:
    """Trapezoid-rule weights of n equally spaced time slices."""
    tw = np.full(n, dt)
    tw[0] = tw[-1] = 0.5 * dt
    return tw


def total_action(states: Sequence[MadelungState], dt: float,
                 params: PhysicalParams,
                 order: int = DEFAULT_ORDER) -> ActionBreakdown:
    """Trapezoid-in-time action over a trajectory of equally spaced states."""
    grid = states[0].grid
    for st in states:
        if st.grid != grid:
            raise GridMismatchError("trajectory states live on different grids")
    ds_dt = time_derivatives([st.action.values for st in states], dt)
    tw = trapezoid_weights(len(states), dt)
    v = potential_values(params.potential, grid)
    classical = 0.0
    info = 0.0
    for w, st, dsdt in zip(tw, states, ds_dt):
        kin = kinetic_density(st, params, order).values
        classical += w * integrate_values(
            st.density.values * (dsdt + kin + v), grid)
        info += w * information_metric(st.density, params, order)
    hbar = params.hbar
    return ActionBreakdown(
        classical=classical,
        information=info,
        total=classical + 0.5 * hbar * info,
    )


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


def numeric_functional_gradient(functional: Callable[[MadelungState], float],
                                state: MadelungState, component: str,
                                step: float = 1e-6) -> RealField:
    """Node-by-node central-difference gradient of a scalar functional.

    The continuum functional derivative at node i is the partial
    derivative with respect to the node value divided by the node's
    quadrature volume. Slow (two evaluations per node); meant as an
    independent check of the analytic expressions.
    """
    if component not in ("density", "action"):
        raise ValueError(f"unknown component {component!r}")
    grid = state.grid
    base = (state.density.values if component == "density"
            else state.action.values).copy()
    vols = grid.node_volumes()
    out = np.zeros(grid.shape)
    it = np.ndindex(grid.shape)
    for idx in it:
        orig = base[idx]
        base[idx] = orig + step
        fp = functional(_with_component(state, component, base))
        base[idx] = orig - step
        fm = functional(_with_component(state, component, base))
        base[idx] = orig
        out[idx] = (fp - fm) / (2.0 * step * vols[idx])
    return RealField(grid, out)


def _with_component(state: MadelungState, component: str,
                    values: np.ndarray) -> MadelungState:
    if component == "density":
        return MadelungState(RealField(state.grid, values.copy()), state.action,
                             state.hbar)
    return MadelungState(state.density, RealField(state.grid, values.copy()),
                         state.hbar)

