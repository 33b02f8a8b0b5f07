"""Constraint functionals, Poisson brackets, and stationarity residuals.

Constraints are scalar functionals of the (density, action) pair added to
the total action with Lagrange multipliers. Each defines one local
integrand, `integrand_values(rho, action, grid)`, whose value at a node
reads the fields only within one stencil width of it; either argument
may be a stack of fields on leading axes that broadcasts against the
other. `integrand(state)` applies it to the state's fields, and `value`
is always the grid integral of that. Each also carries analytic
functional gradients, which the node-perturbation backend of
`functional_derivative` cross-checks: it holds one component at the
state's values and evaluates `integrand_values` once per gradient, on
the stack of every perturbed copy of the other. `EnsembleHamiltonian`
is the one definition of the ensemble energy rho (kinetic + V) +
(hbar/2) I; its gradients give the quantum Hamilton-Jacobi and
continuity residuals.
Both of the paper's constraints, vanishing local momentum on a line and
joint translation of a pair, are `LocalMomentum`: the momentum that
generates a rigid shift of every coordinate, `grid.shift_derivative`.
Residuals are returned as whole fields; callers read their maxima on
the resolved nodes. The bracket of two functionals is

    {F, G} = integral (dF/d rho dG/dS - dF/dS dG/d rho),

and a constraint is consistent with a Hamiltonian when the bracket is
weakly zero, i.e. small against the gradient scale of its arguments.

Auxiliary time derivatives (d rho/dt) always come from trajectory
differencing supplied by the caller, never from substituting an equation
of motion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .action import (
    bohm_potential,
    flux_divergence,
    information_density,
    kinetic_density,
    numeric_functional_gradient,
    time_derivatives,
)
from .fields import MadelungState, PhysicalParams, potential_values
from .grid import (
    DEFAULT_ORDER,
    GridMismatchError,
    GridSpec,
    RealField,
    integrate_values,
    shift_derivative,
)

WEAK_ATOL = 1e-6
WEAK_RTOL = 1e-4

# spacing of the three-slice trajectory of a stationary state
SLICE_DT = 1e-3


def weak_equality(value: float, scale: float) -> bool:
    """Small against the supplied field scale, in the Dirac sense."""
    return abs(value) <= WEAK_ATOL + WEAK_RTOL * abs(scale)


class ConstraintFunctional:
    """Grid integral of a local integrand, with analytic gradients in
    density and action."""

    requires_aux: bool = False

    def integrand_values(self, rho: np.ndarray, action: np.ndarray,
                         grid: GridSpec) -> np.ndarray:
        """The local integrand of density and action values; either may be
        a stack of fields on leading axes, broadcast against the other."""
        raise NotImplementedError

    def integrand(self, state: MadelungState,
                  aux: RealField | None = None) -> np.ndarray:
        return self.integrand_values(state.density.values,
                                     state.action.values, state.grid)

    def value(self, state: MadelungState, aux: RealField | None = None) -> float:
        return integrate_values(self.integrand(state, aux), state.grid)

    def gradient_density(self, state: MadelungState,
                         aux: RealField | None = None) -> RealField:
        raise NotImplementedError

    def gradient_action(self, state: MadelungState,
                        aux: RealField | None = None) -> RealField:
        raise NotImplementedError


@dataclass(frozen=True)
class LocalMomentum(ConstraintFunctional):
    """integral rho (sum_axes dS/dx_axis - p_c): pins the momentum that
    generates a rigid shift to p_c. On a line that is the local momentum
    field; on a pair grid, the total momentum of the pair."""

    p_c: float = 0.0
    order: int = DEFAULT_ORDER

    def integrand_values(self, rho, action, grid):
        return rho * (shift_derivative(action, grid, self.order) - self.p_c)

    def gradient_density(self, state, aux=None):
        ds = shift_derivative(state.action.values, state.grid, self.order)
        return RealField(state.grid, ds - self.p_c)

    def gradient_action(self, state, aux=None):
        dr = shift_derivative(state.density.values, state.grid, self.order)
        return RealField(state.grid, -dr)


@dataclass(frozen=True)
class DensityStationarity(ConstraintFunctional):
    """integral rho (d rho/dt), with d rho/dt supplied as a frozen field."""

    order: int = DEFAULT_ORDER
    requires_aux = True

    def integrand(self, state, aux=None):
        self._need_aux(state, aux)
        return state.density.values * aux.values

    def gradient_density(self, state, aux=None):
        self._need_aux(state, aux)
        return RealField(state.grid, aux.values.copy())

    def gradient_action(self, state, aux=None):
        return RealField(state.grid, np.zeros(state.grid.shape))

    def _need_aux(self, state, aux):
        if aux is None:
            raise ValueError(
                "density_stationarity needs an auxiliary d rho/dt field")
        if aux.grid != state.grid:
            raise GridMismatchError(
                "density_stationarity: the auxiliary d rho/dt field lives on "
                "another grid than the state")


@dataclass(frozen=True)
class EnsembleHamiltonian(ConstraintFunctional):
    """integral rho (kinetic + V) + (hbar/2) information over the ensemble.

    The density variation of the information part is exactly the Bohm
    potential Q, so gradient_density is kinetic + V + Q.
    """

    params: PhysicalParams
    order: int = DEFAULT_ORDER

    def integrand_values(self, rho, action, grid):
        info = information_density(rho, grid, self.params, self.order)
        return (rho * self._kinetic_and_potential(action, grid)
                + 0.5 * self.params.hbar * info)

    def gradient_density(self, state, aux=None):
        q = bohm_potential(state.density, self.params, order=self.order).values
        kin_v = self._kinetic_and_potential(state.action.values, state.grid)
        return RealField(state.grid, kin_v + q)

    def gradient_action(self, state, aux=None):
        return RealField(state.grid,
                         -flux_divergence(state, self.params, self.order))

    def _kinetic_and_potential(self, action, grid):
        kin = kinetic_density(action, grid, self.params, self.order)
        return kin + potential_values(self.params.potential, grid)


def functional_derivative(func: ConstraintFunctional, state: MadelungState,
                          component: str,
                          backend: str = "analytic") -> RealField:
    """Gradient of a constraint functional, analytic or node-perturbation.

    The numeric backend hands `numeric_functional_gradient` the
    functional's `integrand_values` with the other component held at
    state's values, so no analytic formula enters it. It takes no
    d rho/dt field, so a functional that needs one is refused."""
    if component not in ("density", "action"):
        raise ValueError(f"unknown component {component!r}")
    if backend == "analytic":
        if component == "density":
            return func.gradient_density(state)
        return func.gradient_action(state)
    if backend == "numeric":
        if func.requires_aux:
            raise ValueError(
                "the numeric backend takes no d rho/dt field, which "
                f"{type(func).__name__} needs")
        rho, action, grid = (state.density.values, state.action.values,
                             state.grid)
        if component == "density":
            def integrand(values):
                return func.integrand_values(values, action, grid)
        else:
            def integrand(values):
                return func.integrand_values(rho, values, grid)
        return numeric_functional_gradient(integrand, state, component,
                                           func.order)
    raise ValueError(f"unknown backend {backend!r}")


@dataclass(frozen=True)
class BracketReport:
    """Poisson bracket value with the scale used to judge weak vanishing."""

    value: float
    scale: float
    consistent: bool


def poisson_bracket(f: ConstraintFunctional, g: ConstraintFunctional,
                    state: MadelungState,
                    aux_f: RealField | None = None,
                    aux_g: RealField | None = None) -> BracketReport:
    """{F, G} on one state, weighed against the larger gradient norm of F
    and G, each with its squares taken at 2^-e, e its peak's exponent."""
    f_rho = f.gradient_density(state, aux_f).values
    f_s = f.gradient_action(state, aux_f).values
    g_rho = g.gradient_density(state, aux_g).values
    g_s = g.gradient_action(state, aux_g).values
    value = integrate_values(f_rho * g_s - f_s * g_rho, state.grid)
    norms = []
    for d_rho, d_s in ((f_rho, f_s), (g_rho, g_s)):
        e = int(np.frexp(max(np.max(np.abs(d_rho)), np.max(np.abs(d_s))))[1])
        norms.append(np.ldexp(np.sqrt(integrate_values(
            np.ldexp(d_rho, -e)**2 + np.ldexp(d_s, -e)**2, state.grid)), e))
    scale = float(max(norms))
    return BracketReport(value=value, scale=scale,
                         consistent=weak_equality(value, scale))


# -- stationarity ------------------------------------------------------------

@dataclass(frozen=True)
class StationarityReport:
    """Residual fields of the constrained extremum equations at one slice."""

    density_residual: RealField
    action_residual: RealField


def stationary_trajectory(rho: RealField,
                          energy: float) -> list[MadelungState]:
    """Three slices of a stationary state of the given energy: density rho
    throughout, action S = -energy t at t = -SLICE_DT, 0 and SLICE_DT, so
    the middle slice, where the residuals are read, is the state at rest."""
    return [MadelungState(rho, RealField(rho.grid, np.full(rho.grid.shape, s)))
            for s in (energy * SLICE_DT, 0.0, -energy * SLICE_DT)]


def stationarity_residuals(states: Sequence[MadelungState], dt: float,
                           params: PhysicalParams,
                           constraints: Sequence[ConstraintFunctional] = (),
                           multipliers: Sequence[float] = (),
                           order: int = DEFAULT_ORDER) -> StationarityReport:
    """Variational residuals at the middle slice of a trajectory.

    density residual: dS/dt + dH/d rho + sum lambda_i dC_i/d rho
    action residual: -d rho/dt + dH/dS + sum lambda_i dC_i/dS
    with H the EnsembleHamiltonian, so the first is the quantum
    Hamilton-Jacobi residual and the second minus the continuity one.
    """
    if any(s.grid != states[0].grid for s in states):
        raise GridMismatchError("trajectory states live on different grids")
    if len(constraints) != len(multipliers):
        raise ValueError("one multiplier per constraint required")
    mid = len(states) // 2
    st = states[mid]
    ds_dt = time_derivatives([s.action.values for s in states], dt)[mid]
    drho_dt_field = RealField(st.grid, time_derivatives(
        [s.density.values for s in states], dt)[mid])
    h = EnsembleHamiltonian(params, order)
    dens = ds_dt + h.gradient_density(st).values
    act = -drho_dt_field.values + h.gradient_action(st).values
    for lam, c in zip(multipliers, constraints):
        aux = drho_dt_field if c.requires_aux else None
        dens = dens + lam * c.gradient_density(st, aux).values
        act = act + lam * c.gradient_action(st, aux).values
    return StationarityReport(
        density_residual=RealField(st.grid, dens),
        action_residual=RealField(st.grid, act))


# -- classical consistency algorithm -----------------------------------------

@dataclass(frozen=True)
class ClassicalConsistencyReport:
    """Outcome of one step of the classical constraint-consistency check."""

    secondary_max: float
    vanishes: bool


def classical_consistency(params: PhysicalParams,
                          grid: GridSpec) -> ClassicalConsistencyReport:
    """Bracket of the primary constraint sum_axes p_axis = 0 with the
    classical Hamiltonian, from DEFAULT_ORDER stencils.

    The bracket is -sum_axes dV/dx_axis. On a line (vanishing local
    momentum) it is the force -dV/dx, a secondary constraint unless V is
    flat. On a pair grid (joint translation) it is identically zero for
    pair potentials that depend on x_a - x_b only, and the chain
    terminates.
    """
    v = potential_values(params.potential, grid)
    peak = float(np.max(np.abs(shift_derivative(v, grid, DEFAULT_ORDER))))
    vscale = float(np.max(np.abs(v))) if np.any(v) else 1.0
    return ClassicalConsistencyReport(
        secondary_max=peak, vanishes=peak <= 1e-10 * vscale + 1e-12)
