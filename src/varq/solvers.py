"""Eigen and time-domain solvers for the 1D quantization scenarios.

Every stencil row here comes from fd_weights through the operators of
`grid`. H = -(hbar^2/2m) d2/dx2 + V takes its kinetic part from one
order-2 operator with ghost-zero hard-wall rows; the eigensolver and the
propagator use its interior block, so discrete eigenpairs are exact
fixed points of the propagator and satisfy V + Q - E = 0 at the stencil
level when Q is evaluated at the same order. The density/action
propagator integrates the coupled quantum Hamilton-Jacobi and continuity
equations directly with explicit RK4, internally substepping below the
reporting cadence to stay inside the stability region of the stiffest
grid mode. It carries both fields as one complex array
u = ln(rho)/2 + i S/hbar, whose equation per axis is
u_t = i (hbar/2m)(u'' + u'^2) - i V/hbar, so each right-hand side costs
one sparse product per axis, d/dx and d2/dx2 stacked. It never forms
psi = exp(u), which keeps it independent of the wavefunction route it
is compared with. Its node check takes each node's neighborhood maximum
with `grid.box_reduce`, the box reduction the colored gradient of
`action` sums with. One builder reads every vanishing-momentum branch,
the flat one too, off (psi, S = 0): the extremal route's residuals and
the operator route's momenta side by side.

scipy is imported inside the functions that call it: scipy.sparse where
H or the stacked RHS operators are built, scipy.linalg in the
eigensolve and scipy.sparse.linalg in the Crank-Nicolson set-up. Each
runs once per eigensolve or propagation, never per step, and importing
this module (hence `varq.cli`) then loads numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .action import bohm_potential, low_density_mask
from .constraints import EnsembleHamiltonian
from .fields import (
    RESOLVED_FLOOR,
    MadelungState,
    PhysicalParams,
    potential_values,
)
from .grid import (
    DEFAULT_ORDER,
    DIRICHLET,
    PERIODIC,
    ComplexField,
    GridSpec,
    RealField,
    box_reduce,
    diff_values,
    fd_weights,
    hard_wall_laplacian,
    integrate_values,
    l2_norm,
    stencil_operator,
    stencil_reach,
)

if TYPE_CHECKING:
    from scipy import sparse

# a node announces itself as a narrow dip: abort once the density anywhere
# falls this far below its own neighborhood (17-cell window), which leaves
# smooth exponential tails alone no matter how deep they run
ABORT_FLOOR = 1e-6
_DIP_WINDOW = 17
# relative slack by which the dip screen's bound must clear the floor
_SCREEN_MARGIN = 1e-9

# nodes on each side of a sign change of an eigenstate whose Q is not read
_NODE_CELLS = 3

# largest substep times the stiffest rate (stability_substeps); RK4 is
# stable on the imaginary axis up to 2 sqrt(2) = 2.83. On the shipped
# 512-point trap grid the Jacobian's largest |lambda|, wall rows
# included, is the dispersive peak 4,836 1/s, and the rate reaches
# 4,958 1/s over packets with trap strength 0.75-1.25, width 0.9-1.15
# of the ground width and center within 1.25: 2.6 runs them at 2
# substeps of dt = 1e-3, where h max|lambda| = 2.42 and the worst
# per-step amplification max|R(h lambda)|^2 is no larger than 3
# substeps give
_CFL_MARGIN = 2.6

# modes theta in [0, pi] at which the stencil symbols are maximized
_MODES = np.linspace(0.0, np.pi, 1025)

# largest edge value, relative to the peak, that a wavefunction may start
# with on a hard-wall grid
_WALL_TOLERANCE = 1e-3


class DensityFloorError(RuntimeError):
    """Node formation: the propagated density fell below the abort floor."""

    def __init__(self, message: str, time: float, node: int, value: float):
        super().__init__(message)
        self.time = time
        self.node = node
        self.value = value


class UnresolvedLevelError(RuntimeError):
    """No node of a level survives the resolved-node mask."""


# -- eigensolver -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Lowest eigenpairs of the 1D hard-wall Hamiltonian."""

    grid: GridSpec
    eigenvalues: np.ndarray
    eigenfunctions: list[RealField]
    residuals: np.ndarray
    refined_eigenvalues: np.ndarray | None = None


def _fix_sign(vec: np.ndarray, weights: np.ndarray) -> np.ndarray:
    s = float(np.sum(vec * weights))
    if abs(s) > 1e-8:
        return vec if s > 0 else -vec
    big = np.nonzero(np.abs(vec) > 0.01 * np.max(np.abs(vec)))[0]
    return vec if vec[big[0]] > 0 else -vec


def _unknowns(grid: GridSpec) -> slice:
    """The nodes a 1D solver evolves: all of a periodic axis, the interior
    of a hard-wall one."""
    return slice(None) if grid.axes[0].boundary == PERIODIC else slice(1, -1)


def _hamiltonian_matrix(params: PhysicalParams,
                        grid: GridSpec) -> sparse.csc_array:
    """1D H on the unknowns, kinetic part from the hard-wall operator."""
    from scipy import sparse

    ax = grid.axes[0]
    lap = hard_wall_laplacian(ax)
    coeff = params.hbar**2 / (2.0 * params.mass_along(0) * ax.dx * ax.dx
                              * lap.denominator)
    v = potential_values(params.potential, grid)
    inner = _unknowns(grid)
    return (sparse.diags_array(v) - coeff * lap.numerators)[inner, inner].tocsc()


def _interior_eigensolve(params: PhysicalParams, grid: GridSpec, k: int):
    from scipy.linalg import eigh_tridiagonal

    h = _hamiltonian_matrix(params, grid)
    return eigh_tridiagonal(h.diagonal(), h.diagonal(1), select="i",
                            select_range=(0, k - 1))


def eigensolve_1d(params: PhysicalParams, grid: GridSpec, k: int = 1,
                  richardson: bool = False) -> SpectrumResult:
    """Lowest k eigenpairs on a 1D Dirichlet grid (order-2 tridiagonal).

    richardson=True additionally solves at doubled resolution and
    extrapolates the order-2 eigenvalue error away.
    """
    if grid.dimension != 1 or grid.axes[0].boundary != DIRICHLET:
        raise ValueError("eigensolve needs a 1D Dirichlet grid")
    n = grid.shape[0]
    if k < 1 or k > n - 2:
        raise ValueError(f"k must lie in 1..{n - 2}")
    vals, vecs = _interior_eigensolve(params, grid, k)
    dx = grid.axes[0].dx
    weights = grid.node_volumes()
    funcs = []
    residuals = np.empty(k)
    for j in range(k):
        full = np.zeros(n)
        full[1:-1] = vecs[:, j] / np.sqrt(dx)
        full = _fix_sign(full, weights)
        hpsi = apply_hamiltonian(full, grid, params)
        residuals[j] = float(np.sqrt(np.sum((hpsi - vals[j] * full) ** 2 * weights)))
        funcs.append(RealField(grid, full))
    refined = None
    if richardson:
        ax = grid.axes[0]
        fine = GridSpec.line(2 * (n - 1) + 1, ax.x_min, ax.x_max, DIRICHLET)
        fvals, _ = _interior_eigensolve(params, fine, k)
        refined = (4.0 * fvals - vals) / 3.0
    return SpectrumResult(grid=grid, eigenvalues=vals, eigenfunctions=funcs,
                          residuals=residuals, refined_eigenvalues=refined)


def apply_hamiltonian(values: np.ndarray, grid: GridSpec,
                      params: PhysicalParams) -> np.ndarray:
    """H values with the propagator's own order-2, ghost-zero stencil."""
    out = potential_values(params.potential, grid) * values
    for ax_idx, ax in enumerate(grid.axes):
        d2 = hard_wall_laplacian(ax).apply(values, ax_idx)
        out = out - params.hbar**2 * d2 / (2.0 * params.mass_along(ax_idx))
    return out


# -- unitary wavefunction propagation ----------------------------------------

@dataclass(frozen=True, eq=False)
class WavefunctionTrajectory:
    times: np.ndarray
    states: list[ComplexField]
    norms: np.ndarray

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - self.norms[0])))


def _cn_matrices(params: PhysicalParams, grid: GridSpec, dt: float):
    from scipy import sparse
    from scipy.sparse.linalg import splu

    h = _hamiltonian_matrix(params, grid)
    z = 0.5j * dt / params.hbar
    eye = sparse.identity(h.shape[0], format="csc")
    return splu(eye + z * h), (eye - z * h).tocsr()


def wall_violation(values: np.ndarray, grid: GridSpec) -> str | None:
    """Why a 1D wavefunction cannot start on this grid, or None: small
    tail values are clamped to a hard wall, large ones mean a mismatched
    domain."""
    edge, peak = max(abs(values[0]), abs(values[-1])), np.max(np.abs(values))
    if grid.axes[0].boundary == DIRICHLET and edge > _WALL_TOLERANCE * peak:
        return (f"initial state must vanish on the hard wall: its edge value "
                f"is {edge / peak:.3g} of its peak (limit {_WALL_TOLERANCE:g})")
    return None


def propagate_wavefunction(psi0: ComplexField, params: PhysicalParams,
                           dt: float, steps: int,
                           store_every: int = 1) -> WavefunctionTrajectory:
    """Crank-Nicolson propagation; exactly norm-preserving per step.

    On Dirichlet grids the boundary values must start at zero and stay
    pinned there.
    """
    grid = psi0.grid
    if grid.dimension != 1:
        raise ValueError("wavefunction propagation is 1D")
    if dt <= 0 or steps < 1:
        raise ValueError("need positive dt and at least one step")
    if store_every < 1:
        raise ValueError(f"store_every must be at least 1, got {store_every}")
    vals = psi0.values
    problem = wall_violation(vals, grid)
    if problem:
        raise ValueError(problem)
    lu, b_mat = _cn_matrices(params, grid, dt)
    inner = _unknowns(grid)
    cur = vals[inner].copy()

    def full_state(interior):
        out = np.zeros(grid.shape, dtype=complex)
        out[inner] = interior
        return ComplexField(grid, out)

    states = [full_state(cur)]
    times = [0.0]
    norms = [l2_norm(states[0])]
    for step in range(1, steps + 1):
        cur = lu.solve(b_mat @ cur)
        if step % store_every == 0 or step == steps:
            st = full_state(cur)
            states.append(st)
            times.append(step * dt)
            norms.append(l2_norm(st))
    return WavefunctionTrajectory(times=np.asarray(times), states=states,
                                  norms=np.asarray(norms))


# -- density/action field propagation ----------------------------------------

@dataclass(frozen=True, eq=False)
class MadelungTrajectory:
    times: np.ndarray
    states: list[MadelungState]
    mass_drift: np.ndarray
    substeps_per_step: int


def _rhs_operators(grid: GridSpec, order: int = DEFAULT_ORDER) -> list:
    """Per axis, d/dx and d2/dx2 stacked into one CSR operator [D1; D2],
    the reciprocal of each half's divisor laid out to scale the float view
    of the stacked product (taken along the axis, before any transpose),
    and the index of each half of that product once it is back in the
    field's layout. The stacked rows are the stencils' own, so each half
    equals its Stencil.apply to the bit."""
    from scipy import sparse

    ops = []
    for ax, axis in enumerate(grid.axes):
        first = stencil_operator(axis, order, 1)
        second = stencil_operator(axis, order, 2)
        n = axis.n_points
        stacked = sparse.vstack([first.numerators, second.numerators],
                                format="csr")
        # numpy divides complex by real as a multiply by the reciprocal;
        # in the float view each complex entry is two adjacent floats
        scale = np.repeat([1.0 / first.divisor, 1.0 / second.divisor], n)
        scale = (np.repeat(scale, 2) if grid.dimension == 1
                 else scale[:, None])
        head = (slice(None),) * ax
        ops.append((stacked, scale, head + (slice(None, n),),
                    head + (slice(n, None),)))
    return ops


def _madelung_rhs(u: np.ndarray, ops: list, params: PhysicalParams,
                  drive: np.ndarray) -> np.ndarray:
    """Time derivative of u = ln(rho)/2 + i S/hbar.

    Per axis, u_t = i (hbar/2m)(u'' + u'^2) - i V/hbar: the real part is
    the continuity equation for ln rho, the imaginary part the quantum
    Hamilton-Jacobi equation for S, curvature potential included. ops
    comes from _rhs_operators, so each axis costs one sparse product and
    one real multiply of its float view; drive is -i V/hbar. Nothing
    divides by the amplitude, but a density that starts far below its
    peak still breaks the route: a squeezed packet (trap strength 1.5,
    0.8 of the ground width, center 1) on [-6, 6] starts near 1e-41 of
    its peak at the far wall and aborts there at t ~ 0.06.
    """
    out = drive
    for ax, (stacked, scale, first, second) in enumerate(ops):
        both = stacked @ (u if ax == 0 else u.T)
        floats = both.view(float)
        np.multiply(floats, scale, out=floats)
        if ax:
            both = both.T
        d1 = both[first]
        out = out + (0.5j * params.hbar / params.mass_along(ax)) * (
            both[second] + d1 * d1)
    return out


def _cannot_dip(log_rho: np.ndarray, grid: GridSpec,
                log_floor: float) -> bool:
    """True when no node can lie log_floor below its neighborhood maximum.

    Every node of the 17-cell box is at most _DIP_WINDOW // 2 neighbour
    steps away along each axis, wrap pairs included on periodic axes, so
    no depth exceeds that reach times the largest step per axis, summed
    over axes. The bound must clear |log_floor| by a relative margin that
    dwarfs the few roundings in the steps, their sum and the subtraction
    of the box maximum. A non-finite value makes the bound NaN or
    infinite, so such a field is never cleared here.
    """
    bound = 0.0
    for ax, axis in enumerate(grid.axes):
        head = (slice(None),) * ax
        steps = np.subtract(log_rho[head + (slice(1, None),)],
                            log_rho[head + (slice(None, -1),)])
        big = float(np.abs(steps, out=steps).max())
        if axis.boundary == PERIODIC:
            # the interior steps touch every node, so a non-finite value
            # has already made big non-finite
            wrap = log_rho[head + (0,)] - log_rho[head + (-1,)]
            big = max(big, float(np.abs(wrap).max()))
        bound += (_DIP_WINDOW // 2) * big
    return bound < -log_floor * (1.0 - _SCREEN_MARGIN)


def _dip_cause(grid: GridSpec, node: int) -> str:
    """What a dip at flat index node means: a wall tail when it lies
    within the stencil reach of a hard wall, where the one-sided rows
    act, a forming node elsewhere."""
    for axis, i in zip(grid.axes, np.unravel_index(node, grid.shape)):
        reach = stencil_reach(axis, DEFAULT_ORDER)
        if (axis.boundary == DIRICHLET
                and min(i, axis.n_points - 1 - i) <= reach):
            return (f"a wall tail broke up within {reach} nodes of a hard "
                    "wall")
    return "a node is forming"


def _stiffest_rate(state: MadelungState, params: PhysicalParams) -> float:
    """The joint-symbol bound on the spectral radius of the fields
    route's Jacobian at state, V + Q included (see stability_substeps)."""
    grid = state.grid
    hbar = params.hbar
    u = 0.5 * np.log(state.density.values) + 1j * (state.action.values / hbar)
    half = DEFAULT_ORDER // 2
    offsets = tuple(range(-half, half + 1))
    waves = np.exp(1j * np.outer(_MODES, offsets))
    sigma1 = np.abs(waves @ fd_weights(offsets, 1))
    sigma2 = np.abs(waves @ fd_weights(offsets, 2))
    rate = 0.0
    for ax_idx, axis in enumerate(grid.axes):
        dx = axis.dx
        m = params.mass_along(ax_idx)
        d1 = stencil_operator(axis, DEFAULT_ORDER, 1).apply(u, ax_idx)
        speed = hbar * (np.max(np.abs(d1.imag)) + np.max(np.abs(d1.real))) / m
        rate += np.max(hbar * sigma2 / (2.0 * m * dx * dx)
                       + speed * sigma1 / dx)
    v = potential_values(params.potential, grid)
    q0 = bohm_potential(state.density, params).values
    return float(rate + (np.max(np.abs(v)) + np.max(np.abs(q0))) / hbar)


def stability_substeps(state: MadelungState, params: PhysicalParams,
                       dt: float) -> int:
    """RK4 substeps per step of length dt that keep the stiffest resolved
    mode of the fields route's start inside the stability region; a
    ValueError when dt times that mode's rate is not finite.

    u_t is holomorphic in u, so its Jacobian is
    J = i (hbar/2m)(D2 + 2 diag(D1 u) D1) per axis. A mode e^(i theta j)
    sees D2 and D1 through their symbols sigma2(theta) / dx^2 and
    sigma1(theta) / dx, from fd_weights' central rows. The rate is the
    maximum over theta of hbar |sigma2| / (2m dx^2) + a |sigma1| / dx
    per axis, where the advective speed a = hbar (max|Re u'| +
    max|Im u'|) / m bounds |hbar u' / m|, plus (max|V| + max|Q|) / hbar.
    The two peaks do not add: sigma1 vanishes at the Nyquist mode, where
    sigma2 peaks. Each substep h keeps h times the rate within
    _CFL_MARGIN; the dense spectrum of J at 512 points, one-sided wall
    rows included, lies within that rate (tests/test_solvers.py).
    """
    scaled = dt * _stiffest_rate(state, params)
    if not np.isfinite(scaled):
        raise ValueError(f"dt = {dt:g} times the stiffest rate of the fields "
                         "route is not finite")
    return max(1, int(np.ceil(scaled / _CFL_MARGIN)))


def propagate_madelung(state0: MadelungState, params: PhysicalParams,
                       dt: float, steps: int, store_every: int = 1,
                       substeps: int | None = None) -> MadelungTrajectory:
    """Explicit RK4 on u = ln(rho)/2 + i S/hbar (see _madelung_rhs), with
    DEFAULT_ORDER stencils.

    dt is the reporting cadence; each reported step internally takes
    `substeps` RK4 substeps, by default stability_substeps. The density
    must start strictly positive. A narrow dip falling below ABORT_FLOOR
    times its own neighborhood marks a forming node and raises
    DensityFloorError with its location; a smooth tail alone does not
    trip it, but one that starts far below the peak at a hard wall soon
    develops such a dip. Total mass drift is logged, never corrected.
    """
    grid = state0.grid
    if dt <= 0 or steps < 1:
        raise ValueError("need positive dt and at least one step")
    if store_every < 1:
        raise ValueError(f"store_every must be at least 1, got {store_every}")
    if float(np.min(state0.density.values)) <= 0.0:
        raise ValueError(
            "initial density touches zero; the phase equations are "
            "singular at nodes")
    ops = _rhs_operators(grid)
    u = (0.5 * np.log(state0.density.values)
         + 1j * (state0.action.values / params.hbar))
    if substeps is None:
        substeps = stability_substeps(state0, params, dt)
    h = dt / substeps
    drive = -1j * (potential_values(params.potential, grid) / params.hbar)
    mass0 = integrate_values(state0.density.values, grid)

    def rhs(z):
        return _madelung_rhs(z, ops, params, drive)

    log_floor = np.log(ABORT_FLOOR)

    def check_floor(lr, t):
        if _cannot_dip(lr, grid, log_floor):
            return
        if not np.isfinite(lr).all():
            bad = int(np.argmin(np.isfinite(lr).ravel()))
            raise DensityFloorError(
                f"propagation produced non-finite values at t={t:.6g} "
                f"(flat node {bad}); the state is lost", t, bad, float("nan"))
        depth = lr - box_reduce(lr, grid, [_DIP_WINDOW // 2] * grid.dimension,
                                np.maximum)
        low = float(np.min(depth))
        if low < log_floor:
            node = int(np.argmin(depth))
            # the depth as a power of ten: exp(low) may underflow to zero
            raise DensityFloorError(
                f"density dipped to 10^{low / np.log(10.0):.2f} of its "
                f"neighborhood (abort floor {ABORT_FLOOR:.1e}) at node "
                f"{node}, t={t:.6g}: {_dip_cause(grid, node)} and the phase "
                f"representation breaks down", t, node, float(np.exp(low)))

    states = [MadelungState(RealField(grid, state0.density.values.copy()),
                            RealField(grid, state0.action.values.copy()))]
    times = [0.0]
    drift = [0.0]
    for step in range(1, steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            for sub in range(substeps):
                k1 = rhs(u)
                k2 = rhs(u + 0.5 * h * k1)
                k3 = rhs(u + 0.5 * h * k2)
                k4 = rhs(u + h * k3)
                u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                check_floor(2.0 * u.real, (step - 1) * dt + (sub + 1) * h)
        t = step * dt
        if step % store_every == 0 or step == steps:
            rho = np.exp(2.0 * u.real)
            states.append(MadelungState(RealField(grid, rho),
                                        RealField(grid, params.hbar * u.imag)))
            times.append(t)
            drift.append(integrate_values(rho, grid) - mass0)
    return MadelungTrajectory(times=np.asarray(times), states=states,
                              mass_drift=np.asarray(drift),
                              substeps_per_step=substeps)


# -- vanishing-momentum scenario ---------------------------------------------

@dataclass(frozen=True, eq=False)
class BranchReport:
    """One constrained-extremum branch, read off (psi, S = 0): the
    extremal route's residuals beside the operator route's momenta."""

    branch: str
    label: str
    energy: float
    multiplier: float
    hj_residual_max: float
    continuity_residual_max: float
    density_rate_max: float
    momentum_gradient_max: float
    density_gradient_scale: float
    # density-weighted V + Q over the resolved nodes
    ensemble_energy: float
    momentum_norm: float
    classical_momentum_norm: float
    amplitude_momentum_norm: float
    nonlinear_residual_max: float

    @property
    def energy_gap(self) -> float:
        return abs(self.energy - self.ensemble_energy)


@dataclass(frozen=True, eq=False)
class VanishingMomentumResult:
    reports: list[BranchReport]
    trivial: BranchReport


def node_exclusion_mask(psi: np.ndarray) -> np.ndarray:
    """True within _NODE_CELLS nodes of a sign change (or exact zero) of
    psi."""
    sg = np.sign(psi)
    flips = np.nonzero(sg[1:-2] * sg[2:-1] < 0)[0] + 1
    zeros = np.nonzero(sg[1:-1] == 0)[0] + 1
    out = np.zeros(psi.shape, dtype=bool)
    for f in np.concatenate([flips, zeros]):
        out[max(0, f - _NODE_CELLS):min(psi.size, f + _NODE_CELLS + 2)] = True
    return out


def resolved_nodes(rho: RealField, near_node: np.ndarray,
                   level: int) -> np.ndarray:
    """Nodes with density at least RESOLVED_FLOOR times its peak, outside
    near_node. Raises UnresolvedLevelError when there is none."""
    keep = ~low_density_mask(rho, RESOLVED_FLOOR) & ~near_node
    if not keep.any():
        raise UnresolvedLevelError(
            f"level {level} is unresolved: every node has density below "
            f"{RESOLVED_FLOOR:g} of its peak or lies next to a node of the "
            f"state")
    return keep


def rest_energy_density(rho: RealField, params: PhysicalParams) -> np.ndarray:
    """V + Q: the order-2 ensemble energy's density gradient at S = 0."""
    at_rest = MadelungState(rho, RealField(rho.grid, np.zeros(rho.grid.shape)))
    return EnsembleHamiltonian(params, order=2).gradient_density(at_rest).values


def resolved_energy(rho: RealField, v_plus_q: np.ndarray,
                    near_node: np.ndarray,
                    level: int) -> tuple[float, np.ndarray]:
    """Density-weighted mean of V + Q over the resolved nodes, and those
    nodes."""
    keep = resolved_nodes(rho, near_node, level)
    w = (rho.values * rho.grid.node_volumes())[keep]
    return float(np.sum(w * v_plus_q[keep]) / np.sum(w)), keep


def _branch(label: str, psi: np.ndarray, grid: GridSpec, energy: float,
            params: PhysicalParams, level: int, rate: float) -> BranchReport:
    """Every column of one branch, read off (psi, S = 0) with order-2
    stencils; rate is the density drift rate of the unitary run. V + Q - E
    and dH/dS come from EnsembleHamiltonian, read on the resolved nodes
    (its same-order Q makes V + Q - E a stencil-level identity), the
    derivatives of S, rho, psi and |psi| from diff_values."""
    rho = RealField(grid, psi**2)
    state = MadelungState(rho, RealField(grid, np.zeros(grid.shape)))
    ham = EnsembleHamiltonian(params, order=2)
    vq = ham.gradient_density(state).values
    ensemble_e, keep = resolved_energy(rho, vq, node_exclusion_mask(psi),
                                       level)
    s_grad = diff_values(state.action.values, grid, order=2)
    dr = diff_values(rho.values, grid, order=2)
    dr_scale = float(np.max(np.abs(dr)) * grid.axes[0].span
                     / np.max(rho.values))
    dpsi = diff_values(psi.astype(complex), grid, order=2)
    damp = diff_values(np.abs(psi), grid, order=2)
    return BranchReport(
        branch="nontrivial" if dr_scale > 1e-6 else "trivial", label=label,
        energy=energy, multiplier=0.0,
        hj_residual_max=float(np.max(np.abs((vq - energy)[keep]))),
        continuity_residual_max=float(np.max(np.abs(
            ham.gradient_action(state).values[keep]))),
        density_rate_max=rate,
        momentum_gradient_max=float(np.max(np.abs(s_grad))),
        density_gradient_scale=dr_scale, ensemble_energy=ensemble_e,
        momentum_norm=params.hbar * l2_norm(ComplexField(grid, dpsi)),
        classical_momentum_norm=float(np.sqrt(integrate_values(
            rho.values * s_grad**2, grid))),
        amplitude_momentum_norm=params.hbar * l2_norm(RealField(grid, damp)),
        nonlinear_residual_max=float(np.max(np.abs(2.0 * s_grad))))


def vanishing_momentum_scenario(params: PhysicalParams, grid: GridSpec,
                                k: int = 5, dt: float = 1e-3,
                                steps: int = 200) -> VanishingMomentumResult:
    """Stationary states as extremals with the momentum field pinned to zero.

    Every eigenstate gives the branch with nonuniform density: the
    action field is constant, the local-momentum multiplier vanishes with
    p_c, and V + Q - E must vanish where the density is meaningful.
    Density stationarity is checked by propagating each eigenstate with
    the unitary solver over steps * dt. The uniform-density flat branch,
    on a periodic line of length 10 with no potential, goes through the
    same builder, _branch, and is reported alongside.
    """
    spec = eigensolve_1d(params, grid, k)
    reports = []
    for j, psi in enumerate(spec.eigenfunctions):
        traj = propagate_wavefunction(ComplexField(grid,
                                                   psi.values.astype(complex)),
                                      params, dt, steps, store_every=steps)
        rho_end = np.abs(traj.states[-1].values) ** 2
        rate = float(np.max(np.abs(rho_end - psi.values**2)) / (steps * dt))
        reports.append(_branch(f"eigenstate_{j}", psi.values, grid,
                               float(spec.eigenvalues[j]), params, j, rate))
    line = GridSpec.line(256, 0.0, 10.0, PERIODIC)
    flat = PhysicalParams(hbar=params.hbar, mass=params.mass_along(0))
    amp = np.full(line.shape, 1.0 / np.sqrt(line.axes[0].span))
    trivial = _branch("uniform", amp, line, 0.0, flat, 0, 0.0)
    return VanishingMomentumResult(reports=reports, trivial=trivial)


# -- operator-route versus extremal-route comparison -------------------------

@dataclass(frozen=True, eq=False)
class QuantizationRouteReport:
    rows: list[BranchReport]
    trivial_momentum_norm: float

    @property
    def nonlinear_ok(self) -> bool:
        return all(r.nonlinear_residual_max <= 1e-6 for r in self.rows)


def quantization_route_report(result: VanishingMomentumResult
                              ) -> QuantizationRouteReport:
    """Momentum-operator action on the stationary states, as _branch
    reads it: the operator route demands p psi = 0 for a vanishing
    momentum field, which fails on the nonuniform branch (the amplitude
    gradient survives), while the weaker nonlinear condition
    p(ln psi - ln psi*) = 0, i.e. 2 dS/dx = 0, holds exactly. The flat
    branch satisfies both.
    """
    return QuantizationRouteReport(
        rows=result.reports, trivial_momentum_norm=result.trivial.momentum_norm)
