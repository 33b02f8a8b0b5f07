"""Eigen and time-domain solvers for the 1D quantization scenarios.

Every stencil row here comes from fd_weights through the operators of
`grid`. H = -(hbar^2/2m) d2/dx2 + V takes its kinetic part from the
order-2 stencil_operator, whose one-sided hard-wall rows are not
equations of H: the eigensolver, its residual and the propagator use
its interior block, so discrete eigenpairs are exact fixed points of
the propagator and satisfy V + Q - E = 0 at the stencil level when Q
is evaluated at the same order. The density/action
propagator integrates the coupled quantum Hamilton-Jacobi and continuity
equations directly with explicit RK4, internally substepping below the
reporting cadence to stay inside the stability region of the stiffest
grid mode. It carries both fields as one complex array
u = ln(rho)/2 + i S/hbar, whose equation per axis is
u_t = i (hbar/2m)(u'' + u'^2) - i V/hbar, so each right-hand side costs
one sparse product per axis, the d/dx and d2/dx2 numerators N1 and
d N2 (d the stencils' denominator) stacked into one operator with
complex data, built once per grid in the stencils' own entry order, and
one scale per axis: ((N1 u)^2 + d N2 u) / (d dx)^2 is u'' + u'^2.
_madelung_rhs writes into the array it is given; the RK4 loop holds its
four slopes, one stage input, one slope sum and 2 Re u for the whole run
and advances u in place, each sum in the association of the textbook
formula. It never forms psi = exp(u), which keeps it
independent of the wavefunction route it is compared with. Its node
check takes each node's neighborhood maximum with `grid.box_reduce`,
the box reduction the colored gradient of `action` sums with. Every
state at rest (density rho, S = 0, energy E) that a scenario checks is
read here: resolved_energy gives its V + Q energy and resolved nodes,
rest_residuals its residuals on the stationary trajectory S = -E t
centred on it, t = 0 on the middle slice. One builder reads every
vanishing-momentum branch, the flat one too, through them.

scipy is imported inside the functions that call it: scipy.sparse where
the stacked RHS operators are built, scipy.linalg in the eigensolve and
its LAPACK tridiagonal routines in the Crank-Nicolson set-up. Both read
H as three bands, so no sparse H is built and scipy.sparse.linalg is
never loaded. Each import runs once per eigensolve or propagation,
never per step; one Crank-Nicolson factorization serves a whole run,
whether it advances one state or the vanishing-momentum scenario's
block of every eigenstate. Importing this module (hence `varq.cli`)
then loads numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .action import bohm_potential, low_density_mask
from .constraints import (
    SLICE_DT,
    EnsembleHamiltonian,
    stationarity_residuals,
    stationary_trajectory,
)
from .fields import (
    RESOLVED_FLOOR,
    MadelungState,
    PhysicalParams,
    hbar_squared,
    potential_values,
)
from .grid import (
    DEFAULT_ORDER,
    DIRICHLET,
    PERIODIC,
    ComplexField,
    GridSpec,
    NonFiniteFieldError,
    RealField,
    box_reduce,
    diff_values,
    fd_weights,
    integrate_values,
    l2_norm,
    stencil_operator,
    stencil_reach,
)

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


def _hamiltonian_bands(params: PhysicalParams, grid: GridSpec
                       ) -> tuple[np.ndarray, np.ndarray, float]:
    """1D H on the unknowns, the interior block of the order-2 d2/dx2 plus
    V, as its diagonal, its off-diagonal (H is symmetric) and wrap, the
    corner entry that couples the ends of a periodic line (0.0 between
    hard walls)."""
    ax = grid.axes[0]
    lap = stencil_operator(ax, 2, 2)
    square, scale = hbar_squared(params)
    coeff = square / (2.0 * params.mass_along(0) * ax.dx * ax.dx
                      * lap.denominator) * scale * scale
    v = potential_values(params.potential, grid)
    num = lap.numerators
    diag = v - coeff * num.diagonal(0)
    off = -(coeff * num.diagonal(1))
    if ax.boundary == PERIODIC:
        return diag, off, float(-(coeff * num.diagonal(ax.n_points - 1)[0]))
    return diag[1:-1], off[1:-1], 0.0


def _interior_eigensolve(params: PhysicalParams, grid: GridSpec, k: int,
                         eigvals_only: bool):
    """Lowest k eigenvalues of H on the unknowns, and unless eigvals_only
    their eigenvectors, as eigh_tridiagonal returns them, and the
    exponent e of the scaling below.

    LAPACK's bisection and inverse iteration square the band entries and
    multiply the squares by the band norm and powers of the order: with
    bands of 2^480 the eigenvectors come back NaN, below 2^-509 the
    squares are subnormal and the eigenvalues wrong. Nor is its inverse
    iteration free of scale: bands 2^-64 times the harmonic trap's give
    eigenvectors that differ in their last bits. So the bands are solved
    scaled by 2^-e to [1/2, 1) (e their largest entry's exponent), an
    exact scaling, and the eigenvalues scaled back: bands a power of two
    apart are one LAPACK problem, and a power-of-two change of units
    moves no bit of the spectrum.
    """
    from scipy.linalg import eigh_tridiagonal

    diag, off, _ = _hamiltonian_bands(params, grid)
    peak = max(np.max(np.abs(diag)), np.max(np.abs(off)))
    e = int(np.frexp(peak)[1])
    out = eigh_tridiagonal(np.ldexp(diag, -e), np.ldexp(off, -e),
                           eigvals_only=eigvals_only, select="i",
                           select_range=(0, k - 1))
    if eigvals_only:
        return np.ldexp(out, e)
    return np.ldexp(out[0], e), out[1], e


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
    vals, vecs, e = _interior_eigensolve(params, grid, k, eigvals_only=False)
    dx = grid.axes[0].dx
    weights = grid.node_volumes()
    inner = _unknowns(grid)
    # the exponents, over v's peak, of what apply_hamiltonian forms from
    # v: v itself, its d2/dx2, that over 2 m, and H v
    d2_exp = -2 * int(np.frexp(dx)[1])
    mass_exp = int(np.frexp(2.0 * params.mass_along(0))[1])
    forms = [0, d2_exp, d2_exp - mass_exp, e]
    shift = -(min(forms) + max(forms)) // 2
    funcs = []
    residuals = np.empty(k)
    for j in range(k):
        full = np.zeros(n)
        full[inner] = vecs[:, j] / np.sqrt(dx)
        full = _fix_sign(full, weights)
        # H is applied to v times 2^s, which centers those exponents on
        # 0, so none is subnormal or overflows unless their spread forces
        # it; the residual is read in the eigensolve's units 2^e, whose
        # squares cannot overflow
        s = shift - int(np.frexp(np.max(np.abs(full)))[1])
        scaled = np.ldexp(full, s)
        err = apply_hamiltonian(scaled, grid, params) - vals[j] * scaled
        err = np.ldexp(err[inner], -e - s)
        residuals[j] = float(
            np.ldexp(np.sqrt(np.sum(err**2 * weights[inner])), e))
        funcs.append(RealField(grid, full))
    refined = None
    if richardson:
        ax = grid.axes[0]
        fine = GridSpec.line(2 * (n - 1) + 1, ax.x_min, ax.x_max, DIRICHLET)
        fvals = _interior_eigensolve(params, fine, k, eigvals_only=True)
        refined = (4.0 * fvals - vals) / 3.0
    return SpectrumResult(eigenvalues=vals, eigenfunctions=funcs,
                          residuals=residuals, refined_eigenvalues=refined)


def apply_hamiltonian(values: np.ndarray, grid: GridSpec,
                      params: PhysicalParams) -> np.ndarray:
    """H values with the propagator's order-2 stencil; on a hard wall the
    edge rows are one-sided d2/dx2, not H: read the interior only."""
    out = potential_values(params.potential, grid) * values
    square, scale = hbar_squared(params)
    for ax_idx, ax in enumerate(grid.axes):
        d2 = stencil_operator(ax, 2, 2).apply(values, ax_idx)
        kinetic = square * d2 / (2.0 * params.mass_along(ax_idx))
        out = out - kinetic * scale * scale
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


def wall_violation(values: np.ndarray, grid: GridSpec) -> str | None:
    """Why a 1D wavefunction cannot start on this grid, or None: small
    tail values are clamped to a hard wall, large ones mean a mismatched
    domain."""
    edge, peak = max(abs(values[0]), abs(values[-1])), np.max(np.abs(values))
    if grid.axes[0].boundary == DIRICHLET and edge > _WALL_TOLERANCE * peak:
        return (f"initial state must vanish on the hard wall: its edge value "
                f"is {edge / peak:.3g} of its peak (limit {_WALL_TOLERANCE:g})")
    return None


def _check_run(dt: float, steps: int, store_every: int) -> None:
    """The run arguments both propagators take, or a ValueError."""
    if dt <= 0 or steps < 1:
        raise ValueError("need positive dt and at least one step")
    if store_every < 1:
        raise ValueError(f"store_every must be at least 1, got {store_every}")


def _crank_nicolson(values: np.ndarray, grid: GridSpec,
                    params: PhysicalParams, dt: float, steps: int,
                    store_every: int):
    """Crank-Nicolson run of one 1D state, or of one state per column of
    an (n, k) block: checks the run and each column's wall values, then
    yields (step, unknowns) at step 0, every store_every steps and at the
    last.

    The step (I + zH)^-1 (I - zH), z = i dt / 2 hbar, is written
    2 (I + zH)^-1 - I, so a step is one LAPACK tridiagonal solve, zgttrs,
    with the one zgttrf factorization of I + zH that serves the run. On a
    periodic line I + zH also couples the ends: the factored matrix
    moves that corner onto its first and last diagonal entries, and one
    Sherman-Morrison correction per step, with its vector solved at
    set-up, restores it. zgttrs treats each column on its own, so every
    column of a block keeps the floats of its own single-state run. A
    band or factor that is not finite raises NonFiniteFieldError, a
    nonzero LAPACK info LinAlgError. No yielded array is written again.
    """
    from scipy.linalg.lapack import zgttrf, zgttrs

    _check_run(dt, steps, store_every)
    for column in values.reshape(values.shape[0], -1).T:
        problem = wall_violation(column, grid)
        if problem:
            raise ValueError(problem)
    diag, off, wrap = _hamiltonian_bands(params, grid)
    z = 0.5j * dt / params.hbar
    with np.errstate(over="ignore", invalid="ignore"):
        d, band, corner = 1.0 + z * diag, z * off, z * wrap
        # I + zH = T + u v^T with u = (gamma, 0, ..., corner) and v = (1,
        # 0, ..., corner / gamma); gamma = -d[0] keeps T's first diagonal
        # entry, 2 d[0], clear of cancellation
        gamma = -d[0]
        ratio = corner / gamma
        if corner:
            d[0] -= gamma
            d[-1] -= corner * ratio
    if not all(np.isfinite(a).all() for a in (d, band, ratio)):
        raise NonFiniteFieldError(
            "the Crank-Nicolson matrix I + i dt H / 2 hbar is not finite")

    def lapack_checked(result, routine):
        *out, info = result
        if info:
            raise np.linalg.LinAlgError(
                f"{routine} failed on I + i dt H / 2 hbar (info {info})")
        return out

    factors = lapack_checked(zgttrf(band, d, band), "zgttrf")
    correction = ()
    if corner:
        u = np.zeros(d.size, dtype=complex)
        u[0], u[-1] = gamma, corner
        q, = lapack_checked(zgttrs(*factors, u), "zgttrs")
        correction = (q, 1.0 + q[0] + ratio * q[-1])
    if not all(np.isfinite(a).all() for a in (*factors[:4], *correction)):
        raise NonFiniteFieldError(
            "the Crank-Nicolson factors of I + i dt H / 2 hbar are not "
            "finite")
    # Fortran order: every column is contiguous, and zgttrs copies the
    # right-hand side as it is
    cur = np.asfortranarray(values[_unknowns(grid)], dtype=complex)
    yield 0, cur
    for step in range(1, steps + 1):
        new, = lapack_checked(zgttrs(*factors, cur), "zgttrs")
        if correction:
            q, denom = correction
            for col in new.reshape(new.shape[0], -1).T:
                col -= q * ((col[0] + ratio * col[-1]) / denom)
        # 2 (I + zH)^-1 psi - psi, in the new array: cur has been yielded
        new += new
        new -= cur
        cur = new
        if step % store_every == 0 or step == steps:
            yield step, cur


def propagate_wavefunction(psi0: ComplexField, params: PhysicalParams,
                           dt: float, steps: int,
                           store_every: int = 1) -> WavefunctionTrajectory:
    """Crank-Nicolson propagation; exactly norm-preserving per step.

    On Dirichlet grids the boundary values must start at zero and stay
    pinned there. The steps are _crank_nicolson's, the one loop that
    also advances vanishing_momentum_scenario's block of eigenstates.
    """
    grid = psi0.grid
    if grid.dimension != 1:
        raise ValueError("wavefunction propagation is 1D")
    inner = _unknowns(grid)
    states, times, norms = [], [], []
    for step, interior in _crank_nicolson(psi0.values, grid, params, dt,
                                          steps, store_every):
        out = np.zeros(grid.shape, dtype=complex)
        out[inner] = interior
        states.append(ComplexField(grid, out))
        times.append(step * dt)
        norms.append(l2_norm(states[-1]))
    return WavefunctionTrajectory(times=np.asarray(times), states=states,
                                  norms=np.asarray(norms))


# -- density/action field propagation ----------------------------------------

@dataclass(frozen=True, eq=False)
class MadelungTrajectory:
    times: np.ndarray
    states: list[MadelungState]
    mass_drift: np.ndarray
    substeps_per_step: int


@lru_cache(maxsize=16)
def _rhs_operators(grid: GridSpec) -> tuple:
    """Per axis, the DEFAULT_ORDER d/dx and d2/dx2 numerators stacked into
    one CSR operator [N1; d N2] with complex data (d the stencils'
    denominator), the d/dx divisor d dx, and the index of each half of
    the product once it is back in the field's layout. Its entries are
    whole numbers in the stencils' own order, so its halves are those of
    N1 and d N2 to the bit. Built once per grid; its arrays are
    read-only."""
    from scipy import sparse

    ops = []
    for ax, axis in enumerate(grid.axes):
        first = stencil_operator(axis, DEFAULT_ORDER, 1)
        second = stencil_operator(axis, DEFAULT_ORDER, 2)
        n = axis.n_points
        # a scalar multiply keeps each row's entry order
        stacked = sparse.vstack(
            [first.numerators, second.denominator * second.numerators],
            format="csr")
        # complex data, so no product recasts the operator; built from the
        # stencils' own arrays, since astype sorts each row's indices and
        # so changes the order in which a product sums its terms
        stacked = sparse.csr_array(
            (stacked.data.astype(complex), stacked.indices, stacked.indptr),
            shape=stacked.shape)
        for array in (stacked.data, stacked.indices, stacked.indptr):
            array.setflags(write=False)
        head = (slice(None),) * ax
        ops.append((stacked, first.divisor, head + (slice(None, n),),
                    head + (slice(n, None),)))
    return tuple(ops)


def _madelung_rhs(u: np.ndarray, ops: tuple, params: PhysicalParams,
                  drive: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Time derivative of u = ln(rho)/2 + i S/hbar, written into out (a
    complex array of u's shape that shares no memory with u or drive)
    and returned.

    Per axis, u_t = i (hbar/2m)(u'' + u'^2) - i V/hbar: the real part is
    the continuity equation for ln rho, the imaginary part the quantum
    Hamilton-Jacobi equation for S, curvature potential included. ops
    comes from _rhs_operators, so each axis costs one sparse product:
    with d the stencils' denominator, (N1 u / (d dx))^2 + N2 u / (d dx^2)
    = ((N1 u)^2 + d N2 u) / (d dx)^2, so one scale
    kappa = (i hbar / 2m) / (d dx) / (d dx) per axis serves both
    derivatives. (d dx)^2 alone would overflow where d dx^2 does not. The
    sum is drive + kappa ((N1 u)^2 + d N2 u) on axis 0, each later axis's
    term added to it; drive is -i V/hbar. Nothing divides by the
    amplitude, but a density that starts far below its peak still breaks
    the route: a squeezed packet (trap strength 1.5, 0.8 of the ground
    width, center 1) on [-6, 6] starts near 1e-41 of its peak at the far
    wall and aborts there at t ~ 0.06.
    """
    for ax, (stacked, divisor, first, second) in enumerate(ops):
        both = stacked @ (u if ax == 0 else u.T)
        if ax:
            both = both.T
        # the product is this call's own array: square N1 u in place, then
        # fold d N2 u and kappa into it
        d1 = both[first]
        np.multiply(d1, d1, out=d1)
        np.add(both[second], d1, out=d1)
        np.multiply(0.5j * params.hbar / params.mass_along(ax) / divisor
                    / divisor, d1, out=d1)
        np.add(out if ax else drive, d1, out=out)
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


@lru_cache(maxsize=None)
def _symbol_peaks(order: int) -> tuple[np.ndarray, np.ndarray]:
    """|sigma1| and |sigma2|, the symbols of the central d/dx and d2/dx2
    rows of an order at each of _MODES. Built once per order; both
    arrays are read-only."""
    half = order // 2
    offsets = tuple(range(-half, half + 1))
    waves = np.exp(1j * np.outer(_MODES, offsets))
    peaks = tuple(np.abs(waves @ np.array(fd_weights(offsets, deriv),
                                          dtype=float))
                  for deriv in (1, 2))
    for sigma in peaks:
        sigma.setflags(write=False)
    return peaks


def _stiffest_rate(state: MadelungState, params: PhysicalParams) -> float:
    """The joint-symbol bound on the spectral radius of the fields
    route's Jacobian at state, V + Q included (see stability_substeps)."""
    grid = state.grid
    hbar = params.hbar
    u = 0.5 * np.log(state.density.values) + 1j * (state.action.values / hbar)
    sigma1, sigma2 = _symbol_peaks(DEFAULT_ORDER)
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
    A substep costs four _madelung_rhs calls, the RK4 arithmetic in place
    on arrays held for the run, and one dip screen, _cannot_dip.
    """
    grid = state0.grid
    _check_run(dt, steps, store_every)
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

    # held for the run: the slopes, the stage input, the slope sum and
    # 2 Re u; u advances in place
    k1, k2, k3, k4, stage, acc = (np.empty_like(u) for _ in range(6))
    log_rho = 2.0 * u.real
    # the step constants, cast to complex as numpy casts a Python float
    # for a complex multiply, held as 0-d arrays so no call converts them
    half, whole, two, sixth = (np.array(c, dtype=complex)
                               for c in (0.5 * h, h, 2.0, h / 6.0))
    log_floor = np.log(ABORT_FLOOR)
    rhs, mul, add = _madelung_rhs, np.multiply, np.add

    def abort_if_dipped(t):
        if not np.isfinite(log_rho).all():
            bad = int(np.argmin(np.isfinite(log_rho).ravel()))
            raise DensityFloorError(
                f"propagation produced non-finite values at t={t:.6g} "
                f"(flat node {bad}); the state is lost", t, bad, float("nan"))
        depth = log_rho - box_reduce(
            log_rho, grid, [_DIP_WINDOW // 2] * grid.dimension, np.maximum)
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
    times, drift = [0.0], [0.0]
    for step in range(1, steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            for sub in range(substeps):
                # stages u + s k, then u += (h/6)(((k1 + 2 k2) + 2 k3) + k4)
                rhs(u, ops, params, drive, out=k1)
                mul(half, k1, out=stage)
                rhs(add(u, stage, out=stage), ops, params, drive, out=k2)
                mul(half, k2, out=stage)
                rhs(add(u, stage, out=stage), ops, params, drive, out=k3)
                mul(whole, k3, out=stage)
                rhs(add(u, stage, out=stage), ops, params, drive, out=k4)
                mul(two, k2, out=acc)
                add(k1, acc, out=acc)
                mul(two, k3, out=stage)
                add(acc, stage, out=acc)
                add(acc, k4, out=acc)
                mul(sixth, acc, out=acc)
                add(u, acc, out=u)
                mul(2.0, u.real, out=log_rho)
                if not _cannot_dip(log_rho, grid, log_floor):
                    abort_if_dipped((step - 1) * dt + (sub + 1) * h)
        if step % store_every == 0 or step == steps:
            rho = np.exp(log_rho)
            states.append(MadelungState(RealField(grid, rho),
                                        RealField(grid, params.hbar * u.imag)))
            times.append(step * dt)
            drift.append(integrate_values(rho, grid) - mass0)
    return MadelungTrajectory(times=np.asarray(times), states=states,
                              mass_drift=np.asarray(drift),
                              substeps_per_step=substeps)


# -- vanishing-momentum scenario ---------------------------------------------

@dataclass(frozen=True, eq=False)
class BranchReport:
    """One constrained-extremum branch: the extremal route's residuals on
    the stationary trajectory through (psi, S = 0) beside the operator
    route's momenta read off (psi, S = 0)."""

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
    keep = ~low_density_mask(rho.values, rho.grid, RESOLVED_FLOOR) & ~near_node
    if not keep.any():
        raise UnresolvedLevelError(
            f"level {level} is unresolved: every node has density below "
            f"{RESOLVED_FLOOR:g} of its peak or lies next to a node of the "
            f"state")
    return keep


def resolved_energy(rho: RealField, params: PhysicalParams,
                    near_node: np.ndarray,
                    level: int) -> tuple[float, np.ndarray]:
    """Density-weighted mean over the resolved nodes of V + Q, the order-2
    ensemble energy's density gradient at S = 0, and those nodes."""
    keep = resolved_nodes(rho, near_node, level)
    at_rest = MadelungState(rho, RealField(rho.grid, np.zeros(rho.grid.shape)))
    vq = EnsembleHamiltonian(params, order=2).gradient_density(at_rest).values
    w = (rho.values * rho.grid.node_volumes())[keep]
    return float(np.sum(w * vq[keep]) / np.sum(w)), keep


def rest_residuals(rho: RealField, energy: float, params: PhysicalParams,
                   keep: np.ndarray) -> tuple[float, float]:
    """Largest quantum Hamilton-Jacobi and continuity residuals over keep
    of the state at rest with density rho and energy E: the order-2
    stationarity residuals of S = -E t, read at t = 0, where S = 0 and
    V + Q has the bits of resolved_energy's."""
    stat = stationarity_residuals(stationary_trajectory(rho, energy),
                                  SLICE_DT, params, order=2)
    return (float(np.max(np.abs(stat.density_residual.values[keep]))),
            float(np.max(np.abs(stat.action_residual.values[keep]))))


def _branch(label: str, psi: np.ndarray, grid: GridSpec, energy: float,
            params: PhysicalParams, level: int, rate: float) -> BranchReport:
    """Every column of one branch, read off (psi, S = 0) with order-2
    stencils; rate is the density drift rate of the unitary run. The
    residuals are rest_residuals' (its same-order Q makes dS/dt + V + Q
    vanish at the stencil level), the derivatives of S, rho, psi and
    |psi| diff_values'."""
    rho = RealField(grid, psi**2)
    ensemble_e, keep = resolved_energy(rho, params, node_exclusion_mask(psi),
                                       level)
    hj_max, continuity_max = rest_residuals(rho, energy, params, keep)
    s_grad = diff_values(np.zeros(grid.shape), grid, order=2)
    dr = diff_values(rho.values, grid, order=2)
    dr_scale = float(np.max(np.abs(dr)) * grid.axes[0].span
                     / np.max(rho.values))
    dpsi = diff_values(psi.astype(complex), grid, order=2)
    damp = diff_values(np.abs(psi), grid, order=2)
    return BranchReport(
        branch="nontrivial" if dr_scale > 1e-6 else "trivial", label=label,
        energy=energy, multiplier=0.0,
        hj_residual_max=hj_max, continuity_residual_max=continuity_max,
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
    Density stationarity is checked by one Crank-Nicolson run of all k
    eigenstates over steps * dt, as one block of columns through one
    tridiagonal factorization and one solve per step; each column's
    floats are those of its own propagate_wavefunction run. The
    uniform-density flat branch, on a periodic line of length 10 with no
    potential, goes through the same builder, _branch, and is reported
    alongside.
    """
    spec = eigensolve_1d(params, grid, k)
    block = np.stack([psi.values for psi in spec.eigenfunctions], axis=1)
    *_, (_, end) = _crank_nicolson(block, grid, params, dt, steps, steps)
    # an overflowed run fails as a field of propagate_wavefunction would
    if not np.all(np.isfinite(end)):
        raise NonFiniteFieldError("field contains non-finite values")
    rates = np.max(np.abs(np.abs(end)**2 - block[_unknowns(grid)]**2),
                   axis=0) / (steps * dt)
    reports = [_branch(f"eigenstate_{j}", psi.values, grid,
                       float(spec.eigenvalues[j]), params, j, float(rates[j]))
               for j, psi in enumerate(spec.eigenfunctions)]
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
