import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from varq import action, constraints
from varq.grid import (
    DEFAULT_ORDER,
    DIRICHLET,
    PERIODIC,
    Axis,
    GridMismatchError,
    GridSpec,
    RealField,
    box_reduce,
    diff_values,
    integrate_values,
    shift_derivative,
    stencil_reach,
)
from varq.action import (
    GRADIENT_STEP,
    information_metric,
    low_density_mask,
    numeric_functional_gradient,
)
from varq.fields import (
    RESOLVED_FLOOR,
    Free,
    Harmonic,
    MadelungState,
    PairwiseRelative,
    PhysicalParams,
    potential_values,
)
from varq.constraints import (
    SLICE_DT,
    BracketReport,
    DensityStationarity,
    EnsembleHamiltonian,
    LocalMomentum,
    classical_consistency,
    functional_derivative,
    poisson_bracket,
    stationarity_residuals,
    stationary_trajectory,
    weak_equality,
)
from varq.solvers import eigensolve_1d

from conftest import harmonic_ground_state, random_smooth_state


def plane_phase_state(grid, momentum, sigma=1.0):
    x = grid.coordinates()[0]
    rho = np.exp(-x**2 / (2.0 * sigma**2))
    rho /= np.sum(rho * grid.node_volumes())
    return MadelungState(RealField(grid, rho), RealField(grid, momentum * x))


def relative_gaussian_2d(grid):
    a, b = grid.meshes()
    span = grid.axes[0].span
    r = np.mod(a - b + 0.5 * span, span) - 0.5 * span
    rho = np.exp(-r**2)
    rho /= np.sum(rho * grid.node_volumes())
    return MadelungState(RealField(grid, rho),
                         RealField(grid, np.zeros(grid.shape)))


# -- constraint values -------------------------------------------------------

def test_local_momentum_value_plane_phase():
    g = GridSpec.line(512, -8.0, 8.0)
    st = plane_phase_state(g, momentum=0.7)
    c = LocalMomentum(p_c=0.0)
    assert c.value(st) == pytest.approx(0.7, abs=1e-10)
    c2 = LocalMomentum(p_c=0.7)
    assert c2.value(st) == pytest.approx(0.0, abs=1e-10)


def test_local_momentum_zero_on_real_state():
    g = GridSpec.line(512, -8.0, 8.0)
    st = harmonic_ground_state(g)
    assert LocalMomentum().value(st) == pytest.approx(0.0, abs=1e-12)


def test_density_stationarity_value_and_aux_requirement():
    g = GridSpec.line(256, -8.0, 8.0)
    st = harmonic_ground_state(g)
    c = DensityStationarity()
    with pytest.raises(ValueError):
        c.value(st)
    aux = RealField.full(g, 0.0)
    assert c.value(st, aux) == 0.0
    x = g.coordinates()[0]
    aux2 = RealField(g, np.cos(x))
    expected = integrate_values(st.density.values * np.cos(x), g)
    assert c.value(st, aux2) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("aux_grid", [GridSpec.line(64, -5.0, 5.0),
                                      GridSpec.line(65, -1.0, 1.0)],
                         ids=["other_span", "other_count"])
def test_aux_on_another_grid_rejected(aux_grid):
    g = GridSpec.line(64, -1.0, 1.0)
    st = harmonic_ground_state(g)
    aux = RealField(aux_grid, np.cos(aux_grid.coordinates()[0]))
    c = DensityStationarity()
    h = EnsembleHamiltonian(PhysicalParams(potential=Harmonic()))
    with pytest.raises(GridMismatchError):
        c.value(st, aux)
    with pytest.raises(GridMismatchError):
        c.gradient_density(st, aux)
    with pytest.raises(GridMismatchError):
        poisson_bracket(c, h, st, aux_f=aux)
    with pytest.raises(GridMismatchError):
        poisson_bracket(h, c, st, aux_g=aux)


def test_total_momentum_value_2d():
    g = GridSpec.square(128, 0.0, 12.0, "periodic")
    st = relative_gaussian_2d(g)
    assert LocalMomentum().value(st) == pytest.approx(0.0, abs=1e-12)


# -- the shift generator -----------------------------------------------------

def axis_sum(values, grid, order):
    """d/dx_a, plus d/dx_b on a 2D grid, added in that order."""
    d = [diff_values(values, grid, axis=ax, order=order)
         for ax in range(grid.dimension)]
    return d[0] if grid.dimension == 1 else d[0] + d[1]


@hst.composite
def shift_cases(draw):
    n = draw(hst.integers(8, 40))
    boundary = draw(hst.sampled_from([PERIODIC, DIRICHLET]))
    make = draw(hst.sampled_from([GridSpec.line, GridSpec.square]))
    grid = make(n, 0.0, 2 * np.pi, boundary)
    amp = hst.floats(-0.5, 0.5)
    modes = hst.lists(hst.tuples(amp, amp), min_size=1, max_size=3)
    rho = np.exp(smooth_field(grid, draw(modes)))
    s = smooth_field(grid, draw(modes))
    trap = Harmonic(k=draw(hst.floats(0.1, 4.0)),
                    center=draw(hst.floats(0.0, 2 * np.pi)))
    return (MadelungState(RealField(grid, rho), RealField(grid, s)),
            draw(hst.sampled_from([2, 4])), PhysicalParams(potential=trap))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(shift_cases())
def test_one_shift_generator_for_both_constraints(case):
    state, order, params = case
    grid = state.grid
    rho, s = state.density.values, state.action.values
    ds, dr = axis_sum(s, grid, order), axis_sum(rho, grid, order)
    assert np.array_equal(shift_derivative(s, grid, order), ds)
    # on a pair grid these are the total-momentum formulas, with no p_c
    func = LocalMomentum(order=order)
    assert np.array_equal(func.integrand(state), rho * ds)
    assert np.array_equal(func.gradient_density(state).values, ds)
    assert np.array_equal(func.gradient_action(state).values, -dr)
    v = potential_values(params.potential, grid)
    assert (classical_consistency(params, grid).secondary_max
            == np.max(np.abs(axis_sum(v, grid, DEFAULT_ORDER))))


def test_ensemble_hamiltonian_ground_state_energy():
    # stationary trap ground state: <V + Q> = hbar omega / 2
    g = GridSpec.line(1024, -8.0, 8.0)
    st = harmonic_ground_state(g)
    p = PhysicalParams(potential=Harmonic())
    h = EnsembleHamiltonian(p)
    assert h.value(st) == pytest.approx(0.5, abs=1e-6)
    # the classical part <V> alone, without (hbar/2) I = <Q>
    classical = h.value(st) - 0.5 * p.hbar * information_metric(st.density, p)
    assert classical == pytest.approx(0.25, abs=1e-6)


# -- functional derivatives, numeric backend ---------------------------------

def test_local_momentum_gradients_match_numeric():
    rng = np.random.default_rng(31)
    st = random_smooth_state(rng, n=512)
    c = LocalMomentum(p_c=0.2)
    for comp in ("density", "action"):
        ana = functional_derivative(c, st, comp)
        num = functional_derivative(c, st, comp, backend="numeric")
        scale = max(np.max(np.abs(ana.values)), 1.0)
        assert np.max(np.abs(ana.values - num.values)) <= 1e-5 * scale


def test_ensemble_hamiltonian_gradients_match_numeric():
    rng = np.random.default_rng(37)
    st = random_smooth_state(rng, n=512)
    h = EnsembleHamiltonian(PhysicalParams(potential=Harmonic()))
    for comp in ("density", "action"):
        ana = functional_derivative(h, st, comp)
        num = functional_derivative(h, st, comp, backend="numeric")
        scale = max(np.max(np.abs(ana.values)), 1.0)
        assert np.max(np.abs(ana.values - num.values)) <= 1e-5 * scale


def test_functional_derivative_validation():
    g = GridSpec.line(64, -4.0, 4.0)
    st = harmonic_ground_state(g)
    with pytest.raises(ValueError):
        functional_derivative(LocalMomentum(), st, "phase")
    with pytest.raises(ValueError):
        functional_derivative(LocalMomentum(), st, "density", backend="exact")


# -- integrands are local ----------------------------------------------------

# each functional, built at a stencil order, with the fields its integrand
# reads; the pair functionals need a 2D grid
LINE_FUNCTIONALS = [
    (lambda order: LocalMomentum(p_c=0.3, order=order), ("density", "action")),
    (lambda order: DensityStationarity(order=order), ("density",)),
    (lambda order: EnsembleHamiltonian(PhysicalParams(potential=Harmonic()),
                                       order=order), ("density", "action")),
]
PAIR_FUNCTIONALS = [
    (lambda order: LocalMomentum(order=order), ("density", "action")),
]


def axis_distance(axis, i, j):
    """Node distance along one axis, the short way round on a ring."""
    d = np.abs(np.asarray(i) - np.asarray(j))
    return np.minimum(d, axis.n_points - d) if axis.boundary == PERIODIC else d


def smooth_field(grid, amps):
    out = np.zeros(grid.shape)
    for ax, x in enumerate(grid.meshes()):
        for k, (a, b) in enumerate(amps, start=1):
            out += a * np.cos(k * x + ax) + b * np.sin(k * x)
    return out


@hst.composite
def locality_cases(draw):
    order = draw(hst.sampled_from([2, 4]))
    if draw(hst.booleans()):
        boundary = draw(hst.sampled_from([PERIODIC, DIRICHLET]))
        grid = GridSpec.line(draw(hst.integers(8, 40)), 0.0, 2 * np.pi,
                             boundary)
        make, reads = draw(hst.sampled_from(LINE_FUNCTIONALS))
    else:
        grid = GridSpec.square(draw(hst.integers(8, 16)), 0.0, 2 * np.pi,
                               PERIODIC)
        make, reads = draw(hst.sampled_from(PAIR_FUNCTIONALS))
    amp = hst.floats(-0.5, 0.5)
    modes = hst.lists(hst.tuples(amp, amp), min_size=1, max_size=3)
    rho = np.exp(smooth_field(grid, draw(modes)))
    # a fixed mode keeps dS/dx away from zero when the drawn ones vanish
    s = smooth_field(grid, [(0.7, 0.0)] + draw(modes))
    aux = RealField(grid, 1.0 + 0.5 * np.tanh(smooth_field(grid, draw(modes))))
    node = tuple(draw(hst.integers(0, n - 1)) for n in grid.shape)
    component = draw(hst.sampled_from(["density", "action"]))
    state = MadelungState(RealField(grid, rho), RealField(grid, s))
    return make(order), reads, state, aux, node, component


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(locality_cases())
def test_integrand_moves_only_within_a_stencil_reach(case):
    func, reads, state, aux, node, component = case
    grid = state.grid
    rho, s = state.density.values.copy(), state.action.values.copy()
    if component == "density":
        rho[node] *= 1.5
    else:
        s[node] += 0.5
    nudged = MadelungState(RealField(grid, rho), RealField(grid, s))
    moved = func.integrand(nudged, aux) != func.integrand(state, aux)
    box = np.zeros(grid.shape, dtype=bool)
    box[np.ix_(*(axis_distance(axis, np.arange(axis.n_points), j)
                 <= stencil_reach(axis, func.order)
                 for axis, j in zip(grid.axes, node)))] = True
    assert not moved[~box].any()
    assert moved[box].any() == (component in reads)


# -- colored node perturbation -----------------------------------------------

def values_of(state, component):
    return (state.density if component == "density" else state.action).values


def with_component(state, component, values):
    fields = {"density": state.density.values, "action": state.action.values}
    fields[component] = values
    return MadelungState(RealField(state.grid, fields["density"]),
                         RealField(state.grid, fields["action"]), state.hbar)


def full_loop_gradient(integrand, state, component, step=1e-6):
    """The O(N) central difference: two whole-grid integrand evaluations
    per node. Their difference is integrated over the whole grid, which
    keeps the loop's own roundoff far below the tolerance it is held to."""
    grid = state.grid
    base = values_of(state, component)
    vols = grid.node_volumes()
    out = np.zeros(grid.shape)
    for node in np.ndindex(grid.shape):
        ends = []
        for sign in (1.0, -1.0):
            nudged = base.copy()
            nudged[node] += sign * step
            ends.append(integrand(with_component(state, component, nudged)))
        out[node] = (integrate_values(ends[0] - ends[1], grid)
                     / (2.0 * step * vols[node]))
    return out


def color_loop_gradient(integrand, state, component, order):
    """The colored gradient one color and one whole state at a time: per
    color, the integrand of the plus and of the minus state, the locality
    check and the window sums of that color alone. `integrand` takes a
    state. The stacked gradient must give its bits and its errors."""
    grid = state.grid
    base = values_of(state, component)
    reach = [stencil_reach(axis, order) for axis in grid.axes]
    vols = grid.node_volumes()
    up, down = base + GRADIENT_STEP, base - GRADIENT_STEP
    rest = integrand(state)
    out = np.empty(grid.shape)
    colors, picks, outsides, _, divisor = action._colors(grid, order)
    for color, picked, outside in zip(colors, picks, outsides):
        plus = integrand(with_component(
            state, component, np.where(picked, up, base)))
        minus = integrand(with_component(
            state, component, np.where(picked, down, base)))
        if (((plus != rest) | (minus != rest)) & outside).any():
            raise ValueError(
                f"integrand is not local: perturbing color {color} moved it "
                f"farther than the stencil reach {tuple(reach)} from every "
                "perturbed node")
        moved = box_reduce(vols * (plus - minus), grid, reach, np.add)
        out[picked] = moved[picked] / divisor[picked]
    return out


def smooth_state(grid):
    # the density stays well away from zero, also at Dirichlet walls
    rho = np.exp(smooth_field(grid, [(0.3, -0.2), (0.1, 0.2)]))
    s = smooth_field(grid, [(0.7, 0.0), (0.2, -0.3)])
    return MadelungState(RealField(grid, rho), RealField(grid, s))


TRAP = PhysicalParams(potential=Harmonic())
COLORED_CASES = [
    (GridSpec.line(32, 0.0, 2 * np.pi, PERIODIC),
     lambda order: EnsembleHamiltonian(TRAP, order=order)),
    (GridSpec.line(32, 0.0, 2 * np.pi, DIRICHLET),
     lambda order: EnsembleHamiltonian(TRAP, order=order)),
    (GridSpec.line(32, 0.0, 2 * np.pi, DIRICHLET),
     lambda order: LocalMomentum(p_c=0.3, order=order)),
    (GridSpec.square(16, 0.0, 2 * np.pi, PERIODIC),
     lambda order: LocalMomentum(order=order)),
]
COLORED_IDS = ["line_periodic", "line_dirichlet", "momentum_dirichlet",
               "pair_periodic"]


@pytest.mark.parametrize("component", ["density", "action"])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("grid, make", COLORED_CASES, ids=COLORED_IDS)
def test_colored_gradient_matches_full_loop(grid, make, order, component):
    func = make(order)
    state = smooth_state(grid)
    colored = functional_derivative(func, state, component,
                                    backend="numeric").values
    loop = full_loop_gradient(func.integrand, state, component)
    scale = np.max(np.abs(loop))
    assert np.max(np.abs(colored - loop)) <= 1e-8 * scale


@pytest.mark.parametrize("component", ["density", "action"])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("grid, make", COLORED_CASES, ids=COLORED_IDS)
def test_stacked_gradient_gives_the_bits_of_the_color_loop(grid, make, order,
                                                           component):
    func = make(order)
    state = smooth_state(grid)
    stacked = functional_derivative(func, state, component, backend="numeric")
    loop = color_loop_gradient(func.integrand, state, component, order)
    assert stacked.values.tobytes() == loop.tobytes()


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_nonlocal_integrand_raises(boundary):
    grid = GridSpec.line(32, 0.0, 2 * np.pi, boundary)
    state = smooth_state(grid)
    rho = state.density.values
    reach = stencil_reach(grid.axes[0], 4)

    # each integrand takes one field or a stack of them
    def centered(s):
        return rho * (s - np.mean(s, axis=-1, keepdims=True))

    def shifted(r):
        return np.roll(r, reach + 1, axis=-1)

    # reach + 1 nodes past a perturbed node lies outside every window of
    # its color: nodes of one color are at least 2 reach + 2 apart
    def minus_side_only(s):
        lowered = s < state.action.values
        return rho * s + np.roll(lowered, reach + 1, axis=-1)

    def nan_far(r):
        out = r.copy()
        moved = r != rho
        out[np.roll(moved, reach + 1, axis=-1)] = np.nan
        return out

    # node 3 moves the integrand reach + 1 nodes away: only its color,
    # color 3, reaches too far
    def one_far_node(s):
        out = rho * s
        out[..., 3 + reach + 1] += s[..., 3] - state.action.values[3]
        return out

    for integrand, component, color in [
            (centered, "action", 0), (shifted, "density", 0),
            (minus_side_only, "action", 0), (nan_far, "density", 0),
            (one_far_node, "action", 3)]:
        with pytest.raises(ValueError, match=f"perturbing color {color} "
                           "moved it") as stacked:
            numeric_functional_gradient(integrand, state, component, order=4)
        with pytest.raises(ValueError) as looped:
            color_loop_gradient(
                lambda s: integrand(values_of(s, component)), state,
                component, 4)
        assert str(stacked.value) == str(looped.value)


def test_numeric_density_gradient_needs_densities_above_the_step():
    # the Gaussian tail on [-8, 8] falls far below the absolute step, where
    # the minus side of the perturbation would be a negative density
    state = harmonic_ground_state(GridSpec.line(512, -8.0, 8.0))
    h = EnsembleHamiltonian(TRAP)
    smallest = f"{np.min(state.density.values):.3g}"
    with pytest.raises(ValueError, match=f"step {GRADIENT_STEP:g} exceeds "
                       f"the smallest density {smallest}"):
        functional_derivative(h, state, "density", backend="numeric")


@pytest.mark.parametrize("order", [2, 4])
def test_numeric_backend_cost_set_by_stencil_width(order, monkeypatch):
    stacks, terms = [], {}
    integrand_values = EnsembleHamiltonian.integrand_values

    def counted_values(self, rho, action, grid):
        stacks.append(np.broadcast_shapes(rho.shape, action.shape))
        return integrand_values(self, rho, action, grid)

    def counted_term(name):
        term = getattr(constraints, name)

        def counted(values, *args, **kwargs):
            terms.setdefault(name, []).append(values.shape)
            return term(values, *args, **kwargs)
        return counted

    monkeypatch.setattr(EnsembleHamiltonian, "integrand_values",
                        counted_values)
    for name in ("kinetic_density", "information_density"):
        monkeypatch.setattr(constraints, name, counted_term(name))
    h = EnsembleHamiltonian(TRAP, order=order)
    for component, fixed, moving in [
            ("density", "kinetic_density", "information_density"),
            ("action", "information_density", "kinetic_density")]:
        sizes = []
        for n in (64, 512):
            state = random_smooth_state(np.random.default_rng(n), n=n)
            stacks.clear()
            terms.clear()
            functional_derivative(h, state, component, backend="numeric")
            # one evaluation, on one stack of fields of the grid's shape:
            # the fixed component's term once, on its one field, and the
            # moving one's once, on the stack
            assert len(stacks) == 1
            assert stacks[0][1:] == state.grid.shape
            assert terms == {fixed: [state.grid.shape], moving: [stacks[0]]}
            sizes.append(stacks[0][0])
        # a color per offset in a block of 2 reach + 2 nodes, plus one
        # where the blocks share a remainder; +-step per color and one
        # unperturbed
        reach = stencil_reach(state.grid.axes[0], order)
        colors = 2 * reach + 3
        assert 0 < sizes[0] == sizes[1] <= 2 * colors + 1


def nudged(state, component):
    """state with its component moved at every node, the other component
    the very same field object."""
    base = values_of(state, component)
    wobble = 1e-3 * np.cos(np.arange(base.size)).reshape(base.shape)
    return with_component(state, component, base + wobble)


def holding(func, state, component):
    """func's value-level integrand as a function of the component's
    values, the other component held at state's."""
    rho, s, grid = state.density.values, state.action.values, state.grid
    if component == "density":
        return lambda values: func.integrand_values(values, s, grid)
    return lambda values: func.integrand_values(rho, values, grid)


@pytest.mark.parametrize("func", [EnsembleHamiltonian(TRAP), LocalMomentum()])
def test_held_integrand_names_an_unknown_component(func):
    state = smooth_state(GridSpec.line(32, 0.0, 2 * np.pi, PERIODIC))
    for backend in ("analytic", "numeric"):
        with pytest.raises(ValueError, match="unknown component 'phase'"):
            functional_derivative(func, state, "phase", backend=backend)


def test_numeric_backend_refuses_a_functional_that_needs_aux():
    # its integrand reads d rho/dt, which no value array carries
    state = smooth_state(GridSpec.line(32, 0.0, 2 * np.pi, PERIODIC))
    for component in ("density", "action"):
        with pytest.raises(ValueError, match="the numeric backend takes no "
                           "d rho/dt field, which DensityStationarity needs"):
            functional_derivative(DensityStationarity(), state, component,
                                  backend="numeric")


def test_colored_gradient_builds_its_colors_once_per_grid_and_order(
        monkeypatch):
    masks = []
    box_reduce = action.box_reduce

    def counted(values, grid, reach, reduce):
        if values.dtype == bool:
            masks.append(grid)
        return box_reduce(values, grid, reach, reduce)

    monkeypatch.setattr(action, "box_reduce", counted)
    action._colors.cache_clear()
    state = random_smooth_state(np.random.default_rng(7), n=512)
    # a 512-node ring at order 4: reach 2, blocks of 6 and 7 nodes, so 7
    # colors, whose windows are one stacked box sum
    for built in (1, 0):
        masks.clear()
        functional_derivative(EnsembleHamiltonian(TRAP, order=4), state,
                              "density", backend="numeric")
        assert len(masks) == built
    assert len(action._colors(state.grid, 4)[0]) == 7
    # another order, or the same nodes behind hard walls, is another key
    walled = GridSpec.line(512, 0.0, 2 * np.pi, DIRICHLET)
    walled_state = MadelungState(RealField(walled, state.density.values),
                                 RealField(walled, state.action.values))
    for other, order in [(state, 2), (walled_state, 4)]:
        masks.clear()
        functional_derivative(EnsembleHamiltonian(TRAP, order=order), other,
                              "density", backend="numeric")
        assert masks == [other.grid]
    for array in action._colors(state.grid, 4)[1:]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@hst.composite
def colored_cases(draw):
    if draw(hst.booleans()):
        sizes = [draw(hst.integers(8, 48))]
    else:
        sizes = [draw(hst.integers(8, 12)) for _ in range(2)]
    grid = GridSpec(tuple(
        Axis(n, 0.0, 2 * np.pi, draw(hst.sampled_from([PERIODIC, DIRICHLET])))
        for n in sizes))
    return (grid, draw(hst.sampled_from([2, 4])),
            draw(hst.sampled_from(["density", "action"])))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(colored_cases())
def test_cached_colors_give_the_bits_of_freshly_built_ones(case):
    grid, order, component = case
    h = EnsembleHamiltonian(TRAP, order=order)
    state = smooth_state(grid)
    integrand = holding(h, state, component)
    numeric_functional_gradient(integrand, state, component, order)
    cached = numeric_functional_gradient(integrand, state, component, order)
    action._colors.cache_clear()
    fresh = numeric_functional_gradient(integrand, state, component, order)
    assert cached.values.tobytes() == fresh.values.tobytes()
    loop = full_loop_gradient(h.integrand, state, component)
    scale = np.max(np.abs(loop))
    assert np.max(np.abs(cached.values - loop)) <= 1e-8 * scale


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(colored_cases())
def test_held_integrand_gives_the_bits_of_the_full_one(case):
    grid, order, component = case
    for func in (EnsembleHamiltonian(TRAP, order=order),
                 LocalMomentum(p_c=0.3, order=order)):
        state = smooth_state(grid)
        held = functional_derivative(func, state, component, "numeric")
        loop = color_loop_gradient(func.integrand, state, component, order)
        assert held.values.tobytes() == loop.tobytes()
        # a stack of either component broadcast against one field of the
        # other: each field gets the bits it gets alone, integrand's
        for moving in ("density", "action"):
            integrand = holding(func, state, moving)
            states = [state, nudged(state, moving)]
            fields = [values_of(s, moving) for s in states]
            stack = integrand(np.stack(fields))
            assert stack.shape == (2,) + grid.shape
            for s, values, got in zip(states, fields, stack):
                want = func.integrand(s).tobytes()
                assert integrand(values).tobytes() == want
                assert got.tobytes() == want


# -- Poisson brackets --------------------------------------------------------

def test_bracket_local_momentum_with_hamiltonian_weakly_zero():
    g = GridSpec.line(1024, -8.0, 8.0)
    st = harmonic_ground_state(g)
    p = PhysicalParams(potential=Harmonic())
    rep = poisson_bracket(LocalMomentum(), EnsembleHamiltonian(p), st)
    assert isinstance(rep, BracketReport)
    assert rep.scale > 0
    assert abs(rep.value) / rep.scale <= 1e-4
    assert rep.consistent


def test_bracket_density_stationarity_exactly_zero():
    g = GridSpec.line(512, -8.0, 8.0)
    st = harmonic_ground_state(g)
    p = PhysicalParams(potential=Harmonic())
    aux = RealField.full(g, 0.0)
    rep = poisson_bracket(DensityStationarity(), EnsembleHamiltonian(p), st,
                          aux_f=aux)
    assert rep.value == 0.0
    assert rep.consistent


def test_bracket_antisymmetry_exact():
    rng = np.random.default_rng(41)
    st = random_smooth_state(rng, n=256)
    p = PhysicalParams(potential=Harmonic())
    f = LocalMomentum(p_c=0.1)
    h = EnsembleHamiltonian(p)
    ab = poisson_bracket(f, h, st)
    ba = poisson_bracket(h, f, st)
    assert ab.value == -ba.value
    assert ab.scale == ba.scale


def test_bracket_nonvanishing_case_detected():
    # {local momentum, H} on a strongly tilted state is not weakly zero
    g = GridSpec.line(512, -8.0, 8.0)
    x = g.coordinates()[0]
    rho = np.exp(-((x - 1.5) ** 2))
    rho /= np.sum(rho * g.node_volumes())
    st = MadelungState(RealField(g, rho), RealField(g, np.zeros(512)))
    p = PhysicalParams(potential=Harmonic(k=25.0))
    rep = poisson_bracket(LocalMomentum(), EnsembleHamiltonian(p), st)
    assert not rep.consistent


def test_weak_equality_rule():
    assert weak_equality(5e-7, 0.0)
    assert weak_equality(5e-5, 1.0)
    assert not weak_equality(2e-4, 1.0)


# -- stationarity residuals --------------------------------------------------

def _stationary_trajectory(g, n_slices=5, dt=0.01, e0=0.5):
    states = []
    for j in range(n_slices):
        base = harmonic_ground_state(g)
        s = np.full(g.shape, -e0 * j * dt)
        states.append(MadelungState(base.density, RealField(g, s)))
    return states


def test_stationarity_residuals_on_ground_state_trajectory():
    g = GridSpec.line(1024, -8.0, 8.0)
    p = PhysicalParams(potential=Harmonic())
    states = _stationary_trajectory(g)
    rep = stationarity_residuals(states, 0.01, p,
                                 [LocalMomentum(), DensityStationarity()],
                                 [0.0, 0.0])
    keep = ~low_density_mask(states[2].density.values, g, RESOLVED_FLOOR)
    assert np.max(np.abs(rep.density_residual.values[keep])) <= 1e-5
    assert np.max(np.abs(rep.action_residual.values[keep])) <= 1e-10
    assert LocalMomentum().value(states[2]) == pytest.approx(0.0, abs=1e-10)


def test_stationarity_residuals_detect_wrong_energy():
    g = GridSpec.line(1024, -8.0, 8.0)
    p = PhysicalParams(potential=Harmonic())
    states = []
    for j in range(5):
        base = harmonic_ground_state(g)
        s = np.full(g.shape, -0.75 * j * 0.01)  # wrong phase rate
        states.append(MadelungState(base.density, RealField(g, s)))
    rep = stationarity_residuals(states, 0.01, p)
    keep = ~low_density_mask(states[2].density.values, g, RESOLVED_FLOOR)
    assert (np.max(np.abs(rep.density_residual.values[keep]))
            == pytest.approx(0.25, abs=1e-4))


def test_stationarity_residuals_multiplier_count_mismatch():
    g = GridSpec.line(256, -8.0, 8.0)
    states = _stationary_trajectory(g)
    with pytest.raises(ValueError):
        stationarity_residuals(states, 0.01, PhysicalParams(),
                               [LocalMomentum()], [1.0, 2.0])


@pytest.mark.parametrize("energy", [1.4998467974114555, -3.25, 0.0])
def test_stationary_trajectory_is_centred_on_the_state_at_rest(energy):
    # S = -E t at t = -SLICE_DT, 0 and SLICE_DT: the middle slice, where
    # the residuals are read, is the state at rest, with S exactly 0, no
    # kinetic term and so the order-2 dH/d rho of S = 0 bit for bit
    g = GridSpec.line(512, -8.0, 8.0)
    p = PhysicalParams(potential=Harmonic())
    psi = eigensolve_1d(p, g, 2).eigenfunctions[1].values
    rho = RealField(g, psi**2)
    before, mid, after = stationary_trajectory(rho, energy)
    assert all(s.density is rho for s in (before, mid, after))
    at_rest = MadelungState(rho, RealField(g, np.zeros(g.shape)))
    assert mid.action.values.tobytes() == at_rest.action.values.tobytes()
    assert np.all(before.action.values == energy * SLICE_DT)
    assert np.all(after.action.values == -energy * SLICE_DT)
    h = EnsembleHamiltonian(p, order=2)
    assert (h.gradient_density(mid).values.tobytes()
            == h.gradient_density(at_rest).values.tobytes())


def _drifting_trajectory(g, dt):
    """Five slices of a packet whose center and phase both move: no
    stationary state, so neither residual vanishes."""
    x = g.coordinates()[0]
    states = []
    for j in range(5):
        rho = np.exp(-(x - 2.0 * j * dt) ** 2)
        rho /= integrate_values(rho, g)
        s = (0.4 + 3.0 * j * dt) * x + 0.1 * x**2 - 0.5 * j * dt
        states.append(MadelungState(RealField(g, rho), RealField(g, s)))
    return states


@pytest.mark.parametrize("constraint", [LocalMomentum(p_c=0.3),
                                        DensityStationarity()],
                         ids=["local-momentum", "density-stationarity"])
def test_multipliers_shift_the_residuals_by_their_gradients(constraint):
    # a nonzero multiplier lambda adds lambda dC/d rho and lambda dC/dS,
    # read at the middle slice: for LocalMomentum dS/dx - p_c and
    # -d rho/dx, for DensityStationarity the trajectory's own d rho/dt
    # (its auxiliary field) and 0
    g = GridSpec.line(128, -6.0, 6.0)
    p = PhysicalParams(potential=Harmonic())
    dt, lam = 0.01, 0.37
    states = _drifting_trajectory(g, dt)
    free = stationarity_residuals(states, dt, p, [constraint], [0.0])
    held = stationarity_residuals(states, dt, p, [constraint], [lam])
    mid = states[2]
    if isinstance(constraint, LocalMomentum):
        dens = diff_values(mid.action.values, g, order=DEFAULT_ORDER) - 0.3
        act = -diff_values(mid.density.values, g, order=DEFAULT_ORDER)
    else:
        dens = (states[3].density.values - states[1].density.values) / (
            2.0 * dt)
        act = np.zeros(g.shape)
    for got, base, term in (
            (held.density_residual, free.density_residual, dens),
            (held.action_residual, free.action_residual, act)):
        scale = np.max(np.abs(base.values)) + lam * np.max(np.abs(term))
        assert np.max(np.abs(base.values)) > 1e-3
        assert np.max(np.abs(got.values - base.values - lam * term)) <= (
            1e-14 * scale)
    assert np.max(np.abs(dens)) > 0.1


# -- classical consistency ---------------------------------------------------

def test_classical_consistency_harmonic_force():
    g = GridSpec.line(256, -4.0, 4.0)
    p = PhysicalParams(potential=Harmonic(k=2.0))
    rep = classical_consistency(p, g)
    x = g.coordinates()[0]
    assert rep.secondary_max == pytest.approx(np.max(np.abs(2.0 * x)),
                                              abs=1e-8)
    assert not rep.vanishes


def test_classical_consistency_flat_potential_terminates():
    g = GridSpec.line(256, -4.0, 4.0)
    rep = classical_consistency(PhysicalParams(potential=Free()), g)
    assert rep.vanishes
    assert rep.secondary_max <= 1e-12


def test_classical_consistency_bipartite_translation():
    g = GridSpec.square(128, 0.0, 12.0, "periodic")
    p = PhysicalParams(mass=(1.0, 2.0),
                       potential=PairwiseRelative(Harmonic(k=3.0)))
    rep = classical_consistency(p, g)
    assert rep.vanishes
    assert rep.secondary_max <= 1e-10 * 3.0 * 36.0
