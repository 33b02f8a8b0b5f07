import numpy as np

from varq.grid import GridSpec, RealField
from varq.fields import MadelungState


def random_smooth_state(rng, n=512, length=2.0 * np.pi, modes=3,
                        rho_amp=0.4, s_amp=0.5, hbar=1.0):
    """Strictly positive smooth periodic (rho, S) pair for property tests."""
    grid = GridSpec.line(n, 0.0, length, "periodic")
    x = grid.coordinates()[0]
    logrho = np.zeros(n)
    s = np.zeros(n)
    for k in range(1, modes + 1):
        a, b = rng.normal(0.0, rho_amp / k, size=2)
        logrho += a * np.cos(2 * np.pi * k * x / length) \
            + b * np.sin(2 * np.pi * k * x / length)
        c, d = rng.normal(0.0, s_amp / k, size=2)
        s += c * np.cos(2 * np.pi * k * x / length) \
            + d * np.sin(2 * np.pi * k * x / length)
    rho = np.exp(logrho)
    rho /= np.sum(rho * grid.node_volumes())
    return MadelungState(RealField(grid, rho), RealField(grid, s), hbar)


def harmonic_ground_state(grid, hbar=1.0, mass=1.0, omega=1.0, s_const=0.0):
    """Analytic ground-state density of the harmonic trap, unit mass on grid."""
    x = grid.coordinates()[0]
    rho = np.exp(-mass * omega * x**2 / hbar)
    rho /= np.sum(rho * grid.node_volumes())
    s = np.full(grid.shape, s_const)
    return MadelungState(RealField(grid, rho), RealField(grid, s), hbar)


def observed_order(spacings, errors):
    """Convergence order fitted over several resolutions: the
    least-squares slope of log error against log grid spacing."""
    return float(np.polyfit(np.log(spacings), np.log(errors), 1)[0])
