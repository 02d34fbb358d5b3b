"""Peak traced memory of the grid passes that batch their rows. Each bound
sits between the peak of the pass as it is and the peak it had with the
batching unbounded or every row of the flow tiled at once, measured on the
same grids."""

import tracemalloc

import numpy as np

import hjminimax as hj
from hjminimax import selector, viscosity

TWO_PI = 2.0 * np.pi
MB = 2.0 ** 20


def _peak_mb(fn):
    """Traced peak of fn(), after one untraced call has filled the caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def test_lax_oleinik_grid_peak(burgers_spec):
    # 6.6 MB in blocks of ARGMIN_ENTRIES; 28.2 MB with all 127 rows in one
    Hc = viscosity.ConvexHamiltonian(H=burgers_spec.H, p_window=(-4.0, 4.0))
    t_grid = np.linspace(0.0, 3.0, 128)
    q_grid = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    assert _peak_mb(lambda: viscosity.lax_oleinik_grid(Hc, burgers_spec.u0, t_grid, q_grid)) < 16.0


def test_minimax_grid_peak(two_hump_spec):
    # 9.1 MB with one period flowed and each row tiled when its front is
    # built; 21.8 MB with every row tiled up front; 28.2 MB with the tiled
    # flow also kept alive through the coupling
    t_grid = np.linspace(0.0, 3.0, 96)
    q_grid = np.linspace(0.0, TWO_PI, 192, endpoint=False)
    assert _peak_mb(lambda: selector.minimax_grid(two_hump_spec, t_grid, q_grid,
                                                  n_seeds=2048)) < 15.0


def test_minimax_grid_peak_qflow():
    # 7.1 MB with each row tiled when its front is built; 13.5 MB with
    # every row tiled up front
    spec = hj.ProblemSpec(H=hj.parse("p^2/2 + 0.5*sin(q)*cos(t)"), u0=hj.parse("cos(q)"),
                          domain=hj.Periodic(TWO_PI), t_max=2.0)
    t_grid = np.linspace(0.0, 2.0, 64)
    q_grid = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    assert _peak_mb(lambda: selector.minimax_grid(spec, t_grid, q_grid,
                                                  n_seeds=4096)) < 10.0
