"""Peak traced memory of the grid passes that batch their rows. Each bound
sits between the peak of the pass as it is and the peak it has with the
batching unbounded, measured on the same grids; the last bound sits
between the qflow grid's peak and the size of its whole flow."""

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
    # 3.3 MB in blocks of ARGMIN_ENTRIES = 2^15 with each row's scan
    # clipped to its admissible band (6.6 MB in blocks of 2^16 without the
    # clipping); 17.8 MB with all 127 rows in one
    Hc = viscosity.ConvexHamiltonian(H=burgers_spec.H, p_window=(-4.0, 4.0))
    t_grid = np.linspace(0.0, 3.0, 128)
    q_grid = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    assert _peak_mb(lambda: viscosity.lax_oleinik_grid(Hc, burgers_spec.u0, t_grid, q_grid)) < 16.0


def test_minimax_grid_peak(two_hump_spec):
    # 6.7 MB with the flow streamed into batches of BATCH_VERTICES (2 rows),
    # in the coupling, which lists no coupled pairs; the batch loop peaks at
    # 3.6 MB, and held 7.1 MB with the whole flow alive. 26.0 MB with every
    # row in one batch; 9.1 MB one row at a time with the pairs listed
    t_grid = np.linspace(0.0, 3.0, 96)
    q_grid = np.linspace(0.0, TWO_PI, 192, endpoint=False)
    assert _peak_mb(lambda: selector.minimax_grid(two_hump_spec, t_grid, q_grid,
                                                  n_seeds=2048)) < 15.0


def _qflow_grid():
    spec = hj.ProblemSpec(H=hj.parse("p^2/2 + 0.5*sin(q)*cos(t)"), u0=hj.parse("cos(q)"),
                          domain=hj.Periodic(TWO_PI), t_max=2.0)
    t_grid = np.linspace(0.0, 2.0, 64)
    q_grid = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    return selector.minimax_grid(spec, t_grid, q_grid, n_seeds=4096)


def test_minimax_grid_peak_qflow():
    # 1.1 MB with the flow streamed into batches of BATCH_VERTICES (2 rows);
    # 6.8 MB while the whole flow was held; 19.2 MB with every row in one
    # batch, streamed or not
    assert _peak_mb(_qflow_grid) < 10.0


def test_minimax_grid_never_holds_its_flow():
    # the qflow flow, 64 times of 4,096 strands of q, p and z, takes 6.0 MB;
    # the grid peaks at 1.1 MB drawing two rows a batch, and held 6.8 MB
    # with the whole flow alive through its batch loop
    flow_mb = 64 * 4096 * 3 * 8 / MB
    assert _peak_mb(_qflow_grid) < 2.0 < flow_mb

