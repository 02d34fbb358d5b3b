"""The rows of `characteristics.evolve_states` stacked into arrays, for the
tests that read a whole flow at once. The package never builds these
arrays: its callers draw the rows one at a time."""

import numpy as np

from hjminimax import characteristics as chars


def evolve_arrays(spec, times, seeds, step=None):
    """(Q, P, Z), each of shape (len(times), n): every row of
    `evolve_states`, drawn in time order and stacked."""
    rows = list(chars.evolve_states(spec, times, seeds, step))
    return tuple(np.array(x) for x in zip(*rows))
