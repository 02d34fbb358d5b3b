"""The 512-fiber sweep that `selector.minimax_pieces` replaced, kept only as
a test oracle.

`sweep` couples SWEEP_FIBERS evenly spaced fibers across the front, between
its end vertices, and skips a fiber that cannot be coupled; `stitch_mu`
joins runs of equal free section. Each piece so ends on a sweep fiber, up
to one spacing from its shock. The event fibers of `minimax_pieces` must
give the same section sequence, with each piece end within one spacing of
the sweep's.
"""

import numpy as np

from hjminimax import selector
from hjminimax.front import FrontAnalysis

SWEEP_FIBERS = 512   # fibers `sweep` lays across a front


def sweep(analysis: FrontAnalysis):
    """The fiber spacing, and (q, free section, [(upper, lower) section
    pairs]) for each of SWEEP_FIBERS fibers across the front. A fiber that
    cannot be coupled is skipped."""
    f = analysis.front
    # sweep between the end vertices: a fold can dip past them in q, where
    # the fiber loses the noncompact branch and its crossing count is even
    q_lo, q_hi = float(f.q[0]), float(f.q[-1])
    pad = (q_hi - q_lo) * 1e-6
    qs = np.linspace(q_lo + pad, q_hi - pad, SWEEP_FIBERS)
    cp = selector.select_fibers(analysis, qs)
    section = cp.fibers.section.tolist()
    fibers = [(qs[k], section[cp.free[k]],
               [(section[u], section[l]) for u, l in cp.pairs.get(k, ())])
              for k in range(len(qs)) if k not in cp.failed]
    return qs[1] - qs[0], fibers


def stitch_mu(fibers):
    pieces = []
    for q, sec, _ in fibers:
        if pieces and pieces[-1][0] == sec:
            pieces[-1][2] = q
        else:
            pieces.append([sec, q, q])
    return [(sec, lo, hi) for sec, lo, hi in pieces]


def minimax_pieces(analysis: FrontAnalysis):
    """The sweep's (section_id, q_lo, q_hi) pieces and its fiber spacing."""
    dq, fibers = sweep(analysis)
    return stitch_mu(fibers), dq
