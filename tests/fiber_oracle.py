"""Scalar reference version of the batched fiber pass in `hjminimax.selector`.

This is the one-fiber-at-a-time path the batched pass replaced, kept only
as a test oracle: per abscissa it scans every front segment, interpolates
each crossing with a scalar cubic Hermite, looks its section up by a linear
scan and couples the fiber with the scalar loop `morse_oracle.couple`. On
the same input the batched pass must give the same values bit for bit and
the same errors.

Its crossing test, `(qa - q) * (qb - q) < 0`, is the batched pass's
"strictly between qa and qb" unless that product underflows to zero, which
takes both differences below about 1e-154.
"""

from dataclasses import dataclass

import numpy as np

import morse_oracle
from hjminimax import front as frontmod
from hjminimax.errors import DegenerateFiber
from hjminimax.selector import FIBER_TOL


@dataclass(frozen=True)
class FiberPoint:
    z: float
    section: int
    index: int       # branch index of the section
    seg: int


def section_of_segment(sections, seg):
    """The section holding segment seg (vertices seg and seg+1)."""
    for s in sections:
        if s.start <= seg and seg + 1 <= s.end:
            return s
    raise KeyError(seg)


def hermite_z(f, seg, s):
    z0, z1 = f.z[seg], f.z[seg + 1]
    h = f.q[seg + 1] - f.q[seg]
    if abs(h) < 1e-13:
        return float(0.5 * (z0 + z1))
    m0, m1 = f.p[seg], f.p[seg + 1]
    # guard against wild slopes right at a fold
    lin = (z1 - z0) / h
    if not (np.isfinite(m0) and np.isfinite(m1)) or \
            max(abs(m0 - lin), abs(m1 - lin)) > 10.0 * (1.0 + abs(lin)):
        return float(z0 + s * (z1 - z0))
    return float(frontmod.hermite_powers(s, s ** 2, s ** 3, h, z0, m0, z1, m1))


def raw_crossings(f, q):
    """(z, seg) for every segment crossed by the vertical line at q."""
    qa, qb = f.q[:-1], f.q[1:]
    hit = ((qa - q) * (qb - q) < 0) | (qa == q)
    out = []
    for seg in np.nonzero(hit)[0]:
        dq = qb[seg] - qa[seg]
        frac = 0.0 if dq == 0 else float((q - qa[seg]) / dq)
        out.append((hermite_z(f, int(seg), frac), int(seg)))
    if len(f) and f.q[-1] == q:
        out.append((float(f.z[-1]), len(f) - 2))
    return out


def fiber_points(analysis, q):
    """Crossings of the vertical line at q with every section, ordered along
    the curve; DegenerateFiber near a cusp or double point or on an even
    count."""
    f = analysis.front
    wq, _ = f.bbox_scale()
    for c in analysis.cusps:
        if abs(c.q - q) / wq < FIBER_TOL:
            raise DegenerateFiber(f"fiber at q={q} passes through a cusp projection")
    for d in analysis.doubles:
        if abs(d.q - q) / wq < FIBER_TOL:
            raise DegenerateFiber(f"fiber at q={q} passes through a double point")
    pts = raw_crossings(f, q)
    if len(pts) % 2 == 0:
        raise DegenerateFiber(f"even crossing count ({len(pts)}) at q={q}")
    out = []
    for z, seg in pts:
        sec = section_of_segment(analysis.sections, seg)
        out.append(FiberPoint(z=z, section=sec.id, index=sec.index, seg=seg))
    return out


def coupled_fiber(analysis, q):
    """Fiber points at q, the position of the free one, and the (upper,
    lower) positions of the coupled pairs."""
    pts = fiber_points(analysis, q)
    if len(pts) == 1:
        return pts, 0, []
    free, pairs = morse_oracle.couple([pt.z for pt in pts], [pt.index for pt in pts])
    return pts, free, pairs


def select_row(analysis, q_grid):
    """(u, branch, branch_count) of one grid row, one fiber at a time in
    grid order; the first fiber that cannot be coupled raises."""
    u = np.empty(len(q_grid))
    branch = np.zeros(len(q_grid), dtype=int)
    count = np.ones(len(q_grid), dtype=int)
    for j, qv in enumerate(q_grid):
        pts, free, _ = coupled_fiber(analysis, float(qv))
        u[j], branch[j], count[j] = pts[free].z, pts[free].section, len(pts)
    return u, branch, count
