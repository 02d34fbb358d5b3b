"""Singular set extraction and codimension <= 2 event classification.

The classifier is combinatorial and chains arcs in one pass over the time
slices. Each slice's singular points are clustered. Every arc that reached
the previous slice claims its nearest cluster within MATCH_RADIUS_CELLS; a
cluster claimed by several arcs merges them into the first, a cluster no
arc claims starts a new arc, and an arc that claims none ends. Arc topology
decides the event kind: shock arcs are codim 1, births and merges codim 2.
Arc ends that leave branches behind, and arcs splitting forward in time,
are the forbidden patterns and must never occur in minimax solutions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .selector import GridSolution

KINDS = ("Shock", "ShockBirth", "ShockMerge", "ForbiddenA", "ForbiddenB", "Unclassified")
BRIDGE_CELLS = 3         # gap, in cells, that still joins two singular runs
MATCH_RADIUS_CELLS = 8.0  # q-distance, in cells, an arc may move per slice


@dataclass(frozen=True)
class SingularEvent:
    kind: str
    t: float
    q: float
    evidence: dict = field(default_factory=dict)


def singular_set(g: GridSolution, periodic: bool = False) -> np.ndarray:
    """Boolean mask over grid points: selected branch id changes across the
    cell, or the q-slope jump is an outlier (5x the median local variation
    and a sizeable fraction of the slice's slope range)."""
    nt, nq = g.u.shape
    mask = np.zeros((nt, nq), dtype=bool)
    if nq < 4:
        return mask
    dq = float(g.q[1] - g.q[0])
    for i in range(nt):
        b = g.branch[i]
        change = b[:-1] != b[1:]
        mask[i, :-1] |= change
        mask[i, 1:] |= change
        # no branch-id wrap check: section numbering restarts across the
        # periodic seam, so differing ids there carry no shock information
        s = np.diff(g.u[i]) / dq
        jump = np.abs(np.diff(s))
        med = _median(jump)
        srange = float(s.max() - s.min())
        thr = max(5.0 * med, 0.45 * srange, 1e-12)
        big = jump > thr
        mask[i, 1:-1] |= big
        if periodic:
            s_wrap = (g.u[i, 0] - g.u[i, -1]) / dq
            if abs(s_wrap - s[-1]) > thr or abs(s[0] - s_wrap) > thr:
                mask[i, -1] = mask[i, 0] = True
    return mask


def _median(x: np.ndarray) -> float:
    """np.median of x, bit for bit, NaN included: the mean of its one or two
    middle values. np.median itself imports numpy.ma on its first call."""
    srt = np.sort(x)
    n = len(srt)
    if np.isnan(srt[-1]):  # np.sort puts NaN last, and np.median returns it
        return float(srt[-1])
    return float(np.mean(srt[(n - 1) // 2: n // 2 + 1]))


def _clusters(row_mask: np.ndarray, q: np.ndarray, periodic: bool) -> list[float]:
    """Centre q of each connected run of singular grid points, bridging gaps
    of up to BRIDGE_CELLS cells."""
    idx = np.nonzero(row_mask)[0]
    if len(idx) == 0:
        return []
    groups = [[int(idx[0])]]
    for j in idx[1:]:
        if j - groups[-1][-1] <= 1 + BRIDGE_CELLS:
            groups[-1].append(int(j))
        else:
            groups.append([int(j)])
    if periodic and len(groups) > 1 and \
            groups[0][0] + len(q) - groups[-1][-1] <= 1 + BRIDGE_CELLS:
        wrap = groups.pop()
        groups[0] = wrap + groups[0]
    period = q[-1] - q[0] + (q[1] - q[0])
    out = []
    for grp in groups:
        qs = q[grp]
        if periodic and qs.max() - qs.min() > period / 2:
            # wrapped cluster: average on the circle
            ang = (qs - q[0]) / period * 2 * np.pi
            c = np.arctan2(np.mean(np.sin(ang)), np.mean(np.cos(ang)))
            center = float((c % (2 * np.pi)) / (2 * np.pi) * period + q[0])
            if center >= q[0] + period:   # a tiny negative c % 2pi rounds to 2pi
                center -= period
        else:
            center = float(qs.mean())
        out.append(center)
    return out


def _circ_dist(a, b, period):
    d = abs(a - b)
    if period is not None:
        d = min(d, period - d)
    return d


def classify(g: GridSolution, mask: np.ndarray,
             periodic: bool = False) -> list[SingularEvent]:
    """Chain per-slice singular clusters into arcs and classify their
    endpoints and junctions."""
    nt, nq = g.u.shape
    dq = float(g.q[1] - g.q[0])
    period = nq * dq if periodic else None
    radius = MATCH_RADIUS_CELLS * dq
    arcs = []       # each arc's points (i, q) in the order they joined it
    events = []

    def emit(kind, i, qv, **evidence):
        events.append(SingularEvent(kind=kind, t=float(g.t[i]), q=qv, evidence=evidence))

    def branch_count_near(i, qv):
        js = int(round((qv - g.q[0]) / dq)) + np.arange(-2, 3)
        js = js % nq if periodic else np.clip(js, 0, nq - 1)
        return int(g.branch_count[i, js].max())

    active = []     # indices of the arcs that reached the previous slice
    for i in range(nt):
        clusters = _clusters(mask[i], g.q, periodic)
        # each arc's clusters within reach, nearest first; the nearest claims
        # it, and an arc that reaches none ended at slice i - 1
        within = {}
        arrived = [[] for _ in clusters]
        for a in active:
            tip = arcs[a][-1][1]
            near = sorted((d, k) for k, c in enumerate(clusters)
                          if (d := _circ_dist(tip, c, period)) <= radius)
            within[a] = [k for _, k in near]
            if near:
                arrived[near[0][1]].append(a)
            elif (after := branch_count_near(i, tip)) >= 2:
                emit("ForbiddenA", i - 1, tip, branch_count_after=after,
                     reason="arc ends forward in t with branches persisting")
            else:
                emit("Unclassified", i - 1, tip,
                     reason="arc ends with a single-branch future fiber")

        # an arc seeing several unclaimed clusters is a forward split
        split_children = set()
        for a in active:
            extras = [k for k in within[a][1:] if not arrived[k]]
            if extras:
                emit("ForbiddenB", i, arcs[a][-1][1], reason="arc splits forward in t",
                     outgoing=1 + len(extras))
                split_children.update(extras)

        new_active = []
        for k, c in enumerate(clusters):
            if not arrived[k]:
                arcs.append([(i, c)])
                new_active.append(len(arcs) - 1)
                if i == 0 or k in split_children:
                    continue    # singular from the first slice, or a split's child
                # the mask can lag the fold by a few slices while the slope
                # jump is still tiny; date the birth at the first slice
                # whose fiber near q is multivalued
                j = i
                while j - 1 >= 1 and j > i - 10 and branch_count_near(j - 1, c) >= 2:
                    j -= 1
                before = branch_count_near(j - 1, c)
                if before <= 1:
                    emit("ShockBirth", j, c, branch_count_before=before,
                         branch_count_here=branch_count_near(j, c),
                         mask_onset_t=float(g.t[i]))
                else:
                    emit("Unclassified", i, c,
                         reason="arc appears with a multivalued past fiber")
                continue
            keep = arrived[k][0]
            if len(arrived[k]) > 1:
                # two or more arcs merge into the first: it takes their points
                emit("ShockMerge", i, c, incoming_arcs=len(arrived[k]),
                     branch_count=branch_count_near(i, c))
                for a in arrived[k][1:]:
                    arcs[keep].extend(arcs[a])
            arcs[keep].append((i, c))
            new_active.append(keep)
        active = new_active

    # one Shock event per arc with interior extent
    for pts in arcs:
        if len(pts) >= 2:
            i_mid, q_mid = pts[len(pts) // 2]
            emit("Shock", i_mid, q_mid, arc_slices=len(pts),
                 t_span=[float(g.t[pts[0][0]]), float(g.t[pts[-1][0]])])
    events.sort(key=lambda e: (e.t, e.q, e.kind))
    return events


def forbidden_report(events: list[SingularEvent]) -> dict:
    """Counts and locations of forbidden/unclassified events; ok=False if
    any forbidden pattern was seen."""
    report = {"counts": {k: 0 for k in KINDS}, "forbidden_locations": [],
              "unclassified_locations": []}
    for e in events:
        report["counts"][e.kind] += 1
        if e.kind in ("ForbiddenA", "ForbiddenB"):
            report["forbidden_locations"].append({"kind": e.kind, "t": e.t, "q": e.q})
        elif e.kind == "Unclassified":
            report["unclassified_locations"].append({"t": e.t, "q": e.q})
    report["ok"] = not report["forbidden_locations"]
    return report


def events_to_json(events: list[SingularEvent]) -> str:
    return json.dumps([{"kind": e.kind, "t": e.t, "q": e.q, "evidence": e.evidence}
                       for e in events], indent=2, sort_keys=True)
