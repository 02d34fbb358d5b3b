"""The arc-chaining classifier that `hjminimax.singular.classify` replaced,
kept only as a test oracle: on the same grid and mask both must give the
same events, in the same order, with the same evidence.

`classify` and `_clusters` are the former code as it stood; only the imports
differ.
"""

import numpy as np

from hjminimax.selector import GridSolution
from hjminimax.singular import (BRIDGE_CELLS, MATCH_RADIUS_CELLS, SingularEvent,
                                _circ_dist)


def _clusters(row_mask: np.ndarray, q: np.ndarray, periodic: bool):
    """Connected runs of singular grid points, bridging gaps of up to
    BRIDGE_CELLS cells; returns center q per cluster."""
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
        out.append({"q": center, "cells": grp})
    return out


def classify(g: GridSolution, mask: np.ndarray,
             periodic: bool = False) -> list[SingularEvent]:
    """Chain per-slice singular clusters into arcs and classify their
    endpoints and junctions."""
    nt, nq = g.u.shape
    dq = float(g.q[1] - g.q[0])
    period = nq * dq if periodic else None
    radius = MATCH_RADIUS_CELLS * dq

    per_slice = [_clusters(mask[i], g.q, periodic) for i in range(nt)]

    arcs = []       # each: {"points": [(i, q)], "open": bool}
    events = []

    def branch_count_near(i, qv):
        j = int(round((qv - g.q[0]) / dq))
        j = j % nq if periodic else int(np.clip(j, 0, nq - 1))
        if periodic:
            js = [(j + k) % nq for k in range(-2, 3)]
        else:
            js = list(range(max(0, j - 2), min(nq, j + 3)))
        return int(max(g.branch_count[i, jj] for jj in js))

    active = []  # arc indices
    for i in range(nt):
        clusters = per_slice[i]
        # match active arcs to clusters
        matches = {k: [] for k in range(len(clusters))}
        arc_match = {}
        within = {}
        for a in active:
            tip_q = arcs[a]["points"][-1][1]
            near = [(abs_d, k) for k, c in enumerate(clusters)
                    if (abs_d := _circ_dist(tip_q, c["q"], period)) <= radius]
            near.sort()
            within[a] = [k for _, k in near]
            best = near[0][1] if near else None
            arc_match[a] = best
            if best is not None:
                matches[best].append(a)

        # an arc seeing several unclaimed clusters is a forward split
        split_children = set()
        for a in active:
            extras = [k for k in within.get(a, [])[1:] if not matches[k]]
            if extras:
                events.append(SingularEvent(
                    kind="ForbiddenB", t=float(g.t[i]),
                    q=arcs[a]["points"][-1][1],
                    evidence={"reason": "arc splits forward in t",
                              "outgoing": 1 + len(extras)}))
                split_children.update(extras)

        new_active = []
        for k, c in enumerate(clusters):
            arrived = matches[k]
            if len(arrived) == 0:
                if k in split_children:
                    arcs.append({"points": [(i, c["q"])]})
                    new_active.append(len(arcs) - 1)
                    continue
                arcs.append({"points": [(i, c["q"])]})
                a = len(arcs) - 1
                if i > 0:
                    # the mask can lag the fold by a few slices while the slope
                    # jump is still tiny; date the birth at the first slice
                    # whose fiber near q is multivalued
                    j = i
                    while j - 1 >= 1 and j > i - 10 and branch_count_near(j - 1, c["q"]) >= 2:
                        j -= 1
                    if branch_count_near(j - 1, c["q"]) <= 1:
                        events.append(SingularEvent(
                            kind="ShockBirth", t=float(g.t[j]), q=c["q"],
                            evidence={"branch_count_before": branch_count_near(j - 1, c["q"]),
                                      "branch_count_here": branch_count_near(j, c["q"]),
                                      "mask_onset_t": float(g.t[i])}))
                    else:
                        events.append(SingularEvent(
                            kind="Unclassified", t=float(g.t[i]), q=c["q"],
                            evidence={"reason": "arc appears with a multivalued past fiber"}))
                else:
                    # singular from the very first slice: treat as pre-existing shock
                    pass
                new_active.append(a)
            elif len(arrived) == 1:
                a = arrived[0]
                arcs[a]["points"].append((i, c["q"]))
                new_active.append(a)
            else:
                # two or more arcs merge into one continuing arc
                events.append(SingularEvent(
                    kind="ShockMerge", t=float(g.t[i]), q=c["q"],
                    evidence={"incoming_arcs": len(arrived),
                              "branch_count": branch_count_near(i, c["q"])}))
                keep = arrived[0]
                for a in arrived[1:]:
                    arcs[keep]["points"].extend(arcs[a]["points"])
                arcs[keep]["points"].append((i, c["q"]))
                new_active.append(keep)

        # arcs that found no cluster this slice have ended at slice i-1
        matched_arcs = {a for a in new_active}
        for a in active:
            if a in matched_arcs or arc_match.get(a) is not None:
                continue
            i_end, q_end = arcs[a]["points"][-1]
            if branch_count_near(min(i_end + 1, nt - 1), q_end) >= 2:
                events.append(SingularEvent(
                    kind="ForbiddenA", t=float(g.t[i_end]), q=q_end,
                    evidence={"reason": "arc ends forward in t with branches persisting",
                              "branch_count_after": branch_count_near(min(i_end + 1, nt - 1), q_end)}))
            else:
                events.append(SingularEvent(
                    kind="Unclassified", t=float(g.t[i_end]), q=q_end,
                    evidence={"reason": "arc ends with a single-branch future fiber"}))
        active = new_active

    # one Shock event per arc with interior extent
    for arc in arcs:
        pts = arc["points"]
        if len(pts) >= 2:
            i_mid, q_mid = pts[len(pts) // 2]
            events.append(SingularEvent(
                kind="Shock", t=float(g.t[i_mid]), q=q_mid,
                evidence={"arc_slices": len(pts),
                          "t_span": [float(g.t[pts[0][0]]), float(g.t[pts[-1][0]])]}))
    events.sort(key=lambda e: (e.t, e.q, e.kind))
    return events
