"""The benchmark's workloads: which configs each loads and which jobs it runs.

This module is plain data and imports nothing from the package, so the
parent process of a run stays light. `worker.py` executes the jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Job:
    name: str
    kind: str                  # a CLI command, or "slice" (slice_analysis + eliminate)
    config: str                # key into Workload.configs
    time: float | None = None  # slice time for "slice", "render" and "dump-front"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict              # key -> file name under configs/
    jobs: tuple

    def config_path(self, key):
        return CONFIG_DIR / self.configs[key]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="convex_grid",
        why="grid runs users make most: per-point fiber selection, RK4 flow "
            "and Lax-Oleinik; elimination is never called",
        configs={"burgers": "convex_burgers.ini", "two_hump": "convex_two_hump.ini"},
        jobs=(Job("compare_burgers", "compare", "burgers"),
              Job("classify_two_hump", "classify", "two_hump"))),
    Workload(
        name="swallowtail_elim",
        why="front combinatorics and triangle elimination on open swallowtails; "
            "grid fiber selection is nearly idle",
        configs={"burgers": "swallowtail_burgers.ini",
                 "two_hump": "swallowtail_two_hump.ini"},
        jobs=(Job("slice_burgers_t1.5", "slice", "burgers", 1.5),
              Job("slice_two_hump_t2", "slice", "two_hump", 2.0),
              Job("render_two_hump_t2", "render", "two_hump", 2.0),
              Job("dump_front_burgers_t1.5", "dump-front", "burgers", 1.5))),
    Workload(
        name="qflow",
        why="q- and t-dependent H: RK4 flow and dual-number evaluation, few "
            "fibers on long fronts, Lax-Friedrichs reference",
        configs={"qflow": "qflow.ini"},
        jobs=(Job("compare_qflow", "compare", "qflow"),)),
)}


def job_orders(workload: Workload, seed: int):
    """Endless job orders for successive passes, drawn from the seed.

    The seed permutes only the order of the jobs; the problems stay fixed."""
    rng = random.Random(seed)
    names = [j.name for j in workload.jobs]
    while True:
        yield rng.sample(names, len(names))
