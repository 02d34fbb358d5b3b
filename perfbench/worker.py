"""One job of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --job JOB \
        --out-dir DIR --result FILE [--traced]

Loads the job's config with `cli.load_config`, runs the job and times it.
With --traced, the calls into the package are traced (see tracer.py).
After the job it takes the peak resident memory, then checks every
output, outside the timed region and with tracing off, and hashes every
artifact. The record goes to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hjminimax  # noqa: E402
from hjminimax import cli, selector  # noqa: E402
from hjminimax.errors import DegenerateFiber  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ALLOWED_EVENTS = {"Shock", "ShockBirth", "ShockMerge"}
# Typical `_probe` time on the 2-core Xeon VM (Python 3.11, numpy 2.4) the
# benchmark was defined on; normalized times are at this probe speed.
NOMINAL_PROBE_S = 1.0e-3
PROBE_INTERVAL_S = 0.1
_PROBE_X = np.linspace(0.0, 2.0 * np.pi, 2048)
CROSS_CHECK_FIBERS = 400
MAX_MISMATCH_FRAC = 1e-3


class GridCapture:
    """Keeps every GridSolution `selector.minimax_grid` returns, so the
    checks can see the fiber crossing counts the CSV does not carry."""

    def __init__(self):
        self.grids = []
        inner = selector.minimax_grid

        def minimax_grid(*args, **kwargs):
            g = inner(*args, **kwargs)
            self.grids.append(g)
            return g

        selector.minimax_grid = minimax_grid


def _probe():
    """A fixed bit of the two kinds of work the package does: numpy kernels
    on short arrays and a scalar Python loop. Returns its duration."""
    t0 = perf_counter()
    x, acc = _PROBE_X, 0.0
    for k in range(8):
        y = np.sin(x + 0.1 * k) * x + np.cos(x) * 0.5 - x * x / 3.0
        acc += float(y[k])
    q, z = 0.3, 0.7
    for k in range(3000):
        if (q > z) != (k & 1):
            z = z + 1e-6 * (q - z)
        q = q * 0.999 + 0.001
    return perf_counter() - t0


class SpeedSampler:
    """Samples the speed the machine gives this process while jobs run.

    On a shared machine that speed drifts by tens of percent within
    seconds, which no number of passes averages away. An interval timer
    runs `_probe` every PROBE_INTERVAL_S of wall time, on the main thread
    between bytecodes. Time read from `clock()` leaves the probes out;
    multiplied by `speed()` it becomes the time the work takes when the
    probe takes NOMINAL_PROBE_S."""

    def __init__(self):
        self.probe_s = []
        self.probe_total = 0.0

    def _on_alarm(self, signum, frame):
        d = _probe()
        self.probe_s.append(d)
        self.probe_total += d

    def clock(self):
        """perf_counter() minus the time spent in probes so far."""
        while True:
            # a probe may run between any two bytecodes: read until stable
            before = self.probe_total
            now = perf_counter()
            if self.probe_total == before:
                return now - before

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self):
        """Time average of NOMINAL_PROBE_S / probe time (1.0 without probes)."""
        if not self.probe_s:
            return 1.0
        return statistics.fmean(NOMINAL_PROBE_S / d for d in self.probe_s)


def run_job(job, workload, cfg, out_dir, capture):
    if job.kind == "slice":
        spec = cfg["spec"]
        seeds = selector.default_seeds(spec, cfg["n_seeds"], t=job.time)
        analysis = selector.slice_analysis(spec, job.time, seeds, step=cfg["step"])
        smooth, log = selector.eliminate(analysis.front)
        return {"analysis": analysis, "smooth": smooth, "log": log, "spec": spec}
    job_dir = out_dir / job.name
    argv = [job.kind, "--config", str(workload.config_path(job.config)),
            "--out", str(job_dir)]
    if job.time is not None:
        argv += ["--time", repr(job.time)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue(), "dir": job_dir, "grids": capture.grids}


# --- output checks (untimed) ---

def _odd_counts(res):
    return bool(res["grids"]) and all(bool(np.all(g.branch_count % 2 == 1))
                                      for g in res["grids"])


def _front_invariants(cusp_signs, n_sections):
    return sum(cusp_signs) == 0, n_sections == len(cusp_signs) + 1


def _elimination_vs_pointwise(res):
    """Compare the eliminated front with pointwise selection on fibers
    across the period. Returns (fibers compared, mismatches, points
    outside every logged surgery region)."""
    ana, smooth, log = res["analysis"], res["smooth"], res["log"]
    wq, wz = ana.front.bbox_scale()

    def in_surgery_region(q, z):
        return any(s.q_lo <= q <= s.q_hi
                   or np.hypot((q - s.vertex_q) / wq, (z - s.vertex_z) / wz)
                   <= 1.05 * s.ball_radius for s in log)

    period = res["spec"].domain.period
    total = mismatches = outside = 0
    for q in np.linspace(0.05, period - 0.05, CROSS_CHECK_FIBERS):
        try:
            z_p, sec_p = selector.select_pointwise(ana, float(q))
        except DegenerateFiber:
            continue
        v = int(np.clip(np.searchsorted(smooth.q, q), 1, len(smooth) - 1))
        if abs(smooth.q[v - 1] - q) < abs(smooth.q[v] - q):
            v -= 1
        o = int(smooth.origin[v])
        if o < 0:
            # synthetic blend vertex: it must itself lie in a surgery region
            outside += not in_surgery_region(q, float(smooth.z[v]))
            continue
        total += 1
        if ana.section_of_vertex(o).id != sec_p:
            mismatches += 1
            outside += not in_surgery_region(q, z_p)
    return total, mismatches, outside


def check_job(job, res):
    """[(check name, passed, detail)] for one finished job."""
    if job.kind == "slice":
        ana = res["analysis"]
        signs_ok, sections_ok = _front_invariants([c.sign for c in ana.cusps],
                                                  len(ana.sections))
        total, mismatches, outside = _elimination_vs_pointwise(res)
        return [
            ("cusp_signs_sum_0", signs_ok, ""),
            ("sections_eq_cusps_plus_1", sections_ok, ""),
            ("fibers_compared", total > 300, f"{total} of {CROSS_CHECK_FIBERS}"),
            ("elimination_matches_pointwise", mismatches <= MAX_MISMATCH_FRAC * total,
             f"{mismatches}/{total} mismatches"),
            ("mismatches_in_surgery_regions", outside == 0, f"{outside} outside"),
        ]

    checks = [("exit_0", res["rc"] == 0, f"exit {res['rc']}")]
    out = res["dir"]
    if job.kind == "compare":
        report = (out / "report.txt").read_text()
        if "convex pair" in report:
            checks.append(("convex_pair_pass", "convex pair PASS" in report, ""))
        else:
            checks.append(("nonconvex_note", "no convex-pair verdict" in report, ""))
        checks.append(("branch_counts_odd", _odd_counts(res), ""))
    elif job.kind == "classify":
        counts = json.loads((out / "events_summary.json").read_text())["counts"]
        seen = {k for k, n in counts.items() if n}
        checks.append(("events_whitelisted", seen <= ALLOWED_EVENTS, str(sorted(seen))))
        checks.append(("branch_counts_odd", _odd_counts(res), ""))
    elif job.kind == "render":
        svgs = sorted(out.glob("front_t*.svg"))
        checks.append(("svg_written", len(svgs) == 1 and "<svg" in svgs[0].read_text(), ""))
    elif job.kind == "dump-front":
        payload = json.loads(res["stdout"])
        signs_ok, sections_ok = _front_invariants([c["sign"] for c in payload["cusps"]],
                                                  len(payload["sections"]))
        checks.append(("cusp_signs_sum_0", signs_ok, ""))
        checks.append(("sections_eq_cusps_plus_1", sections_ok, ""))
    return checks


def artifacts(job, res):
    """{artifact name: bytes} of everything the job wrote."""
    if job.kind == "slice":
        return {}
    found = {}
    if res["dir"].is_dir():
        for path in sorted(res["dir"].iterdir()):
            found[f"{job.name}/{path.name}"] = path.read_bytes()
    if job.kind == "dump-front":
        found[f"{job.name}/stdout"] = res["stdout"].encode()
    return found


def linf_vs_lo(job, res):
    if job.kind != "compare":
        return None
    m = re.search(r"^Linf\(minimax - lax_oleinik\) = (\S+)$",
                  (res["dir"] / "report.txt").read_text(), re.M)
    return float(m.group(1)) if m else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--job", required=True)
    ap.add_argument("--out-dir", required=True, type=Path)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    jobs = {j.name: j for j in workload.jobs}
    if args.job not in jobs:
        ap.error(f"--job must be one of {sorted(jobs)}")
    job = jobs[args.job]

    cfg = cli.load_config(str(workload.config_path(job.config)))
    capture = GridCapture()
    sampler = SpeedSampler()
    tracer = Tracer(clock=sampler.clock)
    if args.traced:
        tracer.install(hjminimax)

    res, error = None, None
    with sampler:
        tracer.enabled = args.traced
        t0 = sampler.clock()
        try:
            res = run_job(job, workload, cfg, args.out_dir, capture)
        except Exception:
            error = traceback.format_exc()
        finally:
            job_s = sampler.clock() - t0
            tracer.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, digests, sizes, linf = [], {}, {}, None
    if res is not None:
        try:
            for check, ok, detail in check_job(job, res):
                checks.append({"check": f"{job.name}:{check}", "ok": bool(ok),
                               "detail": detail})
            for key, data in artifacts(job, res).items():
                digests[key] = hashlib.sha256(data).hexdigest()
                sizes[key] = len(data)
            linf = linf_vs_lo(job, res)
        except Exception:
            checks.append({"check": f"{job.name}:outputs_readable", "ok": False,
                           "detail": traceback.format_exc()})

    record = {
        "job": job.name,
        "traced": args.traced,
        "job_s": job_s,
        "speed": sampler.speed(),
        "probes": len(sampler.probe_s),
        "peak_rss_mb": peak_rss_mb,
        "error": error,
        "checks": checks,
        "digests": digests,
        "bytes": sizes,
        "linf_vs_lo": linf,
        "trace": tracer.snapshot() if args.traced else None,
    }
    args.result.write_text(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
