"""Benchmark of the hjminimax solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout. Workloads are defined in
workloads.py and explained in NOTES.md. Each pass of a workload runs every
job of the workload once, each job in a fresh interpreter (worker.py), as
each CLI command runs in its own process. Jobs and passes run one after
another, so the load is a closed loop with one client, one process at a
time and no threads. Passes repeat until S seconds have gone by, with at
least three. The seed only permutes the order of the jobs in each pass.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the
median over the run:
  wall_s       pass wall time (sum of the job times), rescaled to a nominal
               machine speed that a probe samples while the jobs run (see
               worker.SpeedSampler); the unscaled time is printed as raw_wall_s
  setup_s      fresh interpreter to hjminimax imported and every config of
               the workload loaded, over SETUP_REPEATS interpreters
  peak_rss_mb  largest peak resident memory among the pass's job processes
--trace 1 makes one untraced pass, then traced passes, and reports the
per-layer metrics: span times and self times per layer, rescaled like
wall_s, and exact work counters, which must repeat between the traced
passes.

Each job's outputs are checked outside the timed region; `attempted` and
`failed` count jobs and checks. Artifact digests are compared with those
recorded at the seed commit (seed_digests.json) and differences are
listed by name without counting as failures. The last line of standard
output is one JSON object; --workload all prints a table instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, job_orders

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 3          # untraced passes per run, at least
MIN_TRACED_PASSES = 2   # counters are compared between these
SETUP_REPEATS = 9
RUN_CAP_S = 150.0       # no pass starts that could end past this
JOB_TIMEOUT_S = 120.0

# one process at a time, one thread: the load is a single closed-loop client
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# prints the monotonic clock, which Linux shares between processes, when done
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from hjminimax import cli; "
              "[cli.load_config(p) for p in sys.argv[2:]]; "
              "import time; print(repr(time.perf_counter()))")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure_setup(workload):
    """Seconds from starting a fresh interpreter to hjminimax imported and
    every config of the workload loaded through cli.load_config; None when
    that fails."""
    paths = [str(workload.config_path(k)) for k in workload.configs]
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), *paths],
                          env=CHILD_ENV, timeout=60, capture_output=True, text=True)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        return None
    return float(done.stdout) - t0


def run_job_process(workload, name, traced, job_dir):
    """Run worker.py on one job; returns its record, or None when it crashed."""
    job_dir.mkdir(parents=True)
    result = job_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
           "--job", name, "--out-dir", str(job_dir / "out"),
           "--result", str(result)] + (["--traced"] if traced else [])
    with open(job_dir / "worker.log", "w") as log:
        try:
            rc = subprocess.run(cmd, env=CHILD_ENV, stdout=log, stderr=subprocess.STDOUT,
                                timeout=JOB_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            rc = None
    if rc != 0 or not result.exists():
        print(f"job process in {job_dir} failed (exit {rc}); see worker.log", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def _add_trace(total, trace, speed):
    """Sum job traces; times are rescaled by the job's sampled speed."""
    total = total or {key: {} for key in trace}
    for key, values in trace.items():
        scale = 1 if key in ("calls", "errors", "counts") else speed
        for name, v in values.items():
            total[key][name] = total[key].get(name, 0) + scale * v
    return total


def run_pass(workload, order, traced, pass_dir):
    """Run the jobs in `order`, each in its own worker process (as each CLI
    command is its own process), and merge their records into the pass's."""
    p = {"order": order, "traced": traced, "job_s": {}, "raw_job_s": {},
         "job_peak_rss_mb": {}, "job_errors": {}, "checks": [], "digests": {},
         "bytes": {}, "linf_vs_lo": None, "trace": None}
    for name in order:
        r = run_job_process(workload, name, traced, pass_dir / name)
        if r is None:
            p["job_errors"][name] = "worker process failed; see its worker.log"
            continue
        p["raw_job_s"][name] = r["job_s"]
        p["job_s"][name] = r["job_s"] * r["speed"]
        p["job_peak_rss_mb"][name] = r["peak_rss_mb"]
        if r["error"]:
            p["job_errors"][name] = r["error"]
        p["checks"] += r["checks"]
        p["digests"].update(r["digests"])
        p["bytes"].update(r["bytes"])
        if p["linf_vs_lo"] is None:
            p["linf_vs_lo"] = r["linf_vs_lo"]
        if r["trace"]:
            p["trace"] = _add_trace(p["trace"], r["trace"], r["speed"])
    p["wall_s"] = sum(p["job_s"].values())
    p["raw_wall_s"] = sum(p["raw_job_s"].values())
    p["peak_rss_mb"] = max(p["job_peak_rss_mb"].values(), default=0.0)
    return p


def run_passes(workload, seed, seconds, trace, out_dir):
    """Passes until `seconds` have gone by. With `trace` the first pass is
    untraced and every later one traced."""
    orders = job_orders(workload, seed)
    passes = []   # (traced, pass record)
    t_start = perf_counter()
    longest = 0.0
    while True:
        traced = trace and bool(passes)
        t0 = perf_counter()
        rec = run_pass(workload, next(orders), traced, out_dir / f"pass{len(passes)}")
        longest = max(longest, perf_counter() - t0)
        passes.append((traced, rec))
        elapsed = perf_counter() - t_start
        n_traced = sum(t for t, _ in passes)
        enough = (n_traced >= MIN_TRACED_PASSES if trace
                  else len(passes) >= MIN_PASSES)
        if (enough and elapsed >= seconds) or elapsed + 1.2 * longest > RUN_CAP_S:
            return passes


def tally(workload, passes):
    """(attempted, failed, failure lines) over jobs and checks of all passes."""
    attempted = failed = 0
    lines = []
    for _, rec in passes:
        attempted += len(workload.jobs) + len(rec["checks"])
        failed += len(rec["job_errors"])
        lines += [f"job {name} failed:\n{tb}" for name, tb in rec["job_errors"].items()]
        for c in rec["checks"]:
            if not c["ok"]:
                failed += 1
                lines.append(f"check {c['check']} failed {c['detail']}")
    return attempted, failed, lines


def digest_report(workload, records):
    """Lines naming every artifact whose digest differs from the seed commit's."""
    seed = json.loads((HERE / "seed_digests.json").read_text()).get(workload.name, {})
    lines = []
    for i, rec in enumerate(records):
        got = rec["digests"]
        diff = sorted(k for k in got.keys() & seed.keys() if got[k] != seed[k])
        new = sorted(got.keys() - seed.keys())
        missing = sorted(seed.keys() - got.keys())
        if diff or new or missing:
            lines.append(f"pass {i}: differs from seed: {diff or '-'}; "
                         f"new: {new or '-'}; missing: {missing or '-'}")
    same = not lines
    lines.insert(0, f"artifact digests: {len(seed)} recorded at seed, "
                    + ("all identical in every pass" if same else "differences below"))
    return lines


def end_to_end(workload, seed, seconds, out_dir):
    setup = [measure_setup(workload) for _ in range(SETUP_REPEATS)]
    passes = run_passes(workload, seed, seconds, False, out_dir)
    records = [rec for _, rec in passes]
    samples = {"wall_s": [r["wall_s"] for r in records],
               "raw_wall_s": [r["raw_wall_s"] for r in records],
               "setup_s": [t for t in setup if t is not None],
               "peak_rss_mb": [r["peak_rss_mb"] for r in records]}
    attempted, failed, lines = tally(workload, passes)
    attempted += len(setup)
    failed += setup.count(None)
    if None in setup:
        lines.append(f"set-up failed in {setup.count(None)} of {len(setup)} interpreters")
    linf = [r["linf_vs_lo"] for r in records if r["linf_vs_lo"] is not None]
    info = {
        "fail_frac": failed / attempted,
        "linf_vs_lo": linf[0] if linf else None,
        "orders": [r["order"] for r in records],
        "job_s": {j.name: [r["job_s"].get(j.name) for r in records] for j in workload.jobs},
        "job_peak_rss_mb": {j.name: [r["job_peak_rss_mb"].get(j.name) for r in records]
                            for j in workload.jobs},
        "notes": lines + digest_report(workload, records),
    }
    return samples, attempted, failed, info


def per_layer(workload, seed, seconds, out_dir):
    passes = run_passes(workload, seed, seconds, True, out_dir)
    attempted, failed, lines = tally(workload, passes)
    plain = [rec for traced, rec in passes if not traced]
    traced = [rec for t, rec in passes if t and rec["trace"]]
    if not traced:
        return {}, attempted, failed, {"notes": lines}

    def exact(rec):
        t = rec["trace"]
        return {"calls": t["calls"], "errors": t["errors"], "counts": t["counts"],
                "bytes": rec["bytes"]}

    attempted += 1
    repeat = all(exact(r) == exact(traced[0]) for r in traced[1:])
    if not repeat:
        failed += 1
        lines.append("check trace_counters_repeat failed: counts differ between traced passes")

    # times were rescaled by each job's sampled speed when the pass was merged
    def med(get):
        return statistics.median(get(r) for r in traced)

    m = {}
    t0 = traced[0]["trace"]
    for key in t0["calls"]:
        m[f"{key}.calls"] = t0["calls"][key]
        m[f"{key}.s"] = med(lambda r: r["trace"]["incl_s"][key])
        m[f"{key}.self_s"] = med(lambda r: r["trace"]["self_s"][key])
    m.update(t0["counts"])
    fp_calls = t0["calls"]["selector.fiber_points"]
    m["selector.fiber_ok_frac"] = 1.0 - t0["errors"]["selector.fiber_points"] / max(fp_calls, 1)
    for layer in t0["layer_self_s"]:
        m[f"layer.{layer}.self_s"] = med(lambda r: r["trace"]["layer_self_s"][layer])
    for kind in ("compare", "classify", "render", "dump-front"):
        names = [j.name for j in workload.jobs if j.kind == kind]
        m[f"cli.{kind.replace('-', '_')}.s"] = statistics.median(
            sum(r["job_s"].get(n, 0.0) for n in names) for r in plain)
    m["cli.bytes_written"] = sum(traced[0]["bytes"].values())
    m["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    m["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in plain)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.uncovered_s"] = med(lambda r: r["wall_s"] - sum(r["trace"]["layer_self_s"].values()))
    lines.append(f"of {m['trace.wall_s']:.4g} s traced job time, {m['trace.uncovered_s']:.4g} s "
                 f"is outside every span and the rest is layer self time "
                 f"(medians of {len(traced)} traced passes; one untraced pass)")
    return m, attempted, failed, {"notes": lines}


def run_workload(workload, seed, seconds, trace, spec):
    out_dir = OUT / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wanted = spec["per_layer" if trace else "end_to_end"]
    if trace:
        values, attempted, failed, info = per_layer(workload, seed, seconds, out_dir)
        samples = {k: [v] for k, v in values.items()}
    else:
        samples, attempted, failed, info = end_to_end(workload, seed, seconds, out_dir)
    metrics = {}
    for m in wanted:
        if samples.get(m["name"]):
            metrics[m["name"]] = {"value": statistics.median(samples[m["name"]]),
                                  "unit": m["unit"]}
    result = {"correct": failed == 0 and len(metrics) == len(wanted),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_dir / "summary.json").write_text(json.dumps(
        {"seed": seed, "seconds": seconds, "trace": trace, "samples": samples,
         "info": info, "result": result}, indent=1, sort_keys=True))
    return samples, info, result


def print_summary(workload, seed, samples, info, result, spec, trace):
    print(f"== {workload.name} (seed {seed}): {workload.why}")
    if trace:
        for m in spec["per_layer"]:
            vals = samples.get(m["name"])
            print(f"  {m['name']} = {vals[0] if vals else 'missing'} {m['unit']}")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units["raw_wall_s"] = "s"
        for name, unit in units.items():
            vals = samples.get(name)
            if not vals:
                print(f"  {name}: missing")
                continue
            q1, q3 = _quartiles(vals)
            print(f"  {name} = {statistics.median(vals):.6g} {unit}"
                  f"  (median; q1 {q1:.6g}, q3 {q3:.6g}, n={len(vals)})")
        print(f"  fail_frac = {info['fail_frac']:.6g} ratio  "
              f"({result['failed']} of {result['attempted']} jobs and checks failed)")
        if info["linf_vs_lo"] is not None:
            print(f"  linf_vs_lo = {info['linf_vs_lo']!r}  (Burgers report.txt)")
        print(f"  job orders: {info['orders']}")
    for line in info["notes"]:
        print(f"  {line}")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hjminimax" / "__init__.py").is_file():
        print(f"no hjminimax source under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workload = WORKLOADS[name]
        samples, info, result = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace), spec)
        print_summary(workload, args.seed, samples, info, result, spec, bool(args.trace))
    if args.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
