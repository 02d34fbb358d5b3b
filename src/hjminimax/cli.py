"""Batch command-line front-end.

Reads a flat INI-style problem config, runs the solve/compare/classify
pipelines and emits CSV/JSON/SVG artifacts. Exit codes: 0 success,
1 forbidden-singularity or assertion failure, 2 config error, 3 numerical
failure. All emitted floats use 17 significant digits so identical configs
give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys

import numpy as np

from . import front as frontmod
from . import selector, singular, svg, viscosity
from .characteristics import Periodic, ProblemSpec, Windowed
from .errors import HJError
from .expr import parse as parse_expr


class ConfigError(Exception):
    pass


# every section and key a config may set (docs/formats.md); anything else is a typo
CONFIG_KEYS = {
    "problem": ("H", "u0", "domain", "period", "qmin", "qmax", "t_max"),
    "grid": ("nt", "nq"),
    "solver": ("n_seeds", "step"),
    "output": ("dir", "snapshot_times"),
}


def _fmt(x):
    return f"{float(x):.17g}"


def _number(section, key, default, kind):
    """section[key] (or default) converted by kind; ConfigError if it is not a number."""
    try:
        return kind(section.get(key, default))
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {section.get(key)!r}")


def load_config(path, grid_override=None):
    """Parse and validate a run config; raises ConfigError on any problem."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for name in cp.sections():
        if name not in CONFIG_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        known = {cp.optionxform(key) for key in CONFIG_KEYS[name]}
        for key in cp.options(name):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in [{name}]")
    try:
        prob = cp["problem"]
    except KeyError:
        raise ConfigError("config is missing the [problem] section")

    try:
        H = parse_expr(prob["H"])
        u0 = parse_expr(prob["u0"])
    except KeyError as exc:
        raise ConfigError(f"[problem] is missing key {exc}")
    except HJError as exc:
        raise ConfigError(f"bad expression: {exc}")
    if u0.variables - {"q"}:
        raise ConfigError(f"u0 may only use q, got {sorted(u0.variables)}")

    kind = prob.get("domain", "periodic").strip().lower()
    try:
        if kind == "periodic":
            domain = Periodic(period=prob.getfloat("period", 2.0 * np.pi))
        elif kind == "window":
            domain = Windowed(qmin=prob.getfloat("qmin"), qmax=prob.getfloat("qmax"))
        else:
            raise ConfigError(f"domain must be 'periodic' or 'window', got {kind!r}")
        t_max = prob.getfloat("t_max")
        if t_max is None:
            raise ConfigError("[problem] t_max is required")
        spec = ProblemSpec(H=H, u0=u0, domain=domain, t_max=t_max)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid problem parameters: {exc}")

    grid = cp["grid"] if cp.has_section("grid") else {}
    nt = _number(grid, "nt", 64, int)
    nq = _number(grid, "nq", 128, int)
    if grid_override:
        try:
            nt_s, nq_s = grid_override.lower().split("x")
            nt, nq = int(nt_s), int(nq_s)
        except ValueError:
            raise ConfigError(f"--grid must look like 64x128, got {grid_override!r}")
    if nt < 16 or nq < 16:
        raise ConfigError(f"grid must be at least 16x16, got {nt}x{nq}")

    sol = cp["solver"] if cp.has_section("solver") else {}
    step = _number(sol, "step", None, float) if "step" in sol else None
    n_seeds = _number(sol, "n_seeds", 4096, int)
    if step is not None and not 0 < step < math.inf:
        raise ConfigError(f"step must be positive and finite, got {step}")
    if not n_seeds > 0:
        raise ConfigError(f"n_seeds must be positive, got {n_seeds}")

    out = cp["output"] if cp.has_section("output") else {}
    try:
        snapshot_times = [float(s) for s in
                          out.get("snapshot_times", "").replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"snapshot_times must be numbers, got {out.get('snapshot_times')!r}")
    if not all(0 <= t <= t_max for t in snapshot_times):
        raise ConfigError(f"snapshot_times must lie in [0, t_max={t_max}], got {snapshot_times}")
    tags = [_snapshot_tag(t) for t in snapshot_times]
    for k, tag in enumerate(tags):
        if tag in tags[:k]:
            raise ConfigError(f"snapshot_times {snapshot_times} write front_t{tag} twice: "
                              "times must differ in their first 6 significant digits")
    cfg = {
        "spec": spec,
        "nt": nt,
        "nq": nq,
        "step": step,
        "n_seeds": n_seeds,
        "out_dir": out.get("dir", "out"),
        "snapshot_times": snapshot_times,
    }
    return cfg


def _grids(cfg):
    spec = cfg["spec"]
    t_grid = np.linspace(0.0, spec.t_max, cfg["nt"])
    if isinstance(spec.domain, Periodic):
        q_grid = np.linspace(0.0, spec.domain.period, cfg["nq"], endpoint=False)
    else:
        q_grid = np.linspace(spec.domain.qmin, spec.domain.qmax, cfg["nq"])
    return t_grid, q_grid


def _write(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    print(path)


def _solve_grid(cfg):
    t_grid, q_grid = _grids(cfg)
    return selector.minimax_grid(cfg["spec"], t_grid, q_grid, step=cfg["step"],
                                 n_seeds=cfg["n_seeds"])


def _slice(cfg, t):
    spec = cfg["spec"]
    seeds = selector.default_seeds(spec, cfg["n_seeds"], t=t)
    return selector.slice_analysis(spec, t, seeds, step=cfg["step"])


def _snapshot_tag(t):
    return f"{t:.6g}".replace(".", "_")


def _snapshot_path(cfg, t, ext):
    return os.path.join(cfg["out_dir"], f"front_t{_snapshot_tag(t)}.{ext}")


def _write_svg(cfg, t, analysis):
    """front_t<t>.svg: the slice at t with its minimax section highlighted,
    in pieces that end at cusps and double points. A slice whose event
    fiber cannot be coupled raises."""
    _write(_snapshot_path(cfg, t, "svg"),
           svg.render_front(analysis, selector.minimax_pieces(analysis)))


def cmd_solve(cfg):
    os.makedirs(cfg["out_dir"], exist_ok=True)
    g = _solve_grid(cfg)
    _write(os.path.join(cfg["out_dir"], "solution.csv"), g.to_csv())
    for t in cfg["snapshot_times"]:
        analysis = _slice(cfg, t)
        _write(_snapshot_path(cfg, t, "json"), frontmod.front_to_json(analysis))
        _write_svg(cfg, t, analysis)
    return 0


def cmd_compare(cfg):
    os.makedirs(cfg["out_dir"], exist_ok=True)
    spec = cfg["spec"]
    t_grid, q_grid = _grids(cfg)
    h = float(q_grid[1] - q_grid[0])

    mm = _solve_grid(cfg)
    _write(os.path.join(cfg["out_dir"], "minimax.csv"), mm.to_csv())

    lines = [f"grid nt={cfg['nt']} nq={cfg['nq']} h={_fmt(h)}"]

    lf = viscosity.lax_friedrichs(spec, t_grid, q_grid)
    _write(os.path.join(cfg["out_dir"], "lax_friedrichs.csv"), lf.to_csv())
    d = np.abs(mm.u - lf.u)
    lines.append(f"Linf(minimax - lax_friedrichs) = {_fmt(d.max())}")
    lines.append(f"L1(minimax - lax_friedrichs) = {_fmt(d.mean())}")

    probe = np.linspace(q_grid.min(), q_grid.max(), 257)
    _, du0 = spec.u0.eval_d(q=probe, wrt="q")
    pmax = 2.0 * float(np.max(np.abs(du0))) + 2.0
    convex = viscosity.is_convex_in_p(spec.H, (-pmax, pmax))
    if convex:
        Hc = viscosity.ConvexHamiltonian(H=spec.H, p_window=(-pmax, pmax))
        lo = viscosity.lax_oleinik_grid(Hc, spec.u0, t_grid, q_grid)
        _write(os.path.join(cfg["out_dir"], "lax_oleinik.csv"), lo.to_csv())
        d = np.abs(mm.u - lo.u)
        tol = 10.0 * h
        verdict = "PASS" if d.max() <= tol else "FAIL"
        lines.append(f"Linf(minimax - lax_oleinik) = {_fmt(d.max())}")
        lines.append(f"L1(minimax - lax_oleinik) = {_fmt(d.mean())}")
        lines.append(f"convex pair {verdict} (tolerance {_fmt(tol)})")
    else:
        lines.append("H is not convex in p: no convex-pair verdict, "
                     "difference table is informational")

    _write(os.path.join(cfg["out_dir"], "report.txt"), "\n".join(lines) + "\n")
    return 0 if (not convex or verdict == "PASS") else 1


def cmd_classify(cfg):
    os.makedirs(cfg["out_dir"], exist_ok=True)
    g = _solve_grid(cfg)
    periodic = isinstance(cfg["spec"].domain, Periodic)
    mask = singular.singular_set(g, periodic=periodic)
    events = singular.classify(g, mask, periodic=periodic)
    report = singular.forbidden_report(events)
    _write(os.path.join(cfg["out_dir"], "events.json"),
           singular.events_to_json(events))
    _write(os.path.join(cfg["out_dir"], "events_summary.json"),
           json.dumps(report, indent=2, sort_keys=True) + "\n")
    for kind in singular.KINDS:
        print(f"{kind}: {report['counts'][kind]}")
    if not report["ok"]:
        print("forbidden singularities detected", file=sys.stderr)
        return 1
    return 0


def cmd_dump_front(cfg, t):
    analysis = _slice(cfg, t)
    sys.stdout.write(frontmod.front_to_json(analysis) + "\n")
    return 0


def cmd_render(cfg, t):
    os.makedirs(cfg["out_dir"], exist_ok=True)
    _write_svg(cfg, t, _slice(cfg, t))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hjminimax",
        description="Minimax solutions of 1-D Hamilton-Jacobi Cauchy problems")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, needs_time in [("solve", False), ("compare", False),
                             ("classify", False), ("dump-front", True),
                             ("render", True)]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--grid", default=None, metavar="NTxNQ")
        if needs_time:
            p.add_argument("--time", type=float, required=True)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, grid_override=args.grid)
        if args.out:
            cfg["out_dir"] = args.out
        t_max = cfg["spec"].t_max
        if args.command in ("dump-front", "render") and not 0 <= args.time <= t_max:
            raise ConfigError(f"--time must lie in [0, t_max={t_max}], got {args.time}")
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        if args.command == "classify":
            return cmd_classify(cfg)
        if args.command == "dump-front":
            return cmd_dump_front(cfg, args.time)
        if args.command == "render":
            return cmd_render(cfg, args.time)
    except HJError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
