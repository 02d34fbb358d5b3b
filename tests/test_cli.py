import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from hjminimax import cli, selector, viscosity
from hjminimax import front as frontmod

BURGERS_INI = """\
[problem]
H = p^2/2
u0 = cos(q)
domain = periodic
period = 6.283185307179586
t_max = 3.0

[grid]
nt = 32
nq = 64

[solver]
n_seeds = 512

[output]
dir = {out}
"""


@pytest.fixture()
def burgers_cfg(tmp_path):
    path = tmp_path / "burgers.ini"
    path.write_text(BURGERS_INI.format(out=tmp_path / "out"))
    return str(path)


def test_solve_writes_solution(burgers_cfg, tmp_path, capsys):
    rc = cli.main(["solve", "--config", burgers_cfg])
    assert rc == 0
    text = (tmp_path / "out" / "solution.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "t,q,u,branch_id"
    assert len(lines) == 1 + 32 * 64


def test_grid_override(burgers_cfg, tmp_path):
    rc = cli.main(["solve", "--config", burgers_cfg, "--grid", "16x48",
                   "--out", str(tmp_path / "g")])
    assert rc == 0
    lines = (tmp_path / "g" / "solution.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 16 * 48


def test_grid_minimum_enforced(burgers_cfg):
    assert cli.main(["solve", "--config", burgers_cfg, "--grid", "8x64"]) == 2


def test_bad_expression_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[problem]\nH = p^^2\nu0 = cos(q)\nt_max = 1.0\n")
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_zero_tmax_exits_2(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[problem]\nH = p^2/2\nu0 = cos(q)\nt_max = 0\n")
    assert cli.main(["solve", "--config", str(path)]) == 2


def test_missing_config_exits_2(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2


def test_compare_convex_pass(burgers_cfg, tmp_path):
    rc = cli.main(["compare", "--config", burgers_cfg,
                   "--out", str(tmp_path / "cmp")])
    assert rc == 0
    report = (tmp_path / "cmp" / "report.txt").read_text()
    assert "convex pair PASS" in report
    assert "lax_friedrichs" in report


def test_compare_convex_slopes_of_one_sign(tmp_path):
    # H' = exp(p) > 0: every admissible foot q0 lies left of q, so a seed
    # window built as [qmin + vmin t, qmax + vmax t] holds none of them
    path = tmp_path / "exp.ini"
    path.write_text("[problem]\nH = exp(p)\nu0 = 0.3*cos(q)\ndomain = periodic\n"
                    "t_max = 0.5\n[grid]\nnt = 16\nnq = 32\n[solver]\nn_seeds = 512\n"
                    f"[output]\ndir = {tmp_path / 'exp'}\n")
    assert cli.main(["compare", "--config", str(path)]) == 0
    report = (tmp_path / "exp" / "report.txt").read_text()
    assert "convex pair PASS" in report


def test_compare_just_after_shock_birth(tmp_path):
    # the last row, at t = 1.00003, has two cusp pairs one vertex apart
    path = tmp_path / "birth.ini"
    path.write_text(BURGERS_INI.format(out=tmp_path / "birth")
                    .replace("t_max = 3.0", "t_max = 1.00003").replace("nt = 32", "nt = 16"))
    assert cli.main(["compare", "--config", str(path)]) == 0
    assert "convex pair PASS" in (tmp_path / "birth" / "report.txt").read_text()


def test_compare_convex_small_times(tmp_path):
    # at t = 1/63 the band of admissible feet, 0.16 t wide, is narrower than
    # 2049 seeds spread over the seed window would space them
    path = tmp_path / "slow.ini"
    path.write_text("[problem]\nH = 0.01*p^2\nu0 = cos(q)\ndomain = periodic\n"
                    "t_max = 1\n[solver]\nn_seeds = 512\n"
                    f"[output]\ndir = {tmp_path / 'slow'}\n")
    assert cli.main(["compare", "--config", str(path), "--grid", "64x32"]) == 0
    assert "convex pair PASS" in (tmp_path / "slow" / "report.txt").read_text()


def test_compare_nonconvex_report_only(tmp_path):
    path = tmp_path / "nc.ini"
    path.write_text("[problem]\nH = cos(p) - 1\nu0 = cos(q)\nt_max = 2.0\n"
                    "[grid]\nnt = 24\nnq = 48\n[solver]\nn_seeds = 512\n"
                    f"[output]\ndir = {tmp_path / 'nc'}\n")
    rc = cli.main(["compare", "--config", str(path)])
    assert rc == 0
    report = (tmp_path / "nc" / "report.txt").read_text()
    assert "not convex" in report
    assert "PASS" not in report and "FAIL" not in report


def _small_cfg(tmp_path, name, H, u0, n_seeds, domain="domain = periodic\n", t_max=1):
    """A 16x16 grid to t_max, written to tmp_path/name."""
    path = tmp_path / f"{name}.ini"
    path.write_text(f"[problem]\nH = {H}\nu0 = {u0}\n{domain}t_max = {t_max}\n"
                    f"[grid]\nnt = 16\nnq = 16\n[solver]\nn_seeds = {n_seeds}\n"
                    f"[output]\ndir = {tmp_path / name}\n")
    return str(path)


@pytest.mark.parametrize("H, u0, line", [
    ("p^2/2", "1", "convex pair PASS"),
    ("0.5", "cos(q)", "H is not convex in p"),
], ids=["u0", "H"])
def test_compare_constant_expression(tmp_path, H, u0, line):
    # a constant evaluates to one value at each of its points, like any
    # other expression; H = 0.5 has zero second differences, so no verdict
    assert cli.main(["compare", "--config", _small_cfg(tmp_path, "flat", H, u0, 256)]) == 0
    assert line in (tmp_path / "flat" / "report.txt").read_text()
    assert (tmp_path / "flat" / "lax_oleinik.csv").exists() == (H != "0.5")


@pytest.mark.parametrize("H, line", [
    ("p^2/2", "convex pair PASS"),
    ("cos(p) - 1", "H is not convex in p"),
])
def test_compare_certifies_convexity_once(monkeypatch, tmp_path, H, line):
    calls = []
    certify = viscosity.is_convex_in_p
    monkeypatch.setattr(viscosity, "is_convex_in_p",
                        lambda *args: calls.append(args) or certify(*args))
    assert cli.main(["compare", "--config", _small_cfg(tmp_path, "once", H, "cos(q)", 256)]) == 0
    assert line in (tmp_path / "once" / "report.txt").read_text()
    assert len(calls) == 1


def test_window_domain_grid(tmp_path):
    window = "domain = window\nqmin = -3\nqmax = 3\n"
    path = _small_cfg(tmp_path, "win", "p^2/2", "cos(q)", 512, window)
    assert cli.main(["solve", "--config", path]) == 0
    rows = (tmp_path / "win" / "solution.csv").read_text().strip().split("\n")[1:]
    q = [float(row.split(",")[1]) for row in rows[:16]]
    assert q == list(np.linspace(-3.0, 3.0, 16))
    assert cli.main(["compare", "--config", path]) == 0
    assert "convex pair PASS" in (tmp_path / "win" / "report.txt").read_text()


@pytest.mark.parametrize("u0, t_max", [("cos(q) + 0.3*sin(2*q)", 2), ("cos(q) + 0.5*q", 1)])
def test_window_compare_with_strands_past_the_edges(tmp_path, u0, t_max):
    # strands stopped at the window's edges gave an even crossing count at
    # q = 3, and compare exited 3
    window = "domain = window\nqmin = -3\nqmax = 3\n"
    path = _small_cfg(tmp_path, "win", "p^2/2", u0, 512, window, t_max)
    assert cli.main(["compare", "--config", path]) == 0
    assert "convex pair PASS" in (tmp_path / "win" / "report.txt").read_text()


def _quartic_compare(tmp_path, H, u0):
    # the p-window of the Lax-Oleinik oracle is (-pmax, pmax), pmax = 2 max|u0'| + 2
    out = tmp_path / "quartic"
    path = tmp_path / "quartic.ini"
    path.write_text(f"[problem]\nH = {H}\nu0 = {u0}\ndomain = periodic\nt_max = 1.5\n"
                    "[grid]\nnt = 16\nnq = 64\n[solver]\nn_seeds = 1024\n"
                    f"[output]\ndir = {out}\n")
    assert cli.main(["compare", "--config", str(path)]) == 0
    return out


def test_compare_convex_only_on_a_narrower_window(tmp_path):
    # H'' = 1 - 3 p^2 / 250 is positive on (-5, 5) but not on the window (-12, 12)
    out = _quartic_compare(tmp_path, "p^2/2 - p^4/1000", "5*cos(q)")
    assert "H is not convex in p" in (out / "report.txt").read_text()
    assert not (out / "lax_oleinik.csv").exists()


def test_compare_convex_on_its_window_only(tmp_path):
    # H'' = 1 - 3 p^2 / 50 is positive on the window (-4, 4) but not on (-5, 5)
    out = _quartic_compare(tmp_path, "p^2/2 - p^4/200", "cos(q)")
    assert "convex pair PASS" in (out / "report.txt").read_text()


def test_classify_burgers(burgers_cfg, tmp_path, capsys):
    rc = cli.main(["classify", "--config", burgers_cfg,
                   "--out", str(tmp_path / "cls")])
    assert rc == 0
    events = json.loads((tmp_path / "cls" / "events.json").read_text())
    ks = [e["kind"] for e in events]
    assert "ShockBirth" in ks and "Shock" in ks
    assert not any(k.startswith("Forbidden") for k in ks)
    summary = json.loads((tmp_path / "cls" / "events_summary.json").read_text())
    assert summary["ok"]


def test_dump_front_json(burgers_cfg, capsys):
    rc = cli.main(["dump-front", "--config", burgers_cfg, "--time", "1.5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["time"] == pytest.approx(1.5)
    assert len(payload["cusps"]) == 4


@pytest.mark.parametrize("t", [0.0, 0.005])
def test_dump_front_early_slice_is_the_library_slice(burgers_cfg, capsys, t):
    # below t_max/100 too, the slice seeds the window of its own time
    rc = cli.main(["dump-front", "--config", burgers_cfg, "--time", str(t)])
    assert rc == 0
    cfg = cli.load_config(burgers_cfg)
    seeds = selector.default_seeds(cfg["spec"], cfg["n_seeds"], t=t)
    analysis = selector.slice_analysis(cfg["spec"], t, seeds, step=cfg["step"])
    assert capsys.readouterr().out == frontmod.front_to_json(analysis) + "\n"


def _birth_cfg(tmp_path, t_max, n_seeds):
    path = tmp_path / "birth.ini"
    path.write_text(BURGERS_INI.format(out=tmp_path / "birth")
                    .replace("t_max = 3.0", f"t_max = {t_max}")
                    .replace("n_seeds = 512", f"n_seeds = {n_seeds}"))
    return str(path)


@pytest.mark.parametrize("t_max, n_seeds", [(1.0, 512), (3.0, 1024)])
def test_dump_front_at_shock_birth_keeps_its_time(tmp_path, capsys, t_max, n_seeds):
    # the shock birth is a vertical inflection: the front is written at
    # exactly the requested time, not at a shifted one, and has no cusp yet
    rc = cli.main(["dump-front", "--config", _birth_cfg(tmp_path, t_max, n_seeds),
                   "--time", "1.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["time"] == 1.0
    assert payload["cusps"] == []


@pytest.mark.parametrize("n_seeds", [1024, 4096])
def test_dump_front_non_generic_slice_exits_3(tmp_path, capsys, n_seeds):
    # just after the birth the new cusps lie on the new double point to
    # 10*TIE_TOL: the slice is reported, not written from another time.
    # They sit about 3e-9 (bbox-scaled) from it at either seed count, so
    # more seeds do not resolve it
    rc = cli.main(["dump-front", "--config", _birth_cfg(tmp_path, 3.0, n_seeds),
                   "--time", "1.00001"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cusp and double point coincide" in captured.err


def test_render_svg(burgers_cfg, tmp_path):
    rc = cli.main(["render", "--config", burgers_cfg, "--time", "1.5",
                   "--out", str(tmp_path / "svg")])
    assert rc == 0
    text = (tmp_path / "svg" / "front_t1_5.svg").read_text()
    assert text.startswith('<?xml version="1.0"')
    assert "stroke-dasharray" in text  # index-1 sections are dashed
    assert text.count("<circle") >= 4


def test_grid_fiber_on_a_cusp_exits_3(burgers_cfg, monkeypatch, capsys):
    # with the cusp band one bbox width wide, every fiber of a row past the
    # shock birth passes "through" a cusp: the grid raises DegenerateFiber
    monkeypatch.setattr(selector, "FIBER_TOL", 1.0)
    assert cli.main(["solve", "--config", burgers_cfg, "--grid", "16x32"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: fiber at q=0.0 passes through a cusp")


def test_solve_snapshot_svg_equals_render(tmp_path):
    path = tmp_path / "snap.ini"
    path.write_text(BURGERS_INI.format(out=tmp_path / "solve")
                    + "snapshot_times = 1.5\n")
    assert cli.main(["solve", "--config", str(path), "--grid", "16x32"]) == 0
    assert cli.main(["render", "--config", str(path), "--time", "1.5",
                     "--out", str(tmp_path / "render")]) == 0
    solved = (tmp_path / "solve" / "front_t1_5.svg").read_bytes()
    assert solved == (tmp_path / "render" / "front_t1_5.svg").read_bytes()
    assert b'stroke="#d62728" stroke-width="3"' in solved  # minimax highlighted


def test_determinism_across_runs(burgers_cfg, tmp_path):
    outs = []
    for tag in ("a", "b"):
        assert cli.main(["solve", "--config", burgers_cfg,
                         "--out", str(tmp_path / tag)]) == 0
        outs.append((tmp_path / tag / "solution.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("section, line", [
    ("grid", "nt = abc"),
    ("grid", "nq = 1.5"),
    ("solver", "n_seeds = many"),
    ("solver", "n_seeds = 0"),
    ("solver", "step = fast"),
    ("solver", "step = -0.1"),
    ("solver", "step = 0"),
    ("solver", "step = inf"),
    ("solver", "step = nan"),
    ("solver", "cfl = half"),
    ("solver", "cfl = 0"),
    ("solver", "cfl = 1.5"),
    ("output", "snapshot_times = 0.5 abc"),
    ("problem", "t_max = inf"),
    ("problem", "period = inf"),
    ("problem", "domain = window, qmin = -inf, qmax = 5"),
    ("problem", "domain = window, qmin = -5, qmax = inf"),
])
def test_bad_numeric_settings_exit_2(tmp_path, monkeypatch, capsys, section, line):
    def no_solver(*args, **kwargs):
        raise AssertionError("solver ran on an invalid config")

    monkeypatch.setattr(cli.selector, "minimax_grid", no_solver)
    # a [problem] case replaces or adds its comma-separated settings
    problem = {"H": "p^2/2", "u0": "cos(q)", "t_max": "1.0"}
    other = f"[{section}]\n{line}\n"
    if section == "problem":
        problem.update(kv.split(" = ") for kv in line.split(", "))
        other = ""
    path = tmp_path / "bad.ini"
    path.write_text("[problem]\n" + "".join(f"{k} = {v}\n" for k, v in problem.items())
                    + other)
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(path))
    assert cli.main(["compare", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("typo, message", [
    ("[solver]\nn_seed = 800\n", "unknown key 'n_seed' in [solver]"),
    ("[solvr]\nn_seeds = 800\n", "unknown section [solvr]"),
], ids=["key", "section"])
def test_misspelled_setting_exit_2(tmp_path, monkeypatch, capsys, typo, message):
    def no_solver(*args, **kwargs):
        raise AssertionError("solver ran on a misspelled config")

    monkeypatch.setattr(cli.selector, "minimax_grid", no_solver)
    path = tmp_path / "typo.ini"
    path.write_text("[problem]\nH = p^2/2\nu0 = cos(q)\nt_max = 1.0\n" + typo)
    with pytest.raises(cli.ConfigError, match=re.escape(message)):
        cli.load_config(str(path))
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


_PROBLEM = "[problem]\nH = p^2/2\nu0 = cos(q)\nt_max = 1.0\n"


@pytest.mark.parametrize("text, grid, message", [
    ("[grid]\nnt = 16\n", None, "config is missing the [problem] section"),
    ("[problem]\nH = p^2/2\nt_max = 1.0\n", None, "[problem] is missing key 'u0'"),
    (_PROBLEM.replace("cos(q)", "cos(p)"), None, "u0 may only use q, got ['p']"),
    (_PROBLEM + "domain = torus\n", None,
     "domain must be 'periodic' or 'window', got 'torus'"),
    ("[problem]\nH = p^2/2\nu0 = cos(q)\n", None, "[problem] t_max is required"),
    (_PROBLEM, "64by128", "--grid must look like 64x128, got '64by128'"),
    (_PROBLEM + "domain = window\nqmax = 3\n", None,
     "[problem] is missing key 'qmin' for domain = window"),
    (_PROBLEM + "domain = window\nqmin = -3\n", None,
     "[problem] is missing key 'qmax' for domain = window"),
    (_PROBLEM + "domain = window\nqmin = -3\nqmax = 3\nperiod = 6\n", None,
     "[problem] key 'period' does not apply to domain = window"),
    (_PROBLEM + "qmin = -3\n", None, "[problem] key 'qmin' does not apply to domain = periodic"),
    (_PROBLEM + "domain = periodic\nqmax = 3\n", None,
     "[problem] key 'qmax' does not apply to domain = periodic"),
], ids=["no_problem", "no_u0", "u0_reads_p", "torus", "no_t_max", "grid", "window_no_qmin",
        "window_no_qmax", "window_period", "periodic_qmin", "periodic_qmax"])
def test_rejected_config_exit_2(tmp_path, monkeypatch, capsys, text, grid, message):
    def no_solver(*args, **kwargs):
        raise AssertionError("solver ran on a rejected config")

    monkeypatch.setattr(cli.selector, "minimax_grid", no_solver)
    path = tmp_path / "rejected.ini"
    path.write_text(text)
    with pytest.raises(cli.ConfigError, match=re.escape(message)):
        cli.load_config(str(path), grid_override=grid)
    argv = ["solve", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv + (["--grid", grid] if grid else [])) == 2
    assert message in capsys.readouterr().err


def test_documented_config_keys_are_the_schema():
    # the INI block of docs/formats.md, commented keys (`; qmin = ...`) included
    text = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    documented, section = {}, None
    for line in block.splitlines():
        if header := re.match(r"\[(\w+)\]", line):
            section = header.group(1)
            documented[section] = set()
        elif key := re.match(r";?\s*(\w+)\s*=", line):
            documented[section].add(key.group(1))
    assert documented == {name: set(keys) for name, keys in cli.CONFIG_KEYS.items()}


@pytest.mark.parametrize("argv, snapshot", [
    (["dump-front", "--time", "2.0"], ""),
    (["dump-front", "--time", "-0.5"], ""),
    (["render", "--time", "2.0"], ""),
    (["solve"], "snapshot_times = 0.5, 2.0"),
    (["solve"], "snapshot_times = -0.5"),
], ids=["dump-front-late", "dump-front-negative", "render-late", "snapshot-late",
        "snapshot-negative"])
def test_time_outside_range_exit_2(tmp_path, monkeypatch, capsys, argv, snapshot):
    def no_solver(*args, **kwargs):
        raise AssertionError("solver ran on an invalid time")

    monkeypatch.setattr(cli.selector, "minimax_grid", no_solver)
    monkeypatch.setattr(cli.selector, "slice_analysis", no_solver)
    path = tmp_path / "times.ini"
    path.write_text("[problem]\nH = p^2/2\nu0 = cos(q)\nt_max = 1.0\n"
                    f"[output]\n{snapshot}\n")
    assert cli.main([argv[0], "--config", str(path), "--out", str(tmp_path / "out"),
                     *argv[1:]]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("times", ["1.5 1.5000001", "0.5, 1.5, 0.5"])
def test_snapshot_times_with_one_file_name_exit_2(tmp_path, monkeypatch, capsys, times):
    # front_t1_5.json would be written twice, the second snapshot replacing the first
    def no_solver(*args, **kwargs):
        raise AssertionError("solver ran on colliding snapshot times")

    monkeypatch.setattr(cli.selector, "minimax_grid", no_solver)
    path = tmp_path / "snap.ini"
    path.write_text("[problem]\nH = p^2/2\nu0 = cos(q)\nt_max = 3.0\n"
                    f"[output]\nsnapshot_times = {times}\n")
    with pytest.raises(cli.ConfigError, match="front_t"):
        cli.load_config(str(path))
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
