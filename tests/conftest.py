import re

import numpy as np
import pytest

import hjminimax as hj
from hjminimax import selector

TWO_PI = 2.0 * np.pi

# outcome per acceptance criterion, filled by pytest_runtest_logreport
_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    m = re.search(r"::test_criterion_(\d+)_(\w+)", report.nodeid)
    if not m:
        return
    n, label = int(m.group(1)), m.group(2)
    if report.when == "call":
        _ACCEPTANCE[n] = (label, report.outcome)
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE[n] = (label, report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_ACCEPTANCE):
        label, outcome = _ACCEPTANCE[n]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(
            f"criterion {n} ({label.replace('_', ' ')}): {verdict}")


@pytest.fixture(scope="session")
def burgers_spec():
    return hj.ProblemSpec(H=hj.parse("p^2/2"), u0=hj.parse("cos(q)"),
                          domain=hj.Periodic(TWO_PI), t_max=3.0)


@pytest.fixture(scope="session")
def two_hump_spec():
    return hj.ProblemSpec(H=hj.parse("p^2/2"),
                          u0=hj.parse("cos(q) + 0.7*cos(2*q)"),
                          domain=hj.Periodic(TWO_PI), t_max=3.0)


@pytest.fixture(scope="session")
def slice_suite(burgers_spec, two_hump_spec):
    """Analyzed generic slices of both convex benchmarks, spanning the
    pre-caustic, open-swallowtail and overlapping-swallowtail regimes,
    Burgers at its shock birth (t=1.0, a vertical inflection without cusps)
    and just after it (t=1.00003, two cusp pairs), where elimination must
    run on fronts its own surgeries made."""
    cases = [("burgers", burgers_spec, t) for t in (0.5, 1.0, 1.00003, 1.5, 2.5)]
    cases += [("two_hump", two_hump_spec, t) for t in (0.8, 1.2, 2.0, 2.8)]
    out = {}
    for name, spec, t in cases:
        seeds = selector.default_seeds(spec, 1600, t=t)
        out[(name, t)] = selector.slice_analysis(spec, t, seeds, step=0.005)
    return out


@pytest.fixture(scope="session")
def burgers_front_t15(burgers_spec):
    """Analyzed Burgers front at t=1.5: the swallowtail is fully open."""
    seeds = selector.default_seeds(burgers_spec, 2048, t=1.5)
    return selector.slice_analysis(burgers_spec, 1.5, seeds, step=0.01)


@pytest.fixture(scope="session")
def burgers_grid(burgers_spec):
    """Coarse Burgers minimax grid shared by the singular-set tests."""
    t_grid = np.linspace(0.0, 3.0, 96)
    q_grid = np.linspace(0.0, TWO_PI, 192, endpoint=False)
    return selector.minimax_grid(burgers_spec, t_grid, q_grid, n_seeds=2048)
