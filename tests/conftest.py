"""Shared fixtures: the expensive end-to-end runs are session-scoped so the
acceptance tests and the topical tests can share one execution each."""

import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from magloop import (ChartPoint, DescentSettings, FlowState, GeometryKind,
                     GeometrySpec, Schedule, continuation_run,
                     init_sweep_family, shooting_periodic)
from magloop.action import ActionParams
from magloop.minimax import _engine

# Property tests draw the same examples on every run and keep no example
# database, so results are reproducible.  Hypothesis still caches the
# constants it reads from source files (at collection time); that cache goes
# to the system temporary directory, not to a .hypothesis/ in the checkout.
settings.register_profile("tier1", derandomize=True, database=None,
                          max_examples=60, deadline=None)
settings.load_profile("tier1")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "magloop-hypothesis")

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acc_log():
    """Record one pass/fail line per acceptance criterion; printed in the
    terminal summary."""

    def _log(number: int, title: str, ok: bool, detail: str = ""):
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        _ACCEPTANCE_LINES.append((number, f"[{verdict}] criterion {number:2d}"
                                          f" {title}{suffix}"))

    return _log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def plane_bench():
    """Constant-field plane benchmark: B=1, E=1, N=128, M=33, geometric
    schedule from (1e-2, 1e-2) with rho=0.5 over 8 steps."""
    spec = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0)
    schedule = Schedule(eps0=1e-2, tau0=1e-2, rho=0.5, n_steps=8)
    settings = DescentSettings()
    t0 = time.perf_counter()
    records, classification, c_ref = continuation_run(
        spec, 1.0, init_sweep_family(spec, 1.0, "path", 33, 128), schedule,
        settings)
    elapsed = time.perf_counter() - t0
    return {"spec": spec, "E": 1.0, "schedule": schedule,
            "records": records, "classification": classification,
            "c_ref": c_ref, "beta": 0.1 * c_ref, "elapsed": elapsed}


@pytest.fixture(scope="session")
def plane_bench_b2e4():
    """Scaling companion run: B=2, E=4 on the plane."""
    spec = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=2.0)
    schedule = Schedule(eps0=1e-2, tau0=1e-2, rho=0.5, n_steps=8)
    settings = DescentSettings()
    records, classification, c_ref = continuation_run(
        spec, 4.0, init_sweep_family(spec, 4.0, "path", 33, 128), schedule,
        settings)
    return {"spec": spec, "E": 4.0, "records": records,
            "classification": classification, "c_ref": c_ref,
            "beta": 0.1 * c_ref}


@pytest.fixture(scope="session")
def criterion10_seeds():
    """Criterion 10's four shooting seed states: x near the field maximum of
    the sine torus, y anywhere, any direction (rng 7)."""
    rng = np.random.default_rng(7)
    seeds = []
    for _ in range(4):
        p = ChartPoint(float(rng.uniform(-0.04, 0.04)),
                       float(rng.uniform(0.0, 1.0)))
        ang = float(rng.uniform(0.0, 2.0 * np.pi))
        seeds.append(FlowState(p, np.array([np.cos(ang), np.sin(ang)])))
    return tuple(seeds)


@pytest.fixture(scope="session")
def torus_cross(criterion10_seeds):
    """Cross-solver data on the sine-field torus (a=3, k=1, E=0.02): a
    cylinder-family minimax level and independently shot periodic orbits."""
    spec = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1)
    E = 0.02
    t0 = time.perf_counter()
    family = init_sweep_family(spec, E, "cylinder", 33, 128)
    params = ActionParams(E=E, eps=1e-3, tau=0.0)
    result = _engine(spec, family.rows, params, DescentSettings())[0]
    candidates = shooting_periodic(spec, E / 2.0, criterion10_seeds,
                                   period_cap=0.6, tol=1e-8, dt=1e-3)
    elapsed = time.perf_counter() - t0
    return {"spec": spec, "E": E, "minimax": result,
            "candidates": candidates, "elapsed": elapsed}
