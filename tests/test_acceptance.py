"""Acceptance gate: one test per criterion, each logging a PASS/FAIL line.

The criteria pin the solver to independent references: closed-form circular
extremals, finite-difference gradients, functional inequalities, direct
Lorentz-flow integration, and byte-level determinism of the CLI output.
"""

import json
import math
import time

import numpy as np
import pytest

from magloop import (ChartPoint, ConvergedExtremal, DivergingLengths,
                     FlowState, GeometryKind, GeometrySpec, Loop, action_S,
                     action_S_eps_tau, cli, concat, el_residual_SE,
                     family_minimax, grad_action, init_sweep_family,
                     integrate_flow, kinetic_energy, length, make_circle,
                     orbit_to_loop, resample_arclength, speed_cv, speeds)
from magloop.action import ActionParams
from magloop.continuation import classify_outcome
from magloop.minimax import DescentSettings
from magloop.oracle import fd_gradient, larmor_orbit

from test_continuation import _record


def _loop_radius(loop):
    ctr = loop.vertices.mean(axis=0)
    return float(np.linalg.norm(loop.vertices - ctr, axis=1).mean())


def _random_loop(rng, spec, n):
    """Smooth random loop: a displaced ellipse plus low-order Fourier noise."""
    theta = 2.0 * np.pi * np.arange(n) / n
    center = rng.uniform(0.2, 0.8, size=2) if spec.is_torus else \
        rng.uniform(-1.0, 1.0, size=2)
    rx, ry = rng.uniform(0.05, 0.15, size=2)
    verts = np.stack([center[0] + rx * np.cos(theta),
                      center[1] + ry * np.sin(theta)], axis=1)
    for mode in (2, 3):
        amp = 0.02 * rng.standard_normal(2)
        verts[:, 0] += amp[0] * np.cos(mode * theta)
        verts[:, 1] += amp[1] * np.sin(mode * theta)
    w = np.zeros((n, 2), dtype=int)
    if spec.is_torus and rng.uniform() < 0.3:
        w[rng.integers(0, n)] = rng.integers(-1, 2, size=2)
    return Loop(verts, w)


def test_criterion_01_larmor_benchmark(plane_bench, acc_log):
    records = plane_bench["records"]
    cls = plane_bench["classification"]
    converged = isinstance(cls, ConvergedExtremal)
    radius = _loop_radius(records[-1].loop) if records else math.nan
    level = records[-1].level if records else math.nan
    res = cls.residual.max_res if converged else math.nan
    elapsed = plane_bench["elapsed"]
    ok = (converged and abs(radius - 1.0) < 0.02
          and abs(level - math.pi) < 0.03 * math.pi
          and res < 1e-2 and elapsed < 60.0)
    acc_log(1, "plane benchmark converges to the unit circular extremal", ok,
            f"radius {radius:.4f}, level {level:.4f}, residual {res:.2e}, "
            f"{elapsed:.1f} s")
    assert converged
    assert abs(radius - 1.0) < 0.02
    assert abs(level - math.pi) < 0.03 * math.pi
    assert res < 1e-2
    assert elapsed < 60.0


def test_criterion_02_scaling_b2_e4(plane_bench_b2e4, acc_log):
    records = plane_bench_b2e4["records"]
    cls = plane_bench_b2e4["classification"]
    converged = isinstance(cls, ConvergedExtremal)
    radius = _loop_radius(records[-1].loop) if records else math.nan
    level = records[-1].level if records else math.nan
    ok = (converged and abs(radius - 1.0) < 0.02
          and abs(level - 2.0 * math.pi) < 0.03 * 2.0 * math.pi)
    acc_log(2, "field and energy rescaling reproduces the scaled circle", ok,
            f"radius {radius:.4f}, level {level:.4f}")
    assert converged
    assert abs(radius - 1.0) < 0.02
    assert abs(level - 2.0 * math.pi) < 0.03 * 2.0 * math.pi


def test_criterion_03_gradient_suite(acc_log):
    rng = np.random.default_rng(101)
    specs = [
        GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0),
        GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=1.5, k=2),
        GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=1.0, k=1, u_amp=0.3),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        spec = specs[i % 3]
        loop = _random_loop(rng, spec, 32)
        params = ActionParams(E=float(rng.uniform(0.5, 2.0)),
                              eps=float(rng.choice([0.0, 1e-2, 0.1])),
                              tau=float(rng.choice([0.0, 0.3])))
        analytic = grad_action(spec, loop, params)
        numeric = fd_gradient(spec, loop, params)
        scale = max(float(np.linalg.norm(numeric)), 1e-12)
        worst = max(worst, float(np.linalg.norm(analytic - numeric)) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    acc_log(3, "analytic gradients match finite differences on 50 loops", ok,
            f"max rel error {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-5
    assert elapsed < 30.0


def test_criterion_04_concatenation_additivity(acc_log):
    rng = np.random.default_rng(103)
    plane = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.3)
    torus = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1)
    worst = 0.0
    for i in range(100):
        spec = plane if i % 2 == 0 else torus
        E = float(rng.uniform(0.5, 2.0))
        a = _random_loop(rng, spec, 40)
        b = _random_loop(rng, spec, 24)
        i_a = int(rng.integers(0, a.n))
        i_b = int(rng.integers(0, b.n))
        shift = a.vertices[i_a] - b.vertices[i_b]
        b = b.with_vertices(b.vertices + shift)
        joined = concat(spec, a, b)
        sa, sb = action_S(spec, a, E), action_S(spec, b, E)
        gap = abs(action_S(spec, joined, E) - sa - sb)
        worst = max(worst, gap / max(1.0, abs(sa) + abs(sb)))
    ok = worst < 1e-12
    acc_log(4, "action is additive over loop concatenation", ok,
            f"max rel defect {worst:.2e} over 100 pairs")
    assert worst < 1e-12


def test_criterion_05_power_mean_inequality(acc_log):
    rng = np.random.default_rng(107)
    plane = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0)
    worst_violation = -math.inf
    worst_eq = 0.0
    for _ in range(100):
        loop = _random_loop(rng, plane, 48)
        E = float(rng.uniform(0.5, 2.0))
        for m in (1.1, 1.5, 2.0):
            s = speeds(plane, loop) * math.sqrt(E)
            lhs = float(np.mean(s ** m))
            rhs = (math.sqrt(E) * length(plane, loop)) ** m
            worst_violation = max(worst_violation, (rhs - lhs) / rhs)
            uni = resample_arclength(plane, loop, loop.n)
            su = speeds(plane, uni) * math.sqrt(E)
            eq_gap = abs(float(np.mean(su ** m))
                         - (math.sqrt(E) * length(plane, uni)) ** m)
            worst_eq = max(worst_eq, eq_gap / (math.sqrt(E)
                                               * length(plane, uni)) ** m)
    ok = worst_violation < 1e-12 and worst_eq < 1e-9
    acc_log(5, "power-mean lower bound with equality at uniform speed", ok,
            f"worst violation {worst_violation:.2e}, "
            f"worst equality gap {worst_eq:.2e}")
    assert worst_violation < 1e-12
    assert worst_eq < 1e-9


def test_criterion_06_level_monotonicity(acc_log):
    spec = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0)
    fam = init_sweep_family(spec, 1.0, "path", 33, 128)
    grid = {}
    for eps in (1e-3, 3e-3, 1e-2):
        for tau in (0.0, 1e-2):
            params = ActionParams(E=1.0, eps=eps, tau=tau)
            grid[(eps, tau)] = family_minimax(spec, fam, params,
                                              DescentSettings()).level
    worst = -math.inf
    for (e1, t1), v1 in grid.items():
        for (e2, t2), v2 in grid.items():
            if e1 <= e2 and t1 <= t2:
                worst = max(worst, v1 - v2)
    ok = worst < 1e-3
    acc_log(6, "minimax levels grow with the regularization strengths", ok,
            f"worst decrease {worst:.2e} over the 3 x 2 grid")
    assert worst < 1e-3


def test_criterion_07_length_bound(plane_bench, acc_log):
    c_ref, beta = plane_bench["c_ref"], plane_bench["beta"]
    worst = 0.0
    for rec in plane_bench["records"]:
        if rec.minimax.converged:
            cap = math.sqrt((c_ref + beta) / rec.eps) * (1.0 + 1e-6)
            worst = max(worst, rec.l / cap)
    ok = worst <= 1.0
    acc_log(7, "recorded lengths respect the level's length bound", ok,
            f"max l over bound {worst:.4f}")
    assert worst <= 1.0


def test_criterion_08_arclength_extremals(plane_bench, torus_cross, acc_log):
    worst = 0.0
    for rec in plane_bench["records"]:
        if rec.minimax.converged:
            worst = max(worst, speed_cv(plane_bench["spec"], rec.loop))
    worst = max(worst, speed_cv(torus_cross["spec"],
                                torus_cross["minimax"].argmax))
    ok = worst < 1e-3
    acc_log(8, "extremals come out arc-length parameterized", ok,
            f"max speed CV {worst:.2e}")
    assert worst < 1e-3


def test_criterion_09_energy_conservation(acc_log):
    cases = [
        (GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0),
         FlowState(ChartPoint(0.0, 0.0), np.array([1.0, 0.0]))),
        (GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=1.0, k=1),
         FlowState(ChartPoint(0.1, 0.2), np.array([0.8, 0.6]))),
        (GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=1.0, k=1, u_amp=0.3),
         FlowState(ChartPoint(0.3, 0.7), np.array([0.5, -0.5]))),
    ]
    worst = 0.0
    for spec, state in cases:
        states = integrate_flow(spec, state, 10.0, 10000)
        e0 = kinetic_energy(spec, states[0])
        drift = max(abs(kinetic_energy(spec, s) - e0) for s in states) / e0
        worst = max(worst, drift)
    ok = worst < 1e-8
    acc_log(9, "flow integration conserves the mechanical energy", ok,
            f"max relative drift {worst:.2e} over T=10, h=1e-3")
    assert worst < 1e-8


def test_criterion_10_cross_solver_consistency(torus_cross, acc_log):
    spec, E = torus_cross["spec"], torus_cross["E"]
    level = torus_cross["minimax"].level
    candidates = torus_cross["candidates"]
    elapsed = torus_cross["elapsed"]
    worst_res = 0.0
    best_rel = math.inf
    for cand in candidates:
        loop = orbit_to_loop(spec, cand, 256)
        worst_res = max(worst_res, el_residual_SE(spec, loop, E).max_res)
        rel = abs(action_S(spec, loop, E) - level) / abs(level)
        best_rel = min(best_rel, rel)
    ok = (len(candidates) > 0 and worst_res < 1e-2 and best_rel < 0.05
          and elapsed < 300.0)
    acc_log(10, "shooting orbits solve the variational extremal equation",
            ok, f"{len(candidates)} orbit(s), worst residual {worst_res:.2e},"
                f" action gap {best_rel:.2%}, {elapsed:.1f} s")
    assert len(candidates) > 0
    assert worst_res < 1e-2
    assert best_rel < 0.05
    assert elapsed < 300.0


def test_criterion_11_synthetic_dichotomy(acc_log):
    conv = [_record(0, 1e-2, 6.30, 5e-3), _record(1, 5e-3, 6.293, 2e-3),
            _record(2, 2.5e-3, 6.292, 9e-4)]
    E = 2.0
    eps = [1e-1, 5e-2, 2.5e-2]
    ls = [10.0, 15.0, 22.0]
    div = [_record(i, e, l, 0.5, E=E) for i, (e, l) in
           enumerate(zip(eps, ls))]
    out_c = classify_outcome(conv)
    out_d = classify_outcome(div)
    ladder_ok = isinstance(out_d, DivergingLengths) and \
        out_d.ladder_lin == tuple(E * (1.0 + 2.0 * e * l)
                                    for e, l in zip(eps, ls))
    ok = isinstance(out_c, ConvergedExtremal) and ladder_ok
    acc_log(11, "terminal dichotomy classified with exact energy ladder", ok,
            f"{out_c.case} / {out_d.case}")
    assert isinstance(out_c, ConvergedExtremal)
    assert ladder_ok


def test_criterion_12_determinism(tmp_path, monkeypatch, acc_log):
    cfg = {
        "geometry": {"kind": "plane_constant_B", "B": 1.0},
        "E": 1.0,
        "w_shape": "path",
        "discretization": {"n_vertices": 48, "family_size": 9, "m_p": 4},
        "action": {"eps0": 1e-2, "tau0": 1e-2, "rho": 0.5, "n_steps": 3},
        "solver": {},
        "output_dir": "det_out",
        "seed": 7,
    }
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    texts = []
    for _ in range(2):
        cli.main(["run", "--config", str(cpath)])
        obj = json.loads((tmp_path / "det_out" / "result.json").read_text())
        obj.pop("timings")
        texts.append(json.dumps(obj, sort_keys=True))
    ok = texts[0] == texts[1]
    acc_log(12, "results are byte-identical across independent runs", ok,
            f"{len(texts[0])} canonical bytes compared")
    assert texts[0] == texts[1]
