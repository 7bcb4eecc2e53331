"""Action functionals: closed forms, limits, inequalities, and gradients."""

import math

import numpy as np
import pytest

from magloop import (GeometryKind, GeometrySpec, Loop, action_F_cutoff,
                     action_S, action_S_eps_tau, circulation, cutoff_f,
                     grad_action, length, make_circle, make_point_loop,
                     resample_arclength, speeds)
from magloop.action import (ActionParams, CutoffSpec, _grad_components,
                            action_pair, cutoff_df)
from magloop.oracle import fd_gradient

PLANE = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0)
TORUS = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1)
CONF = GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=1.0, k=1, u_amp=0.3)


def _random_loop(rng, spec, n=32, scale=1.0):
    theta = 2.0 * np.pi * np.arange(n) / n
    center = rng.uniform(0.3, 0.7, size=2) if spec.is_torus else \
        rng.uniform(-1.0, 1.0, size=2)
    rx, ry = scale * rng.uniform(0.5, 1.5, size=2)
    verts = np.stack([center[0] + rx * np.cos(theta),
                      center[1] + ry * np.sin(theta)], axis=1)
    for mode in (2, 3):
        verts += scale * 0.05 * rng.standard_normal(2) * \
            np.stack([np.cos(mode * theta), np.sin(mode * theta)], axis=1)
    return Loop(verts, np.zeros((n, 2), dtype=int))


def _shoelace(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def test_plane_circulation_is_flux():
    # A is linear on the constant-field plane, so the midpoint rule is exact
    # and the circulation equals B times the signed polygon area
    rng = np.random.default_rng(41)
    spec = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=2.5)
    for _ in range(20):
        loop = _random_loop(rng, spec)
        area = _shoelace(loop.vertices)
        assert abs(circulation(spec, loop) - 2.5 * area) < 1e-12 * max(
            1.0, abs(area))


def test_circle_action_closed_form():
    # S_E of an n-gon: sqrt(E) * 2 n r sin(pi/n) + o * B * (n/2) r^2 sin(2pi/n)
    for E, B, r, o in [(1.0, 1.0, 0.8, 1), (4.0, 2.0, 1.3, -1)]:
        spec = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=B)
        n = 64
        loop = make_circle((0.2, -0.4), r, o, n)
        expect = (math.sqrt(E) * 2 * n * r * math.sin(math.pi / n)
                  + o * B * 0.5 * n * r * r * math.sin(2 * math.pi / n))
        assert abs(action_S(spec, loop, E) - expect) < 1e-12 * abs(expect)


def test_regularized_action_collapses_at_zero():
    rng = np.random.default_rng(43)
    for spec in (PLANE, TORUS, CONF):
        for _ in range(5):
            loop = _random_loop(rng, spec, scale=0.3 if spec.is_torus else 1.0)
            E = float(rng.uniform(0.5, 3.0))
            params = ActionParams(E=E, eps=0.0, tau=0.0)
            a = action_S_eps_tau(spec, loop, params)
            b = action_S(spec, loop, E)
            assert math.isclose(a, b, rel_tol=1e-14, abs_tol=0.0)


def test_point_loop_actions():
    pt = make_point_loop((0.1, 0.2), 16)
    assert action_S(PLANE, pt, 1.0) == 0.0
    params = ActionParams(E=1.0, eps=1e-2, tau=0.1, delta=1e-9)
    val = action_S_eps_tau(PLANE, pt, params)
    assert abs(val - (1e-9) ** 1.1) < 1e-24


def test_power_mean_inequality_and_equality_after_resample():
    rng = np.random.default_rng(47)
    for m in (1.1, 1.5, 2.0):
        for _ in range(10):
            loop = _random_loop(rng, PLANE)
            E = float(rng.uniform(0.5, 2.0))
            s = speeds(PLANE, loop) * math.sqrt(E)
            lhs = float(np.mean(s ** m))
            rhs = (math.sqrt(E) * length(PLANE, loop)) ** m
            assert lhs >= rhs * (1.0 - 1e-12)
            uni = resample_arclength(PLANE, loop, loop.n)
            su = speeds(PLANE, uni) * math.sqrt(E)
            lhs_u = float(np.mean(su ** m))
            rhs_u = (math.sqrt(E) * length(PLANE, uni)) ** m
            assert abs(lhs_u - rhs_u) <= 1e-9 * rhs_u


def test_monotone_in_eps_and_tau():
    rng = np.random.default_rng(53)
    for _ in range(10):
        loop = _random_loop(rng, PLANE, scale=1.5)
        E = 1.0
        base = action_S_eps_tau(PLANE, loop, ActionParams(E=E))
        prev = base
        for eps in (1e-3, 1e-2, 1e-1):
            val = action_S_eps_tau(PLANE, loop, ActionParams(E=E, eps=eps))
            assert val > prev
            prev = val
        # tau-monotonicity needs rescaled speeds above 1; scale=1.5 loops at
        # n=32 have s = sqrt(E) n ell well above it
        assert np.all(speeds(PLANE, loop) > 1.0)
        prev = base
        for tau in (0.05, 0.2, 0.5):
            val = action_S_eps_tau(PLANE, loop, ActionParams(E=E, tau=tau))
            assert val > prev
            prev = val


def test_cutoff_smoothstep_shape():
    cut = CutoffSpec(c_ref=2.0, beta=0.2)
    assert cut.lo == 0.1 and cut.hi == 0.2
    assert cutoff_f(-5.0, cut) == 0.0
    assert cutoff_f(cut.lo, cut) == 0.0
    assert cutoff_f(cut.hi, cut) == 1.0
    assert cutoff_f(5.0, cut) == 1.0
    mid = 0.5 * (cut.lo + cut.hi)
    assert abs(cutoff_f(mid, cut) - 0.5) < 1e-15
    xs = np.linspace(0.05, 0.25, 101)
    vals = [cutoff_f(float(x), cut) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    h = 1e-7
    for x in (0.12, 0.15, 0.18):
        fd = (cutoff_f(x + h, cut) - cutoff_f(x - h, cut)) / (2 * h)
        assert abs(cutoff_df(x, cut) - fd) < 1e-6


def test_cutoff_functional_limits():
    cut = CutoffSpec(c_ref=1.0, beta=0.1)
    params = ActionParams(E=1.0, eps=1e-2, tau=1e-2)
    pt = make_point_loop((0.0, 0.0), 16)
    assert action_F_cutoff(PLANE, pt, params, cut) == 0.0
    big = make_circle((0.0, 0.0), 0.5, 1, 64)  # action well above hi
    assert action_F_cutoff(PLANE, big, params, cut) == action_S_eps_tau(
        PLANE, big, params)


def test_gradient_matches_fd():
    rng = np.random.default_rng(59)
    for spec in (PLANE, TORUS, CONF):
        loop = _random_loop(rng, spec, scale=0.3 if spec.is_torus else 1.0)
        for params, cut in [
            (ActionParams(E=1.3, eps=0.0, tau=0.0), None),
            (ActionParams(E=0.7, eps=1e-2, tau=0.3), None),
            (ActionParams(E=1.0, eps=1e-2, tau=1e-2),
             CutoffSpec(c_ref=1.0, beta=0.1)),
        ]:
            analytic = grad_action(spec, loop, params, cut)
            numeric = fd_gradient(spec, loop, params, cut)
            scale = max(float(np.linalg.norm(numeric)), 1e-12)
            rel = float(np.linalg.norm(analytic - numeric)) / scale
            assert rel < 1e-6


def test_values_and_gradient_share_the_edge_kernel():
    # value and gradient are assembled from one edge kernel, so the values
    # returned next to the gradient are the action values bit for bit
    rng = np.random.default_rng(61)
    for spec in (PLANE, TORUS, CONF):
        loop = _random_loop(rng, spec, scale=0.3 if spec.is_torus else 1.0)
        for params in (ActionParams(E=1.3), ActionParams(E=0.7, eps=1e-2,
                                                         tau=0.3)):
            s0, s1, _, _ = _grad_components(spec, loop, params)
            assert action_pair(spec, loop, params) == (s0, s1)
            # a window around s0 keeps the cutoff factor strictly inside (0, 1)
            cut = CutoffSpec(c_ref=15.0 * s0, beta=0.1)
            assert 0.0 < cutoff_f(s0, cut) < 1.0
            assert action_F_cutoff(spec, loop, params, cut) == \
                cutoff_f(s0, cut) * s1
            assert action_S(spec, loop, params.E) == \
                math.sqrt(params.E) * length(spec, loop) + circulation(spec,
                                                                       loop)


def test_gradient_vanishing_near_extremal_circle():
    # at eps = tau = 0 the extremal circle of S_E has radius sqrt(E)/B
    spec = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0)
    n = 128
    r = 1.0 / math.cos(math.pi / n)  # discrete stationary radius
    loop = make_circle((0.0, 0.0), r, -1, n)
    g = grad_action(spec, loop, ActionParams(E=1.0))
    assert float(np.abs(g).max()) < 1e-9


def test_action_params_validation():
    with pytest.raises(ValueError):
        ActionParams(E=0.0)
    with pytest.raises(ValueError):
        ActionParams(E=1.0, eps=-1e-3)
    with pytest.raises(ValueError):
        ActionParams(E=1.0, tau=1.0)
    with pytest.raises(ValueError):
        ActionParams(E=1.0, delta=-1.0)
    with pytest.raises(ValueError):
        CutoffSpec(c_ref=-1.0, beta=0.1)
    with pytest.raises(ValueError):
        CutoffSpec(c_ref=1.0, beta=0.0)