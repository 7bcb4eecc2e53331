"""Reference-value generators: closed forms, profiles, shooting."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magloop import (ChartPoint, FlowState, GeometryKind, GeometrySpec, Loop,
                     action_S, circle_action_profile, el_residual_SE,
                     fd_gradient, grad_action, integrate_flow, larmor_orbit,
                     length, make_circle, orbit_to_loop, shooting_periodic,
                     speed_cv)
from magloop import oracle
from magloop.action import ActionParams
from magloop.errors import InvalidOracleInput
from magloop.geometry import torus_gap

PLANE = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0)
SINE_TORUS = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1)


def test_larmor_closed_form_and_scaling():
    r, lev = larmor_orbit(1.0, 1.0)
    assert r == 1.0 and lev == math.pi
    assert larmor_orbit(4.0, 2.0) == (1.0, 2.0 * math.pi)
    # radius scales like sqrt(E)/B, level like E/B
    lam = 1.7
    r1, l1 = larmor_orbit(2.0, 0.8)
    r2, l2 = larmor_orbit(lam * lam * 2.0, 0.8)
    assert abs(r2 - lam * r1) < 1e-14
    assert abs(l2 - lam * lam * l1) < 1e-13
    # scaling E and B together leaves the radius invariant
    r3, _ = larmor_orbit(lam * lam * 2.0, lam * 0.8)
    assert abs(r3 - r1) < 1e-15
    with pytest.raises(InvalidOracleInput):
        larmor_orbit(0.0, 1.0)
    with pytest.raises(InvalidOracleInput):
        larmor_orbit(1.0, -2.0)
    for E, B in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(InvalidOracleInput):
            larmor_orbit(E, B)


def test_circle_action_profile_discrete_max():
    # max over clockwise circles of the discrete action sits at
    # r* = sqrt(E) / (B cos(pi/n)) with value E n tan(pi/n) / B
    E, B, n = 1.0, 1.0, 256
    spec = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=B)
    r_star = math.sqrt(E) / (B * math.cos(math.pi / n))
    grid = np.concatenate([np.linspace(0.0, 2.0, 81), [r_star]])
    vals = circle_action_profile(spec, E, grid, n)
    expect = E * n * math.tan(math.pi / n) / B
    assert abs(float(vals.max()) - expect) < 1e-12 * expect
    assert int(np.argmax(vals)) == len(grid) - 1
    # profile values are the actions of the clockwise inscribed polygons
    probe = make_circle((0.0, 0.0), 0.7, -1, n)
    i = int(np.argmin(np.abs(grid - 0.7)))
    direct = action_S(spec, probe, E)
    assert abs(float(vals[i]) - direct) > 0.0 or grid[i] != 0.7
    with pytest.raises(InvalidOracleInput):
        circle_action_profile(spec, -1.0, grid, n)
    for bad in ((math.inf, grid, n), (E, np.array([-0.1, 0.5]), n),
                (E, np.array([0.5, math.nan]), n),
                (E, np.array([math.inf]), n), (E, np.array([]), n),
                (E, grid, 2)):
        with pytest.raises(InvalidOracleInput):
            circle_action_profile(spec, *bad)
    torus = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=1.0, k=1)
    with pytest.raises(InvalidOracleInput):
        circle_action_profile(torus, E, grid, n)


def test_fd_gradient_converges_with_h():
    rng = np.random.default_rng(67)
    n = 24
    theta = 2.0 * np.pi * np.arange(n) / n
    verts = np.stack([np.cos(theta) + 0.05 * rng.standard_normal(n),
                      np.sin(theta) + 0.05 * rng.standard_normal(n)], axis=1)
    loop = Loop(verts, np.zeros((n, 2), dtype=int))
    params = ActionParams(E=1.0, eps=1e-2, tau=0.1)
    exact = grad_action(PLANE, loop, params)
    errs = []
    for h in (1e-4, 1e-6):
        approx = fd_gradient(PLANE, loop, params, h=h)
        errs.append(float(np.linalg.norm(approx - exact)))
    assert errs[1] < errs[0]
    assert errs[1] < 1e-7 * max(1.0, float(np.linalg.norm(exact)))
    for h in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidOracleInput):
            fd_gradient(PLANE, loop, params, h=h)


def test_shooting_finds_larmor_orbit():
    seeds = [FlowState(ChartPoint(0.02, -0.01), np.array([0.9, 0.1])),
             FlowState(ChartPoint(-0.05, 0.03), np.array([0.0, 1.0]))]
    cands = shooting_periodic(PLANE, 0.5, seeds, period_cap=7.0, tol=1e-6,
                              dt=1e-3)
    assert len(cands) == 1  # symmetry translates collapse to one orbit
    cand = cands[0]
    assert abs(cand.period - 2.0 * math.pi) < 1e-5
    assert cand.closure_residual < 1e-6
    assert abs(cand.energy_mech - 0.5) < 1e-12
    assert abs(cand.energy_match - 1.0) < 1e-12
    loop = orbit_to_loop(PLANE, cand, 256)
    ctr = loop.vertices.mean(axis=0)
    rr = np.linalg.norm(loop.vertices - ctr, axis=1)
    assert abs(rr.mean() - 1.0) < 1e-5
    assert float(rr.std()) < 1e-6


def test_shooting_zero_field_torus_is_empty():
    # without a field the flow is straight lines; below the shortest closed
    # geodesic length (1 at unit speed) nothing can return
    spec = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=0.0, k=1)
    phi = 0.5 * (1.0 + math.sqrt(5.0))
    seeds = [FlowState(ChartPoint(0.1, 0.2), np.array([1.0, 1.0 / phi])),
             FlowState(ChartPoint(0.5, 0.5), np.array([1.0, phi]))]
    cands = shooting_periodic(spec, 0.5, seeds, period_cap=0.9, tol=1e-8,
                              dt=1e-3)
    assert cands == []


def test_shooting_validation():
    seeds = [FlowState(ChartPoint(0.0, 0.0), np.array([1.0, 0.0]))]
    with pytest.raises(InvalidOracleInput):
        shooting_periodic(PLANE, 0.0, seeds, period_cap=1.0, tol=1e-6)
    with pytest.raises(InvalidOracleInput):
        shooting_periodic(PLANE, 0.5, seeds, period_cap=-1.0, tol=1e-6)
    with pytest.raises(InvalidOracleInput):
        shooting_periodic(
            PLANE, 0.5,
            [FlowState(ChartPoint(0.0, 0.0), np.array([0.0, 0.0]))],
            period_cap=1.0, tol=1e-6)


@pytest.mark.parametrize("E_mech, period_cap, tol, dt", [
    (0.5, 1.0, math.nan, 1e-3),       # `closure >= nan` never rejects
    (0.5, 1.0, 1e-6, math.inf),       # zero steps: silently no candidate
    (math.nan, 1.0, 1e-6, 1e-3),
    (0.5, 1.0, 1e-6, math.nan),
    (0.5, math.inf, 1e-6, 1e-3),
], ids=["tol_nan", "dt_inf", "E_mech_nan", "dt_nan", "period_cap_inf"])
def test_shooting_rejects_non_finite_inputs(E_mech, period_cap, tol, dt):
    seeds = [FlowState(ChartPoint(0.0, 0.0), np.array([1.0, 0.0]))]
    with pytest.raises(InvalidOracleInput):
        shooting_periodic(PLANE, E_mech, seeds, period_cap=period_cap,
                          tol=tol, dt=dt)


def test_shooting_rejects_a_search_over_the_step_bound(monkeypatch):
    # period_cap / dt = 6e8 RK4 steps per return search; refused before any
    # integration
    def no_step(*args):
        raise AssertionError("integrated before the bound was checked")

    monkeypatch.setattr(oracle, "_rk4", no_step)
    seeds = [FlowState(ChartPoint(0.0, 0.5), np.array([1.0, 0.0]))]
    spec = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1)
    with pytest.raises(InvalidOracleInput, match="exceeds"):
        shooting_periodic(spec, 0.01, seeds, period_cap=0.6, tol=1e-8,
                          dt=1e-9)
    assert 0.6 / 1e-9 > oracle.MAX_RETURN_STEPS >= 2.0 / 1e-3


def test_torus_candidate_matches_local_larmor(torus_cross):
    # near the field maximum the orbit is close to a circle of period
    # 2 pi / B_max = 1/3
    cands = torus_cross["candidates"]
    assert len(cands) == 1
    cand = cands[0]
    assert abs(cand.period - 1.0 / 3.0) < 1e-2
    assert cand.closure_residual < 1e-8
    spec = torus_cross["spec"]
    loop = orbit_to_loop(spec, cand, 256)
    assert not np.any(loop.windings)
    assert speed_cv(spec, loop) < 1e-3
    speed = math.sqrt(2.0 * cand.energy_mech)
    assert abs(length(spec, loop) - cand.period * speed) < 1e-3


def test_shooting_newton_keeps_its_best_iterate(criterion10_seeds,
                                                monkeypatch):
    # The finite-difference Jacobian is noisier than the 1e-12 gap test, so
    # the Newton iteration rarely stops on it.  Stopping at the first step
    # that does not shrink the return gap keeps the best launch: every seed
    # closes far below tol, in 46 return searches.  Running all the
    # iterations and keeping the last iterate takes 148 searches and leaves
    # two of the four seeds above tol.
    returns = 0
    before_dedup = []
    first_return, dedup = oracle._first_return, oracle._dedup_candidates

    def counted_return(*args):
        nonlocal returns
        returns += 1
        return first_return(*args)

    def recorded_dedup(spec, candidates):
        before_dedup.extend(candidates)
        return dedup(spec, candidates)

    monkeypatch.setattr(oracle, "_first_return", counted_return)
    monkeypatch.setattr(oracle, "_dedup_candidates", recorded_dedup)
    shooting_periodic(SINE_TORUS, 0.01, criterion10_seeds, period_cap=0.6,
                      tol=1e-8, dt=1e-3)
    assert len(before_dedup) == len(criterion10_seeds)
    assert all(c.closure_residual < 1e-10 for c in before_dedup)
    assert returns <= 60


_HALF_WRAP = st.builds(
    lambda n, side, eps: n + side * 0.5 + eps,
    st.integers(-3, 3), st.sampled_from([-1.0, 1.0]),
    st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9)))


@given(spec=st.sampled_from([PLANE, SINE_TORUS]),
       base=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       offset=st.tuples(_HALF_WRAP, _HALF_WRAP),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_section_offset_matches_the_array_form(spec, base, offset, angle):
    # points straddling the +-0.5 wrap, where the nearest lattice translate
    # switches (exact halves round to even, as np.round does)
    p_base = np.array(base)
    point = p_base + np.array(offset)
    nhat = np.array([math.cos(angle), math.sin(angle)])
    dx, dy = (point - p_base).tolist()
    nx, ny = nhat.tolist()
    gap = torus_gap(spec, point - p_base)
    got = oracle._section_offset(spec, dx, dy, nx, ny)
    want = float(gap @ nhat)
    wx, wy = gap.tolist()
    assert abs(got - want) <= 4.0 * np.spacing(abs(wx * nx) + abs(wy * ny))


def test_shooting_on_the_conformal_torus(criterion10_seeds):
    spec = GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=3.0, k=1,
                        u_amp=0.2)
    cands = shooting_periodic(spec, 0.01, criterion10_seeds, period_cap=0.6,
                              tol=1e-8, dt=1e-3)
    period = 0.4973575422
    found = [c for c in cands if abs(c.period - period) < 1e-6 * period]
    assert found
    for cand in found:
        assert cand.closure_residual < 1e-8
        loop = orbit_to_loop(spec, cand, 256)
        assert el_residual_SE(spec, loop, 0.02).max_res < 1e-2


def _larmor_candidate(phase, speed=1.0):
    # the clockwise circle of radius `speed` about (0, -1) in the unit plane
    # field, entered at angle `phase` past its top; period 2 pi at any speed
    p = ChartPoint(speed * math.sin(phase), -1.0 + speed * math.cos(phase))
    v = speed * np.array([math.cos(phase), -math.sin(phase)])
    return oracle.OrbitCandidate(
        state=FlowState(p, v), period=2.0 * math.pi, closure_residual=0.0,
        energy_mech=0.5 * speed * speed, energy_match=speed * speed)


def _aligned_samples(spec, a, b):
    pa, pb = (integrate_flow(spec, c.state, c.period,
                             oracle._DEDUP_PROBE)[:-1, :2] for c in (a, b))
    return pa, pb + (pa.mean(axis=0) - pb.mean(axis=0))


def test_dedup_merges_phases_further_apart_than_the_tolerance():
    # half a probe spacing apart in phase, the vertices of one sampling sit
    # 0.012 from those of the other, but only 7.5e-5 from its chords
    a = _larmor_candidate(0.0)
    b = _larmor_candidate(math.pi / oracle._DEDUP_PROBE)
    pa, pb = _aligned_samples(PLANE, a, b)
    assert oracle._vertex_gap(PLANE, pa, pb) >= oracle._DEDUP_TOL
    assert max(oracle._polyline_gap(PLANE, pa, pb),
               oracle._polyline_gap(PLANE, pb, pa)) < oracle._DEDUP_TOL
    assert oracle._dedup_candidates(PLANE, [a, b]) == [a]


def test_dedup_keeps_circles_of_different_radius():
    a, b = _larmor_candidate(0.0), _larmor_candidate(0.0, speed=1.5)
    assert oracle._dedup_candidates(PLANE, [a, b]) == [a, b]


def test_dedup_vertex_screen_merges_the_criterion10_translates(
        criterion10_seeds, monkeypatch):
    # the four seeds close on y-translates of one orbit, sampled at phases
    # whose vertices lie within the tolerance of each other
    before_dedup = []
    dedup = oracle._dedup_candidates

    def recorded_dedup(spec, candidates):
        before_dedup.extend(candidates)
        return dedup(spec, candidates)

    monkeypatch.setattr(oracle, "_dedup_candidates", recorded_dedup)
    kept = shooting_periodic(SINE_TORUS, 0.01, criterion10_seeds,
                             period_cap=0.6, tol=1e-8, dt=1e-3)
    assert len(before_dedup) == 4 and kept == before_dedup[:1]
    for other in before_dedup[1:]:
        pa, pb = _aligned_samples(SINE_TORUS, before_dedup[0], other)
        assert oracle._vertex_gap(SINE_TORUS, pa, pb) < oracle._DEDUP_TOL


def test_shooting_blow_up_is_not_invalid_input():
    # a field that passes the amplitude check throws the orbit to infinity
    # in the first return search: a plain ValueError, as in integrate_flow
    spec = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=1e300, k=1)
    seeds = [FlowState(ChartPoint(0.0, 0.5), np.array([1.0, 0.0]))]
    with pytest.raises(ValueError, match="v must be finite") as info:
        shooting_periodic(spec, 0.5, seeds, period_cap=1.0, tol=1e-8)
    assert not isinstance(info.value, InvalidOracleInput)
