"""Reference-value generators: closed forms, circle scans, shooting."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magloop import (ChartPoint, FlowState, GeometryKind, GeometrySpec, Loop,
                     action_S, el_residual_SE, fd_gradient, grad_action,
                     integrate_flow, larmor_orbit, length, make_circle,
                     orbit_to_loop, shooting_periodic, speed_cv)
from magloop import dynamics, oracle
from magloop.action import ActionParams
from magloop.dynamics import _norm_sq
from magloop.errors import InvalidOracleInput
from magloop.geometry import (_build_step, conformal_exponent, potential_eval,
                              torus_gap)

PLANE = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0)
SINE_TORUS = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1)
CONFORMAL_TORUS = GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=3.0, k=1,
                               u_amp=0.2)


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


@pytest.mark.parametrize("E, B", [(1.0, 1.0), (2.0, -0.5)])
def test_regular_ngon_maximizes_the_discrete_circle_scan(E, B):
    # over regular n-gons about the origin, traversed so that the flux lowers
    # the action, the discrete S_E peaks at r* = sqrt(E) / (|B| cos(pi/n))
    # with value E n tan(pi/n) / |B|
    n = 256
    spec = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=B)
    orientation = -1 if B > 0 else 1
    r_star = math.sqrt(E) / (abs(B) * math.cos(math.pi / n))
    # the grid holds sqrt(E)/|B| but not r*, so the maximum is unique
    grid = np.append(np.linspace(0.0, 2.0 * math.sqrt(E) / abs(B), 81),
                     r_star)
    vals = np.array([action_S(spec, make_circle((0.0, 0.0), float(r),
                                                orientation, n), E)
                     for r in grid])
    expect = E * n * math.tan(math.pi / n) / abs(B)
    assert vals[-1] == pytest.approx(expect, rel=1e-12)
    assert int(np.argmax(vals)) == len(grid) - 1


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


@pytest.mark.parametrize("spec", [
    GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1),
    GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=3.0, k=1, u_amp=0.2)],
    ids=["flat", "conformal"])
def test_shooting_rejects_a_seed_whose_speed_overflows(spec):
    # g(v, v) of a finite seed overflows a float: refused as bad input, with
    # no numpy overflow warning on the way
    seeds = [FlowState(ChartPoint(0.1, 0.2), np.array([1e200, 0.0]))]
    with pytest.raises(InvalidOracleInput, match="finite"):
        shooting_periodic(spec, 0.01, seeds, 0.6, 1e-8)


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

    monkeypatch.setattr(oracle, "_build_step", lambda spec: no_step)
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


def _counted_shooting(seeds, tol, monkeypatch, spec=SINE_TORUS):
    """Criterion 10's search at tol, on the sine torus unless spec is
    given: (return searches, kept candidates)."""
    returns = 0
    first_return = oracle._first_return

    def counted_return(*args):
        nonlocal returns
        returns += 1
        return first_return(*args)

    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_first_return", counted_return)
        kept = shooting_periodic(spec, 0.01, seeds, period_cap=0.6,
                                 tol=tol, dt=1e-3)
    return returns, kept


def _shot_alone(seeds, tol, monkeypatch, spec=SINE_TORUS):
    """Each seed of _counted_shooting's search shot on its own, a grid
    with nothing to merge, so its polish runs to the end: (return searches
    per seed, candidates in seed order)."""
    counts, cands = [], []
    for seed in seeds:
        returns, kept = _counted_shooting([seed], tol, monkeypatch, spec)
        counts.append(returns)
        cands.extend(kept)
    return counts, cands


def _bits(cands):
    """Every float of each candidate, as hex: equal lists are bit-equal."""
    return [tuple(float(v).hex() for v in (
        c.period, c.closure_residual, c.energy_mech, c.energy_match,
        c.state.p.x, c.state.p.y, *c.state.v)) for c in cands]


def _polyline_gap(spec, P, Q):
    """Max over the points of P of the exact distance to the closed polyline
    Q.  On a torus each edge (the closing edge Q[-1] -> Q[0] too) is its
    nearest translate, which lies in [-1/2, 1/2]^2 from its start, and a
    point's nearest translate to it is one of the nine within one period of
    the point's translate nearest to that start."""
    edges = torus_gap(spec, np.roll(Q, -1, axis=0) - Q)[:, None, :]
    diff = torus_gap(spec, P[:, None, :] - Q[None, :, :])[:, :, None, :]
    if spec.is_torus:
        diff = diff + np.array([(i, j) for i in (-1, 0, 1)
                                for j in (-1, 0, 1)])
    denom = np.maximum((edges * edges).sum(axis=-1), 1e-300)
    t = np.clip((diff * edges).sum(axis=-1) / denom, 0.0, 1.0)
    foot = diff - t[..., None] * edges
    return float(np.sqrt((foot * foot).sum(axis=-1)).min(axis=(1, 2)).max())


def _reference_gap(spec, P, Q):
    """The symmetric point-to-polyline distance of two samplings."""
    return max(_polyline_gap(spec, P, Q), _polyline_gap(spec, Q, P))


def _reference_center(spec, traj):
    """Centroid of the samples traj[:-1] of an orbit integrated over its
    period, phase-free on an orbit that drifts by a lattice vector W: the
    samples less the drift (j / n) W, and less (angle / 2 pi) W, the angle
    that of the DFT's first coefficient of the detrended x samples, which
    turns with the starting phase as the detrended centroid moves."""
    pts = traj[:-1, :2]
    w = np.round(traj[-1, :2] - traj[0, :2]) if spec.is_torus else 0.0 * pts[0]
    if not w.any():
        return pts.mean(axis=0)
    q = pts - np.arange(len(pts))[:, None] / len(pts) * w
    return q.mean(axis=0) - np.angle(np.fft.fft(q[:, 0])[1]) / (2 * np.pi) * w


# samples per orbit of the reference duplicate test
_REFERENCE_PROBE = 256


def _direction(traj):
    """The traversal direction of an orbit integrated over its period: its
    drift W, and for W = 0 the sign of its signed area (shoelace)."""
    w = np.round(traj[-1, :2] - traj[0, :2])
    if w.any():
        return tuple(w.tolist())
    x, y = traj[:-1, 0], traj[:-1, 1]
    return float(np.sign(x @ np.roll(y, -1) - y @ np.roll(x, -1)))


def _reference_dedup(spec, candidates):
    """The geometric list pass over finished candidates, kept as the
    reference for shooting's kept list: two orbits of one traversal
    direction (equal drift W, and for W = 0 the same sign of the signed
    area) are the same when their periods are within 5% and their samples,
    aligned by the phase-free centers (in y alone on a torus), lie within
    _DEDUP_TOL of each other's polylines."""
    kept = []
    samples = []
    for cand in candidates:
        traj = integrate_flow(spec, cand.state, cand.period,
                              _REFERENCE_PROBE)
        pts, center = traj[:-1, :2], _reference_center(spec, traj)
        direction = _direction(traj)
        duplicate = False
        for other, (opts, ocenter, odirection) in zip(kept, samples):
            if abs(cand.period - other.period) > 0.05 * max(cand.period,
                                                            other.period):
                continue
            if direction != odirection:
                continue
            shift_mean = center - ocenter
            if spec.is_torus:
                shift_mean[0] = 0.0
            aligned = opts + shift_mean
            if _reference_gap(spec, pts, aligned) < oracle._DEDUP_TOL:
                duplicate = True
                break
        if not duplicate:
            kept.append(cand)
            samples.append((pts, center, direction))
    return kept


def test_shooting_newton_keeps_its_best_iterate(criterion10_seeds,
                                                monkeypatch):
    # The Jacobian of the return map comes from the search's own RK4 steps,
    # so each Newton step costs one return search and the gap falls
    # quadratically: shot alone, the seeds take 2, 3, 4 and 3 steps to a
    # gap below tol/100, in 16 searches.  The polish also stops at the
    # first step that does not shrink the gap, keeping the best launch.
    # Every seed closes at the RK4 energy floor, far below tol.  In one
    # grid the last three seeds stop once they reach the first one's orbit,
    # so the grid takes 11 searches and keeps the first seed's candidate,
    # the one the reference list pass keeps from the finished candidates.
    counts, alone = _shot_alone(criterion10_seeds, 1e-8, monkeypatch)
    assert len(alone) == len(criterion10_seeds)
    assert all(c.closure_residual < 1e-10 for c in alone)
    assert counts == [3, 4, 5, 4]
    assert [(c.period.hex(), c.closure_residual.hex()) for c in alone] == [
        ("0x1.5585f07b8b5c3p-2", "0x1.03401f8a460f7p-36"),
        ("0x1.5585f07b84036p-2", "0x1.17808b8fbdb77p-36"),
        ("0x1.5585f07b8e0e0p-2", "0x1.019330a48df20p-36"),
        ("0x1.5585f07b8e1fdp-2", "0x1.0193373305650p-36"),
    ]
    returns, kept = _counted_shooting(criterion10_seeds, 1e-8, monkeypatch)
    assert returns == 11
    assert _bits(kept) == _bits(alone[:1])
    assert _bits(kept) == _bits(_reference_dedup(SINE_TORUS, alone))


def test_shooting_stops_the_polish_at_a_hundredth_of_a_loose_tol(
        criterion10_seeds, monkeypatch):
    # the polish stops below tol/100: at tol = 1e-4 three seeds stop one
    # step earlier, and each candidate still closes below the caller's tol
    # on the same orbit
    tight, _ = _shot_alone(criterion10_seeds, 1e-8, monkeypatch)
    loose, alone = _shot_alone(criterion10_seeds, 1e-4, monkeypatch)
    assert sum(loose) < sum(tight)
    assert len(alone) == len(criterion10_seeds)
    assert all(c.closure_residual < 1e-4 for c in alone)
    _, kept = _counted_shooting(criterion10_seeds, 1e-4, monkeypatch)
    assert len(kept) == 1
    assert abs(kept[0].period - 0.3335187507) <= 1e-6 * 0.3335187507


def _return_gap(spec, seed, u, E_mech=0.01, dt=1e-3):
    """shooting_periodic's return gap at the section unknowns u = (offset
    along the section, launch angle), written out as the reference."""
    y0 = oracle._normalize_state(spec, seed, E_mech)
    p_base, nhat = y0[:2], y0[2:] / np.linalg.norm(y0[2:])
    mhat = np.array([-nhat[1], nhat[0]])
    pos = p_base + u[0] * mhat
    vdir = np.array([math.cos(u[1]), math.sin(u[1])])
    vel = vdir * (math.sqrt(2.0 * E_mech) / math.sqrt(_norm_sq(spec, pos,
                                                                 vdir)))
    y = oracle._first_return(spec, np.concatenate([pos, vel]), p_base, nhat,
                             dt, 0.6)[1]
    dphi = math.atan2(y[3], y[2]) - u[1]
    return np.array([torus_gap(spec, y[:2] - p_base) @ mhat - u[0],
                     (dphi + math.pi) % (2.0 * math.pi) - math.pi])


@pytest.mark.parametrize("spec", [SINE_TORUS, CONFORMAL_TORUS],
                         ids=lambda s: s.kind.value)
def test_return_map_jacobian_matches_fd_of_the_return_gap(
        spec, criterion10_seeds, monkeypatch):
    # the first Newton step's Jacobian, at criterion 10's first launch, is
    # the one its least-squares solve receives
    seed = criterion10_seeds[0]
    solves = []
    lstsq = np.linalg.lstsq

    def recorded_lstsq(a, b, rcond):
        solves.append(a)
        return lstsq(a, b, rcond=rcond)

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "lstsq", recorded_lstsq)
        shooting_periodic(spec, 0.01, [seed], period_cap=0.6, tol=1e-8)
    u = np.array([0.0, math.atan2(seed.v[1], seed.v[0])])
    h = 1e-5  # the gap rounds at about 1e-13, so smaller steps are noise
    fd = np.stack([(_return_gap(spec, seed, u + e) - _return_gap(spec, seed,
                                                                 u - e))
                   / (2.0 * h) for e in (h * np.eye(2))], axis=1)
    assert np.abs(solves[0] - fd).max() <= 1e-7 * np.abs(fd).max()


@pytest.mark.parametrize("angle", [0.0, 2.0, 4.5])
def test_crossing_time_is_the_bisected_root(angle):
    # the Larmor circle through the origin returns to it after 2 pi, where
    # the section offset rounds at the scale of one step, |p| ~ dt, fine
    # enough to pin the crossing time; the reference bisects the sign change
    # of the offset over the last step down to adjacent floats
    dt = 1e-3
    y0 = np.array([0.0, 0.0, math.cos(angle), math.sin(angle)])
    nhat = y0[2:]
    t, y, starts, tau = oracle._first_return(PLANE, y0, y0[:2], nhat, dt,
                                             7.0)
    step = _build_step(PLANE)

    def offset(s):
        z = step(*starts[-1], s)
        return oracle._section_offset(PLANE, z[0], z[1], *nhat.tolist())

    lo, hi = 0.0, dt
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if offset(mid) < 0.0 else (lo, mid)
    assert abs(t - 2.0 * math.pi) < 1e-9
    # counted from the steps: a running sum of dt drifts 4.3e-13 from this
    # over the 6,283 steps
    assert t == (len(starts) - 1) * dt + tau
    assert abs(tau - lo) <= 1e-15 * dt
    assert np.array_equal(y, step(*starts[-1], tau))
    assert abs(offset(tau)) <= 4.0 * np.spacing(dt)


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


@pytest.mark.parametrize("n", [
    0, 2, 3.5, "4", oracle.MAX_RETURN_STEPS // oracle._LOOP_OVERSAMPLE + 1])
def test_orbit_to_loop_refuses_a_bad_size(n, monkeypatch):
    # one check, named for n: not an integer >= 3, or more than the RK4
    # step bound in its 8 n steps; refused before any step is taken
    def no_step(*args):
        raise AssertionError("integrated before n was checked")

    cand = _larmor_candidate(0.0)
    assert orbit_to_loop(PLANE, cand, 3).n == 3
    monkeypatch.setattr(dynamics, "_build_step", lambda spec: no_step)
    with pytest.raises(InvalidOracleInput, match=r"^n "):
        orbit_to_loop(PLANE, cand, n)


def _search(spec, cand, dt):
    """The return search from a candidate's launch state, through the
    section normal to its velocity, at step dt."""
    y0 = cand.state.as_array()
    nhat = y0[2:] / np.linalg.norm(y0[2:])
    return oracle._first_return(spec, y0, y0[:2], nhat, dt,
                                1.5 * cand.period)


def _dedup(spec, candidates, dt=1e-3):
    """shooting_periodic's kept list for finished candidates in this
    order, each tested, by the signature of its own return search at step
    dt, against those kept before it."""
    kept = []
    for cand in candidates:
        sig = oracle._dedup_candidates(spec, _search(spec, cand, dt), kept)
        if sig is not None:
            kept.append((cand, sig))
    return [cand for cand, _ in kept]


def test_dedup_merges_phases_further_apart_than_the_tolerance():
    # launched 0.012 apart along one Larmor circle (half the spacing of 256
    # samples), far more than the merge distance: one orbit
    a = _larmor_candidate(0.0)
    b = _larmor_candidate(math.pi / 256)
    assert _dedup(PLANE, [a, b]) == [a]


def test_dedup_keeps_circles_of_different_radius():
    a, b = _larmor_candidate(0.0), _larmor_candidate(0.0, speed=1.5)
    assert _dedup(PLANE, [a, b]) == [a, b]


@pytest.mark.parametrize("dt", [0.05, 0.1, 0.2])
def test_plane_shoot_keeps_one_orbit_at_coarse_steps(dt):
    # `magloop oracle shoot --kind plane_constant_B --B 1 --E-mech 0.5
    # --period-cap 7 --tol 1e-3 --seeds 4 --seed 7`: four seeds on one
    # Larmor circle, whose return searches take 126 to 32 steps; read at
    # the step starts alone, the 256 samples would bunch in runs of 2 to 8
    # and keep phases of the one orbit apart
    rng = np.random.default_rng(7)
    seeds = []
    for _ in range(4):
        p = ChartPoint(float(rng.uniform(-0.2, 0.2)),
                       float(rng.uniform(-0.2, 0.2)) + 0.5)
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        seeds.append(FlowState(p, np.array([math.cos(ang), math.sin(ang)])))
    kept = shooting_periodic(PLANE, 0.5, seeds, period_cap=7.0, tol=1e-3,
                             dt=dt)
    assert len(kept) == 1
    assert abs(kept[0].period - 2.0 * math.pi) < 1e-4


def test_first_return_passes_over_the_torus_wrap():
    # the launch below reaches a point half a period from the base after
    # 0.364, where the wrapped section offset jumps from -0.16 to +0.34
    # between two steps; that jump is not a crossing, and the search goes
    # on to the orbit's true return
    seed = FlowState(ChartPoint(0.0061768287842781655, 0.721165786116842),
                     np.array([math.cos(4.251231222230473),
                               math.sin(4.251231222230473)]))
    y0 = oracle._normalize_state(SINE_TORUS, seed, 2.0)
    nhat = y0[2:] / np.linalg.norm(y0[2:])
    t, y, _, _ = oracle._first_return(SINE_TORUS, y0, y0[:2], nhat, 1e-3,
                                      3.0)
    offset = oracle._section_offset(SINE_TORUS, y[0] - y0[0], y[1] - y0[1],
                                    *nhat.tolist())
    assert abs(offset) < 1e-9
    assert t > 0.364


def test_dedup_merges_the_criterion10_translates(criterion10_seeds,
                                                 monkeypatch):
    # the four seeds close on y-translates of one orbit.  The grid merges
    # the last three seeds' Newton iterates once their return gap is below
    # _DEDUP_TOL / 10 (p_y 1.9e-5 to 8.3e-4 from the kept orbit's, inside
    # the chart's p_y tolerance 0.019), and their finished candidates, each
    # shot alone, would merge too.
    _, alone = _shot_alone(criterion10_seeds, 1e-8, monkeypatch)
    merges = []
    dedup = oracle._dedup_candidates

    def recorded_dedup(*args):
        sig = dedup(*args)
        merges.append(sig is None)
        return sig

    monkeypatch.setattr(oracle, "_dedup_candidates", recorded_dedup)
    kept = shooting_periodic(SINE_TORUS, 0.01, criterion10_seeds,
                             period_cap=0.6, tol=1e-8, dt=1e-3)
    assert _bits(kept) == _bits(alone[:1])
    assert merges == [False, True, True, True]
    assert _dedup(SINE_TORUS, alone) == alone[:1]


def test_dedup_merges_two_samplings_of_a_wound_orbit():
    # both seeds close on one orbit of winding (-1, 0).  Once its return
    # gap is below _DEDUP_TOL / 10, the second seed's iterate has the same
    # drift and a p_y 1.6e-4 from the first orbit's (tolerance 5.1e-3);
    # the orbit winds in x, so its x-interval, a whole period wide, is not
    # compared.
    spec = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=0.5, k=1)
    seeds = [FlowState(ChartPoint(x, y), np.array([math.cos(ang),
                                                   math.sin(ang)]))
             for x, y, ang in [
                 (0.030175128189566275, 0.6244780553223366,
                  3.0128874021832446),
                 (0.19951347225902766, 0.49602823357187836,
                  -2.600099227553413)]]
    kept = shooting_periodic(spec, 2.0, seeds, period_cap=1.0, tol=1e-6,
                             dt=2e-3)
    assert len(kept) == 1


# The orbit of period 0.729207 and winding (-1, -1) that `magloop oracle
# shoot --kind flat_torus_sine --a 0.5 --k 1 --E-mech 2.0 --period-cap 1
# --tol 1e-6 --dt 2e-3 --seeds 6 --seed 2` keeps, as its launch state.
_WOUND_SPEC = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=0.5, k=1)
_WOUND_ORBIT = oracle.OrbitCandidate(
    state=FlowState(ChartPoint(0.1551092415419873, 0.641428284177559),
                    np.array([-1.0544480131071403, -1.6994526729669186])),
    period=0.7292067423578289, closure_residual=0.0, energy_mech=2.0,
    energy_match=4.0)


@pytest.mark.parametrize("phase", [1.0 / 3.0, 0.5, 0.77])
def test_dedup_merges_relaunched_phases_of_an_orbit_that_winds_in_y(phase):
    # relaunched a fraction of its period later, the orbit's samples have a
    # centroid 0.33 (phase 1/3) further along its drift W = (-1, -1), which
    # a plain centroid alignment of point sets mistakes for another orbit.
    # Its drift and p_y are the same at every phase, and the reference's
    # phase-free center merges it too; so is the orbit's y-translate, an
    # orbit of the field's y-symmetry.
    spec, orbit = _WOUND_SPEC, _WOUND_ORBIT
    traj = integrate_flow(spec, orbit.state, orbit.period, 1000)
    assert np.array_equal(np.round(traj[-1, :2] - traj[0, :2]), [-1.0, -1.0])
    later = integrate_flow(spec, orbit.state, phase * orbit.period, 1000)[-1]
    relaunched = oracle.OrbitCandidate(
        state=oracle._row_state(later), period=orbit.period,
        closure_residual=0.0, energy_mech=2.0, energy_match=4.0)
    r0, r1 = (_search(spec, c, 2e-3) for c in (orbit, relaunched))
    assert abs(r1[0] - orbit.period) < 1e-9
    assert _dedup(spec, [orbit, relaunched], dt=2e-3) == [orbit]
    assert _reference_dedup(spec, [orbit, relaunched]) == [orbit]
    shifted = oracle.OrbitCandidate(
        state=FlowState(ChartPoint(orbit.state.p.x, orbit.state.p.y + 0.25),
                        orbit.state.v), period=orbit.period,
        closure_residual=0.0, energy_mech=2.0, energy_match=4.0)
    assert _dedup(spec, [orbit, shifted], dt=2e-3) == [orbit]


def _momentum(spec, traj):
    """p_y = exp(2u) v_y + Phi(x) of trajectory rows (x, y, vx, vy)."""
    lam = np.exp(2.0 * conformal_exponent(spec, traj[:, :2])[0])
    return lam * traj[:, 3] + potential_eval(spec, traj[:, :2])


@pytest.mark.parametrize("spec, bound", [
    (PLANE, 1e-13),
    (_WOUND_SPEC, 1e-9),
    (GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=0.5, k=1, u_amp=0.2), 1e-8),
], ids=["plane", "flat", "conformal"])
def test_flow_conserves_the_momentum_p_y(spec, bound):
    # y is cyclic on every chart, so p_y is a first integral, the one the
    # duplicate test of shot orbits reads.  Eight launches at E_mech 2,
    # most of them winding, over T = 1 at dt 2e-3: on the plane p_y = v_y
    # + B x is linear in the state, which RK4 keeps to rounding; on the
    # tori the drift (2.3e-10 flat, 1.9e-9 conformal) is RK4's, and falls
    # about 16-fold as dt halves.
    p = ChartPoint(0.1, 0.5)
    speed = 2.0 / math.exp(float(conformal_exponent(spec, p)[0]))
    drift = []
    for steps in (500, 1000):
        worst = 0.0
        for ang in 0.3 + np.arange(8) * (2.0 * math.pi / 8):
            v = speed * np.array([math.cos(ang), math.sin(ang)])
            p_y = _momentum(spec, integrate_flow(spec, FlowState(p, v), 1.0,
                                                 steps))
            worst = max(worst, float(np.abs(p_y - p_y[0]).max()))
        drift.append(worst)
    assert drift[0] <= bound
    if spec.is_torus:
        assert drift[1] < drift[0] / 10.0


def _shoot_seeds(count, seed):
    """The seed states of `magloop oracle shoot --seeds count --seed seed`
    about its default launch point (0, 0.5)."""
    rng = np.random.default_rng(seed)
    seeds = []
    for _ in range(count):
        p = ChartPoint(float(rng.uniform(-0.2, 0.2)),
                       float(rng.uniform(-0.2, 0.2)) + 0.5)
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        seeds.append(FlowState(p, np.array([math.cos(ang), math.sin(ang)])))
    return seeds


def test_dedup_keeps_both_traversals_of_a_line():
    # `magloop oracle shoot --kind flat_torus_sine --a 0.5 --k 1 --E-mech 2
    # --period-cap 1 --tol 1e-6 --dt 2e-3 --seeds 8 --seed 6` keeps five
    # orbits.  Two of them run along the line x = -0.25, where the field
    # vanishes, in opposite directions: vy = +-2, p_y 1.5 and -2.5, drift
    # (0, +-1).  One point set, two orbits; a reference blind to the
    # direction merged them and kept four.
    seeds = _shoot_seeds(8, 6)
    kept = shooting_periodic(_WOUND_SPEC, 2.0, seeds, period_cap=1.0,
                             tol=1e-6, dt=2e-3)
    alone = [c for seed in seeds for c in shooting_periodic(
        _WOUND_SPEC, 2.0, [seed], period_cap=1.0, tol=1e-6, dt=2e-3)]
    assert len(kept) == 5
    assert _bits(kept) == _bits(_reference_dedup(_WOUND_SPEC, alone))
    line = [c for c in kept if abs(c.state.p.x + 0.25) < 1e-6]
    assert sorted(round(float(c.state.v[1])) for c in line) == [-2, 2]


@pytest.mark.parametrize("spec", [SINE_TORUS, CONFORMAL_TORUS],
                         ids=lambda s: s.kind.value)
def test_distinct_orbits_survive_the_early_merge(spec, monkeypatch):
    # seeds alternate between x near 0 and near 0.5, where the field has
    # the same size and the other sign: two orbits of one period, which the
    # period prefilter passes to the point-set test.  The later seeds stop
    # early on their own orbit, not on the other one, and every kept
    # candidate is bit-equal to its seed shot alone.
    rng = np.random.default_rng(7)
    seeds = []
    for i in range(4):
        p = ChartPoint(0.5 * (i % 2) + float(rng.uniform(-0.04, 0.04)),
                       float(rng.uniform(0.0, 1.0)))
        ang = float(rng.uniform(0.0, 2.0 * np.pi))
        seeds.append(FlowState(p, np.array([np.cos(ang), np.sin(ang)])))
    counts, alone = _shot_alone(seeds, 1e-8, monkeypatch, spec)
    returns, kept = _counted_shooting(seeds, 1e-8, monkeypatch, spec)
    assert returns < sum(counts)  # the early merge stopped some seeds
    assert len(alone) == 4 and len(kept) == 2
    assert _bits(kept) == _bits(alone[:2])
    assert _bits(kept) == _bits(_reference_dedup(spec, alone))


def test_shooting_blow_up_is_not_invalid_input():
    # a field that passes the amplitude check throws the orbit to infinity
    # in the first return search: a plain ValueError, as in integrate_flow
    spec = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=1e300, k=1)
    seeds = [FlowState(ChartPoint(0.0, 0.5), np.array([1.0, 0.0]))]
    with pytest.raises(ValueError, match="v must be finite") as info:
        shooting_periodic(spec, 0.5, seeds, period_cap=1.0, tol=1e-8)
    assert not isinstance(info.value, InvalidOracleInput)
