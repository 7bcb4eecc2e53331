"""Minimax engine: saddle location, level semantics, family construction."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from magloop import (DescentSettings, GeometryKind, GeometrySpec, Loop,
                     Schedule, action_S, action_S_eps_tau, continuation_run,
                     init_sweep_family, length, make_circle, make_point_loop,
                     speed_cv)
from magloop import cli, minimax
from magloop.action import (ActionParams, grad_action, grad_norm, row_values,
                            values)
from magloop.errors import NoNegativeLoopFound
from magloop.loops import interpolate
from magloop.minimax import (_PLATEAU_SWEEPS, _bounded_min, _descend,
                             _engine, _fd_hessian, _reinterp_row,
                             _saddle_refine, _segment_polish)
from test_geometry import ALL_SPECS

PLANE = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0)
PLANE_B2 = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=2.0)


def test_settings_validation():
    with pytest.raises(ValueError):
        DescentSettings(max_iters=0)
    with pytest.raises(ValueError):
        DescentSettings(grad_tol=0.0)


def test_init_sweep_family_validates_its_sizes():
    with pytest.raises(ValueError, match="family size"):
        init_sweep_family(PLANE, 1.0, "path", 2, 48)
    with pytest.raises(ValueError, match="m_p"):
        init_sweep_family(PLANE, 1.0, "cylinder", 9, 48, m_p=0)


def test_descend_decreases_value_and_shrinks_subcritical_circle():
    # below the barrier the only way down is collapse toward a point
    params = ActionParams(E=1.0, eps=1e-2)
    start = make_circle((0.0, 0.0), 0.5, -1, 64)
    val = action_S_eps_tau(PLANE, start, params)
    out, out_val = _descend(PLANE, start, params, DescentSettings(), 400,
                            val)
    assert out_val == action_S_eps_tau(PLANE, out, params) < val
    assert length(PLANE, out) < 0.2 * length(PLANE, start)


def test_descend_returns_a_critical_loop_unchanged():
    # the discrete stationary circle of S_E meets grad_tol, so descent takes
    # no step and hands back the very loop and value
    params = ActionParams(E=1.0)
    n = 64
    circle = make_circle((0.0, 0.0), 1.0 / math.cos(math.pi / n), -1, n)
    val = action_S_eps_tau(PLANE, circle, params)
    out, out_val = _descend(PLANE, circle, params, DescentSettings(), 400,
                            val)
    assert out is circle and out_val == val


def test_descend_returns_the_value_of_its_loop():
    # the engine keeps the value _descend hands back instead of evaluating
    # the returned loop again, so the two must agree exactly
    params = ActionParams(E=1.0, eps=1e-2, tau=1e-2)
    settings = DescentSettings()
    row = init_sweep_family(PLANE, 1.0, "path", 9, 48).rows[0]
    moved = 0
    for lp in row[1:]:
        val = action_S_eps_tau(PLANE, lp, params)
        out, out_val = _descend(PLANE, lp, params, settings, 2, val)
        assert out_val == action_S_eps_tau(PLANE, out, params)
        assert out_val <= val
        moved += out is not lp
    assert moved > 0


@st.composite
def _stacks(draw):
    spec = draw(st.sampled_from([
        PLANE, GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=2),
        GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=1.0, k=1, u_amp=0.3)]))
    m, n = draw(st.integers(2, 5)), draw(st.integers(3, 12))
    v = draw(arrays(np.float64, (m, n, 2), elements=st.floats(-5.0, 5.0)))
    w = draw(arrays(np.int64, (n, 2), elements=st.integers(-2, 2)))
    w[draw(st.integers(0, n - 1)), draw(st.integers(0, 1))] = \
        draw(st.sampled_from([-1, 1]))
    params = ActionParams(E=draw(st.floats(0.1, 4.0)),
                          eps=draw(st.floats(0.0, 0.5)),
                          tau=draw(st.floats(0.0, 0.9)))
    return spec, v, w, params, draw(st.floats(0.0, 1.0))


def _hex(x):
    return float(x).hex()


@given(case=_stacks())
def test_stacked_values_equal_single_loop_values(case):
    # the value table and the segment polish evaluate raw vertex arrays;
    # each value must be the bits the one-loop functionals give
    spec, v, w, params, t = case
    stacked = values(spec, v, w, params)

    # the engine's table, from the memos of the row's loops: one loop holds
    # another chart's, one this chart's lengths without the circulation, the
    # rest none, so one stacked pass fills them; then all are memoized
    row = [Loop(vk, w) for vk in v]
    action_S_eps_tau(PLANE_B2, row[0], params)
    grad_action(spec, row[-1], params)
    for _ in range(2):
        assert row_values(spec, row, params).tobytes() == stacked.tobytes()

    rows = [Loop(vk, w) for vk in v]
    for k, lp in enumerate(rows):
        assert stacked[k].tobytes() == values(spec, v[k], w, params).tobytes()
        assert _hex(stacked[k]) == _hex(action_S_eps_tau(spec, lp, params))

    # the polish's value of a raw interpolated vertex array
    a, b = rows[0], rows[-1]
    assert _hex(values(spec, (1.0 - t) * v[0] + t * v[-1], w, params)) == \
        _hex(action_S_eps_tau(spec, interpolate(a, b, t), params))

    # the polish, against the same screened search over interpolate's loops
    val = action_S_eps_tau(spec, rows[1], params)
    best_loop, best_val = _reference_polish(spec, rows, 1, params, val,
                                            screen=True)
    loop, pval = _segment_polish(spec, rows, 1, params, val)
    assert _hex(pval) == _hex(best_val)
    assert loop.vertices.tobytes() == best_loop.vertices.tobytes()


def _downhill(spec, row, idx, params):
    """Per segment next to row[idx] (left first), whether the functional
    leaves row[idx] strictly downhill into it."""
    g = grad_action(spec, row[idx], params)
    return [np.vdot(g, row[j].vertices - row[idx].vertices) < 0.0
            for j in (idx - 1, idx + 1) if 0 <= j < len(row)]


def _reference_polish(spec, row, idx, params, val, screen, xatol=None):
    """The segment polish over interpolate's loops: a bounded search on each
    segment next to row[idx], with ``screen`` skipping the downhill ones.
    The search runs to the shipped ``_POLISH_XATOL`` unless ``xatol`` is
    given."""
    if xatol is None:
        xatol = minimax._POLISH_XATOL
    best_loop, best_val = row[idx], val
    segments = [(a, a + 1) for a in (idx - 1, idx) if 0 <= a < len(row) - 1]
    for (a, b), down in zip(segments, _downhill(spec, row, idx, params)):
        if screen and down:
            continue
        la, lb = row[a], row[b]
        x, fun = _bounded_min(
            lambda u: -action_S_eps_tau(spec, interpolate(la, lb, u), params),
            0.0, 1.0, xatol)
        if -fun > best_val:
            best_loop, best_val = interpolate(la, lb, x), float(-fun)
    return best_loop, best_val


@pytest.mark.parametrize("spec, E", [
    (PLANE, 1.0),
    (GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1), 0.02),
    (GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=3.0, k=1, u_amp=0.2), 0.02),
], ids=["plane", "flat_torus", "conformal_torus"])
def test_segment_screen_is_exact_on_real_families(spec, E, monkeypatch):
    # skipping the downhill segments must return the loop and value bits of
    # searching both, at every polish of a real continuation run
    polish = minimax._segment_polish
    skipped = []

    def checked(spec, row, idx, params, val):
        loop, pval = polish(spec, row, idx, params, val)
        ref_loop, ref_val = _reference_polish(spec, row, idx, params, val,
                                              screen=False)
        assert _hex(pval) == _hex(ref_val)
        assert loop.vertices.tobytes() == ref_loop.vertices.tobytes()
        assert np.array_equal(loop.windings, ref_loop.windings)
        skipped.append(sum(_downhill(spec, row, idx, params)))
        return loop, pval

    monkeypatch.setattr(minimax, "_segment_polish", checked)
    schedule = Schedule(eps0=1e-2, tau0=1e-2, rho=0.5, n_steps=3)
    continuation_run(spec, E, init_sweep_family(spec, E, "path", 9, 48),
                     schedule, DescentSettings())
    assert len(skipped) >= 3 and sum(skipped) > 0


# the golden runs of test_cli.py: a plane path, a conformal-torus cylinder
# and a flat-torus path
_GOLDEN_RUNS = [
    (PLANE, 1.0, "path", 48, 3),
    (GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=3.0, k=1, u_amp=0.2), 0.02,
     "cylinder", 64, 2),
    (GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1), 0.02, "path", 48,
     3),
]


@pytest.mark.parametrize("spec, E, shape, n, n_steps", _GOLDEN_RUNS,
                         ids=["plane", "conformal_torus", "flat_torus"])
def test_polish_tolerance_is_below_what_the_level_shows(spec, E, shape, n,
                                                        n_steps, monkeypatch):
    # the shipped search stops at _POLISH_XATOL in t; at every polish of a
    # real run it must give the value of a search to 1e-10 within 1e-12
    # relative, never below the argmax value, and the polished vertices
    # within 1e-7 (these runs read at most 1.1e-13 and 1.2e-8)
    polish = minimax._segment_polish
    improved = []

    def checked(spec, row, idx, params, val):
        loop, pval = polish(spec, row, idx, params, val)
        ref_loop, ref_val = _reference_polish(spec, row, idx, params, val,
                                              screen=True, xatol=1e-10)
        assert pval >= val
        assert abs(pval - ref_val) <= 1e-12 * abs(ref_val)
        assert np.abs(loop.vertices - ref_loop.vertices).max() <= 1e-7
        improved.append(ref_loop is not row[idx])
        return loop, pval

    monkeypatch.setattr(minimax, "_segment_polish", checked)
    schedule = Schedule(eps0=1e-2, tau0=1e-2, rho=0.5, n_steps=n_steps)
    continuation_run(spec, E, init_sweep_family(spec, E, shape, 9, n, m_p=2),
                     schedule, DescentSettings())
    assert len(improved) >= n_steps and any(improved)


def test_segment_polish_searches_a_zero_slope_segment():
    # the one-point loop's gradient is exactly zero, so the slope into its
    # segment is 0: not downhill, and the search finds the bump beyond it
    params = ActionParams()
    row = [make_point_loop((0.0, 0.0), 32), make_circle((0.0, 0.0), 3.0, -1,
                                                        32)]
    val = action_S_eps_tau(PLANE, row[0], params)
    assert val > action_S_eps_tau(PLANE, row[1], params)
    assert not grad_action(PLANE, row[0], params).any()
    assert _downhill(PLANE, row, 0, params) == [False]
    loop, pval = _segment_polish(PLANE, row, 0, params, val)
    ref_loop, ref_val = _reference_polish(PLANE, row, 0, params, val,
                                          screen=False)
    assert pval > 3.0 and _hex(pval) == _hex(ref_val)
    assert loop.vertices.tobytes() == ref_loop.vertices.tobytes()


def test_segment_polish_skips_both_segments_at_a_strict_maximum(monkeypatch):
    # a counterclockwise circle's action grows with its radius and ignores
    # translations, so a circle between two smaller, shifted ones is a
    # strict maximum along both segments: no search runs and the input
    # loop and value come back
    params = ActionParams()
    row = [make_circle((-0.3, 0.0), 0.45, 1, 32),
           make_circle((0.0, 0.0), 0.5, 1, 32),
           make_circle((0.3, 0.1), 0.4, 1, 32)]
    val = action_S_eps_tau(PLANE, row[1], params)
    assert _downhill(PLANE, row, 1, params) == [True, True]
    evaluated = []
    stacked = minimax.values
    monkeypatch.setattr(minimax, "values",
                        lambda *args: evaluated.append(1) or stacked(*args))
    loop, pval = _segment_polish(PLANE, row, 1, params, val)
    assert loop is row[1] and pval == val
    assert evaluated == []


def test_segment_polish_refuses_segments_of_different_windings():
    # the windings check runs before the slope screen, so it raises for a
    # neutral (translated) and for a downhill (shrunk) other end alike
    a = make_circle((0, 0), 1.0, 1, 16)
    w = np.zeros((16, 2), dtype=int)
    w[-1, 0] = 1
    wound = Loop(a.vertices + 0.1, w)
    with pytest.raises(ValueError, match="windings"):
        _segment_polish(PLANE, [a, wound], 0, ActionParams(),
                        action_S_eps_tau(PLANE, a, ActionParams()))
    shrunk = Loop(0.5 * a.vertices, w)
    assert _downhill(PLANE, [a, shrunk], 0, ActionParams()) == [True]
    with pytest.raises(ValueError, match="windings"):
        _segment_polish(PLANE, [a, shrunk], 0, ActionParams(),
                        action_S_eps_tau(PLANE, a, ActionParams()))


def test_plane_larmor_run_evaluates_few_loops(tmp_path, monkeypatch):
    # a counter guard on the polish screen: the value table evaluates its
    # rows through minimax.row_values and the polish its loops through
    # minimax.values (391 loops in all with the screen, 264 of them the
    # tables'), and each step takes the polish's gradient and the
    # certificate's
    counts = {"loops": 0, "grads": 0}
    stacked, table = minimax.values, minimax.row_values
    grad = minimax.grad_action

    def counting_values(spec, v, w, params):
        counts["loops"] += int(np.prod(np.shape(v)[:-2]))
        return stacked(spec, v, w, params)

    def counting_table(spec, row, params):
        counts["loops"] += len(row)
        return table(spec, row, params)

    def counting_grad(*args):
        counts["grads"] += 1
        return grad(*args)

    monkeypatch.setattr(minimax, "values", counting_values)
    monkeypatch.setattr(minimax, "row_values", counting_table)
    monkeypatch.setattr(minimax, "grad_action", counting_grad)
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / \
        "plane_larmor.json"
    assert cli.main(["run", "--config", str(config)]) == cli.EXIT_OK
    result = json.loads(
        (tmp_path / "runs" / "plane_larmor" / "result.json").read_text())
    steps = len(result["records"])
    assert steps == 8
    assert counts["loops"] <= 400
    assert counts["grads"] <= 2 * steps


def test_reinterp_row_reports_the_values_of_its_row():
    params = ActionParams(E=1.0, eps=1e-2, tau=1e-2)
    base = init_sweep_family(PLANE, 1.0, "path", 9, 48).rows[0]
    # unevenly spaced, so re-interpolation proposes new loops
    row = [base[0]] + [interpolate(base[0], base[-1], t)
                       for t in (0.05, 0.1, 0.2, 0.4, 0.6, 0.7, 0.9)] + \
        [base[-1]]
    vals = [action_S_eps_tau(PLANE, lp, params) for lp in row]
    reported = list(vals)
    out = _reinterp_row(PLANE, row, params, math.inf, reported)
    assert out is not row
    assert reported == [action_S_eps_tau(PLANE, lp, params) for lp in out]
    # a guard just below the highest proposal rejects the row: the very row
    # comes back and its values are left alone
    for guard in (max(reported) - 1e-3, min(vals) - 1.0):
        again = list(vals)
        out = _reinterp_row(PLANE, row, params, guard, again)
        assert out is row and again == vals


def test_mountain_pass_level_matches_circle_scan():
    # by rotational symmetry the saddle is a circle, so the minimax level
    # must match a dense 1-D scan over circle radii
    params = ActionParams(E=1.0, eps=1e-2, tau=1e-2)
    fam = init_sweep_family(PLANE, 1.0, "path", 33, 128)
    res = _engine(PLANE, fam.rows, params, DescentSettings())[0]
    assert res.converged
    rs = np.linspace(0.5, 2.0, 4001)
    scan = max(action_S_eps_tau(PLANE, make_circle((0.0, 0.0), float(r),
                                                   -1, 128), params)
               for r in rs)
    assert abs(res.level - scan) < 1e-6 * scan


def test_mountain_pass_argmax_radius_law():
    # stationary circle of the discrete regularized action at tau = 0:
    # r = sqrt(E) / (B cos(pi/N) - 4 eps E N sin(pi/N))
    n = 128
    eps = 0.05
    params = ActionParams(E=1.0, eps=eps, tau=0.0)
    expect = 1.0 / (math.cos(math.pi / n)
                    - 4.0 * eps * n * math.sin(math.pi / n))
    fam = init_sweep_family(PLANE, 1.0, "path", 33, n)
    res = _engine(PLANE, fam.rows, params, DescentSettings())[0]
    ctr = res.argmax.vertices.mean(axis=0)
    rr = np.linalg.norm(res.argmax.vertices - ctr, axis=1)
    assert res.converged
    assert abs(rr.mean() - expect) < 1e-6 * expect
    assert rr.std() / rr.mean() < 1e-8
    assert speed_cv(PLANE, res.argmax) < 1e-8


# the plane family stops at sweep 0; the k=2 rectangle family (no circle
# has negative action on that torus) sweeps about 70 times
@pytest.mark.parametrize("spec, E, M, n", [
    (PLANE, 1.0, 33, 64),
    (GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=0.3, k=2), 0.05, 9, 48),
], ids=["plane", "k2_rectangle"])
def test_history_monotone_and_level_is_argmax_value(spec, E, M, n):
    params = ActionParams(E=E, eps=1e-2, tau=1e-2)
    fam = init_sweep_family(spec, E, "path", M, n)
    res = _engine(spec, fam.rows, params, DescentSettings())[0]
    hist = [v for _, v in res.history]
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert hist[-1] == res.level
    assert abs(action_S_eps_tau(spec, res.argmax, params)
               - res.level) < 1e-9 * abs(res.level)
    obj = cli.json_fields(res)
    assert set(obj) == {"level", "converged", "grad_norm", "history", "stop"}


def _central_hessian(spec, loop, params, h=1e-5):
    x0 = loop.vertices.ravel()
    H = np.empty((x0.size, x0.size))
    for i in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        gp = grad_action(spec, loop.with_vertices(xp.reshape(-1, 2)), params)
        gm = grad_action(spec, loop.with_vertices(xm.reshape(-1, 2)), params)
        H[:, i] = (gp - gm).ravel() / (2.0 * h)
    return 0.5 * (H + H.T)


@pytest.mark.parametrize("eps", [0.0, 1e-2])
def test_argmax_morse_index_is_within_the_family_dimension(eps):
    # a mountain pass over a one-parameter path family is a saddle of Morse
    # index at most 1; the plane argmax has exactly one descent direction
    params = ActionParams(E=1.0, eps=eps, tau=0.0)
    fam = init_sweep_family(PLANE, 1.0, "path", 33, 64)
    res = _engine(PLANE, fam.rows, params, DescentSettings())[0]
    lam = np.linalg.eigvalsh(_central_hessian(PLANE, res.argmax, params))
    assert np.sum(lam < -1e-6 * np.abs(lam).max()) == 1


def test_mountain_pass_deterministic():
    params = ActionParams(E=1.0, eps=1e-2, tau=1e-2)
    fam = init_sweep_family(PLANE, 1.0, "path", 17, 48)
    a = _engine(PLANE, fam.rows, params, DescentSettings())[0]
    b = _engine(PLANE, fam.rows, params, DescentSettings())[0]
    assert a.level == b.level
    assert np.array_equal(a.argmax.vertices, b.argmax.vertices)
    assert a.history == b.history


def test_relaxation_lowers_the_level_of_a_poor_family():
    # no circle has negative action on this torus, so the family falls back
    # to rectangles, whose maximum sits far above the saddle; only the
    # relaxation sweep brings the level down
    spec = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=0.3, k=2)
    fam = init_sweep_family(spec, 0.05, "path", 9, 48)
    terminal = fam.rows[0][-1]
    radii = np.linalg.norm(terminal.vertices
                           - terminal.vertices.mean(axis=0), axis=1)
    assert radii.std() > 0.1 * radii.mean()  # a rectangle, not a circle
    params = ActionParams(E=0.05, eps=1e-2, tau=1e-2)
    res = _engine(spec, fam.rows, params, DescentSettings())[0]
    assert res.converged
    assert res.level < 0.6 * res.history[0][1]
    assert res.stop == "plateau" and len(res.history) > 2


def test_sweep_cap_stops_with_max_iters(monkeypatch):
    # the rectangle family above sweeps about 70 times; a cap of 3 sweeps
    # ends it, and the saddle refine still runs on the adopted argmax
    spec = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=0.3, k=2)
    fam = init_sweep_family(spec, 0.05, "path", 9, 48)
    params = ActionParams(E=0.05, eps=1e-2, tau=1e-2)
    refines = []
    refine = minimax._saddle_refine
    monkeypatch.setattr(minimax, "_saddle_refine",
                        lambda *args: refines.append(1) or refine(*args))
    res = _engine(spec, fam.rows, params,
                  DescentSettings(max_iters=3))[0]
    assert res.stop == "max_iters"
    assert [i for i, _ in res.history] == [0, 1, 2, 3]
    levels = [v for _, v in res.history]
    assert all(b <= a for a, b in zip(levels, levels[1:]))
    assert refines == [1]
    assert math.isfinite(res.grad_norm) and res.grad_norm > 0.0


def test_sweep_stops_once_the_family_maximum_is_critical():
    # the swept circles contain the saddle circle, so the first polish lands
    # on a critical point and no relaxation sweep runs
    params = ActionParams(E=1.0, eps=1e-2, tau=1e-2)
    settings = DescentSettings()
    fam = init_sweep_family(PLANE, 1.0, "path", 33, 64)
    res = _engine(PLANE, fam.rows, params, settings)[0]
    assert res.stop == "critical"
    assert len(res.history) == 2
    assert grad_norm(grad_action(PLANE, res.argmax, params)) <= \
        settings.grad_tol
    assert cli.json_fields(res)["stop"] == "critical"


def _no_call(*args, **kwargs):
    raise AssertionError("must not be called")


def test_certified_argmax_skips_the_saddle_refine(monkeypatch):
    params = ActionParams(E=1.0, eps=1e-2, tau=1e-2)
    fam = init_sweep_family(PLANE, 1.0, "path", 33, 64)
    monkeypatch.setattr(minimax, "_saddle_refine", _no_call)
    res = _engine(PLANE, fam.rows, params, DescentSettings())[0]
    assert res.stop == "critical" and res.converged
    assert res.grad_norm == grad_norm(grad_action(PLANE, res.argmax, params))


def test_saddle_refine_stops_at_grad_tol(monkeypatch):
    # refine and certificate share one tolerance: a loop whose gradient
    # norm g lies in (0.1 tol, tol] takes no Newton step
    params = ActionParams(E=1.0, eps=1e-2, tau=1e-2)
    fam = init_sweep_family(PLANE, 1.0, "path", 33, 64)
    res = _engine(PLANE, fam.rows, params, DescentSettings())[0]
    g = res.grad_norm
    assert g > 0.0
    monkeypatch.setattr(minimax, "_fd_hessian", _no_call)
    loop, gn = _saddle_refine(PLANE, res.argmax, params,
                              DescentSettings(grad_tol=2.0 * g))
    assert np.array_equal(loop.vertices, res.argmax.vertices)
    assert gn == pytest.approx(g, rel=1e-12)


def _dense_fd_hessian(gfun, x, h):
    """_fd_hessian as it was before its columns were coloured: one central
    difference per coordinate, the reference the coloured Hessian must
    equal bit for bit."""
    dim = x.size
    H = np.empty((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        H[:, i] = (gfun(x + e) - gfun(x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)


@pytest.mark.parametrize("n", [3, 4, 5, 7, 48, 50])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
def test_coloured_hessian_equals_the_dense_one(spec, n):
    # a lumpy loop, winding once in y through its last edge on a torus, at
    # the refine's step h; the off-band zeros and the signs of zeros count
    rng = np.random.default_rng(n)
    t = np.arange(n) / n
    w = np.zeros((n, 2), dtype=int)
    if spec.is_torus:
        w[-1] = (0, 1)
        verts = np.stack([0.3 + 0.1 * np.sin(2.0 * np.pi * t), t], axis=1)
    else:
        verts = make_circle((0.2, -0.1), 0.9, -1, n).vertices
    verts = verts + 0.01 * rng.standard_normal((n, 2))
    params = ActionParams(E=0.7, eps=1e-2, tau=1e-2)
    calls = []

    def gfun(x):
        calls.append(1)
        return grad_action(spec, Loop(x.reshape(n, 2), w), params).ravel()

    x = verts.ravel()
    h = 1e-7 * (1.0 + float(np.ptp(verts, axis=0).max()))
    got = _fd_hessian(gfun, x, h)
    assert len(calls) <= 20
    want = _dense_fd_hessian(gfun, x, h)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_plateau_counts_sweep_zero():
    # a grad_tol below what the polish reaches keeps the certificate from
    # firing, and this family's level never improves by more than the
    # relative 1e-9 that counts, so the run stops after the plateau of
    # sweeps counted from sweep 0; the last history entry is the refinement's
    params = ActionParams(E=1.0, eps=1e-2, tau=1e-2)
    fam = init_sweep_family(PLANE, 1.0, "path", 9, 48)
    res = _engine(PLANE, fam.rows, params,
                  DescentSettings(grad_tol=1e-11))[0]
    assert res.stop == "plateau"
    assert len(res.history) == _PLATEAU_SWEEPS + 1


def test_init_sweep_family_path_invariants():
    fam = init_sweep_family(PLANE, 1.0, "path", 21, 64)
    assert fam.shape == "path" and len(fam.rows) == 1
    row = fam.rows[0]
    assert len(row) == 21
    assert row[0].is_point()
    assert all(lp.n == 64 for lp in row)
    assert all(not np.any(lp.windings) for lp in row)
    assert action_S(PLANE, row[-1], 1.0) < 0.0


def test_init_sweep_family_torus_cylinder_invariants():
    spec = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1)
    fam = init_sweep_family(spec, 0.02, "cylinder", 15, 48, m_p=6)
    assert fam.shape == "cylinder" and len(fam.rows) == 6
    for row in fam.rows:
        assert row[0].is_point()
        assert action_S(spec, row[-1], 0.02) < 0.0
        assert all(not np.any(lp.windings) for lp in row)
        # the chart depends on x alone, so every row is the first row's
        # sweep moved to its own y
        assert all(np.array_equal(lp.vertices[:, 0], first.vertices[:, 0])
                   for lp, first in zip(row, fam.rows[0]))


def test_init_sweep_family_no_negative_loop():
    # with a vanishing field every loop has nonnegative action
    spec = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=0.0, k=1)
    with pytest.raises(NoNegativeLoopFound):
        init_sweep_family(spec, 1.0, "path", 15, 48)


def test_torus_minimax_argmax_properties(torus_cross):
    res = torus_cross["minimax"]
    assert res.converged
    assert res.level > 0.0
    assert not np.any(res.argmax.windings)
    assert speed_cv(torus_cross["spec"], res.argmax) < 1e-3


@st.composite
def _scalar_functions(draw):
    kind = draw(st.sampled_from(["quadratic", "convex", "multimodal",
                                 "linear", "constant"]))
    c = draw(st.floats(-0.5, 1.5))
    s = draw(st.floats(0.1, 10.0))
    if kind == "quadratic":
        return lambda t: s * (t - c) ** 2 - 1.0
    if kind == "convex":
        return lambda t: (t - c) ** 4 + s * math.exp(t)
    if kind == "multimodal":
        w = draw(st.floats(5.0, 60.0))
        return lambda t: math.sin(w * t + c) + s * (t - 0.5) ** 2
    if kind == "linear":
        # the minimum sits on a bound, where the step is clipped to tol1
        slope = draw(st.sampled_from([-s, s]))
        return lambda t: slope * (t - c)
    return lambda t: c


def test_bounded_min_matches_scipy_bit_for_bit():
    optimize = pytest.importorskip("scipy.optimize")

    def counted(f):
        calls = []

        def g(t):
            calls.append(t)
            return f(t)
        return g, calls

    def check(f, xatol):
        ref_f, ref_calls = counted(f)
        ref = optimize.minimize_scalar(ref_f, bounds=(0.0, 1.0),
                                       method="bounded",
                                       options={"xatol": xatol})
        own_f, own_calls = counted(f)
        x, fun = _bounded_min(own_f, 0.0, 1.0, xatol)
        assert float(x).hex() == float(ref.x).hex()
        assert float(fun).hex() == float(ref.fun).hex()
        assert [float(t).hex() for t in own_calls] == \
            [float(t).hex() for t in ref_calls]
        assert len(own_calls) == ref.nfev
        return len(own_calls)

    @given(f=_scalar_functions(), xatol=st.sampled_from([1e-10, 1e-6, 0.0]))
    def drawn(f, xatol):
        check(f, xatol)

    drawn()
    # rising away from t = 0 with xatol = 0, tol1 shrinks with xf and the
    # search creeps towards the bound until the evaluation cap stops it
    assert check(lambda t: 2.0 * t, 0.0) == 500
