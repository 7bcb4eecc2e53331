"""Action functionals: closed forms, limits, inequalities, and gradients."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from magloop import (GeometryKind, GeometrySpec, Loop, action_S,
                     action_S_eps_tau, circulation, grad_action, length,
                     make_circle, make_point_loop, resample_arclength, speeds)
from magloop.action import ActionParams, row_values, values
from magloop.geometry import (conformal_exponent, field_strength,
                              potential_eval)
from magloop.loops import edge_geometry, edge_lengths, speed_cv
from magloop.oracle import fd_gradient
from test_geometry import ALL_SPECS, _tensors

PLANE = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0)
PLANE_B25 = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=2.5)
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


def _symmetric_gauge(B, verts):
    """Circulation and its gradient in the symmetric gauge
    A = (B/2)(-y, x): sum_j (B/2)(m_x d_y - m_y d_x) over the edges, each
    edge's derivative taken at its two ends through m = v_a + d/2 and
    d = v_b - v_a."""
    d = np.roll(verts, -1, axis=0) - verts
    m = verts + 0.5 * d
    (mx, my), (dx, dy) = m.T, d.T
    circ = float(np.sum(0.5 * B * (mx * dy - my * dx)))
    at_a = 0.5 * B * np.stack((0.5 * dy + my, -mx - 0.5 * dx), axis=1)
    at_b = 0.5 * B * np.stack((0.5 * dy - my, mx - 0.5 * dx), axis=1)
    return circ, at_a + np.roll(at_b, 1, axis=0)


def test_plane_field_terms_match_the_symmetric_gauge():
    # the circulation sees only F = dA, so the library's value and gradient
    # equal those of the symmetric gauge on every closed plane loop
    rng = np.random.default_rng(67)
    for _ in range(20):
        B = float(rng.uniform(-3.0, 3.0))
        spec = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=B)
        free = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=0.0)
        loop = _random_loop(rng, spec, scale=float(rng.uniform(0.1, 3.0)))
        loop = loop.with_vertices(loop.vertices + rng.uniform(-4.0, 4.0, 2))
        scale = max(1.0, float(np.abs(loop.vertices).max()))
        circ, grad = _symmetric_gauge(B, loop.vertices)
        assert abs(circulation(spec, loop) - circ) <= \
            1e-12 * abs(B) * scale ** 2
        params = ActionParams(E=float(rng.uniform(0.5, 2.0)),
                              eps=float(rng.choice([0.0, 1e-2])),
                              tau=float(rng.choice([0.0, 0.3])))
        # the field term is the part of the gradient that B adds
        field = grad_action(spec, loop, params) - grad_action(free, loop,
                                                              params)
        assert float(np.abs(field - grad).max()) <= 1e-12 * abs(B) * scale


def test_plane_action_is_translation_invariant():
    # a constant field has no preferred point: S_E does not see where the
    # loop sits, whatever gauge the potential is written in
    rng = np.random.default_rng(71)
    spec = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=-1.7)
    for _ in range(10):
        loop = _random_loop(rng, spec)
        E = float(rng.uniform(0.5, 2.0))
        base = action_S(spec, loop, E)
        for shift in ((3.7, 0.0), (0.0, -2.9), (-5.0, 0.0), (0.0, 4.25)):
            moved = loop.with_vertices(loop.vertices + np.array(shift))
            assert abs(action_S(spec, moved, E) - base) <= \
                1e-12 * max(1.0, abs(base))


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


def test_gradient_matches_fd():
    rng = np.random.default_rng(59)
    for spec in (PLANE, TORUS, CONF):
        loop = _random_loop(rng, spec, scale=0.3 if spec.is_torus else 1.0)
        for params in (ActionParams(E=1.3, eps=0.0, tau=0.0),
                       ActionParams(E=0.7, eps=1e-2, tau=0.3)):
            analytic = grad_action(spec, loop, params)
            numeric = fd_gradient(spec, loop, params)
            scale = max(float(np.linalg.norm(numeric)), 1e-12)
            rel = float(np.linalg.norm(analytic - numeric)) / scale
            assert rel < 1e-6


def test_values_and_gradient_share_the_edge_kernel():
    # a stacked ``values`` call gives each loop's one-loop value bit for bit
    rng = np.random.default_rng(61)
    for spec in (PLANE, TORUS, CONF):
        loops = [_random_loop(rng, spec, scale=0.3 if spec.is_torus else 1.0)
                 for _ in range(3)]
        for params in (ActionParams(E=1.3), ActionParams(E=0.7, eps=1e-2,
                                                         tau=0.3)):
            stacked = values(spec, np.stack([lp.vertices for lp in loops]),
                             loops[0].windings, params).tolist()
            assert stacked == [action_S_eps_tau(spec, lp, params)
                               for lp in loops]
            loop = loops[0]
            assert action_S(spec, loop, params.E) == \
                math.sqrt(params.E) * length(spec, loop) + circulation(spec,
                                                                       loop)


def _tensor_edge_lengths(spec, loop):
    """Edge lengths from the metric tensor at the midpoints."""
    v, w = loop.vertices, loop.windings
    d = np.roll(v, -1, axis=0) + w - v
    g = _tensors(spec, v + 0.5 * d)[0]
    return np.sqrt(np.maximum(np.einsum("ni,nij,nj->n", d, g, d), 0.0))


def _tensor_gradient(spec, loop, params):
    """Gradient of S_{eps,tau} from the metric tensor and its derivative,
    the formula that grad_action contracts by hand."""
    n = loop.n
    v, w = loop.vertices, loop.windings
    d = np.roll(v, -1, axis=0) + w - v
    m = v + 0.5 * d
    g, _, dg, _, J = _tensors(spec, m)
    ell = np.sqrt(np.maximum(np.einsum("ni,nij,nj->n", d, g, d), 0.0))
    rootE = math.sqrt(params.E)
    s = rootE * n * ell
    sf = np.maximum(s, params.delta)
    w0 = (1.0 + params.tau) * np.power(sf, params.tau) * (s >= params.delta) / n
    w1 = w0 + 2.0 * params.eps * s / n
    pos = ell > 0.0
    dsdq = np.zeros_like(ell)
    dsdq[pos] = rootE * n / (2.0 * ell[pos])
    gd = np.einsum("nij,nj->ni", g, d)
    T = np.einsum("nkij,ni,nj->nk", dg, d, d)
    dq_da = -2.0 * gd + 0.5 * T
    dq_db = 2.0 * gd + 0.5 * T
    A = np.zeros_like(m)
    A[:, 1] = potential_eval(spec, m)
    half_Jd = 0.5 * np.einsum("nki,ni->nk", J, d)

    coef = (w1 * dsdq)[:, None]
    grad = np.zeros((n, 2))
    grad += coef * dq_da + (half_Jd - A)
    grad += np.roll(coef * dq_db + (half_Jd + A), 1, axis=0)
    return grad


_FLAT_KERNEL_SPECS = [GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.3),
                      GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=2)]
_CONFORMAL_KERNEL_SPECS = [
    GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=1.0, k=2, u_amp=0.4),
    GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=-2.9, k=1, u_amp=-1.3)]


@st.composite
def _kernel_cases(draw, specs=_FLAT_KERNEL_SPECS):
    spec = draw(st.sampled_from(specs))
    n = draw(st.integers(3, 12))
    verts = draw(arrays(np.float64, (n, 2), elements=st.floats(-5.0, 5.0)))
    windings = draw(arrays(np.int64, (n, 2), elements=st.integers(-2, 2)))
    params = ActionParams(E=draw(st.floats(0.1, 4.0)),
                          eps=draw(st.sampled_from([0.0, 1e-3, 0.1])),
                          tau=draw(st.sampled_from([0.0, 1e-2, 0.5])))
    return spec, Loop(verts, windings), params


@given(case=_kernel_cases())
def test_flat_edge_kernel_equals_tensor_formula(case):
    # the identity-metric shortcut must round exactly like the tensor path,
    # windings included, or minimax outputs would change in the last bit
    spec, loop, params = case
    ref_ell = _tensor_edge_lengths(spec, loop)
    assert edge_lengths(spec, loop).tobytes() == ref_ell.tobytes()
    assert grad_action(spec, loop, params).tobytes() == \
        _tensor_gradient(spec, loop, params).tobytes()


@given(case=_kernel_cases(_CONFORMAL_KERNEL_SPECS))
def test_conformal_edge_kernel_equals_tensor_formula(case):
    # the hand contractions of lam, d_x lam and F must round like the
    # zero-filled tensors they replace
    spec, loop, params = case
    ref_ell = _tensor_edge_lengths(spec, loop)
    assert edge_lengths(spec, loop).tobytes() == ref_ell.tobytes()
    assert grad_action(spec, loop, params).tobytes() == \
        _tensor_gradient(spec, loop, params).tobytes()


def _reference_grad(spec, loop, params):
    """grad_action as written before it read the loop's memo, with a
    boolean-mask scatter for ds/dq and np.stack for the field terms: the
    reference that the trimmed kernel must equal bit for bit."""
    n = loop.n
    d, m, lam, ell, _ = edge_geometry(spec, loop.vertices, loop.windings)
    rootE = math.sqrt(params.E)
    s = rootE * n * ell
    sf = np.maximum(s, params.delta)
    w0 = (1.0 + params.tau) * np.power(sf, params.tau) * (s >= params.delta) / n
    w1 = w0 + 2.0 * params.eps * s / n
    pos = ell > 0.0
    dsdq = np.zeros_like(ell)
    dsdq[pos] = rootE * n / (2.0 * ell[pos])
    dx, dy = d[:, 0], d[:, 1]
    if spec.is_flat:
        dq_da = -2.0 * d
        dq_db = 2.0 * d
    else:
        gd = lam[:, None] * d
        dlam = 2.0 * conformal_exponent(spec, m)[1] * lam
        half_T = 0.5 * ((dlam * dx) * dx + (dlam * dy) * dy)
        dq_da = -2.0 * gd
        dq_db = 2.0 * gd
        dq_da[:, 0] += half_T
        dq_db[:, 0] += half_T
    half_Fd = 0.5 * (field_strength(spec, m) * dy)
    phi = potential_eval(spec, m)
    coef = (w1 * dsdq)[:, None]
    contrib_a = coef * dq_da + np.stack((half_Fd, -phi), axis=1)
    contrib_b = coef * dq_db + np.stack((half_Fd, phi), axis=1)
    grad = np.zeros((n, 2))
    grad += contrib_a
    grad[1:] += contrib_b[:-1]
    grad[0] += contrib_b[-1]
    return grad


def _kernel_loops(spec, rng):
    """A wobbly loop (winding once in y on a torus, through its last edge),
    the same with two coincident vertices (a zero-length edge), and a
    one-point loop."""
    n = 24
    t = np.arange(n) / n
    if spec.is_torus:
        verts = np.stack([0.3 + 0.1 * np.sin(2.0 * np.pi * t), t], axis=1)
        w = np.zeros((n, 2), dtype=int)
        w[-1] = (0, 1)
    else:
        verts = 0.8 * np.stack([np.cos(2.0 * np.pi * t),
                                np.sin(2.0 * np.pi * t)], axis=1)
        w = np.zeros((n, 2), dtype=int)
    verts = verts + 0.01 * rng.standard_normal((n, 2))
    pinched = verts.copy()
    pinched[7] = pinched[6]
    return [Loop(verts, w), Loop(pinched, w),
            Loop(np.tile(verts[0], (n, 1)), w)]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
def test_trimmed_gradient_equals_the_reference_kernel(spec):
    # every entry, the signs of zeros included
    rng = np.random.default_rng(83)
    params = [ActionParams(E=0.7, eps=0.013, tau=0.21),
              ActionParams(E=1.3), ActionParams(E=0.4, tau=0.5, delta=2.0)]
    for loop in _kernel_loops(spec, rng):
        for p in params:
            assert np.array_equal(
                grad_action(spec, loop, p).view(np.int64),
                _reference_grad(spec, loop, p).view(np.int64))


def test_edge_memo_is_read_only():
    rng = np.random.default_rng(5)
    loop = _kernel_loops(CONF, rng)[0]
    action_S_eps_tau(CONF, loop, ActionParams(E=0.7, eps=1e-2))
    memo = loop._memo
    arrays_ = [*memo[1], edge_lengths(CONF, loop)]
    assert memo[0] is CONF and memo[2] is not None
    assert all(isinstance(a, np.ndarray) for a in arrays_)
    for a in arrays_:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@pytest.mark.parametrize("first, second", [(PLANE, PLANE_B25),
                                           (TORUS, CONF)],
                         ids=["circulation", "lengths"])
def test_one_loop_under_two_charts_gives_each_charts_values(first, second):
    # the memo belongs to the last chart evaluated; any other chart
    # computes its own.  The two planes share lengths and differ in the
    # circulation, the two tori the other way round.
    rng = np.random.default_rng(17)
    loop = _kernel_loops(first, rng)[0]
    params = ActionParams(E=0.7, eps=0.013, tau=0.21)
    for spec in (first, second, first, second):
        fresh = Loop(loop.vertices, loop.windings)
        assert action_S_eps_tau(spec, loop, params).hex() == \
            action_S_eps_tau(spec, fresh, params).hex()
        assert action_S(spec, loop, 0.7).hex() == \
            action_S(spec, fresh, 0.7).hex()
        assert circulation(spec, loop).hex() == circulation(spec, fresh).hex()
        assert length(spec, loop).hex() == length(spec, fresh).hex()
        assert speed_cv(spec, loop).hex() == speed_cv(spec, fresh).hex()
        assert grad_action(spec, loop, params).tobytes() == \
            grad_action(spec, fresh, params).tobytes()
        assert row_values(spec, [loop], params).tobytes() == \
            values(spec, loop.vertices[None], loop.windings,
                   params).tobytes()
    assert action_S(first, loop, 0.7) != action_S(second, loop, 0.7)


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