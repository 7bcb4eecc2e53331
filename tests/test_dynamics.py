"""Lorentz flow integration and extremal-equation residual diagnostics."""

import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magloop import (ChartPoint, FlowState, GeometryKind, GeometrySpec, Loop,
                     el_residual_SE, integrate_flow,
                     kinetic_energy, make_circle)
from magloop import oracle
from magloop.action import ActionParams, action_S, grad_action, grad_norm
from magloop.dynamics import (_central_derivatives, _flow_linear, _norm_sq,
                              _rhs, _rk4_jacobian, write_trajectory_csv)
from magloop.geometry import (TWO_PI, _build_step, conformal_exponent,
                              field_strength)
from magloop.loops import resample_arclength, speed_cv
from test_geometry import ALL_SPECS, _tensors

PLANE = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0)

FLOW_CASES = [
    (PLANE, FlowState(ChartPoint(0.0, 0.0), np.array([1.0, 0.0]))),
    (GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=1.0, k=1),
     FlowState(ChartPoint(0.1, 0.2), np.array([0.8, 0.6]))),
    (GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=1.0, k=1, u_amp=0.3),
     FlowState(ChartPoint(0.3, 0.7), np.array([0.5, -0.5]))),
]


def _tensor_acc(spec, y):
    """Reference acceleration -Gamma(v, v) + g^-1 F v from the geometry
    tensors at one point."""
    p, v = y[:2], y[2:]
    _, gi, _, gamma, J = _tensors(spec, p)
    return (-np.einsum("ijk,j,k->i", gamma, v, v) + gi @ ((J - J.T) @ v))


def _tensor_rk4(spec, y, h):
    def f(z):
        return np.concatenate([z[2:], _tensor_acc(spec, z)])

    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_coord = st.floats(-20.0, 20.0)
_vel = st.floats(-5.0, 5.0)
_state = st.tuples(_coord, _coord, _vel, _vel).map(np.array)
_FLAT_SPECS = [
    GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.3),
    GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=2),
]
_ALL_SPECS = _FLAT_SPECS + [
    GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=1.0, k=2, u_amp=0.4),
]


@given(y=_state, spec=st.sampled_from(_ALL_SPECS))
def test_closed_form_rhs_matches_tensor_formula(y, spec):
    # the scale bounds the magnitude of every term, so cancellation between
    # the geodesic and Lorentz parts cannot hide a wrong term
    p, v = y[:2], y[2:]
    ref = _tensor_acc(spec, y)
    got = np.array(_frozen_rhs(spec, *y.tolist()))
    _, gi, _, gamma, J = _tensors(spec, p)
    scale = (np.abs(gamma).sum() * float(v @ v)
             + np.abs(gi @ (J - J.T)).sum() * float(np.abs(v).sum()))
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


@given(y=_state, h=st.floats(1e-4, 0.5), spec=st.sampled_from(_FLAT_SPECS))
def test_rk4_step_equals_tensor_rk4_on_flat_kinds(y, h, spec):
    got = np.array(_build_step(spec)(*y.tolist(), h))
    ref = _tensor_rk4(spec, y, h)
    assert got.tobytes() == ref.tobytes()


def _frozen_rhs(spec, x, y, vx, vy):
    """The single-point right-hand side as it was written before the field
    was built once per integration: every constant formed in place."""
    kind = spec.kind
    if kind is GeometryKind.PLANE_CONSTANT_B:
        F = spec.B
        return F * vy, -F * vx
    x = x - math.floor(x)
    F = TWO_PI * spec.k * spec.a * math.cos(TWO_PI * spec.k * x)
    if kind is GeometryKind.FLAT_TORUS_SINE:
        return F * vy, -F * vx
    u = spec.u_amp * math.cos(TWO_PI * x)
    ux = -TWO_PI * spec.u_amp * math.sin(TWO_PI * x)
    gi = math.exp(-2.0 * u)
    return (-(ux * vx * vx - ux * vy * vy) + gi * F * vy,
            -2.0 * ux * vx * vy - gi * F * vx)


def _frozen_rk4_step(spec, y, h):
    """The packed-array RK4 step over _frozen_rhs, stage for stage."""
    px, py, vx, vy = y.tolist()
    hh = 0.5 * h
    a1x, a1y = _frozen_rhs(spec, px, py, vx, vy)
    px2, py2 = px + hh * vx, py + hh * vy
    vx2, vy2 = vx + hh * a1x, vy + hh * a1y
    a2x, a2y = _frozen_rhs(spec, px2, py2, vx2, vy2)
    px3, py3 = px + hh * vx2, py + hh * vy2
    vx3, vy3 = vx + hh * a2x, vy + hh * a2y
    a3x, a3y = _frozen_rhs(spec, px3, py3, vx3, vy3)
    px4, py4 = px + h * vx3, py + h * vy3
    vx4, vy4 = vx + h * a3x, vy + h * a3y
    a4x, a4y = _frozen_rhs(spec, px4, py4, vx4, vy4)
    h6 = h / 6.0
    return np.array([
        px + h6 * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4),
        py + h6 * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4),
        vx + h6 * (a1x + 2.0 * a2x + 2.0 * a3x + a4x),
        vy + h6 * (a1y + 2.0 * a2y + 2.0 * a3y + a4y),
    ])


# non-integer constants, so that a regrouped product would round apart;
# the coordinates reach |x| = 20 on both sides of every wrap
_KERNEL_SPECS = _ALL_SPECS + [
    GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=-0.37),
    GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=0.731, k=3),
    GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=2.9, k=1, u_amp=0.213),
]


@given(y=_state, h=st.floats(1e-4, 0.5),
       spec=st.sampled_from(_KERNEL_SPECS))
@example(y=np.array([-1e-3, 0.4, 2.0, -1.0]), h=0.01, spec=_KERNEL_SPECS[-1])
@example(y=np.array([-20.0, 20.0, -0.3, 1.7]), h=0.1, spec=_KERNEL_SPECS[-2])
def test_rk4_kernel_equals_the_frozen_scalar_step(y, h, spec):
    got = np.array(_build_step(spec)(*y.tolist(), h))
    assert got.tobytes() == _frozen_rk4_step(spec, y, h).tobytes()


@pytest.mark.parametrize("x0, vx", [(0.98, 5.0), (-0.98, -5.0)],
                         ids=["up", "down"])
@pytest.mark.parametrize("spec", _KERNEL_SPECS,
                         ids=lambda s: f"{s.kind.value}-{s.a}-{s.B}")
def test_flow_rows_and_return_starts_iterate_the_frozen_step(spec, x0, vx):
    # integrate_flow and the return search's step loop run one built step;
    # launched just below an integer x moving up, or just above one moving
    # down, both cross an x wrap and must stay the frozen step's floats
    y0, T, steps = np.array([x0, 0.3, vx, 0.4]), 0.04, 40
    h = T / steps
    ref = [y0]
    for _ in range(steps):
        ref.append(_frozen_rk4_step(spec, ref[-1], h))
    ref = np.array(ref)
    assert math.floor(ref[0, 0]) != math.floor(ref[-1, 0])
    rows = integrate_flow(spec, FlowState(ChartPoint(x0, 0.3), y0[2:]), T,
                          steps)
    assert rows.tobytes() == ref.tobytes()
    # a section 0.1 ahead along the launch velocity, crossed after the wrap
    nhat = y0[2:] / np.linalg.norm(y0[2:])
    _, y, starts, tau = oracle._first_return(spec, y0, y0[:2] + 0.1 * nhat,
                                             nhat, h, T)
    assert math.floor(starts[0, 0]) != math.floor(starts[-1, 0])
    assert starts.tobytes() == ref[:len(starts)].tobytes()
    assert y.tobytes() == _frozen_rk4_step(spec, starts[-1], tau).tobytes()


def _fd_jacobian(func, y, h=1e-6):
    """Central differences of func: R^4 -> R^m, column j along y_j."""
    cols = []
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        cols.append((np.asarray(func(y + e)) - np.asarray(func(y - e)))
                    / (2.0 * h))
    return np.stack(cols, axis=-1)


@given(y=_state, spec=st.sampled_from(_KERNEL_SPECS))
def test_flow_jacobian_matches_fd_of_the_rhs(y, spec):
    f, D = _flow_linear(spec, y)
    acc = np.array(_frozen_rhs(spec, *y.tolist()))
    assert np.array_equal(f[:2], y[2:])
    assert np.all(np.abs(f[2:] - acc) <= 1e-13 * (1.0 + np.abs(acc).max()))
    assert _rhs(spec, *y.tolist()) == tuple(f[2:].tolist())
    assert np.array_equal(D[:2], np.eye(4)[2:])
    fd = _fd_jacobian(lambda z: _frozen_rhs(spec, *z.tolist()), y)
    assert np.abs(D[2:] - fd).max() <= 1e-8 * (1.0 + np.abs(fd).max())


@given(y=_state, h=st.floats(1e-4, 0.01), n=st.integers(1, 9),
       last=st.floats(0.0, 1.0), spec=st.sampled_from(_KERNEL_SPECS))
def test_tangent_rk4_matches_fd_of_the_steps(y, h, n, last, spec):
    # n steps of length h, the last one cut to last * h as at a crossing;
    # odd and even n exercise both branches of the pairwise product
    rk4 = _build_step(spec)
    steps = np.full(n, h)
    steps[-1] *= last

    def flow(z):
        starts = [z.tolist()]
        for step in steps:
            starts.append(rk4(*starts[-1], step))
        return np.array(starts)

    M = _rk4_jacobian(spec, flow(y)[:-1], steps)
    fd = _fd_jacobian(lambda z: flow(z)[-1], y)
    assert np.abs(M - fd).max() <= 1e-8 * (1.0 + np.abs(fd).max())


def test_energy_conservation_all_kinds():
    for spec, state in FLOW_CASES:
        states = integrate_flow(spec, state, 10.0, 10000)
        e0 = kinetic_energy(spec, states[0])
        drift = max(abs(kinetic_energy(spec, s) - e0) for s in states)
        assert drift < 1e-8 * max(e0, 1.0)


def test_larmor_flow_closes():
    # unit speed in a unit field: circular orbit with period 2 pi
    st = FlowState(ChartPoint(0.0, 0.0), np.array([1.0, 0.0]))
    states = integrate_flow(PLANE, st, 2.0 * math.pi, 10000)
    gap = states[-1] - states[0]
    assert float(np.linalg.norm(gap)) < 1e-6


def test_rk4_fourth_order_closure():
    st = FlowState(ChartPoint(0.0, 0.0), np.array([1.0, 0.0]))
    errs = []
    for steps in (500, 1000):
        states = integrate_flow(PLANE, st, 2.0 * math.pi, steps)
        errs.append(float(np.linalg.norm(states[-1] - states[0])))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_el_residual_SE_circle_second_order():
    # the clockwise unit circle is the exact extremal at E = 1, B = 1; the
    # discrete residual is pure stencil bias, shrinking like N^-2
    res = {}
    for n in (64, 128, 256):
        loop = make_circle((0.0, 0.0), 1.0, -1, n)
        rep = el_residual_SE(PLANE, loop, 1.0)
        res[n] = rep.max_res
        assert rep.speed_cv < 1e-12
    assert res[256] < 2e-4
    assert 13.0 < res[64] / res[256] < 19.0


def test_discrete_extremal_converges_at_second_order():
    # the regular clockwise N-gon of radius sqrt(E) / (B cos(pi/N)) is the
    # exact critical point of the discrete S_E; its extremal-equation
    # residual and its level's gap to pi E / B fall like N^-2
    E, B = 1.0, 1.0
    spec = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=B)
    params = ActionParams(E=E, eps=0.0, tau=0.0)
    res, gap = [], []
    for n in (32, 64, 128, 256):
        r = math.sqrt(E) / (B * math.cos(math.pi / n))
        loop = make_circle((0.0, 0.0), r, -1, n)
        assert grad_norm(grad_action(spec, loop, params)) <= 1e-12
        res.append(el_residual_SE(spec, loop, E).max_res)
        gap.append(action_S(spec, loop, E) - math.pi * E / B)
    for errs in (res, gap):
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 1.9, orders


def test_el_residual_SE_internal_resampling():
    # a lumpy parameterization of the same circle must not inflate the
    # residual; the report still echoes the input's speed spread
    n = 256
    j = np.arange(n)
    u = j / n + 0.25 / n * np.sin(2.0 * np.pi * j / n)
    theta = -2.0 * np.pi * u
    verts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    loop = Loop(verts, np.zeros((n, 2), dtype=int))
    rep = el_residual_SE(PLANE, loop, 1.0)
    # the resampling seam leaves one slightly larger entry at the anchor
    assert rep.max_res < 1e-2
    assert rep.mean_res < 1e-3
    assert rep.speed_cv > 1e-4


def _tensor_residual(spec, loop, E):
    """(max, mean) of el_residual_SE's defect norms from the zero-filled
    geometry tensors at the vertices."""
    if speed_cv(spec, loop) > 1e-9:
        loop = resample_arclength(spec, loop, loop.n)
    g, gi, _, gamma, J = _tensors(spec, loop.vertices)
    vel, acc = _central_derivatives(loop)
    cov_acc = acc + np.einsum("nijk,nj,nk->ni", gamma, vel, vel)
    lorentz = np.einsum("nij,njk,nk->ni", gi, J - np.swapaxes(J, 1, 2), vel)
    sp = np.sqrt(np.maximum(np.einsum("ni,nij,nj->n", vel, g, vel), 0.0))
    res = math.sqrt(E) * cov_acc / (sp * sp)[:, None] - lorentz / sp[:, None]
    norms = np.sqrt(np.maximum(np.einsum("ni,nij,nj->n", res, g, res), 0.0))
    return float(norms.max()), float(norms.mean())


def _reference_residual(spec, loop, E):
    """el_residual_SE's defect norms as written before its kernel was
    trimmed, with np.roll for the previous edge and np.stack for the
    Christoffel and Lorentz terms: the reference that the trimmed kernel
    must equal bit for bit."""
    cv = speed_cv(spec, loop)
    work = loop if cv <= 1e-9 else resample_arclength(spec, loop, loop.n)
    u, ux = conformal_exponent(spec, work.vertices)
    lam, lam_inv = np.exp(2.0 * u), np.exp(-2.0 * u)
    c = 0.5 * (lam_inv * (2.0 * ux * lam))
    F = field_strength(spec, work.vertices)
    d = work.displacements()
    d_prev = np.roll(d, 1, axis=0)
    vel = 0.5 * work.n * (d + d_prev)
    acc = work.n ** 2 * (d - d_prev)
    vx, vy = vel[:, 0], vel[:, 1]
    cov_acc = acc + np.stack(((c * vx) * vx + (-c * vy) * vy,
                              (c * vx) * vy + (c * vy) * vx), axis=1)
    lorentz = np.stack(((lam_inv * F) * vy, (lam_inv * -F) * vx), axis=1)
    sp = np.sqrt((vx * lam) * vx + (vy * lam) * vy)
    res = math.sqrt(E) * cov_acc / (sp * sp)[:, None] - lorentz / sp[:, None]
    rx, ry = res[:, 0], res[:, 1]
    return np.sqrt((rx * lam) * rx + (ry * lam) * ry)


@pytest.mark.parametrize("n", [3, 20, 64])
@pytest.mark.parametrize("spec", ALL_SPECS + [
    GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=0.0),
    GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=2.0, k=3)],
    ids=lambda s: f"{s.kind.value}-B{s.B}-a{s.a}-u{s.u_amp}")
def test_trimmed_residual_equals_the_reference_kernel(spec, n):
    # a uniform loop (used as it is) and a wobbly one (resampled), winding
    # once in y through the last edge on a torus; max and mean of the same
    # norms, the signs of zeros included.  On the flat charts (u_amp = 0)
    # the kernel skips the metric products and the Christoffel terms.
    rng = np.random.default_rng(41)
    t = np.arange(n) / n
    w = np.zeros((n, 2), dtype=int)
    if spec.is_torus:
        w[-1] = (0, 1)
        base = np.stack([0.3 + 0.0 * t, t], axis=1)
        wobble = np.stack([0.3 + 0.1 * np.sin(2.0 * np.pi * t), t], axis=1)
    else:
        base = make_circle((0.2, -0.1), 0.9, -1, n).vertices
        wobble = base * (1.0 + 0.1 * np.cos(3.0 * np.pi * t))[:, None]
    for verts in (base, wobble + 0.01 * rng.standard_normal((n, 2))):
        loop = Loop(verts, w)
        assert (speed_cv(spec, loop) > 1e-9) == (verts is not base)
        for E in (0.7, 2.0):
            rep = el_residual_SE(spec, loop, E)
            norms = _reference_residual(spec, loop, E)
            got = np.array([rep.max_res, rep.mean_res, rep.speed_cv])
            want = np.array([norms.max(), norms.mean(), speed_cv(spec, loop)])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


# a strong conformal factor, so that Gamma(v, v) is not small against the
# acceleration; few vertices, so that max and mean show one vertex's bits
@given(spec=st.sampled_from(_KERNEL_SPECS + [GeometrySpec(
           GeometryKind.CONFORMAL_TORUS, a=0.5, k=1, u_amp=1.1)] * 3),
       n=st.integers(3, 8), center=st.tuples(_coord, _coord),
       radius=st.floats(0.05, 0.4), lump=st.floats(0.0, 0.3),
       E=st.floats(0.01, 4.0))
def test_residual_equals_tensor_formula(spec, n, center, radius, lump, E):
    # the closed-form contractions must round like the tensors they replace
    t = 2.0 * np.pi * np.arange(n) / n
    r = radius * (1.0 + lump * np.sin(3.0 * t))
    loop = Loop(np.stack([center[0] + r * np.cos(t + lump * np.sin(t)),
                          center[1] + r * np.sin(t)], axis=1))
    rep = el_residual_SE(spec, loop, E)
    assert (rep.max_res, rep.mean_res) == _tensor_residual(spec, loop, E)


@settings(max_examples=200)
@given(u_amp=st.sampled_from([0.3, -0.9, 1.4]), n=st.integers(3, 12),
       start=st.tuples(_coord, _coord), wy=st.integers(-2, 2),
       E=st.floats(0.01, 4.0))
def test_residual_equals_tensor_formula_on_wound_lines(u_amp, n, start, wy,
                                                        E):
    # a straight loop around a field-free conformal torus: the residual is
    # the geodesic defect alone, so the bits of Gamma(v, v) show
    spec = GeometrySpec(GeometryKind.CONFORMAL_TORUS, u_amp=u_amp)
    j = np.arange(n)[:, None]
    w = np.zeros((n, 2), dtype=int)
    w[-1] = (1, wy)
    loop = Loop(np.array(start) + j * np.array([1.0, wy]) / n, w)
    rep = el_residual_SE(spec, loop, E)
    assert (rep.max_res, rep.mean_res) == _tensor_residual(spec, loop, E)


@given(p=st.tuples(_coord, _coord), v=st.tuples(_vel, _vel),
       spec=st.sampled_from(_KERNEL_SPECS))
def test_norm_sq_equals_the_tensor_contraction(p, v, spec):
    v = np.array(v)
    assert _norm_sq(spec, np.array(p), v) == float(
        v @ _tensors(spec, np.array(p))[0] @ v)


def test_residual_report_json_keys():
    loop = make_circle((0.0, 0.0), 1.0, -1, 64)
    rep = el_residual_SE(PLANE, loop, 1.0)
    obj = rep.to_json_dict()
    assert set(obj) == {"max_res", "mean_res", "speed_cv"}
    assert all(isinstance(v, float) for v in obj.values())


def test_write_trajectory_csv(tmp_path):
    spec, state = FLOW_CASES[1]
    states = integrate_flow(spec, state, 1.0, 100)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, spec, states, 1.0)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "vx", "vy", "energy"]
    assert len(rows) == 102
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    assert abs(data[-1, 0] - 1.0) < 1e-15
    e = data[:, 5]
    assert np.max(np.abs(e - e[0])) < 1e-6
