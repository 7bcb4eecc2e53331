"""Chart fields: the closed forms against finite differences, the general
tensor formulas, and bits recorded before they were written in closed form."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magloop import (ChartPoint, GeometryKind, GeometrySpec, Loop,
                     el_residual_SE, field_strength, init_sweep_family,
                     potential_eval)
from magloop.action import ActionParams, grad_action, values
from magloop.dynamics import _flow_linear, _norm_sq, _rk4_jacobian
from magloop.errors import ConfigError
from magloop.geometry import (TWO_PI, _build_step, _wrapped_x,
                              conformal_exponent, field_curvature)
from magloop.loops import resample_arclength

ALL_SPECS = [
    GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0),
    GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=2.5),
    GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1),
    GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=1.5, k=2),
    GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=1.0, k=1, u_amp=0.3),
]


def _tensors(spec, p):
    """The chart as zero-filled general tensors at p (..., 2): g_ij, g^ij,
    d_k g_ij (index order k, i, j), Gamma^i_jk from the general formula
    (1/2) g^il (d_j g_lk + d_k g_lj - d_l g_jk), and J_ij = d_i A_j of the
    potential A = (0, Phi(x)), whose one nonzero entry is J_xy = F.

    The reference that the closed-form contractions in loops, action and
    dynamics must reproduce bit for bit."""
    xy = np.asarray(p.as_array() if isinstance(p, ChartPoint) else p, float)
    base = xy.shape[:-1]
    u, ux = conformal_exponent(spec, xy)
    g, gi, J = (np.zeros(base + (2, 2)) for _ in range(3))
    dg = np.zeros(base + (2, 2, 2))
    g[..., 0, 0] = g[..., 1, 1] = np.exp(2.0 * u)
    gi[..., 0, 0] = gi[..., 1, 1] = np.exp(-2.0 * u)
    dg[..., 0, 0, 0] = dg[..., 0, 1, 1] = 2.0 * ux * np.exp(2.0 * u)
    br = (np.einsum("...jlk->...ljk", dg) + np.einsum("...klj->...ljk", dg)
          - dg)
    gamma = 0.5 * np.einsum("...il,...ljk->...ijk", gi, br)
    J[..., 0, 1] = field_strength(spec, xy)
    return g, gi, dg, gamma, J


def _metric(spec, p):
    return _tensors(spec, p)[0]


def _rand_points(rng, m=25):
    return [ChartPoint(float(x), float(y))
            for x, y in rng.uniform(-2.0, 2.0, size=(m, 2))]


def _fd_metric_grad(spec, p, h=1e-5):
    out = np.zeros((2, 2, 2))
    for k in range(2):
        dp = np.zeros(2)
        dp[k] = h
        gp = _metric(spec, ChartPoint(p.x + dp[0], p.y + dp[1]))
        gm = _metric(spec, ChartPoint(p.x - dp[0], p.y - dp[1]))
        out[k] = (gp - gm) / (2.0 * h)
    return out


def _fd_christoffel(spec, p, h=1e-5):
    g = _metric(spec, p)
    ginv = np.linalg.inv(g)
    dg = _fd_metric_grad(spec, p, h)
    gamma = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                s = 0.0
                for l in range(2):
                    s += ginv[i, l] * (dg[j, l, k] + dg[k, l, j]
                                       - dg[l, j, k])
                gamma[i, j, k] = 0.5 * s
    return gamma


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
def test_metric_is_spd(spec):
    rng = np.random.default_rng(3)
    for p in _rand_points(rng):
        g, gi = _tensors(spec, p)[:2]
        assert np.allclose(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0.0)
        assert np.allclose(gi @ g, np.eye(2), atol=1e-13)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
def test_metric_grad_matches_fd(spec):
    # d_x g = 2 u_x exp(2u) delta: u_x is the derivative of u
    rng = np.random.default_rng(5)
    for p in _rand_points(rng):
        dg = _tensors(spec, p)[2]
        fd = _fd_metric_grad(spec, p)
        assert np.max(np.abs(dg - fd)) < 1e-7


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
def test_christoffel_matches_fd(spec):
    # the conformal closed form Gamma^x_xx = -Gamma^x_yy = Gamma^y_xy = u_x
    # that dynamics and _build_step use, against the general formula
    rng = np.random.default_rng(7)
    for p in _rand_points(rng):
        ux = float(conformal_exponent(spec, p)[1])
        closed = np.zeros((2, 2, 2))
        closed[0, 0, 0] = closed[1, 0, 1] = closed[1, 1, 0] = ux
        closed[0, 1, 1] = -ux
        fd = _fd_christoffel(spec, p)
        assert np.max(np.abs(closed - fd)) < 1e-6
        assert np.max(np.abs(_tensors(spec, p)[3] - closed)) < 1e-14


def test_flat_metrics_are_identity():
    rng = np.random.default_rng(11)
    for spec in ALL_SPECS[:4]:
        assert spec.is_flat
        for p in _rand_points(rng, 5):
            u, ux = conformal_exponent(spec, p)
            assert u == 0.0 and ux == 0.0
            assert np.array_equal(_metric(spec, p), np.eye(2))
    assert not ALL_SPECS[4].is_flat


def test_conformal_metric_closed_form():
    spec = GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=1.0, k=1, u_amp=0.3)
    rng = np.random.default_rng(13)
    for p in _rand_points(rng, 10):
        factor = math.exp(2.0 * 0.3 * math.cos(2.0 * math.pi * (p.x % 1.0)))
        assert abs(np.exp(2.0 * conformal_exponent(spec, p)[0]) - factor) \
            < 1e-15 * factor


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
def test_potential_derivative_is_the_field(spec):
    # A = Phi(x) dy has dA = Phi' dx ^ dy, so Phi' must be F_12
    rng = np.random.default_rng(17)
    h = 1e-6
    for p in _rand_points(rng):
        fd = (potential_eval(spec, ChartPoint(p.x + h, p.y))
              - potential_eval(spec, ChartPoint(p.x - h, p.y))) / (2.0 * h)
        assert abs(fd - field_strength(spec, p)) < 1e-6
        assert potential_eval(spec, ChartPoint(p.x, p.y + 0.7)) == \
            potential_eval(spec, p)


def test_field_closed_forms():
    rng = np.random.default_rng(19)
    plane = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=2.5)
    torus = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=1.5, k=2)
    for p in _rand_points(rng, 10):
        assert abs(field_strength(plane, p) - 2.5) < 1e-12
        expect = 2.0 * math.pi * 2 * 1.5 * math.cos(
            2.0 * math.pi * 2 * (p.x % 1.0))
        assert abs(field_strength(torus, p) - expect) < 1e-9
        assert potential_eval(plane, p) == 2.5 * p.x
        assert abs(potential_eval(torus, p) - 1.5 * math.sin(
            2.0 * math.pi * 2 * (p.x % 1.0))) < 1e-12


def _cosine_field(spec, p):
    """field_strength as it was before a = 0 skipped its cosine."""
    w = TWO_PI * spec.k
    return spec.B + w * spec.a * np.cos(w * _wrapped_x(spec, p))


@pytest.mark.parametrize("spec", [
    GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=2.5),
    GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=-0.75),
    GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=0.0),
    GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=0.0, k=2),
    GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=0.0, k=1, u_amp=0.3),
], ids=["plane", "plane_negative", "plane_zero", "flat_torus",
        "conformal_torus"])
def test_zero_amplitude_field_keeps_the_cosine_formula_bits(spec):
    # random x in [-2, 2] give the cosine both signs, so the dropped term
    # is +0.0 and -0.0 in turn; one point (shape ()) and a stack (N,)
    pts = np.random.default_rng(31).uniform(-2.0, 2.0, size=(40, 2))
    for p in [ChartPoint(*pts[0]), ChartPoint(-0.4, 1.0), pts, pts[:1]]:
        got, want = field_strength(spec, p), _cosine_field(spec, p)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.int64),
                              np.asarray(want).view(np.int64))


def test_fields_read_parameters_not_kinds():
    # a conformal torus with u_amp = 0 is the flat torus of the same (a, k)
    # bit for bit, in every field and in the flow
    flat = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=1.5, k=2)
    same = GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=1.5, k=2)
    assert same.is_flat
    pts = np.random.default_rng(23).uniform(-2.0, 2.0, size=(30, 2))

    def bits(out):
        return [np.asarray(part).tobytes()
                for part in (out if isinstance(out, tuple) else (out,))]

    for field in (conformal_exponent, potential_eval, field_strength,
                  field_curvature):
        assert bits(field(flat, pts)) == bits(field(same, pts))
    step_flat, step_same = _build_step(flat), _build_step(same)
    for row in pts.reshape(15, 4).tolist():
        assert step_flat(*row, 0.013) == step_same(*row, 0.013)


@given(x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0),
       spec=st.sampled_from(ALL_SPECS))
def test_field_curvature_matches_fd(x, y, spec):
    # u_xx and F_x = d_x^2 A_y against central differences of u_x and F
    h = 1e-6
    p, pp, pm = (np.array([x + dx, y]) for dx in (0.0, h, -h))
    u_xx, F_x = field_curvature(spec, p)
    fd_uxx = (conformal_exponent(spec, pp)[1]
              - conformal_exponent(spec, pm)[1]) / (2.0 * h)
    fd_Fx = (field_strength(spec, pp) - field_strength(spec, pm)) / (2.0 * h)
    assert abs(u_xx - fd_uxx) <= 1e-8 * (1.0 + abs(fd_uxx))
    assert abs(F_x - fd_Fx) <= 1e-8 * (1.0 + abs(fd_Fx))
    if not spec.is_torus:
        assert (u_xx, F_x) == (0.0, 0.0)


@pytest.mark.parametrize("spec", ALL_SPECS[2:], ids=lambda s: s.kind.value)
def test_torus_periodicity_bitwise_at_dyadic_points(spec):
    # dyadic coordinates survive +1 exactly in floating point, so wrapped
    # evaluation must agree bit for bit
    def fields(p):
        return np.array([*conformal_exponent(spec, p),
                         potential_eval(spec, p), field_strength(spec, p)])

    for x in (0.0, 0.125, 0.25, 0.5, 0.75):
        for y in (0.0, 0.375, 0.5):
            p = ChartPoint(x, y)
            q = ChartPoint(x + 1.0, y - 2.0)
            assert fields(p).tobytes() == fields(q).tobytes()


def test_spec_from_json_dict_validation():
    good = {"kind": "flat_torus_sine", "a": 3.0, "k": 1}
    spec = GeometrySpec.from_json_dict(good)
    assert spec.kind is GeometryKind.FLAT_TORUS_SINE
    assert spec.B == 0.0 and spec.u_amp == 0.0
    with pytest.raises(ConfigError):
        GeometrySpec.from_json_dict({"kind": "flat_torus_sine", "bogus": 1})
    with pytest.raises(ConfigError):
        GeometrySpec.from_json_dict({"a": 3.0})
    with pytest.raises(ConfigError):
        GeometrySpec.from_json_dict({"kind": "no_such_kind"})
    with pytest.raises(ConfigError):
        GeometrySpec.from_json_dict({"kind": "flat_torus_sine", "k": 0})
    for key, value in (("k", 2.9), ("k", "1"), ("a", True), ("B", "2")):
        with pytest.raises(ConfigError, match=f"geometry.{key}: expected"):
            GeometrySpec.from_json_dict({"kind": "flat_torus_sine",
                                         key: value})
    assert GeometrySpec.from_json_dict(
        {"kind": "flat_torus_sine", "a": 3, "k": 2.0}).k == 2


# Recorded bits of every consumer of the chart fields, so that a rounding
# change in any hand contraction fails here: a non-uniform loop with wound
# edges (the residual resamples it first), a three-loop value stack, one
# phase-space state at an unwrapped x (on the plane for both signs of B,
# which set the signs of its zeros), and the shooting kernels (the second
# derivatives, the flow's Jacobian and the RK4 tangent map) on a stack of
# states that includes integer x, where the torus fields' sines are zero.
_PIN_SPECS = {
    "plane": GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=-1.7),
    "plane_up": GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0),
    "flat": GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=1.3, k=2),
    "conformal": GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=1.3, k=2,
                              u_amp=0.37),
}
_PINNED = {
    "plane": {
        "residual": ("0x1.5fe895a59f61ap+3", "0x1.41e4cea75264bp+2",
                     "0x1.76ae343bff58ap-3"),
        "values": "27c7abaf47eecdcb", "grad": "be92d285e66ebd2f",
        "resample": "e504fe64e230e85b", "norm_sq": "0x1.1395810624dd3p+1",
        "rk4": ("-0x1.b064bbbca68cap+0", "0x1.899daa211caa6p-2",
                "0x1.b68be7b5c65abp-1", "-0x1.30fd2aac39da9p+0"),
        "curvature": "4b48f21a4b7a02bf", "flow_linear": "80a98536e45676f9",
        "rk4_jacobian": "4304c2023ca9d3ac",
    },
    "plane_up": {
        "residual": ("0x1.b64efc0c05c81p+3", "0x1.90412f853e36dp+2",
                     "0x1.76ae343bff58ap-3"),
        "values": "9317b3d3c90e5803", "grad": "f9be4f036d3debc0",
        "resample": "e504fe64e230e85b", "norm_sq": "0x1.1395810624dd3p+1",
        "rk4": ("-0x1.b076c9802460cp+0", "0x1.896bce49ebcc4p-2",
                "0x1.a0dedce785424p-1", "-0x1.387ef90f37c83p+0"),
        "curvature": "4b48f21a4b7a02bf", "flow_linear": "b8fe2624f8c692ad",
        "rk4_jacobian": "73a195ddf40abe0e",
    },
    "flat": {
        "residual": ("0x1.ad962233b1a45p+4", "0x1.b6bf656b90208p+3",
                     "0x1.76ae343bff588p-3"),
        "values": "62d0050fc4ea11c3", "grad": "545f22c411a38bf8",
        "resample": "5f5a4654233378fa", "norm_sq": "0x1.1395810624dd3p+1",
        "rk4": ("-0x1.b01e259ad68f9p+0", "0x1.8a7a5162e3f1ap-2",
                "0x1.03adf266a7675p+0", "-0x1.0f69b22375496p+0"),
        "curvature": "e012823364a4f5b1", "flow_linear": "4443905d46c1d015",
        "rk4_jacobian": "4c1c6e43d6ffb6fd",
    },
    "conformal": {
        "residual": ("0x1.7874525b9e96ap+5", "0x1.09b8c186be00cp+4",
                     "0x1.804995110ccaap-2"),
        "values": "c87f7a2ac0cacb25", "grad": "abaf5abf9b9b9175",
        "resample": "2b6d76e035cad5cf", "norm_sq": "0x1.b680d1128ac35p+0",
        "rk4": ("-0x1.b00d69802b181p+0", "0x1.8a5e3e56d124ep-2",
                "0x1.0eaceb6b234dep+0", "-0x1.12f7daf5cf488p+0"),
        "curvature": "85b3f234ecff4315", "flow_linear": "813f9f049ac02ee6",
        "rk4_jacobian": "627282338393ac7b",
    },
}


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _pin_loop(spec):
    n = 24
    t = 2.0 * np.pi * np.arange(n) / n
    rad = 0.21 + 0.05 * np.sin(3.0 * t) + 0.01 * np.cos(7.0 * np.arange(n))
    verts = np.stack([-1.3 + rad * np.cos(t + 0.2 * np.sin(t)),
                      0.4 + rad * np.sin(t)], axis=1)
    w = np.zeros((n, 2), dtype=int)
    if spec.is_torus:
        w[5], w[17] = (1, 0), (-1, 0)
        verts[6:18, 0] -= 1.0
    return Loop(verts, w)


def _pin_states():
    """Phase-space rows (x, y, vx, vy): random ones over several cells and
    every sign of the velocity, plus rows at integer and dyadic x."""
    rng = np.random.default_rng(29)
    rows = rng.uniform(-2.5, 2.5, size=(20, 4))
    edge = [[x, 0.375, vx, vy] for x in (0.0, 1.0, -2.0, 0.5, 0.25)
            for vx, vy in ((0.83, -1.21), (-0.6, 0.9))]
    return np.concatenate([rows, np.array(edge)])


def _shooting_kernel_digests(spec):
    Y = _pin_states()
    curv = np.stack(np.broadcast_arrays(*field_curvature(spec, Y[:, :2]),
                                        Y[:, 0]))[:2]
    f, D = _flow_linear(spec, Y)
    step, y, starts = _build_step(spec), (-1.7, 0.4, 0.83, -1.21), []
    h = np.array([0.013] * 6 + [0.0071])
    for hi in h:
        starts.append(y)
        y = step(*y, hi)
    jac = _rk4_jacobian(spec, np.array(starts), h)
    return {"curvature": _digest(curv),
            "flow_linear": _digest(np.concatenate([f.ravel(), D.ravel()])),
            "rk4_jacobian": _digest(jac)}


@pytest.mark.parametrize("name", _PIN_SPECS)
def test_outputs_match_recorded_bits(name):
    spec, want = _PIN_SPECS[name], _PINNED[name]
    loop = _pin_loop(spec)
    params = ActionParams(E=0.7, eps=0.013, tau=0.21)
    rep = el_residual_SE(spec, loop, 0.7)
    assert (rep.max_res.hex(), rep.mean_res.hex(),
            rep.speed_cv.hex()) == want["residual"]
    stack = np.stack([loop.vertices, 1.01 * loop.vertices,
                      loop.vertices + 0.3])
    assert _digest(values(spec, stack, loop.windings, params)) == \
        want["values"]
    assert _digest(grad_action(spec, loop, params)) == want["grad"]
    assert _digest(resample_arclength(spec, loop, 40).vertices) == \
        want["resample"]
    v = np.array([0.83, -1.21])
    assert _norm_sq(spec, ChartPoint(-1.7, 0.4), v).hex() == want["norm_sq"]
    step = _build_step(spec)(-1.7, 0.4, 0.83, -1.21, 0.013)
    assert tuple(x.hex() for x in step) == want["rk4"]
    for key, digest in _shooting_kernel_digests(spec).items():
        assert digest == want[key], key


# Recorded bits of the sweep family (vertices, windings): a circle path on
# every pinned chart, a two-row cylinder on the sine torus, and the k = 2
# rectangle family that a weak field falls back to.
_FAMILY_PINS = [
    (_PIN_SPECS["plane"], 0.1, "path", ("f6fd916da0a23927",
                                        "71c642b31e5890a1")),
    (_PIN_SPECS["plane_up"], 0.1, "path", ("a681689a295c7a81",
                                           "71c642b31e5890a1")),
    (_PIN_SPECS["flat"], 0.1, "path", ("06c6a9eb8ac25b65",
                                       "71c642b31e5890a1")),
    (_PIN_SPECS["conformal"], 0.1, "path", ("81bc496f4e593900",
                                            "71c642b31e5890a1")),
    (GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1), 0.1,
     "cylinder", ("1632f487fcd0fcc0", "299407adb3f1bd64")),
    (GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=0.3, k=2), 0.05, "path",
     ("c069d5aa61af337a", "71c642b31e5890a1")),
]


@pytest.mark.parametrize("spec, E, shape, want", _FAMILY_PINS,
                         ids=[*_PIN_SPECS, "cylinder", "rectangle"])
def test_sweep_family_matches_recorded_bits(spec, E, shape, want):
    fam = init_sweep_family(spec, E, shape, 9, 48, m_p=2)
    loops = [lp for row in fam.rows for lp in row]
    assert len(fam.rows) == (2 if shape == "cylinder" else 1)
    assert (_digest(np.stack([lp.vertices for lp in loops])),
            _digest(np.stack([lp.windings for lp in loops]))) == want
