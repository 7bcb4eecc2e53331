"""Metric, potential, and curvature-data checks against finite differences
and closed forms."""

import math

import numpy as np
import pytest

from magloop import (ChartPoint, GeometryKind, GeometrySpec, christoffel,
                     field_F, field_strength, metric_eval, potential_eval)
from magloop.errors import ConfigError
from magloop.geometry import metric_grad, metric_inverse, potential_jac

ALL_SPECS = [
    GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0),
    GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=2.5),
    GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1),
    GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=1.5, k=2),
    GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=1.0, k=1, u_amp=0.3),
]


def _rand_points(rng, m=25):
    return [ChartPoint(float(x), float(y))
            for x, y in rng.uniform(-2.0, 2.0, size=(m, 2))]


def _fd_metric_grad(spec, p, h=1e-5):
    out = np.zeros((2, 2, 2))
    for k in range(2):
        dp = np.zeros(2)
        dp[k] = h
        gp = metric_eval(spec, ChartPoint(p.x + dp[0], p.y + dp[1]))
        gm = metric_eval(spec, ChartPoint(p.x - dp[0], p.y - dp[1]))
        out[k] = (gp - gm) / (2.0 * h)
    return out


def _fd_christoffel(spec, p, h=1e-5):
    g = metric_eval(spec, p)
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
        g = metric_eval(spec, p)
        assert np.allclose(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0.0)
        assert np.allclose(metric_inverse(spec, p) @ g, np.eye(2),
                           atol=1e-13)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
def test_metric_grad_matches_fd(spec):
    rng = np.random.default_rng(5)
    for p in _rand_points(rng):
        dg = metric_grad(spec, p)
        fd = _fd_metric_grad(spec, p)
        assert np.max(np.abs(dg - fd)) < 1e-7


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
def test_christoffel_matches_fd(spec):
    rng = np.random.default_rng(7)
    for p in _rand_points(rng):
        gamma = christoffel(spec, p)
        fd = _fd_christoffel(spec, p)
        assert np.max(np.abs(gamma - fd)) < 1e-6
        assert np.allclose(gamma, np.swapaxes(gamma, 1, 2))


def test_flat_metrics_are_identity():
    rng = np.random.default_rng(11)
    for spec in ALL_SPECS[:4]:
        for p in _rand_points(rng, 5):
            assert np.array_equal(metric_eval(spec, p), np.eye(2))
            assert np.array_equal(christoffel(spec, p), np.zeros((2, 2, 2)))


def test_conformal_metric_closed_form():
    spec = GeometrySpec(GeometryKind.CONFORMAL_TORUS, a=1.0, k=1, u_amp=0.3)
    rng = np.random.default_rng(13)
    for p in _rand_points(rng, 10):
        g = metric_eval(spec, p)
        factor = math.exp(2.0 * 0.3 * math.cos(2.0 * math.pi * (p.x % 1.0)))
        assert g[0, 1] == 0.0 and g[1, 0] == 0.0
        assert abs(g[0, 0] - factor) < 1e-15 * factor
        assert g[0, 0] == g[1, 1]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
def test_potential_jac_matches_fd(spec):
    rng = np.random.default_rng(17)
    h = 1e-6
    for p in _rand_points(rng):
        jac = potential_jac(spec, p)
        fd = np.zeros((2, 2))
        for i in range(2):
            dp = np.zeros(2)
            dp[i] = h
            ap = potential_eval(spec, ChartPoint(p.x + dp[0], p.y + dp[1]))
            am = potential_eval(spec, ChartPoint(p.x - dp[0], p.y - dp[1]))
            fd[i] = (ap - am) / (2.0 * h)
        assert np.max(np.abs(jac - fd)) < 1e-6


def test_field_closed_forms():
    rng = np.random.default_rng(19)
    plane = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=2.5)
    torus = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=1.5, k=2)
    for p in _rand_points(rng, 10):
        assert abs(field_strength(plane, p) - 2.5) < 1e-12
        expect = 2.0 * math.pi * 2 * 1.5 * math.cos(
            2.0 * math.pi * 2 * (p.x % 1.0))
        assert abs(field_strength(torus, p) - expect) < 1e-9
        F = field_F(torus, p)
        assert F[0, 0] == 0.0 and F[1, 1] == 0.0
        assert F[0, 1] == -F[1, 0]


@pytest.mark.parametrize("spec", ALL_SPECS[2:], ids=lambda s: s.kind.value)
def test_torus_periodicity_bitwise_at_dyadic_points(spec):
    # dyadic coordinates survive +1 exactly in floating point, so wrapped
    # evaluation must agree bit for bit
    for x in (0.0, 0.125, 0.25, 0.5, 0.75):
        for y in (0.0, 0.375, 0.5):
            p = ChartPoint(x, y)
            q = ChartPoint(x + 1.0, y - 2.0)
            assert np.array_equal(metric_eval(spec, p), metric_eval(spec, q))
            assert np.array_equal(potential_eval(spec, p),
                                  potential_eval(spec, q))


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
