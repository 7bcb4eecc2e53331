"""Chart formulas of conformally flat surfaces with exact magnetic potentials.

Every chart is one formula in the parameters (B, a, k, u_amp): the metric
g = exp(2u) delta with u = u_amp*cos(2*pi*x) and the field
F_12 = B + 2*pi*k*a*cos(2*pi*k*x).  Each kind is a preset of them:

* ``plane_constant_B``: (B, 0, 1, 0) on R^2, the uniform field B.
* ``flat_torus_sine``: (0, a, k, 0) on the unit-square torus, where the
  field's zero mean makes its potential a globally defined one-form.
* ``conformal_torus``: (0, a, k, u_amp) on the same torus.

The fields are closed forms of x: u and u_x, the potential Phi of the
Landau gauge A = Phi(x) dy with Phi = B*x + a*sin(2*pi*k*x), its
derivative F_12 = Phi', and the second x-derivatives u_xx and F_x = Phi''
that the flow's Jacobian reads.  No field forks on the kind: the circulation
sees only F = dA, so one gauge serves the plane and the torus, where B = 0
makes A a global one-form.  No tensor is built; callers contract the fields
by hand, with g^-1 = exp(-2u) delta, d_x g = 2 u_x exp(2u) delta and
Gamma^x_xx = -Gamma^x_yy = Gamma^y_xy = u_x.  _build_step is one RK4 step
of the flow they define, in floats at one phase-space point.

The fields accept a ChartPoint or an array of shape (..., 2) and broadcast.
A field is the float 0.0 where its amplitude is zero: u, u_x and u_xx when
u_amp = 0 (``is_flat``), F_x when a = 0, and Phi skips its sine and F_12
its cosine then.  On the torus x is wrapped into [0, 1) first, so the
fields are bitwise periodic under integer translations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _check_keys, _number, _require

TWO_PI = 2.0 * math.pi


class GeometryKind(enum.Enum):
    PLANE_CONSTANT_B = "plane_constant_B"
    FLAT_TORUS_SINE = "flat_torus_sine"
    CONFORMAL_TORUS = "conformal_torus"


@dataclass(frozen=True)
class ChartPoint:
    """A point in chart coordinates."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ConfigError("chart coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class GeometrySpec:
    """Immutable description of a chart: F_12 = B + 2 pi k a cos(2 pi k x)
    over g = exp(2 u_amp cos(2 pi x)) delta on the plane or torus its kind
    names.  The kinds are presets of (B, a, k, u_amp): plane (B, 0, 1, 0),
    flat torus (0, a, k, 0), conformal torus (0, a, k, u_amp); a kind
    refuses a parameter it presets away from the preset value.
    """

    kind: GeometryKind
    B: float = 0.0
    a: float = 0.0
    k: int = 1
    u_amp: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, GeometryKind):
            raise ConfigError("kind must be a GeometryKind")
        for name in ("B", "a", "u_amp"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.is_torus and self.B != 0.0:
            raise ConfigError("B must be 0 on the torus kinds")
        if int(self.k) != self.k or self.k < 1:
            raise ConfigError("k must be a positive integer")
        if not self.is_torus and (self.a != 0.0 or self.k != 1):
            raise ConfigError("a must be 0 and k 1 on the plane")
        if self.u_amp != 0.0 and self.kind is not GeometryKind.CONFORMAL_TORUS:
            raise ConfigError("u_amp must be 0 on the flat kinds")
        # the field amplitude and the conformal factor must stay floats
        try:
            amplitude = TWO_PI * self.k * self.a
            math.exp(2.0 * abs(self.u_amp))
        except OverflowError:
            amplitude = math.inf
        if not math.isfinite(amplitude):
            raise ConfigError(
                "the field amplitude 2 pi k a and the conformal factor "
                "exp(2 |u_amp|) must be finite")

    @property
    def is_torus(self) -> bool:
        return self.kind is not GeometryKind.PLANE_CONSTANT_B

    @property
    def is_flat(self) -> bool:
        """True when u_amp = 0, so the metric is the Euclidean delta."""
        return self.u_amp == 0.0

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "B": float(self.B),
            "a": float(self.a),
            "k": int(self.k),
            "u_amp": float(self.u_amp),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GeometrySpec":
        """Build a spec from a JSON object.

        Absent numeric parameters default to 0 (k defaults to 1); unknown
        keys, non-numbers and a non-integer k are rejected.
        """
        _check_keys(obj, {"kind", "B", "a", "k", "u_amp"}, "geometry")
        kind = _require(obj, "kind", "geometry")
        names = [m.value for m in GeometryKind]
        if kind not in names:
            raise ConfigError(
                f"geometry: unknown kind {kind!r}; expected one of {names}")
        return cls(
            kind=GeometryKind(kind),
            B=_number(obj, "B", "geometry", default=0.0),
            a=_number(obj, "a", "geometry", default=0.0),
            k=_number(obj, "k", "geometry", default=1, integer=True),
            u_amp=_number(obj, "u_amp", "geometry", default=0.0),
        )


def _as_xy(p) -> np.ndarray:
    """Coerce a ChartPoint or array-like into an (..., 2) float array."""
    if isinstance(p, ChartPoint):
        return p.as_array()
    arr = np.asarray(p, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("points must have trailing dimension 2")
    return arr


def torus_gap(spec: GeometrySpec, delta):
    """A chart-coordinate difference taken to its nearest lattice translate
    on the torus kinds; ``delta`` itself on the plane."""
    if spec.is_torus:
        return delta - np.round(delta)
    return delta


def _wrapped_x(spec: GeometrySpec, p) -> np.ndarray:
    """The x coordinate of p, wrapped into [0, 1) on the torus kinds."""
    x = _as_xy(p)[..., 0]
    if spec.is_torus:
        x = x - np.floor(x)
    return x


def conformal_exponent(spec: GeometrySpec, p):
    """Exponent u of the metric g = exp(2u) delta at p and its x-derivative
    u_x, each of shape (...); both are the float 0.0 when u_amp = 0."""
    if spec.is_flat:
        return 0.0, 0.0
    x = _wrapped_x(spec, p)
    return (spec.u_amp * np.cos(TWO_PI * x),
            -TWO_PI * spec.u_amp * np.sin(TWO_PI * x))


def potential_eval(spec: GeometrySpec, p):
    """Potential Phi = B*x + a*sin(2 pi k x) of the gauge A = Phi(x) dy at
    p, shape (...); Phi' = F_12.  The sine is skipped when a = 0."""
    x = _wrapped_x(spec, p)
    phi = spec.B * x
    if spec.a == 0.0:
        return phi
    return phi + spec.a * np.sin(TWO_PI * spec.k * x)


def field_strength(spec: GeometrySpec, p):
    """Field F_12 = B + 2 pi k a cos(2 pi k x) at p, shape (...).  When
    a = 0 the cosine term is a signed zero and F is B at every point."""
    if spec.a == 0.0:
        return spec.B + np.zeros(_as_xy(p).shape[:-1])
    w = TWO_PI * spec.k
    return spec.B + w * spec.a * np.cos(w * _wrapped_x(spec, p))


def field_curvature(spec: GeometrySpec, p):
    """Second x-derivatives (u_xx, F_x = Phi'') at p, each the float 0.0
    where its amplitude is zero (u_amp for u_xx, a for F_x): on the plane
    the formula would give zeros signed as sin(2 pi x), and the flow's
    Jacobian keeps those signs."""
    x, w = _wrapped_x(spec, p), TWO_PI * spec.k
    u_xx = 0.0 if spec.is_flat else (
        -TWO_PI * TWO_PI * spec.u_amp * np.cos(TWO_PI * x))
    F_x = 0.0 if spec.a == 0.0 else -w * (w * spec.a) * np.sin(w * x)
    return u_xx, F_x


def _build_step(spec: GeometrySpec):
    """Classical RK4 step(px, py, vx, vy, h) -> (px, py, vx, vy) of the
    Lorentz flow, the acceleration -Gamma(v, v) + g^-1 F v with
    F = B + 2 pi k a cos(2 pi k x) at the wrapped x written into each
    stage: Gamma = 0 in the flat closure (u_amp = 0), and
    Gamma^x_xx = -Gamma^x_yy = Gamma^y_xy = u_x in the conformal one.  The
    constants are formed once per build, grouped as the products above
    group them (2 pi k, then times a), and the stages run in the order of
    y + (h/6) (k1 + 2 k2 + 2 k3 + k4), so a step is the same floats as the
    formulas written out in full; the stages form no y, which no field
    reads.  An infinite position raises OverflowError (math.floor)."""
    B, w = spec.B, TWO_PI * spec.k
    amp = w * spec.a
    floor, cos = math.floor, math.cos
    if spec.is_flat:
        def step(px, py, vx, vy, h):
            hh = 0.5 * h
            F = B + amp * cos(w * (px - floor(px)))
            a1x, a1y = F * vy, -F * vx
            px2 = px + hh * vx
            vx2, vy2 = vx + hh * a1x, vy + hh * a1y
            F = B + amp * cos(w * (px2 - floor(px2)))
            a2x, a2y = F * vy2, -F * vx2
            px3 = px + hh * vx2
            vx3, vy3 = vx + hh * a2x, vy + hh * a2y
            F = B + amp * cos(w * (px3 - floor(px3)))
            a3x, a3y = F * vy3, -F * vx3
            px4 = px + h * vx3
            vx4, vy4 = vx + h * a3x, vy + h * a3y
            F = B + amp * cos(w * (px4 - floor(px4)))
            h6 = h / 6.0
            return (px + h6 * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4),
                    py + h6 * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4),
                    vx + h6 * (a1x + 2.0 * a2x + 2.0 * a3x + F * vy4),
                    vy + h6 * (a1y + 2.0 * a2y + 2.0 * a3y - F * vx4))
        return step
    u_amp = spec.u_amp
    c = -TWO_PI * u_amp
    sin, exp = math.sin, math.exp

    def step(px, py, vx, vy, h):
        hh = 0.5 * h
        x = px - floor(px)
        ux = c * sin(TWO_PI * x)
        gF = exp(-2.0 * (u_amp * cos(TWO_PI * x))) * (B + amp * cos(w * x))
        a1x = -(ux * vx * vx - ux * vy * vy) + gF * vy
        a1y = -2.0 * ux * vx * vy - gF * vx
        px2 = px + hh * vx
        vx2, vy2 = vx + hh * a1x, vy + hh * a1y
        x = px2 - floor(px2)
        ux = c * sin(TWO_PI * x)
        gF = exp(-2.0 * (u_amp * cos(TWO_PI * x))) * (B + amp * cos(w * x))
        a2x = -(ux * vx2 * vx2 - ux * vy2 * vy2) + gF * vy2
        a2y = -2.0 * ux * vx2 * vy2 - gF * vx2
        px3 = px + hh * vx2
        vx3, vy3 = vx + hh * a2x, vy + hh * a2y
        x = px3 - floor(px3)
        ux = c * sin(TWO_PI * x)
        gF = exp(-2.0 * (u_amp * cos(TWO_PI * x))) * (B + amp * cos(w * x))
        a3x = -(ux * vx3 * vx3 - ux * vy3 * vy3) + gF * vy3
        a3y = -2.0 * ux * vx3 * vy3 - gF * vx3
        px4 = px + h * vx3
        vx4, vy4 = vx + h * a3x, vy + h * a3y
        x = px4 - floor(px4)
        ux = c * sin(TWO_PI * x)
        gF = exp(-2.0 * (u_amp * cos(TWO_PI * x))) * (B + amp * cos(w * x))
        h6 = h / 6.0
        return (px + h6 * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4),
                py + h6 * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4),
                vx + h6 * (a1x + 2.0 * a2x + 2.0 * a3x
                           + (-(ux * vx4 * vx4 - ux * vy4 * vy4) + gF * vy4)),
                vy + h6 * (a1y + 2.0 * a2y + 2.0 * a3y
                           + (-2.0 * ux * vx4 * vy4 - gF * vx4)))
    return step
