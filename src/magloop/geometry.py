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
Gamma^x_xx = -Gamma^x_yy = Gamma^y_xy = u_x.  _build_rhs is the float form
of the same formulas at one phase-space point.

The fields accept a ChartPoint or an array of shape (..., 2) and broadcast.
A field is the float 0.0 where its amplitude is zero: u, u_x and u_xx when
u_amp = 0 (``is_flat``), F_x when a = 0, and Phi skips its sine then.  On
the torus x is wrapped into [0, 1) first, so the fields are bitwise
periodic under integer translations.
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
    """Field F_12 = B + 2 pi k a cos(2 pi k x) at p, shape (...)."""
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


def _build_rhs(spec: GeometrySpec):
    """Acceleration rhs(x, y, vx, vy) -> (ax, ay) of the Lorentz flow,
    -Gamma(v, v) + g^-1 F v with F = B + 2 pi k a cos(2 pi k x) at the
    wrapped x: Gamma = 0 in the flat closure (u_amp = 0), and
    Gamma^x_xx = -Gamma^x_yy = Gamma^y_xy = u_x in the conformal one.  The
    constants are formed once per call, grouped as the left-to-right
    products above group them (2 pi k, then times a), so the accelerations
    are the same floats as those of the formulas written out in full.
    """
    B, w = spec.B, TWO_PI * spec.k
    amp = w * spec.a
    floor, cos = math.floor, math.cos
    if spec.is_flat:
        def rhs(x, y, vx, vy):
            F = B + amp * cos(w * (x - floor(x)))
            return F * vy, -F * vx
        return rhs
    u_amp = spec.u_amp
    c = -TWO_PI * u_amp
    sin, exp = math.sin, math.exp

    def rhs(x, y, vx, vy):
        x = x - floor(x)
        F = B + amp * cos(w * x)
        ux = c * sin(TWO_PI * x)
        gF = exp(-2.0 * (u_amp * cos(TWO_PI * x))) * F
        return (-(ux * vx * vx - ux * vy * vy) + gF * vy,
                -2.0 * ux * vx * vy - gF * vx)
    return rhs
