"""Two-dimensional Riemannian charts carrying exact magnetic potentials.

Three chart kinds are built in:

* ``plane_constant_B``: Euclidean metric on R^2, potential
  A = (-B*y/2, B*x/2), constant field F_12 = B.
* ``flat_torus_sine``: flat unit-square torus, potential
  A = (0, a*sin(2*pi*k*x)), field F_12 = 2*pi*k*a*cos(2*pi*k*x).
  The field has zero mean, so A is a globally defined one-form.
* ``conformal_torus``: same potential over the metric exp(2*u)*delta_ij
  with u = u_amp*cos(2*pi*x).

All evaluations accept a single ChartPoint or an array of shape (..., 2)
and broadcast.  On the torus kinds coordinates are wrapped into [0, 1)
before any trigonometric evaluation, so field values are exactly periodic
(bitwise) under integer translations of the chart coordinates.
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
    """Immutable description of a chart: kind plus field/metric parameters.

    Unused parameters are kept at their defaults; ``B`` only matters on the
    plane, ``a``/``k`` on the torus kinds, ``u_amp`` on the conformal torus.
    The torus fields have zero mean, so ``B`` other than 0 is refused there.
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


def _wrapped_x(spec: GeometrySpec, xy: np.ndarray) -> np.ndarray:
    x = xy[..., 0]
    if spec.is_torus:
        x = x - np.floor(x)
    return x


def _conformal_u(spec: GeometrySpec, xy: np.ndarray) -> np.ndarray:
    return spec.u_amp * np.cos(TWO_PI * _wrapped_x(spec, xy))


def metric_eval(spec: GeometrySpec, p) -> np.ndarray:
    """Metric tensor g_ij at p, shape (..., 2, 2).  Symmetric positive definite."""
    xy = _as_xy(p)
    base = xy.shape[:-1]
    g = np.zeros(base + (2, 2), dtype=float)
    if spec.kind is GeometryKind.CONFORMAL_TORUS:
        lam = np.exp(2.0 * _conformal_u(spec, xy))
        g[..., 0, 0] = lam
        g[..., 1, 1] = lam
    else:
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = 1.0
    return g


def metric_grad(spec: GeometrySpec, p) -> np.ndarray:
    """Coordinate derivatives of the metric: out[..., k, i, j] = d_k g_ij."""
    xy = _as_xy(p)
    base = xy.shape[:-1]
    dg = np.zeros(base + (2, 2, 2), dtype=float)
    if spec.kind is GeometryKind.CONFORMAL_TORUS:
        x = _wrapped_x(spec, xy)
        lam = np.exp(2.0 * spec.u_amp * np.cos(TWO_PI * x))
        ux = -TWO_PI * spec.u_amp * np.sin(TWO_PI * x)
        d = 2.0 * ux * lam  # d_x exp(2u); u has no y dependence
        dg[..., 0, 0, 0] = d
        dg[..., 0, 1, 1] = d
    return dg


def metric_inverse(spec: GeometrySpec, p) -> np.ndarray:
    """Inverse metric g^ij at p, shape (..., 2, 2)."""
    xy = _as_xy(p)
    base = xy.shape[:-1]
    gi = np.zeros(base + (2, 2), dtype=float)
    if spec.kind is GeometryKind.CONFORMAL_TORUS:
        lam = np.exp(-2.0 * _conformal_u(spec, xy))
        gi[..., 0, 0] = lam
        gi[..., 1, 1] = lam
    else:
        gi[..., 0, 0] = 1.0
        gi[..., 1, 1] = 1.0
    return gi


def christoffel(spec: GeometrySpec, p) -> np.ndarray:
    """Christoffel symbols of g: out[..., i, j, k] = Gamma^i_{jk}.

    Assembled from the exact metric derivatives via
    Gamma^i_{jk} = (1/2) g^{il} (d_j g_{lk} + d_k g_{lj} - d_l g_{jk}),
    which reduces to the usual conformal closed form on conformal_torus
    and to zero on the flat kinds.
    """
    xy = _as_xy(p)
    base = xy.shape[:-1]
    if spec.kind is not GeometryKind.CONFORMAL_TORUS:
        return np.zeros(base + (2, 2, 2), dtype=float)
    dg = metric_grad(spec, xy)
    gi = metric_inverse(spec, xy)
    # brackets[..., l, j, k] = d_j g_{lk} + d_k g_{lj} - d_l g_{jk}
    br = (np.einsum("...jlk->...ljk", dg)
          + np.einsum("...klj->...ljk", dg)
          - dg)
    return 0.5 * np.einsum("...il,...ljk->...ijk", gi, br)


def potential_eval(spec: GeometrySpec, p) -> np.ndarray:
    """Magnetic potential one-form components (A_1, A_2) at p, shape (..., 2)."""
    xy = _as_xy(p)
    A = np.zeros_like(xy)
    if spec.kind is GeometryKind.PLANE_CONSTANT_B:
        A[..., 0] = -0.5 * spec.B * xy[..., 1]
        A[..., 1] = 0.5 * spec.B * xy[..., 0]
    else:
        x = _wrapped_x(spec, xy)
        A[..., 1] = spec.a * np.sin(TWO_PI * spec.k * x)
    return A


def potential_jac(spec: GeometrySpec, p) -> np.ndarray:
    """Jacobian of the potential: out[..., i, j] = d_i A_j."""
    xy = _as_xy(p)
    base = xy.shape[:-1]
    J = np.zeros(base + (2, 2), dtype=float)
    if spec.kind is GeometryKind.PLANE_CONSTANT_B:
        J[..., 0, 1] = 0.5 * spec.B
        J[..., 1, 0] = -0.5 * spec.B
    else:
        x = _wrapped_x(spec, xy)
        J[..., 0, 1] = TWO_PI * spec.k * spec.a * np.cos(TWO_PI * spec.k * x)
    return J


def field_F(spec: GeometrySpec, p) -> np.ndarray:
    """Field two-form components F_ij = d_i A_j - d_j A_i, shape (..., 2, 2)."""
    J = potential_jac(spec, p)
    return J - np.swapaxes(J, -1, -2)


def field_strength(spec: GeometrySpec, p) -> np.ndarray:
    """Scalar field component F_12 at p."""
    return field_F(spec, p)[..., 0, 1]
