"""Lorentz flow integration and Euler-Lagrange residuals for loops.

The flow is the second-order system

    dp/dt = v,
    dv^i/dt = -Gamma^i_jk v^j v^k + g^ik F_kj v^j,

whose kinetic energy (1/2) g(v, v) is a first integral.  Integration uses
classical fixed-step RK4, so the energy drift scales like h^4 and stays
below 1e-8 for the step sizes used in the benchmarks.

The single-point right-hand side is written in closed form for each chart
kind on Python floats: F_12 v-rotation on the plane and the flat torus,
plus the conformal Christoffel terms u_x (v_x^2 - v_y^2, 2 v_x v_y) and the
factor exp(-2u) on the conformal torus.  It builds no tensors and makes no
geometry call.  Each integration builds it once, with the chart's constants
folded in, and steps one float RK4 kernel on plain (x, y, vx, vy) tuples; on
the flat kinds a step equals the tensor formula -Gamma(v, v) + g^-1 F v bit
for bit.  The packed row (x, y, vx, vy) is the one phase-space state past
the input: integrate_flow returns its trajectory as a (steps + 1, 4) array,
and kinetic_energy and write_trajectory_csv read such rows.  FlowState is
the validated input type only.  The residuals below use the vectorized
geometry tensors.

The residual measures how far a polygonal loop is from solving the
length-type extremal equation at energy E, using winding-aware central
differences:

    gamma_dot_j  = N * (d_j + d_{j-1}) / 2
    gamma_ddot_j = N^2 * (d_j - d_{j-1})

It is scale-normalized (divided by the squared speed) so that it is
comparable across energy levels.  On the exact critical points of the
discrete S_E that the plane admits, the regular N-gons, the residual and
the level's gap to pi E / B converge at second order in 1/N (tested for
N = 32 .. 256).  The residual of a shipped run is still set by the
regularization, not the mesh: on plane_larmor it is about 11.6 * eps at
every continuation step, halving as eps halves down to 9.0e-4.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateLoop
from .geometry import (TWO_PI, ChartPoint, GeometryKind, GeometrySpec,
                       christoffel, field_F, metric_eval, metric_inverse)
from .loops import Loop, resample_arclength, speed_cv

_UNIFORM_CV = 1e-9


@dataclass(frozen=True)
class FlowState:
    """Validated phase-space input: chart position and tangent vector;
    as_array packs it as a trajectory row (x, y, vx, vy)."""

    p: ChartPoint
    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != (2,):
            raise ConfigError("v must be a 2-vector")
        if not np.all(np.isfinite(v)):
            raise ConfigError("v must be finite")
        v = np.array(v)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    def as_array(self) -> np.ndarray:
        return np.array([self.p.x, self.p.y, self.v[0], self.v[1]])


def _norm_sq(spec: GeometrySpec, p, v: np.ndarray) -> float:
    """g_p(v, v), the squared metric length of v at the chart point p."""
    return float(v @ metric_eval(spec, p) @ v)


def kinetic_energy(spec: GeometrySpec, y: np.ndarray) -> float:
    """Conserved mechanical energy (1/2) g_p(v, v) of a row (x, y, vx, vy)."""
    return 0.5 * _norm_sq(spec, y[:2], y[2:])


def _build_rhs(spec: GeometrySpec):
    """Acceleration rhs(x, y, vx, vy) -> (ax, ay) of the Lorentz flow.

    Closed form per chart kind, operation for operation equal to
    -Gamma(v, v) + g^-1 F v on the flat kinds:

    * plane: F_12 = B, Gamma = 0.
    * flat torus: F_12 = 2 pi k a cos(2 pi k x) at the wrapped x, Gamma = 0.
    * conformal torus: the same field over g = exp(2u) delta, u = u(x), where
      Gamma^x_xx = -Gamma^x_yy = Gamma^y_xy = u_x.

    The constants are formed once per call, grouped as the left-to-right
    products above group them (2 pi k, then times a), so the accelerations
    are the same floats as those of the formulas written out in full.
    """
    kind = spec.kind
    if kind is GeometryKind.PLANE_CONSTANT_B:
        F = spec.B

        def rhs(x, y, vx, vy):
            return F * vy, -F * vx
        return rhs
    w = TWO_PI * spec.k
    amp = w * spec.a
    floor, cos = math.floor, math.cos
    if kind is GeometryKind.FLAT_TORUS_SINE:
        def rhs(x, y, vx, vy):
            F = amp * cos(w * (x - floor(x)))
            return F * vy, -F * vx
        return rhs
    u_amp = spec.u_amp
    c = -TWO_PI * u_amp
    sin, exp = math.sin, math.exp

    def rhs(x, y, vx, vy):
        x = x - floor(x)
        F = amp * cos(w * x)
        ux = c * sin(TWO_PI * x)
        gF = exp(-2.0 * (u_amp * cos(TWO_PI * x))) * F
        return (-(ux * vx * vx - ux * vy * vy) + gF * vy,
                -2.0 * ux * vx * vy - gF * vx)
    return rhs


def _rhs(spec: GeometrySpec, x: float, y: float, vx: float,
         vy: float) -> tuple[float, float]:
    """Acceleration (ax, ay) of the Lorentz flow at one phase-space point.

    The one-point form of _build_rhs; perfbench's tracer declares its
    dynamics.rhs_* metrics from this name."""
    return _build_rhs(spec)(x, y, vx, vy)


def _rk4(rhs, px, py, vx, vy, h):
    """One classical RK4 step of length h from (px, py, vx, vy).

    The stages run on Python floats in the order of the array expression
    y + (h/6) (k1 + 2 k2 + 2 k3 + k4), so the step equals its ndarray
    form bit for bit.
    """
    hh = 0.5 * h
    a1x, a1y = rhs(px, py, vx, vy)
    px2, py2 = px + hh * vx, py + hh * vy
    vx2, vy2 = vx + hh * a1x, vy + hh * a1y
    a2x, a2y = rhs(px2, py2, vx2, vy2)
    px3, py3 = px + hh * vx2, py + hh * vy2
    vx3, vy3 = vx + hh * a2x, vy + hh * a2y
    a3x, a3y = rhs(px3, py3, vx3, vy3)
    px4, py4 = px + h * vx3, py + h * vy3
    vx4, vy4 = vx + h * a3x, vy + h * a3y
    a4x, a4y = rhs(px4, py4, vx4, vy4)
    h6 = h / 6.0
    return (px + h6 * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4),
            py + h6 * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4),
            vx + h6 * (a1x + 2.0 * a2x + 2.0 * a3x + a4x),
            vy + h6 * (a1y + 2.0 * a2y + 2.0 * a3y + a4y))


def integrate_flow(spec: GeometrySpec, state: FlowState, T: float,
                   steps: int) -> np.ndarray:
    """Integrate the Lorentz flow for time T with `steps` RK4 steps.

    Returns the trajectory as one (steps + 1, 4) array of packed rows
    (x, y, vx, vy), the initial state first.  Positions are kept in the
    unwrapped chart so trajectories are continuous; wrap on output if
    needed.  A trajectory with a non-finite entry, such as a state thrown
    to infinity, raises ValueError.
    """
    if steps < 1:
        raise ConfigError("steps must be positive")
    if not (0 < T < math.inf):
        raise ConfigError("T must be finite and positive")
    h = T / steps
    rhs = _build_rhs(spec)
    y = tuple(state.as_array().tolist())
    rows = [y]
    try:
        for _ in range(steps):
            y = _rk4(rhs, *y, h)
            rows.append(y)
    except OverflowError:  # math.floor of an infinite position
        raise ValueError("v must be finite") from None
    traj = np.array(rows)
    if not np.isfinite(traj).all():
        raise ValueError("v must be finite")
    return traj


def write_trajectory_csv(path, spec: GeometrySpec, traj: np.ndarray,
                         T: float) -> list[float]:
    """Write t,x,y,vx,vy,energy rows for an integrate_flow trajectory.

    Returns the kinetic energies written, one per row.
    """
    n = len(traj) - 1
    energies = [kinetic_energy(spec, y) for y in traj]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "vx", "vy", "energy"])
        for i, (row, e) in enumerate(zip(traj.tolist(), energies)):
            writer.writerow([repr(i * T / n), *map(repr, row), repr(e)])
    return energies


@dataclass(frozen=True)
class ResidualReport:
    """Largest and mean per-vertex extremal-equation defect of a loop."""

    max_res: float
    mean_res: float
    speed_cv: float

    def to_json_dict(self) -> dict:
        return {
            "max_res": self.max_res,
            "mean_res": self.mean_res,
            "speed_cv": self.speed_cv,
        }


def _central_derivatives(loop: Loop):
    d = loop.displacements()
    d_prev = np.roll(d, 1, axis=0)
    vel = 0.5 * loop.n * (d + d_prev)
    acc = loop.n ** 2 * (d - d_prev)
    return vel, acc


def el_residual_SE(spec: GeometrySpec, loop: Loop, E: float) -> ResidualReport:
    """Defect of the length-type extremal equation at energy E.

    The equation compares sqrt(E) times the covariant acceleration against
    the Lorentz force along the loop; an exact extremal traversed at constant
    speed zeroes it.  Non-uniform loops are resampled to arc length
    internally (the equation presumes that parameterization); the reported
    speed_cv always refers to the input loop.
    """
    if not (E > 0):
        raise ConfigError("E must be positive")
    cv = speed_cv(spec, loop)
    work = loop if cv <= _UNIFORM_CV else resample_arclength(spec, loop, loop.n)
    v = work.vertices
    g = metric_eval(spec, v)
    vel, acc = _central_derivatives(work)
    cov_acc = acc + np.einsum("nijk,nj,nk->ni", christoffel(spec, v), vel, vel)
    lorentz = np.einsum("nij,njk,nk->ni", metric_inverse(spec, v),
                        field_F(spec, v), vel)
    sp = np.sqrt(np.maximum(np.einsum("ni,nij,nj->n", vel, g, vel), 0.0))
    if np.any(sp == 0.0):
        raise DegenerateLoop("residual undefined where the speed vanishes")
    res = math.sqrt(E) * cov_acc / (sp * sp)[:, None] - lorentz / sp[:, None]
    norms = np.sqrt(np.maximum(np.einsum("ni,nij,nj->n", res, g, res), 0.0))
    return ResidualReport(max_res=float(norms.max()),
                          mean_res=float(norms.mean()), speed_cv=cv)
