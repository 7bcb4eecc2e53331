"""Lorentz flow integration and Euler-Lagrange residuals for loops.

The flow is the second-order system

    dp/dt = v,
    dv^i/dt = -Gamma^i_jk v^j v^k + g^ik F_kj v^j,

whose kinetic energy (1/2) g(v, v) is a first integral.  Integration uses
classical fixed-step RK4, so the energy drift scales like h^4 and stays
below 1e-8 for the step sizes used in the benchmarks.

The one RK4 step is geometry._build_step, built once per integration with
the acceleration written into its four stages; integrate_flow and the
shooting oracle's return search step plain (x, y, vx, vy) floats with it.
That packed row is the one phase-space state past the input: integrate_flow
returns a (steps + 1, 4) array of them, and kinetic_energy and
write_trajectory_csv read such rows.
FlowState is the validated input type only.  The shooting oracle
differentiates RK4 steps through _rk4_jacobian, the tangent-linear step
over a stack of step starts, with _flow_linear, the flow's 4x4 Jacobian.

The residual measures how far a polygonal loop is from solving the
length-type extremal equation at energy E, using winding-aware central
differences:

    gamma_dot_j  = N * (d_j + d_{j-1}) / 2
    gamma_ddot_j = N^2 * (d_j - d_{j-1})

It is scale-normalized (divided by the squared speed) so that it is
comparable across energy levels.  It contracts the chart fields by hand,
each product in the order of the general tensor contraction, so that
Gamma^x_xx = exp(-2u) d_x exp(2u) / 2 rounds as the tensor formula does.
On the exact critical points of the discrete S_E that the plane admits,
the regular N-gons, the residual and the level's gap to pi E / B converge
at second order in 1/N (tested for N = 32 .. 256).  The residual of a
shipped run is still set by the regularization, not the mesh: on
plane_larmor it is about 11.6 * eps at every continuation step, halving as
eps halves down to 9.0e-4.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateLoop
from .geometry import (ChartPoint, GeometrySpec, _build_step,
                       conformal_exponent, field_curvature, field_strength)
from .loops import Loop, resample_arclength, speed_cv

_UNIFORM_CV = 1e-9
# upper bound on the RK4 steps of one integration: integrate_flow's steps
# and one shooting return search's period_cap / dt (the shipped runs take
# 256 to 10,000 and 600 to 2,000); a trajectory row is 32 bytes
MAX_RETURN_STEPS = 10 ** 6


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
    """g_p(v, v) = exp(2u) |v|^2 at the chart point p, rounded as v.g.v."""
    lam = np.exp(2.0 * conformal_exponent(spec, p)[0])
    return float((v * lam) @ v)


def kinetic_energy(spec: GeometrySpec, y: np.ndarray) -> float:
    """Conserved mechanical energy (1/2) g_p(v, v) of a row (x, y, vx, vy)."""
    return 0.5 * _norm_sq(spec, y[:2], y[2:])


def _rhs(spec: GeometrySpec, x: float, y: float, vx: float,
         vy: float) -> tuple[float, float]:
    """Acceleration (ax, ay) of the Lorentz flow at one phase-space point,
    the acceleration part of _flow_linear there; perfbench's tracer
    declares its dynamics.rhs_* metrics from this name."""
    f = _flow_linear(spec, np.array([x, y, vx, vy]))[0]
    return float(f[2]), float(f[3])


def _flow_linear(spec: GeometrySpec, Y: np.ndarray):
    """The flow f(Y) = (v, a) that _build_step steps and its Jacobian
    Df(Y) at packed rows Y (..., 4), as arrays (..., 4) and (..., 4, 4);
    the x column uses d_x (exp(-2u) F) = exp(-2u) (F_x - 2 u_x F)."""
    p, vx, vy = Y[..., :2], Y[..., 2], Y[..., 3]
    u, ux = conformal_exponent(spec, p)
    uxx, Fx = field_curvature(spec, p)
    F = field_strength(spec, p)
    gi = np.exp(-2.0 * u)
    gF, gF_x = gi * F, gi * (Fx - 2.0 * ux * F)
    f = np.empty(Y.shape)
    f[..., :2] = Y[..., 2:]
    f[..., 2] = -(ux * vx * vx - ux * vy * vy) + gF * vy
    f[..., 3] = -2.0 * ux * vx * vy - gF * vx
    D = np.zeros(Y.shape + (4,))
    D[..., 0, 2] = D[..., 1, 3] = 1.0
    D[..., 2, 0] = -uxx * (vx * vx - vy * vy) + gF_x * vy
    D[..., 2, 2] = D[..., 3, 3] = -2.0 * ux * vx
    D[..., 2, 3] = 2.0 * ux * vy + gF
    D[..., 3, 0] = -2.0 * uxx * vx * vy - gF_x * vx
    D[..., 3, 2] = -2.0 * ux * vy - gF
    return f, D


def _pack_rows(rows: list) -> np.ndarray:
    """The (n, 4) array of an RK4 walk's (x, y, vx, vy) step tuples, read
    by one np.fromiter over their floats (twice as fast as np.array on the
    list of tuples, with the same values)."""
    return np.fromiter(itertools.chain.from_iterable(rows), float,
                       4 * len(rows)).reshape(-1, 4)


def _rk4_jacobian(spec: GeometrySpec, starts: np.ndarray,
                  h: np.ndarray) -> np.ndarray:
    """Jacobian (4, 4) of the RK4 steps of lengths h (n,) taken in turn from
    the step starts (n, 4): the product M[n-1] ... M[0] of the tangent-linear
    steps I + h/6 (K1 + 2 K2 + 2 K3 + K4), K2 = Df(Y2) (I + h/2 K1) and so
    on, multiplied by a pairwise tree of batched matmuls."""
    hv, hm, eye = h[:, None], h[:, None, None], np.eye(4)
    f1, K1 = _flow_linear(spec, starts)
    f2, D2 = _flow_linear(spec, starts + (0.5 * hv) * f1)
    K2 = D2 @ (eye + (0.5 * hm) * K1)
    f3, D3 = _flow_linear(spec, starts + (0.5 * hv) * f2)
    K3 = D3 @ (eye + (0.5 * hm) * K2)
    K4 = _flow_linear(spec, starts + hv * f3)[1] @ (eye + hm * K3)
    M = eye + (hm / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    while len(M) > 1:
        odd = M[-1:] if len(M) % 2 else M[:0]
        M = np.concatenate([M[1::2] @ M[:-1:2], odd])
    return M[0]


def integrate_flow(spec: GeometrySpec, state: FlowState, T: float,
                   steps: int) -> np.ndarray:
    """Integrate the Lorentz flow for time T with `steps` RK4 steps of
    geometry._build_step, built once.

    Returns the trajectory as one (steps + 1, 4) array of packed rows
    (x, y, vx, vy), the initial state first.  Positions are kept in the
    unwrapped chart so trajectories are continuous; wrap on output if
    needed.  A trajectory with a non-finite entry, such as a state thrown
    to infinity (the step's OverflowError), raises ValueError.
    """
    if not 1 <= steps <= MAX_RETURN_STEPS:
        raise ConfigError(f"steps must be in [1, {MAX_RETURN_STEPS}]")
    if not (0 < T < math.inf):
        raise ConfigError("T must be finite and positive")
    h = T / steps
    step = _build_step(spec)
    px, py, vx, vy = y = tuple(state.as_array().tolist())
    rows = [y]
    try:
        for _ in range(steps):  # named floats: a starred call costs more
            px, py, vx, vy = y = step(px, py, vx, vy, h)
            rows.append(y)
    except OverflowError:  # math.floor of an infinite position
        raise ValueError("v must be finite") from None
    traj = _pack_rows(rows)
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


def _central_derivatives(loop: Loop):
    d = loop.displacements()
    d_prev = np.concatenate((d[-1:], d[:-1]))
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
    if not (math.isfinite(E) and E > 0):
        raise ConfigError("E must be positive")
    cv = speed_cv(spec, loop)
    work = loop if cv <= _UNIFORM_CV else resample_arclength(spec, loop, loop.n)
    F = field_strength(spec, work.vertices)
    vel, acc = _central_derivatives(work)
    vx, vy = vel[:, 0], vel[:, 1]
    lorentz = np.empty_like(vel)
    if spec.is_flat:
        # lam = 1 and Gamma = 0: the products by 1 and the Christoffel
        # terms (signed zeros) of the general body change no norm's bits
        lam = 1.0
        lorentz[:, 0] = F * vy
        lorentz[:, 1] = -F * vx
    else:
        u, ux = conformal_exponent(spec, work.vertices)
        lam, lam_inv = np.exp(2.0 * u), np.exp(-2.0 * u)
        c = 0.5 * (lam_inv * (2.0 * ux * lam))
        # acc is fresh: its columns take the Christoffel terms
        acc[:, 0] += (c * vx) * vx + (-c * vy) * vy
        acc[:, 1] += (c * vx) * vy + (c * vy) * vx
        lorentz[:, 0] = (lam_inv * F) * vy
        lorentz[:, 1] = (lam_inv * -F) * vx
    sp = np.sqrt((vx * lam) * vx + (vy * lam) * vy)
    if np.any(sp == 0.0):
        raise DegenerateLoop("residual undefined where the speed vanishes")
    res = math.sqrt(E) * acc / (sp * sp)[:, None] - lorentz / sp[:, None]
    rx, ry = res[:, 0], res[:, 1]
    norms = np.sqrt((rx * lam) * rx + (ry * lam) * ry)
    return ResidualReport(max_res=float(norms.max()),
                          mean_res=float(norms.mean()), speed_cv=cv)
