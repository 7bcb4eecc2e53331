"""Independent reference values for cross-checking the variational solver.

Nothing here reuses the minimax machinery: closed forms, finite differences
of the action values, and direct integration of the Lorentz flow provide
second routes to the same numbers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .action import ActionParams, action_S_eps_tau
from .dynamics import (MAX_RETURN_STEPS, FlowState, _flow_linear, _norm_sq,
                       _pack_rows, _rk4_jacobian, integrate_flow,
                       kinetic_energy)
from .errors import InvalidOracleInput
from .geometry import (TWO_PI, ChartPoint, GeometrySpec, _build_step,
                       conformal_exponent, potential_eval, torus_gap)
from .loops import Loop

__all__ = [
    "larmor_orbit", "fd_gradient", "OrbitCandidate", "shooting_periodic",
    "orbit_to_loop",
]

# flow samples per vertex of orbit_to_loop's n-gon
_LOOP_OVERSAMPLE = 8
# merge distance of shot orbits: two states this close in position and in
# velocity direction lie on one orbit; _dedup_candidates scales it by the
# chart into a tolerance on p_y
_DEDUP_TOL = 1e-3
# Newton iterations of one return-map search, and of one crossing time
_NEWTON_ITERS = 12
_CROSSING_ITERS = 8


def larmor_orbit(E: float, B: float) -> tuple[float, float]:
    """Closed-form circular extremal on the constant-field plane.

    Returns (radius, level) = (sqrt(E)/B, pi*E/B): the stationary radius of
    h(r) = 2 pi sqrt(E) r - pi B r^2 and the value there.
    """
    if not (0 < E < math.inf and 0 < B < math.inf):
        raise InvalidOracleInput(
            "larmor_orbit requires finite E > 0 and B > 0")
    return math.sqrt(E) / B, math.pi * E / B


def fd_gradient(spec: GeometrySpec, loop: Loop, params: ActionParams,
                h: float = 1e-6) -> np.ndarray:
    """Central finite differences of S_{eps,tau}, shape (N, 2): the function
    grad_action differentiates."""
    if not (0 < h < math.inf):
        raise InvalidOracleInput("h must be finite and positive")

    def value(verts):
        return action_S_eps_tau(spec, Loop(verts, loop.windings), params)

    base = loop.vertices
    out = np.empty_like(base)
    for j in range(loop.n):
        for i in range(2):
            vp = base.copy()
            vm = base.copy()
            vp[j, i] += h
            vm[j, i] -= h
            out[j, i] = (value(vp) - value(vm)) / (2.0 * h)
    return out


@dataclass(frozen=True)
class OrbitCandidate:
    """A periodic Lorentz orbit found by shooting."""

    state: FlowState
    period: float
    closure_residual: float
    energy_mech: float
    energy_match: float  # S_E convention: square of the traversal speed

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "closure_residual": self.closure_residual,
            "energy_mech": self.energy_mech,
            "energy_match": self.energy_match,
        }


def _normalize_state(spec, state, E_mech):
    """Packed row (x, y, vx, vy) of a seed state rescaled to energy E_mech."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = math.sqrt(_norm_sq(spec, state.p, state.v))
    if not 0.0 < norm < math.inf:
        raise InvalidOracleInput("seed g(v, v) must be finite and nonzero")
    v = state.v * (math.sqrt(2.0 * E_mech) / norm)
    return np.array([state.p.x, state.p.y, v[0], v[1]])


def _row_state(y):
    """The FlowState of a packed row (x, y, vx, vy)."""
    return FlowState(ChartPoint(*y[:2].tolist()), y[2:])


def _state_gap(spec, y, y0):
    pos = torus_gap(spec, y[:2] - y0[:2])
    return float(np.linalg.norm(np.concatenate([pos, y[2:] - y0[2:]])))


def _section_offset(spec, dx, dy, nx, ny):
    """Offset (dx, dy) . (nx, ny) of a chart difference along a unit
    vector, the difference wrapped as torus_gap wraps it (round is half to
    even, as np.round).  Float arithmetic; _first_return's step loop
    computes the same expression inline."""
    if spec.is_torus:
        dx -= round(dx)
        dy -= round(dy)
    return dx * nx + dy * ny


def _first_return(spec, y0, p_base, nhat, dt, t_cap):
    """First same-direction crossing of the section through p_base with
    normal nhat, after a blanking interval of two steps.  Returns None or
    (t, y, starts, tau): the crossing, every RK4 step's start packed once
    into an (n, 4) array (the return Jacobian's steps, and the launch and
    x-interval of the duplicate test) and the last step's length;
    t = (n - 1) dt + tau is counted, not summed, so it does not drift.  The
    loop steps four floats with geometry._build_step, which the crossing's
    sub-steps share, and tests the sign change first, as it fails on almost
    every step.  On a torus a sign change between steps that round to
    different lattice translates of p_base is the wrapped offset jumping at
    +-0.5, not a crossing, and is passed over.  In the bracketing step, tau
    is Newton's on the section offset from its linear interpolation, with
    d(offset)/dtau = v . n, clamped to [0, dt], until a correction is below
    1e-12 dt (three sub-steps, as a rule).  A state thrown to infinity
    raises ValueError, as a flow integration does."""
    step = _build_step(spec)
    wrap = spec.is_torus
    bx, by = p_base.tolist()
    nx, ny = nhat.tolist()
    px, py, vx, vy = y0.tolist()
    h_y = _section_offset(spec, px - bx, py - by, nx, ny)
    steps = int(math.ceil(t_cap / dt))
    starts = []
    try:
        for i in range(steps):
            y = px, py, vx, vy
            starts.append(y)
            px, py, vx, vy = step(px, py, vx, vy, dt)
            dx, dy = px - bx, py - by
            if wrap:
                dx -= round(dx)
                dy -= round(dy)
            h_next = dx * nx + dy * ny
            if (h_y < 0.0 <= h_next and i > 2 and vx * nx + vy * ny > 0.0
                    and not (wrap and (round(y[0] - bx), round(y[1] - by))
                             != (round(px - bx), round(py - by)))):
                tau = dt * (h_y / (h_y - h_next))
                for _ in range(_CROSSING_ITERS):
                    tc, yc = tau, step(*y, tau)
                    off = _section_offset(spec, yc[0] - bx, yc[1] - by,
                                          nx, ny)
                    tau = min(max(tc - off / (yc[2] * nx + yc[3] * ny),
                                  0.0), dt)
                    if abs(tau - tc) <= 1e-12 * dt:
                        break
                return i * dt + tc, np.array(yc), _pack_rows(starts), tc
            h_y = h_next
    except OverflowError:  # round or math.floor of an infinite position
        raise ValueError("v must be finite") from None
    return None


def shooting_periodic(spec: GeometrySpec, E_mech: float, seed_grid,
                      period_cap: float, tol: float,
                      dt: float = 1e-3) -> list[OrbitCandidate]:
    """Search for periodic orbits of the Lorentz flow at mechanical energy
    E_mech = (1/2) g(v, v).

    For each seed a Poincare section is fixed through the seed point, normal
    to its velocity.  The return map in the two section coordinates (offset
    along the section, launch angle) is driven to a fixed point by a damped
    Newton iteration.  Its Jacobian is that of the search's own RK4 steps
    (dynamics._rk4_jacobian), between the launch derivative and the
    projection I - f n^T / (n . v) onto the section, assembled only for a
    step the loop takes.  Least-squares solves (cutoff 1e-9) tolerate the
    singular directions of continuous symmetries (a translated orbit is
    equally periodic).  The polish stops once the return gap is below
    tol/100, or at the first step that does not shrink it, keeping the best
    launch.  An orbit whose full phase-space gap after one return is below
    tol becomes a candidate, and is kept unless it duplicates an orbit kept
    from an earlier seed: the same period and energy and, on a torus, the
    same drift W, momentum p_y (conserved as every chart depends on x
    alone) and well in x, read off the candidate's last return search by
    _dedup_candidates.  Once the return gap of a seed falls below
    _DEDUP_TOL / 10 with an orbit kept, the current Newton iterate is
    checked the same way, once: on a match the seed stops without a
    candidate, as the polish moves the orbit by about the gap, far below
    _DEDUP_TOL, and its candidate would have been merged.  An empty list is
    evidence against a periodic orbit near the seeds at this resolution.
    """
    if not (math.isfinite(E_mech) and E_mech > 0):
        raise InvalidOracleInput("E_mech must be positive and finite")
    if not all(math.isfinite(v) and v > 0 for v in (period_cap, tol, dt)):
        raise InvalidOracleInput(
            "period_cap, tol, dt must be positive and finite")
    if not (period_cap / dt <= MAX_RETURN_STEPS):
        raise InvalidOracleInput(
            f"period_cap / dt exceeds {MAX_RETURN_STEPS} RK4 steps")
    speed = math.sqrt(2.0 * E_mech)

    kept = []  # (candidate, signature) of each orbit kept
    for seed in seed_grid:
        y0 = _normalize_state(spec, seed, E_mech)
        p_base = y0[:2].copy()
        nhat = y0[2:] / np.linalg.norm(y0[2:])
        mhat = np.array([-nhat[1], nhat[0]])
        phi0 = math.atan2(y0[3], y0[2])

        def launch(u):
            pos = p_base + u[0] * mhat
            vdir = np.array([math.cos(u[1]), math.sin(u[1])])
            vel = vdir * (speed / math.sqrt(_norm_sq(spec, pos, vdir)))
            return np.concatenate([pos, vel])

        def return_gap(u, t_cap):
            ret = _first_return(spec, launch(u), p_base, nhat, dt, t_cap)
            if ret is None:
                return None
            y_cross = ret[1]
            c_out = float(torus_gap(spec, y_cross[:2] - p_base) @ mhat)
            phi_out = math.atan2(y_cross[3], y_cross[2])
            dphi = (phi_out - u[1] + math.pi) % (2.0 * math.pi) - math.pi
            return np.array([c_out - u[0], dphi]), ret

        def return_jacobian(u, ret):
            _, y, starts, tau = ret
            h = np.append(np.full(len(starts) - 1, dt), tau)
            flow = _rk4_jacobian(spec, starts, h)
            f = _flow_linear(spec, y)[0] / (y[2:] @ nhat)
            section = np.eye(4) - np.outer(f, np.r_[nhat, 0.0, 0.0])
            r2 = y[2] * y[2] + y[3] * y[3]
            d_out = np.array([[*mhat, 0.0, 0.0],
                              [0.0, 0.0, -y[3] / r2, y[2] / r2]])
            ys = launch(u)  # the speed factor exp(-u) moves with the offset
            c = -conformal_exponent(spec, ys[:2])[1] * mhat[0]
            d_launch = np.array([[mhat[0], 0.0], [mhat[1], 0.0],
                                 [c * ys[2], -ys[3]], [c * ys[3], ys[2]]])
            return d_out @ section @ flow @ d_launch - np.eye(2)

        u = np.array([0.0, phi0])
        first = return_gap(u, period_cap)
        if first is None:
            continue
        gap_vec, ret = first
        t_cap = min(period_cap, 1.6 * ret[0] + 4.0 * dt)
        gap = float(np.linalg.norm(gap_vec))
        early_check, merged = bool(kept), False
        for _ in range(_NEWTON_ITERS):
            if gap < 0.01 * tol:
                break
            if early_check and gap < _DEDUP_TOL / 10:
                early_check = False
                merged = _dedup_candidates(spec, ret, kept) is None
                if merged:
                    break
            J = return_jacobian(u, ret)
            step = np.linalg.lstsq(J, -gap_vec, rcond=1e-9)[0]
            norm = float(np.linalg.norm(step))
            if norm > 0.1:
                step *= 0.1 / norm
            nxt = return_gap(u + step, t_cap)
            if nxt is None:
                break
            nxt_gap = float(np.linalg.norm(nxt[0]))
            if not nxt_gap < gap:
                break  # the step does not shrink the gap: keep the best
            u, (gap_vec, ret), gap = u + step, nxt, nxt_gap
        if merged:
            continue
        t_cross, y_cross = ret[:2]
        y_start = launch(u)
        closure = _state_gap(spec, y_cross, y_start)
        if closure >= tol:
            continue
        cand = OrbitCandidate(
            state=_row_state(y_start), period=float(t_cross),
            closure_residual=float(closure),
            energy_mech=kinetic_energy(spec, y_start),
            energy_match=float(speed * speed))
        sig = _dedup_candidates(spec, ret, kept)
        if sig is not None:
            kept.append((cand, sig))

    return [cand for cand, _ in kept]


def _dedup_candidates(spec, ret, kept):
    """Shooting's one duplicate test: None if the orbit of the return search
    ret (a _first_return result, launched from its first step start) is the
    orbit of a candidate in `kept`, a list of (candidate, signature) pairs,
    else its signature (period, energy, drift W, p_y, x-interval of the
    step starts), to be kept with it.

    Every chart depends on x alone, so y is cyclic: the flow conserves
    p_y = exp(2u) v_y + Phi(x), and y-translates of an orbit are orbits.
    Two orbits with periods within 5% and energies within _DEDUP_TOL
    relative are the same on the plane, where every closed orbit of one
    energy is a translate of one Larmor circle.  On a torus they are the
    same when W is equal, p_y agrees within the tolerance below and, unless
    the orbit winds in x, the x-intervals overlap mod 1: at one p_y and
    energy the motion in x is one closed curve in each of the disjoint
    wells of (p_y - Phi)^2 <= 2 E exp(2u), or runs one way, sign(W_x), so
    the two traversals of one path differ.  The tolerance bounds the p_y
    gap of two states delta = _DEDUP_TOL apart in position and in velocity
    direction: dp_y/dx = F + 2 u_x exp(2u) v_y, dp_y/dv_y = exp(2u),
    |F| <= |B| + 2 pi k |a|, |u_x| <= 2 pi |u_amp| and exp(u) |v| =
    sqrt(2 E) give |dp_y| <= delta (|B| + 2 pi k |a| + (1 + 4 pi |u_amp|)
    exp(|u_amp|) sqrt(2 E)).  (A torus with mean flux B would have to shift
    p_y by B per lattice step in x, as Phi(x + 1) = Phi(x) + B there.)"""
    period, y, starts, _ = ret
    y0 = starts[0]
    energy = kinetic_energy(spec, y0)
    w, p_y, lo, hi = (0.0, 0.0), 0.0, 0.0, 0.0
    if spec.is_torus:
        w = tuple(np.round(y[:2] - y0[:2]).tolist())
        lam = math.exp(2.0 * conformal_exponent(spec, y0[:2])[0])
        p_y = lam * y0[3] + float(potential_eval(spec, y0[:2]))
        lo, hi = float(starts[:, 0].min()), float(starts[:, 0].max())
        tol = _DEDUP_TOL * (
            abs(spec.B) + TWO_PI * spec.k * abs(spec.a)
            + (1.0 + 2.0 * TWO_PI * abs(spec.u_amp))
            * math.exp(abs(spec.u_amp)) * math.sqrt(2.0 * energy))
    for _, (o_period, o_energy, o_w, o_py, o_lo, o_hi) in kept:
        if (abs(period - o_period) > 0.05 * max(period, o_period)
                or abs(energy - o_energy) > _DEDUP_TOL * max(energy,
                                                             o_energy)):
            continue
        if not spec.is_torus or (
                w == o_w and abs(p_y - o_py) <= tol
                and (w[0] != 0.0 or math.floor(hi - o_lo) >= lo - o_hi)):
            return None
    return period, energy, w, p_y, lo, hi


def _check_loop_size(n) -> None:
    """Refuse an orbit_to_loop size n that is not an integer >= 3, or whose
    _LOOP_OVERSAMPLE n RK4 steps exceed MAX_RETURN_STEPS."""
    limit = MAX_RETURN_STEPS // _LOOP_OVERSAMPLE
    if not (isinstance(n, numbers.Integral) and 3 <= n <= limit):
        raise InvalidOracleInput(
            f"n must be an integer in [3, {limit}] ({_LOOP_OVERSAMPLE} RK4"
            f" steps per loop vertex), not {n!r}")


def orbit_to_loop(spec: GeometrySpec, cand: OrbitCandidate, n: int) -> Loop:
    """Sample a candidate orbit into an n-gon Loop (torus windings recovered
    from the net chart drift over one period); an n that is not an integer
    >= 3 within the RK4 step bound raises InvalidOracleInput."""
    _check_loop_size(n)
    pts = integrate_flow(spec, cand.state, cand.period,
                         n * _LOOP_OVERSAMPLE)[:, :2]
    verts = pts[:-1:_LOOP_OVERSAMPLE]
    w = np.zeros((n, 2), dtype=int)
    if spec.is_torus:
        w[-1] = np.round(pts[-1] - pts[0]).astype(int)
    return Loop(verts, w)
