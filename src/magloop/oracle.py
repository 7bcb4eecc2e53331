"""Independent reference values for cross-checking the variational solver.

Nothing here reuses the minimax machinery: closed forms, dense radius scans,
finite differences of the action values, and direct integration of the
Lorentz flow provide second routes to the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import (ActionParams, CutoffSpec, action_F_cutoff, action_S,
                     action_S_eps_tau)
from .dynamics import (FlowState, _build_rhs, _norm_sq, _rk4, integrate_flow,
                       kinetic_energy)
from .errors import InvalidOracleInput
from .geometry import ChartPoint, GeometryKind, GeometrySpec, torus_gap
from .loops import Loop, make_circle

__all__ = [
    "larmor_orbit", "circle_action_profile", "fd_gradient",
    "OrbitCandidate", "shooting_periodic", "orbit_to_loop",
]

# upper bound on the RK4 steps of one return search, period_cap / dt; the
# shipped searches take 600 to 2,000
MAX_RETURN_STEPS = 10 ** 6
# orbit samples and point-set distance below which two candidates are merged
_DEDUP_PROBE = 256
_DEDUP_TOL = 1e-3
# Newton iterations of one return-map search
_NEWTON_ITERS = 12


def larmor_orbit(E: float, B: float) -> tuple[float, float]:
    """Closed-form circular extremal on the constant-field plane.

    Returns (radius, level) = (sqrt(E)/B, pi*E/B): the stationary radius of
    h(r) = 2 pi sqrt(E) r - pi B r^2 and the value there.
    """
    if not (0 < E < math.inf and 0 < B < math.inf):
        raise InvalidOracleInput(
            "larmor_orbit requires finite E > 0 and B > 0")
    return math.sqrt(E) / B, math.pi * E / B


def circle_action_profile(spec: GeometrySpec, E: float, r_grid,
                          n: int) -> np.ndarray:
    """Discrete length-type action S_E of concentric circles on the plane.

    The orientation is chosen so the enclosed flux contributes negatively
    (the branch with an interior maximum).  Torus charts are refused; the
    profile is only a faithful one-parameter reduction on the plane.
    """
    if spec.kind is not GeometryKind.PLANE_CONSTANT_B:
        raise InvalidOracleInput("circle profile is defined on the plane only")
    if not (0 < E < math.inf):
        raise InvalidOracleInput("E must be finite and positive")
    if n < 3:
        raise InvalidOracleInput("n must be >= 3")
    if len(r_grid) == 0:
        raise InvalidOracleInput("the radius grid is empty")
    orientation = -1 if spec.B >= 0 else 1
    out = np.empty(len(r_grid))
    for i, r in enumerate(r_grid):
        if not (0 <= r < math.inf):
            raise InvalidOracleInput("radii must be finite and nonnegative")
        out[i] = action_S(spec, make_circle((0.0, 0.0), float(r),
                                            orientation, n), E)
    return out


def fd_gradient(spec: GeometrySpec, loop: Loop, params: ActionParams,
                cut: CutoffSpec | None = None, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the action value, shape (N, 2).

    Differentiates exactly the function grad_action claims to differentiate:
    S_{eps,tau} without a cutoff, the cutoff functional with one.
    """
    if not (0 < h < math.inf):
        raise InvalidOracleInput("h must be finite and positive")

    def value(verts):
        lp = Loop(verts, loop.windings)
        if cut is None:
            return action_S_eps_tau(spec, lp, params)
        return action_F_cutoff(spec, lp, params, cut)

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
    norm = math.sqrt(_norm_sq(spec, state.p, state.v))
    if norm == 0.0:
        raise InvalidOracleInput("seed velocity must be nonzero")
    v = state.v * (math.sqrt(2.0 * E_mech) / norm)
    return np.array([state.p.x, state.p.y, v[0], v[1]])


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
    normal nhat, after a short blanking interval.  Returns (t, y) or None.

    The field is built once and the RK4 loop runs on float tuples; the
    crossing is bisected in the step that brackets it.  A state thrown to
    infinity raises ValueError, as integrate_flow does.
    """
    rhs = _build_rhs(spec)
    wrap = spec.is_torus
    bx, by = p_base.tolist()
    nx, ny = nhat.tolist()
    y = tuple(y0.tolist())
    h_y = _section_offset(spec, y[0] - bx, y[1] - by, nx, ny)
    t, blank = 0.0, 2.0 * dt
    steps = int(math.ceil(t_cap / dt))
    try:
        for _ in range(steps):
            y_next = _rk4(rhs, *y, dt)
            px, py, vx, vy = y_next
            dx, dy = px - bx, py - by
            if wrap:
                dx -= round(dx)
                dy -= round(dy)
            h_next = dx * nx + dy * ny
            if t > blank and h_y < 0.0 <= h_next and vx * nx + vy * ny > 0.0:
                lo, hi, ylo = 0.0, dt, y
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    ymid = _rk4(rhs, *ylo, mid - lo)
                    if _section_offset(spec, ymid[0] - bx, ymid[1] - by,
                                       nx, ny) < 0.0:
                        lo, ylo = mid, ymid
                    else:
                        hi = mid
                    if hi - lo < 1e-16:
                        break
                return (t + 0.5 * (lo + hi),
                        np.array(_rk4(rhs, *ylo, 0.5 * (hi - lo))))
            y, h_y, t = y_next, h_next, t + dt
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
    finite-difference Newton iteration; least-squares solves tolerate the
    singular directions produced by continuous symmetries (a translated
    orbit is equally periodic).  A step must shrink the return gap: the
    first one that does not ends the iteration and the best launch found is
    kept.  (The finite-difference Jacobian is noisier than the 1e-12 gap
    test, so past the best iterate the steps only wander.)  A refined orbit
    whose full phase-space gap after one return is below tol becomes a
    candidate; near-duplicates (close periods and close point sets, see
    _dedup_candidates) are merged.  The list may be empty; that is evidence against
    a periodic orbit near the seeds at this resolution.
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

    candidates = []
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
            t_cross, y_cross = ret
            c_out = float(torus_gap(spec, y_cross[:2] - p_base) @ mhat)
            phi_out = math.atan2(y_cross[3], y_cross[2])
            dphi = (phi_out - u[1] + math.pi) % (2.0 * math.pi) - math.pi
            return np.array([c_out - u[0], dphi]), t_cross, y_cross

        u = np.array([0.0, phi0])
        first = return_gap(u, period_cap)
        if first is None:
            continue
        gap_vec, t_cross, y_cross = first
        t_cap = min(period_cap, 1.6 * t_cross + 4.0 * dt)
        gap = float(np.linalg.norm(gap_vec))
        for _ in range(_NEWTON_ITERS):
            if gap < 1e-12:
                break
            fd = 1e-7
            J = np.empty((2, 2))
            failed = False
            for j in range(2):
                up = u.copy()
                up[j] += fd
                probe = return_gap(up, t_cap)
                if probe is None:
                    failed = True
                    break
                J[:, j] = (probe[0] - gap_vec) / fd
            if failed:
                break
            step = np.linalg.lstsq(J, -gap_vec, rcond=1e-12)[0]
            norm = float(np.linalg.norm(step))
            if norm > 0.1:
                step *= 0.1 / norm
            nxt = return_gap(u + step, t_cap)
            if nxt is None:
                break
            nxt_gap = float(np.linalg.norm(nxt[0]))
            if not nxt_gap < gap:
                break  # the step does not shrink the gap: keep the best
            u, (gap_vec, t_cross, y_cross), gap = u + step, nxt, nxt_gap
        y_start = launch(u)
        closure = _state_gap(spec, y_cross, y_start)
        if closure >= tol:
            continue
        candidates.append(OrbitCandidate(
            state=FlowState(ChartPoint(*y_start[:2].tolist()), y_start[2:]),
            period=float(t_cross), closure_residual=float(closure),
            energy_mech=kinetic_energy(spec, y_start),
            energy_match=float(speed * speed)))

    return _dedup_candidates(spec, candidates)


def _polyline_gap(spec, P, Q) -> float:
    """Max over the points of P of the distance to the closed polyline Q
    (torus differences wrapped to the nearest period)."""
    A = Q
    edges = np.roll(Q, -1, axis=0) - A
    diff = torus_gap(spec, P[:, None, :] - A[None, :, :])
    denom = np.maximum((edges * edges).sum(axis=1), 1e-300)
    t = np.clip((diff * edges[None, :, :]).sum(axis=2) / denom, 0.0, 1.0)
    foot = diff - t[:, :, None] * edges[None, :, :]
    d = np.sqrt((foot * foot).sum(axis=2))
    return float(d.min(axis=1).max())


def _vertex_gap(spec, P, Q) -> float:
    """Symmetric Hausdorff distance of the vertex sets P and Q, with the
    differences wrapped as torus_gap wraps them.  It bounds the polyline
    distances of _polyline_gap from above: a point's distance to a closed
    polyline is at most its distance to the polyline's nearest vertex."""
    dx = P[:, 0, None] - Q[None, :, 0]
    dy = P[:, 1, None] - Q[None, :, 1]
    if spec.is_torus:
        dx -= np.round(dx)
        dy -= np.round(dy)
    dx *= dx
    dy *= dy
    dx += dy
    return math.sqrt(max(dx.min(axis=1).max(), dx.min(axis=0).max()))


def _dedup_candidates(spec, candidates):
    """Merge candidates tracing the same orbit up to the field's exact
    translation symmetries (all translations on the constant-field plane,
    y-translations on the torus kinds, whose field and metric depend on x
    only).  Orbits are compared as point sets by symmetric polyline
    Hausdorff distance, which is indifferent to the starting phase, after a
    quick period prefilter.

    _vertex_gap screens each pair first; a pair below _DEDUP_TOL there is
    a duplicate by the polyline test too.  The polyline test stays for the
    rest: samples can be further apart than the tolerance (0.025 on a unit
    Larmor circle), so two phases of one orbit can differ vertex to
    vertex by more than it."""
    kept = []
    samples = []
    for cand in candidates:
        pts = integrate_flow(spec, cand.state, cand.period,
                             _DEDUP_PROBE)[:-1, :2]
        duplicate = False
        for other, opts in zip(kept, samples):
            if abs(cand.period - other.period) > 0.05 * max(cand.period,
                                                            other.period):
                continue
            shift_mean = pts.mean(axis=0) - opts.mean(axis=0)
            if spec.is_torus:
                shift_mean[0] = 0.0  # x is not a symmetry direction
            aligned = opts + shift_mean
            if (_vertex_gap(spec, pts, aligned) < _DEDUP_TOL
                    or max(_polyline_gap(spec, pts, aligned),
                           _polyline_gap(spec, aligned, pts)) < _DEDUP_TOL):
                duplicate = True
                break
        if not duplicate:
            kept.append(cand)
            samples.append(pts)
    return kept


def orbit_to_loop(spec: GeometrySpec, cand: OrbitCandidate, n: int) -> Loop:
    """Sample a candidate orbit into an n-gon Loop (torus windings recovered
    from the net chart drift over one period)."""
    oversample = 8
    pts = integrate_flow(spec, cand.state, cand.period, n * oversample)[:, :2]
    verts = pts[:-1:oversample]
    w = np.zeros((n, 2), dtype=int)
    if spec.is_torus:
        w[-1] = np.round(pts[-1] - pts[0]).astype(int)
    return Loop(verts, w)
