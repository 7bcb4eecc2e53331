"""Minimax critical levels over throwing-out families of loops.

A family is a string (or a cylinder of strings) of loops from a one-point
loop to a loop of negative action.  Every continuous family in that class
crosses the positive barrier around short loops, so

    c = inf over families of max over the family

is a positive critical level.  The engine estimates it from above.  Each
sweep

1. polishes the family maximum by a bounded 1-D search over the two
   segments adjacent to the argmax (the segment maximum dominates the level
   of the continuous piecewise-linear family, so the running minimum of
   polished values is a true upper-bound history); the search is an
   in-package bounded Brent method that follows SciPy's
   ``minimize_scalar(method="bounded")`` iterates exactly, to a tolerance
   of ``_POLISH_XATOL`` = 1e-6 in the segment parameter (an error delta
   there moves the value at a maximum by only |f''| delta^2 / 2), and it
   runs only on a segment whose one-sided slope at the argmax is not
   strictly negative (a downhill segment's search never beat the argmax
   value),
2. stops if the polished family is the best recorded one, its maximum is
   an interior loop (not the one-point loop, whose zero gradient certifies
   nothing) and the gradient norm there is at most ``grad_tol``: its top is
   then already a critical point, which the sweep below would only move off
   (the convergence test of the climbing image in CI-NEB, Henkelman,
   Uberuaga & Jonsson 2000),
3. stops once the level has not improved for a plateau of sweeps,
4. otherwise relaxes every interior loop by two monotone backtracking
   descent steps, the first trying ``_STEP0``, and re-interpolates each
   string to equal spacing (the reparametrization step of the string
   method, E, Ren & Vanden-Eijnden 2002), rejecting a row whose proposal
   exceeds the current family maximum.

The best recorded family is then adopted.  Unless the sweeps stopped on
the gradient certificate of item 2, its argmax is finished down to the same
``grad_tol`` by a Newton refinement using a finite-difference Hessian of
the analytic gradient, accepted only while the gradient norm decreases and
the value does not rise above the recorded level.  The result records why
the sweeps stopped: "critical", "plateau" or "max_iters", and is converged
only if its argmax is interior and meets ``grad_tol``.

Levels in the history are non-increasing, and the reported level equals the
family maximum at termination.

The engine keeps one value per family loop and updates it whenever a loop
is replaced: descent, polish and re-interpolation hand back the values of
the loops they return, so the sweep's argmax, the re-interpolation guard
and the final argmax read the table instead of re-evaluating the family.
Each step's table comes from ``action.row_values``: the memoized edge
lengths and circulations of the row's loops (see ``loops``), the loops
without one filled by one stacked edge kernel pass, so only the speed
terms are formed again for the step's (eps, tau).  The polish evaluates raw
vertex arrays with ``action.values``, building a Loop only for the point
it accepts; both give the bits of the one-loop functionals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .action import (action_S, action_S_eps_tau, grad_action, grad_norm,
                     row_values, values)
from .errors import ConfigError, NoNegativeLoopFound
from .geometry import GeometrySpec, field_strength
from .loops import Loop, LoopFamily, interpolate, make_circle, make_point_loop, rms_distance

_IMPROVE_RTOL = 1e-9
_PLATEAU_SWEEPS = 6
_INNER_DESCENT = 2
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
# the segment polish's Brent tolerance in t (see _segment_polish)
_POLISH_XATOL = 1e-6
# descent step policy: the first trial step of every call and the
# backtracking shrink factor
_STEP0 = 0.1
_BACKTRACK = 0.5


@dataclass(frozen=True)
class DescentSettings:
    """Budgets shared by descent and the minimax engine."""

    max_iters: int = 400
    grad_tol: float = 1e-6

    def __post_init__(self):
        if not (isinstance(self.max_iters, numbers.Integral)
                and self.max_iters >= 1):
            raise ConfigError("max_iters must be a positive integer")
        if not (0 < self.grad_tol < math.inf):
            raise ConfigError("grad_tol must be finite and positive")


@dataclass(frozen=True)
class MinimaxResult:
    """Outcome of one minimax solve."""

    level: float
    argmax: Loop
    grad_norm: float
    history: tuple
    converged: bool
    stop: str = "max_iters"  # "critical", "plateau" or "max_iters"


def _descend(spec, loop, params, settings, budget, val):
    """Backtracking gradient descent from ``loop``, whose value is ``val``;
    the value never increases.  The first trial step is ``_STEP0``; an
    accepted step lets the next search start a little longer.  Stops at
    ``grad_tol``, when no step is accepted, or when the budget runs out.

    Returns (loop, value); the loop is the input object if no step was
    accepted.
    """
    step = _STEP0
    for _ in range(budget):
        g = grad_action(spec, loop, params)
        gn = grad_norm(g)
        if gn <= settings.grad_tol:
            break
        t = step
        for _ in range(40):
            trial = loop.with_vertices(loop.vertices - t * g)
            tval = action_S_eps_tau(spec, trial, params)
            if tval <= val - 1e-4 * t * gn * gn:
                loop, val = trial, tval
                step = min(t / math.sqrt(_BACKTRACK), _STEP0 * 16.0)
                break
            t *= _BACKTRACK
        else:
            break
    return loop, val


def _bounded_min(f, lo, hi, xatol, maxfun=500):
    """Minimize ``f`` on [lo, hi] by Brent's bounded method: golden-section
    steps with parabolic interpolation (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5).

    A step-for-step port of SciPy's ``minimize_scalar(method="bounded")``
    (``_minimize_scalar_bounded`` in SciPy 1.17): the same constants, the
    same operation order in every float expression and the same cap of
    ``maxfun`` evaluations, so it evaluates ``f`` at the same points and
    returns the same (x, f(x)) bit for bit.  With finite bounds every step
    is finite, so numpy's step sign ``sign(r) + (r == 0)`` is +1 or -1.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if (abs(p) < abs(0.5 * q * r) and p > q * (a - xf)
                    and p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0.0 else 1.0)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def _segment_polish(spec, row, idx, params, val):
    """Maximize the value over the two family segments adjacent to row[idx],
    whose value is ``val``.

    A segment whose one-sided slope g . (other end - row[idx]), g the
    gradient at row[idx], is strictly negative is not searched: such a
    search walks back to row[idx], and 0 of 675 on the 80 plane_path draws
    (seeds 1-10, reps 0-7) and torus_sine beat ``val``.  A zero or NaN
    slope is searched.

    Brent's search stops once it knows the segment parameter t to about
    ``_POLISH_XATOL`` = 1e-6.  At a smooth maximum an error delta in t
    costs |f''| delta^2 / 2 of value, so a tighter search spends its
    evaluations far below the 1e-12 relative to which levels are held:
    against a 1e-10 search, every polish of plane_larmor, torus_sine and
    the golden runs of ``tests/test_cli.py`` moved by at most 1.2e-13
    relative, at about half the evaluations.

    Returns (loop, value) for the best point found; value is at least the
    value at row[idx] itself.
    """
    best_loop = row[idx]
    best_val = val
    g = grad_action(spec, row[idx], params)
    for a, b in ((idx - 1, idx), (idx, idx + 1)):
        if a < 0 or b >= len(row):
            continue
        la, lb = row[a], row[b]
        if la.windings is not lb.windings and \
                not np.array_equal(la.windings, lb.windings):
            raise ValueError("segment ends must share windings")
        if np.vdot(g, row[a + b - idx].vertices - row[idx].vertices) < 0.0:
            continue  # downhill from row[idx] into the segment

        def neg(t):
            v = (1.0 - t) * la.vertices + t * lb.vertices
            if not np.isfinite(v).all():
                raise ValueError("vertices must be finite")
            return -values(spec, v, la.windings, params)

        t, fun = _bounded_min(neg, 0.0, 1.0, _POLISH_XATOL)
        if -fun > best_val:
            best_val = float(-fun)
            best_loop = interpolate(la, lb, t)
    return best_loop, best_val


def _reinterp_row(spec, row, params, guard, vals):
    """Equal-spacing re-interpolation of a string.

    If any proposed interior loop has a value above ``guard`` the original
    row (the same object) is returned and ``vals``, the values of its loops,
    is left alone, so re-interpolation never raises the family maximum.
    Otherwise the new row is returned and ``vals`` is updated in place to
    the values of its loops.
    """
    m = len(row)
    gaps = np.array([rms_distance(row[i], row[i + 1]) for i in range(m - 1)])
    total = float(gaps.sum())
    if total <= 0.0:
        return row
    cum = np.concatenate([[0.0], np.cumsum(gaps)])
    slack = 1e-10 * max(1.0, abs(guard))
    new_row = [row[0]]
    new_vals = [vals[0]]
    for j in range(1, m - 1):
        target = total * j / (m - 1)
        i = int(np.searchsorted(cum, target, side="right") - 1)
        i = min(max(i, 0), m - 2)
        t = 0.0 if gaps[i] == 0.0 else (target - cum[i]) / gaps[i]
        cand = interpolate(row[i], row[i + 1], float(t))
        cval = action_S_eps_tau(spec, cand, params)
        if cval > guard + slack:
            return row
        new_row.append(cand)
        new_vals.append(cval)
    new_row.append(row[-1])
    new_vals.append(vals[-1])
    vals[:] = new_vals
    return new_row


def _fd_hessian(gfun, x, h):
    """Symmetrized central-difference Hessian of the gradient gfun at x,
    a loop's flattened (N, 2) vertices, from at most 20 gradient calls.

    Gradient row j reads only vertices j-1, j and j+1 (its two edges), so
    vertices three or more apart on the cycle are perturbed together (the
    Curtis-Powell-Reid compression in the colouring view of Coleman & More
    1983): vertex j < 3 (N // 3) takes colour j mod 3 and each of the N mod 3
    others a colour of its own.  One central difference per colour and
    coordinate gives rows j-1..j+1 of each of its vertices' columns, with
    the bits of the one-coordinate difference (x + 0.0 is x); every entry
    off that band is the +0.0 the one-coordinate difference gives there.
    """
    n = x.size // 2
    q = 3 * (n // 3)
    colours = [np.arange(c, q, 3) for c in range(3)]
    colours += [np.array([j]) for j in range(q, n)]
    H = np.zeros((x.size, x.size))
    for verts in colours:
        # the six gradient rows of vertices j-1, j, j+1, one line per vertex
        rows = (2 * ((verts[:, None] + np.arange(-1, 2)) % n)[:, :, None]
                + np.arange(2)).reshape(len(verts), 6)
        for c in range(2):
            cols = 2 * verts + c
            e = np.zeros(x.size)
            e[cols] = h
            diff = (gfun(x + e) - gfun(x - e)) / (2.0 * h)
            H[rows, cols[:, None]] = diff[rows]
    return 0.5 * (H + H.T)


def _saddle_refine(spec, loop, params, settings):
    """Newton iteration on the gradient with a pseudo-inverse Hessian solve.

    Symmetry directions (translations, rotations, reparameterizations) give
    near-null Hessian modes; lstsq with an rcond floor projects them out.
    Steps are accepted only when the gradient norm decreases, and the
    iteration stops once it is at most ``settings.grad_tol``.
    """
    n = loop.n
    w = loop.windings

    def gfun(x):
        return grad_action(spec, Loop._trusted(x.reshape(n, 2), w),
                           params).ravel()

    x = loop.vertices.ravel().copy()
    extent = float(np.ptp(loop.vertices, axis=0).max())
    h = 1e-7 * (1.0 + extent)
    cap = 0.5 * (extent + 1e-9)
    g = gfun(x)
    gn = float(np.linalg.norm(g))
    for _ in range(30):
        if gn <= settings.grad_tol:
            break
        H = _fd_hessian(gfun, x, h)
        step, *_ = np.linalg.lstsq(H, -g, rcond=1e-9)
        sn = float(np.linalg.norm(step))
        if not np.all(np.isfinite(step)) or sn == 0.0:
            break
        if sn > cap:
            step *= cap / sn
        t = 1.0
        accepted = False
        for _ in range(12):
            xn = x + t * step
            gnew = gfun(xn)
            gnn = float(np.linalg.norm(gnew))
            if gnn < gn:
                x, g, gn = xn, gnew, gnn
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    return Loop(x.reshape(n, 2), w), gn


def _argmax_rows(vals):
    best = None
    for r, row in enumerate(vals):
        for i, v in enumerate(row):
            if best is None or v > best[0]:
                best = (v, r, i)
    return best[1], best[2], best[0]


def _engine(spec, rows, params, settings):
    """Shared path/cylinder minimax driver; returns (MinimaxResult, rows)."""
    rows = [list(r) for r in rows]
    m = len(rows[0])
    # a row's loops share windings (LoopFamily checks it)
    vals = [row_values(spec, row, params).tolist() for row in rows]
    for row in rows:
        terminal_action = action_S(spec, row[-1], params.E)
        if not (terminal_action < 0.0):
            raise NoNegativeLoopFound(
                f"family terminal has action {terminal_action:.6g} >= 0")

    history = []
    best_level = math.inf
    stall = 0
    k = 0
    stop = "max_iters"
    for k in range(settings.max_iters):
        r0, i0, _ = _argmax_rows(vals)
        ploop, pval = _segment_polish(spec, rows[r0], i0, params,
                                      vals[r0][i0])
        tgt = min(max(i0, 1), m - 2)
        if pval >= vals[r0][tgt]:
            rows[r0][tgt] = ploop
            vals[r0][tgt] = pval
        r1, i1, level_now = _argmax_rows(vals)

        # sweep 0 has no earlier level to improve on and counts toward the
        # plateau like a sweep that failed to improve
        improved = k > 0 and level_now < best_level - _IMPROVE_RTOL * max(
            1.0, abs(best_level))
        if level_now <= best_level:
            best_level = level_now
            best_rows = [list(r) for r in rows]
            best_vals = [list(v) for v in vals]
        stall = 0 if improved else stall + 1
        history.append((k, best_level))
        # a critical maximum of the best family: a sweep would only move it off
        if level_now == best_level and 0 < i1 < m - 1:
            gn = grad_norm(grad_action(spec, rows[r1][i1], params))
            if gn <= settings.grad_tol:
                stop = "critical"
                break
        if stall >= _PLATEAU_SWEEPS:
            stop = "plateau"
            break

        for row, rvals in zip(rows, vals):
            for i in range(1, m - 1):
                row[i], rvals[i] = _descend(spec, row[i], params, settings,
                                            _INNER_DESCENT, rvals[i])
        guard = max(max(rvals) for rvals in vals)
        rows = [list(_reinterp_row(spec, row, params, guard, rvals))
                for row, rvals in zip(rows, vals)]

    # adopt the best recorded family; refine its argmax unless certified
    rows, vals = best_rows, best_vals
    r0, i0, level = _argmax_rows(vals)
    if stop != "critical":
        if 0 < i0 < m - 1:
            refined, _ = _saddle_refine(spec, rows[r0][i0], params, settings)
            rval = action_S_eps_tau(spec, refined, params)
            if rval <= level + 1e-12 * max(1.0, abs(level)):
                rows[r0][i0], vals[r0][i0] = refined, rval
        r0, i0, level = _argmax_rows(vals)
        gn = grad_norm(grad_action(spec, rows[r0][i0], params))
    final_level = min(level, history[-1][1])
    history.append((k + 1, final_level))
    return (MinimaxResult(level=float(final_level), argmax=rows[r0][i0],
                          grad_norm=float(gn),
                          history=tuple(history),
                          converged=bool(gn <= settings.grad_tol
                                         and 0 < i0 < m - 1),
                          stop=stop),
            rows)


def _circle_row(center, radii, orientation, n):
    row = []
    for r in radii:
        if r == 0.0:
            row.append(make_point_loop(center, n))
        else:
            row.append(make_circle(center, float(r), orientation, n))
    return row


def _rectangle_loop(center, width, height, n, clockwise):
    """N points equally spaced along the boundary of an axis-aligned
    rectangle of positive width and height, starting at the lower-left
    corner."""
    cx, cy = center
    w2, h2 = 0.5 * width, 0.5 * height
    corners = np.array([[cx - w2, cy - h2], [cx + w2, cy - h2],
                        [cx + w2, cy + h2], [cx - w2, cy + h2]])
    if clockwise:
        corners = corners[[0, 3, 2, 1]]
    sides = np.roll(corners, -1, axis=0) - corners
    side_len = np.linalg.norm(sides, axis=1)
    per = float(side_len.sum())
    cum = np.concatenate([[0.0], np.cumsum(side_len)])
    t = per * np.arange(n) / n
    idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, 3)
    frac = (t - cum[idx]) / side_len[idx]
    verts = corners[idx] + frac[:, None] * sides[idx]
    return Loop(verts)


def _scan_negative_circle(spec, E, center, orientation, n, r_cap):
    """Smallest scanned circle radius about center with action < 0, or None.

    The scan starts at 1.5 times the continuum zero of the radial action
    profile (where the action is already negative for a locally constant
    field) and escalates geometrically up to r_cap, so the terminal stays
    close to the barrier and the swept family resolves it.
    """
    f_abs = abs(field_strength(spec, np.asarray(center)))
    if f_abs <= 0.0 or r_cap <= 0.0:
        return None
    r0 = 2.0 * math.sqrt(E) / f_abs
    for j in range(41):
        r = min(1.5 * r0 * 1.25 ** j, r_cap)
        s = action_S(spec, make_circle(center, r, orientation, n), E)
        if s < -1e-12:
            return r
        if r >= r_cap:
            break
    return None


def init_sweep_family(spec: GeometrySpec, E: float, shape: str, M: int,
                      N: int, rng_seed: int = 0, m_p: int = 8) -> LoopFamily:
    """Construct a throwing-out family whose terminal loops have S_E < 0:
    M loops of N vertices per row, m_p rows for a cylinder, one for a path.

    Centers at x = 0, where |F| is largest on every kind (F = B on the
    plane, 2 pi k a cos(2 pi k x) on a torus), orientation chosen so the
    enclosed flux contributes negatively, radii swept from zero until the
    action turns negative; one scan serves every row, since the chart
    depends on x alone, and ``_engine`` refuses a row whose terminal is not
    negative.  On a torus, if no contractible circle works, an axis-aligned
    rectangle hugging a single field band is tried.  Raises
    NoNegativeLoopFound when neither construction produces a negative
    terminal (e.g. a vanishing field).  Deterministic: rng_seed is accepted
    for positional compatibility and not read.
    """
    if shape not in ("path", "cylinder"):
        raise ConfigError("shape must be 'path' or 'cylinder'")
    for size, least, what in ((M, 3, "family size"), (N, 3, "N"),
                              (m_p, 1, "m_p")):
        if not (isinstance(size, numbers.Integral) and size >= least):
            raise ConfigError(f"{what} must be an integer of at least {least}")
    if not (math.isfinite(E) and E > 0):
        raise ConfigError("E must be positive")

    if spec.is_torus:
        r_cap = min(0.4, 0.249 / spec.k)
    else:
        b_abs = abs(spec.B)
        r_cap = 100.0 * math.sqrt(E) / b_abs if b_abs > 0 else 0.0

    if shape == "cylinder":
        ys = [j / m_p for j in range(m_p)] if spec.is_torus else \
             [0.5 * j for j in range(m_p)]
    else:
        ys = [0.5 if spec.is_torus else 0.0]

    # the field and the metric depend on x alone, so one scan at the first
    # row's center gives every row its orientation and terminal radius
    center = (0.0, ys[0])
    orientation = -1 if field_strength(spec, np.asarray(center)) >= 0 else 1
    r_term = _scan_negative_circle(spec, E, center, orientation, N, r_cap)
    if r_term is not None:
        radii = np.linspace(0.0, r_term, M)
        rows = [_circle_row((0.0, y), radii, orientation, N) for y in ys]
    elif not spec.is_torus:
        raise NoNegativeLoopFound(
            "no circle with negative action exists for this field")
    else:
        width = 0.5 / spec.k
        best = None
        for h in np.linspace(0.2, 0.98, 27):
            lp = _rectangle_loop((0.0, 0.5), width, h, N, clockwise=True)
            s = action_S(spec, lp, E)
            if s < 0.0 and (best is None or s < best[1]):
                best = (float(h), s)
        if best is None:
            raise NoNegativeLoopFound(
                "no contractible loop with negative action found")
        h_term = best[0]
        rows = []
        for y in ys:
            row = []
            for t in np.linspace(0.0, 1.0, M):
                if t == 0.0:
                    row.append(make_point_loop((0.0, y), N))
                else:
                    row.append(_rectangle_loop((0.0, y), t * width,
                                               t * h_term, N, clockwise=True))
            rows.append(row)

    return LoopFamily(shape=shape, rows=tuple(tuple(r) for r in rows))
