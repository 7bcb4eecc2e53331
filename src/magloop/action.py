"""Discrete magnetic action functionals on polygonal loops and their gradients.

For a loop with per-edge rescaled speeds s_j = sqrt(E) * N * ell_j (ell_j the
Riemannian edge length) and circulation C = sum_j Phi(m_j) d_j,y of the
potential A = Phi(x) dy, the package evaluates two functionals:

  action_S          S_E      = sqrt(E) * L + C        (length-type action)
  action_S_eps_tau  S_eps,tau = (1/N) sum_j [eps * s_j^2 + s_j^(1+tau)] + C

At eps = tau = 0 the regularized sum collapses to (1/N) sum s_j + C =
sqrt(E) * L + C, so action_S is the common E = 1 limit.  Speeds are floored
at ``delta`` inside the power term only, which keeps the functional smooth
through one-point loops without perturbing any loop whose speeds exceed the
floor.

Gradients are exact derivatives of these discrete sums (midpoint metric and
potential, forward-difference edges), not discretizations of a continuum
formula; finite differences of the values reproduce them to roundoff.  With
g = lam delta (lam = exp(2u), a function of x), the quadratic form
q_j = lam |d_j|^2 has derivatives -2 lam d_j + h_j and 2 lam d_j + h_j at
the edge's start and end, h_j = (d_x lam |d_j|^2 / 2, 0); on a flat chart
(u_amp = 0) lam = 1 and h_j = 0.  The edge's circulation Phi(m_x) d_y has
derivatives (F d_y / 2, -Phi) and (F d_y / 2, Phi) at its two ends, F = Phi'.
The chart fields are contracted by hand, each product rounded as in the
tensor formula.  ``values`` takes vertex stacks (..., N, 2) through the same
edge kernel.

The one-loop functionals and the gradient read the edge quantities and
the circulation from the loop's memo (see ``loops``); ``row_values`` fills
a family row's missing memos from one stacked pass.  ``speed_terms`` is the
one place the speed sums are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import GeometrySpec, conformal_exponent, field_strength
from .loops import Loop, _circulation, _edge_memo, _memoize, edge_geometry


@dataclass(frozen=True)
class ActionParams:
    """Energy level and regularization strengths.

    E > 0; eps >= 0; 0 <= tau < 1; delta >= 0 is the speed floor used inside
    the s^(1+tau) term and the tau-dependent force denominator.
    """

    E: float = 1.0
    eps: float = 0.0
    tau: float = 0.0
    delta: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.E) and self.E > 0):
            raise ConfigError("E must be positive")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ConfigError("eps must be nonnegative")
        if not (0.0 <= self.tau < 1.0):
            raise ConfigError("tau must satisfy 0 <= tau < 1")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ConfigError("delta must be nonnegative")


def circulation(spec: GeometrySpec, loop: Loop) -> float:
    """Discrete line integral of the potential A = Phi(x) dy,
    sum_j Phi(m_j) d_j,y.

    Exact for the linear plane potential Phi = B*x: equals B times the
    signed polygon area.
    """
    return float(_edge_memo(spec, loop)[2])


def action_S(spec: GeometrySpec, loop: Loop, E: float) -> float:
    """Length-type action sqrt(E) * length + circulation."""
    if not (math.isfinite(E) and E > 0):
        raise ConfigError("E must be positive")
    _, geom, circ = _edge_memo(spec, loop)
    return math.sqrt(E) * float(geom[3].sum()) + float(circ)


def speed_terms(ell: np.ndarray, params: ActionParams) -> np.ndarray:
    """(1/N) sum_j [s_j^(1+tau) + eps * s_j^2] over the last axis of the
    edge lengths ell (..., N), s_j = sqrt(E) * N * ell_j floored at delta
    inside the power: S_{eps,tau} without the circulation."""
    n = ell.shape[-1]
    s = math.sqrt(params.E) * n * ell
    sf = np.maximum(s, params.delta)
    p0 = np.power(sf, 1.0 + params.tau).sum(axis=-1) / n
    p1 = params.eps * (s * s).sum(axis=-1) / n
    return p0 + p1


def values(spec: GeometrySpec, v: np.ndarray, w: np.ndarray,
           params: ActionParams) -> np.ndarray:
    """S_{eps,tau} of each loop of the vertex stack v, shape (..., N, 2),
    over the shared windings w; an array of shape (...)."""
    d, _, _, ell, phi = edge_geometry(spec, v, w)
    return speed_terms(ell, params) + _circulation(d, phi)


def row_values(spec: GeometrySpec, row, params: ActionParams) -> np.ndarray:
    """S_{eps,tau} of each loop of a family row (loops sharing windings),
    bit for bit ``values`` of the stacked row.  The loops without a memo
    for spec get theirs, circulation included, from one stacked
    edge_geometry pass; the values come from the memoized lengths and
    circulations."""
    todo = [lp for lp in row if lp._memo is None or lp._memo[0] is not spec]
    if todo:
        d, m, lam, ell, phi = edge_geometry(
            spec, np.stack([lp.vertices for lp in todo]), todo[0].windings)
        circ = _circulation(d, phi)
        for k, lp in enumerate(todo):
            _memoize(lp, spec, (d[k], m[k], lam if spec.is_flat else lam[k],
                                ell[k], phi[k]), circ[k])
    ell = np.stack([lp._memo[1][3] for lp in row])
    circ = np.array([lp._memo[2] for lp in row])
    return speed_terms(ell, params) + circ


def action_S_eps_tau(spec: GeometrySpec, loop: Loop,
                     params: ActionParams) -> float:
    """Regularized action S_{eps,tau}; equals action_S at eps = tau = 0."""
    _, geom, circ = _edge_memo(spec, loop)
    return float(speed_terms(geom[3], params) + circ)


def grad_action(spec: GeometrySpec, loop: Loop,
                params: ActionParams) -> np.ndarray:
    """Gradient of S_{eps,tau}, shape (N, 2).

    Entry (j, i) is the derivative with respect to vertex j's i-th chart
    coordinate.  Winding offsets are fixed data, so the gradient is well
    defined on torus loops in any covering representative.
    """
    n = loop.n
    d, m, lam, ell, phi = _edge_memo(spec, loop)[1]
    rootE = math.sqrt(params.E)
    s = rootE * n * ell

    # d(per-edge speed term)/ds; the floored branch is constant in s.
    sf = np.maximum(s, params.delta)
    w0 = (1.0 + params.tau) * np.power(sf, params.tau) * (s >= params.delta) / n
    w1 = w0 + 2.0 * params.eps * s / n

    # ds/d(quadratic form q): s = sqrt(E) n sqrt(q)
    dsdq = np.divide(rootE * n, 2.0 * ell, out=np.zeros_like(ell),
                     where=ell > 0.0)

    dx, dy = d[:, 0], d[:, 1]
    if spec.is_flat:
        dq_da = -2.0 * d
        dq_db = 2.0 * d
    else:
        gd = lam[:, None] * d
        dlam = 2.0 * conformal_exponent(spec, m)[1] * lam
        half_T = 0.5 * ((dlam * dx) * dx + (dlam * dy) * dy)
        dq_da = -2.0 * gd
        dq_db = 2.0 * gd
        dq_da[:, 0] += half_T
        dq_db[:, 0] += half_T

    half_Fd = 0.5 * (field_strength(spec, m) * dy)

    # vertex j collects the a-end of edge j and the b-end of edge j-1
    coef = (w1 * dsdq)[:, None]
    contrib_a = coef * dq_da
    contrib_b = coef * dq_db
    contrib_a[:, 0] += half_Fd
    contrib_b[:, 0] += half_Fd
    contrib_a[:, 1] -= phi  # x - phi rounds as x + (-phi)
    contrib_b[:, 1] += phi
    grad = np.zeros((n, 2))
    grad += contrib_a
    grad[1:] += contrib_b[:-1]
    grad[0] += contrib_b[-1]
    return grad


def grad_norm(gradient: np.ndarray) -> float:
    """Euclidean norm of the flattened gradient array."""
    return float(np.linalg.norm(gradient.ravel()))
