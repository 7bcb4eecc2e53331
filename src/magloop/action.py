"""Discrete magnetic action functionals on polygonal loops and their gradients.

For a loop with per-edge rescaled speeds s_j = sqrt(E) * N * ell_j (ell_j the
Riemannian edge length) and circulation C = sum_j A(m_j) . d_j, the package
evaluates two functionals:

  action_S          S_E      = sqrt(E) * L + C        (length-type action)
  action_S_eps_tau  S_eps,tau = (1/N) sum_j [eps * s_j^2 + s_j^(1+tau)] + C

At eps = tau = 0 the regularized sum collapses to (1/N) sum s_j + C =
sqrt(E) * L + C, so action_S is the common E = 1 limit.  Speeds are floored
at ``delta`` inside the power term only, which keeps the functional smooth
through one-point loops without perturbing any loop whose speeds exceed the
floor.

Gradients are exact derivatives of these discrete sums (midpoint metric and
potential, forward-difference edges), not discretizations of a continuum
formula; finite differences of the values reproduce them to roundoff.  On
the flat kinds (plane_constant_B, flat_torus_sine) the metric is the
identity and its derivative vanishes, so the derivatives of the quadratic
form q_j = d_j . g . d_j with respect to the edge's two end vertices are
-2 d_j and 2 d_j, formed without metric tensors; they equal the tensor
formula bit for bit.  ``values`` takes vertex stacks (..., N, 2) through the
same edge kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import GeometrySpec, metric_grad, potential_eval, potential_jac
from .loops import Loop, edge_geometry


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


def _circulation(spec: GeometrySpec, d: np.ndarray, m: np.ndarray):
    """Circulation sum_j A(m_j) . d_j of each loop, A at the midpoints."""
    return np.einsum("...ni,...ni->...", potential_eval(spec, m), d)


def circulation(spec: GeometrySpec, loop: Loop) -> float:
    """Discrete line integral of the potential, sum_j A(m_j) . d_j.

    Exact for the linear plane potential: equals B times the signed polygon
    area.
    """
    d, m, _, _ = edge_geometry(spec, loop.vertices, loop.windings)
    return float(_circulation(spec, d, m))


def action_S(spec: GeometrySpec, loop: Loop, E: float) -> float:
    """Length-type action sqrt(E) * length + circulation."""
    if not (E > 0):
        raise ConfigError("E must be positive")
    d, m, _, ell = edge_geometry(spec, loop.vertices, loop.windings)
    circ = float(_circulation(spec, d, m))
    return math.sqrt(E) * float(ell.sum()) + circ


def values(spec: GeometrySpec, v: np.ndarray, w: np.ndarray,
           params: ActionParams) -> np.ndarray:
    """S_{eps,tau} of each loop of the vertex stack v, shape (..., N, 2),
    over the shared windings w; an array of shape (...)."""
    n = v.shape[-2]
    d, m, _, ell = edge_geometry(spec, v, w)
    s = math.sqrt(params.E) * n * ell
    sf = np.maximum(s, params.delta)
    p0 = np.power(sf, 1.0 + params.tau).sum(axis=-1) / n
    p1 = params.eps * (s * s).sum(axis=-1) / n
    return p0 + p1 + _circulation(spec, d, m)


def action_S_eps_tau(spec: GeometrySpec, loop: Loop,
                     params: ActionParams) -> float:
    """Regularized action S_{eps,tau}; equals action_S at eps = tau = 0."""
    return float(values(spec, loop.vertices, loop.windings, params))


def grad_action(spec: GeometrySpec, loop: Loop,
                params: ActionParams) -> np.ndarray:
    """Gradient of S_{eps,tau}, shape (N, 2).

    Entry (j, i) is the derivative with respect to vertex j's i-th chart
    coordinate.  Winding offsets are fixed data, so the gradient is well
    defined on torus loops in any covering representative.
    """
    n = loop.n
    d, m, g, ell = edge_geometry(spec, loop.vertices, loop.windings)
    rootE = math.sqrt(params.E)
    s = rootE * n * ell
    A = potential_eval(spec, m)

    # d(per-edge speed term)/ds; the floored branch is constant in s.
    sf = np.maximum(s, params.delta)
    w0 = (1.0 + params.tau) * np.power(sf, params.tau) * (s >= params.delta) / n
    w1 = w0 + 2.0 * params.eps * s / n

    # ds/d(quadratic form q): s = sqrt(E) n sqrt(q)
    pos = ell > 0.0
    dsdq = np.zeros_like(ell)
    dsdq[pos] = rootE * n / (2.0 * ell[pos])

    if g is None:
        # flat kinds: g = identity, dg = 0
        dq_da = -2.0 * d
        dq_db = 2.0 * d
    else:
        gd = np.einsum("nij,nj->ni", g, d)
        dG = metric_grad(spec, m)
        T = np.einsum("nkij,ni,nj->nk", dG, d, d)
        dq_da = -2.0 * gd + 0.5 * T
        dq_db = 2.0 * gd + 0.5 * T

    J = potential_jac(spec, m)
    half_Jd = 0.5 * np.einsum("nki,ni->nk", J, d)

    # vertex j collects the a-end of edge j and the b-end of edge j-1
    coef = (w1 * dsdq)[:, None]
    contrib_a = coef * dq_da + (half_Jd - A)
    contrib_b = coef * dq_db + (half_Jd + A)
    grad = np.zeros((n, 2))
    grad += contrib_a
    grad[1:] += contrib_b[:-1]
    grad[0] += contrib_b[-1]
    return grad


def grad_norm(gradient: np.ndarray) -> float:
    """Euclidean norm of the flattened gradient array."""
    return float(np.linalg.norm(gradient.ravel()))
