"""Discrete magnetic action functionals on polygonal loops and their gradients.

For a loop with per-edge rescaled speeds s_j = sqrt(E) * N * ell_j (ell_j the
Riemannian edge length) and circulation C = sum_j A(m_j) . d_j, the package
evaluates three functionals:

  action_S          S_E      = sqrt(E) * L + C        (length-type action)
  action_S_eps_tau  S_eps,tau = (1/N) sum_j [eps * s_j^2 + s_j^(1+tau)] + C
  action_F_cutoff   F        = f(S_0,tau) * S_eps,tau

with f a cubic smoothstep vanishing below lo = c_ref/20 and equal to 1 above
hi = c_ref/10.  At eps = tau = 0 the regularized sum collapses to
(1/N) sum s_j + C = sqrt(E) * L + C, so action_S is the common E = 1 limit.
Speeds are floored at ``delta`` inside the power term only, which keeps the
functional smooth through one-point loops without perturbing any loop whose
speeds exceed the floor.

Gradients are exact derivatives of these discrete sums (midpoint metric and
potential, forward-difference edges), not discretizations of a continuum
formula; finite differences of the values reproduce them to roundoff.  On
the flat kinds (plane_constant_B, flat_torus_sine) the metric is the
identity and its derivative vanishes, so the derivatives of the quadratic
form q_j = d_j . g . d_j with respect to the edge's two end vertices are
-2 d_j and 2 d_j, formed without metric tensors; they equal the tensor
formula bit for bit.  The cutoff gradient assembles the gradient of
S_{0,tau} only inside the smoothstep window, where f' is non-zero.
``values`` takes vertex stacks (..., N, 2) through the same edge kernel.
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


@dataclass(frozen=True)
class CutoffSpec:
    """Smoothstep window for the cutoff functional.

    The reference level c_ref fixes the thresholds lo = c_ref/20 and
    hi = c_ref/10.
    """

    c_ref: float

    def __post_init__(self):
        if not (math.isfinite(self.c_ref) and self.c_ref > 0):
            raise ConfigError("c_ref must be positive")

    @property
    def lo(self) -> float:
        return self.c_ref / 20.0

    @property
    def hi(self) -> float:
        return self.c_ref / 10.0


def cutoff_f(x: float, cut: CutoffSpec) -> float:
    """Cubic smoothstep: 0 below lo, 3t^2 - 2t^3 between, 1 above hi."""
    if x <= cut.lo:
        return 0.0
    if x >= cut.hi:
        return 1.0
    t = (x - cut.lo) / (cut.hi - cut.lo)
    return t * t * (3.0 - 2.0 * t)


def cutoff_df(x: float, cut: CutoffSpec) -> float:
    """Derivative of cutoff_f; nonnegative, zero outside (lo, hi)."""
    if x <= cut.lo or x >= cut.hi:
        return 0.0
    t = (x - cut.lo) / (cut.hi - cut.lo)
    return 6.0 * t * (1.0 - t) / (cut.hi - cut.lo)


def _circulation(spec: GeometrySpec, d: np.ndarray, m: np.ndarray):
    """Midpoint potential and circulation sum_j A(m_j) . d_j of each loop."""
    A = potential_eval(spec, m)
    return A, np.einsum("...ni,...ni->...", A, d)


def circulation(spec: GeometrySpec, loop: Loop) -> float:
    """Discrete line integral of the potential, sum_j A(m_j) . d_j.

    Exact for the linear plane potential: equals B times the signed polygon
    area.
    """
    d, m, _, _ = edge_geometry(spec, loop.vertices, loop.windings)
    return float(_circulation(spec, d, m)[1])


def action_S(spec: GeometrySpec, loop: Loop, E: float) -> float:
    """Length-type action sqrt(E) * length + circulation."""
    if not (E > 0):
        raise ConfigError("E must be positive")
    d, m, _, ell = edge_geometry(spec, loop.vertices, loop.windings)
    circ = float(_circulation(spec, d, m)[1])
    return math.sqrt(E) * float(ell.sum()) + circ


def _speed_sums(s: np.ndarray, n: int, params: ActionParams):
    """(sum s^(1+tau)/N with floor, sum eps*s^2/N) over the last axis."""
    sf = np.maximum(s, params.delta)
    p0 = np.power(sf, 1.0 + params.tau).sum(axis=-1) / n
    p1 = params.eps * (s * s).sum(axis=-1) / n
    return p0, p1


def values(spec: GeometrySpec, v: np.ndarray, w: np.ndarray,
           params: ActionParams):
    """(S_{0,tau}, S_{eps,tau}) of each loop of the vertex stack v, shape
    (..., N, 2), over the shared windings w; arrays of shape (...)."""
    n = v.shape[-2]
    d, m, _, ell = edge_geometry(spec, v, w)
    p0, p1 = _speed_sums(math.sqrt(params.E) * n * ell, n, params)
    circ = _circulation(spec, d, m)[1]
    return p0 + circ, p0 + p1 + circ


def action_pair(spec: GeometrySpec, loop: Loop,
                params: ActionParams) -> tuple[float, float]:
    """(S_{0,tau}, S_{eps,tau}) evaluated in one pass."""
    s0, s1 = values(spec, loop.vertices, loop.windings, params)
    return float(s0), float(s1)


def action_S_eps_tau(spec: GeometrySpec, loop: Loop,
                     params: ActionParams) -> float:
    """Regularized action S_{eps,tau}; equals action_S at eps = tau = 0."""
    return action_pair(spec, loop, params)[1]


def action_F_cutoff(spec: GeometrySpec, loop: Loop, params: ActionParams,
                    cut: CutoffSpec) -> float:
    """Cutoff functional f(S_{0,tau}) * S_{eps,tau}; nonnegative once
    c_ref >= 0 since f vanishes wherever S_{0,tau} <= lo."""
    s0, s1 = action_pair(spec, loop, params)
    return cutoff_f(s0, cut) * s1


def _grad_kernel(spec: GeometrySpec, loop: Loop, params: ActionParams):
    """Values (s0, s1), the speed weights (w0, w1) of S_{0,tau} and
    S_{eps,tau}, and ``assemble``, which turns a weight vector into the
    exact gradient of the functional it weights, shape (N, 2)."""
    n = loop.n
    d, m, g, ell = edge_geometry(spec, loop.vertices, loop.windings)
    rootE = math.sqrt(params.E)
    s = rootE * n * ell
    p0, p1 = _speed_sums(s, n, params)
    A, circ = _circulation(spec, d, m)

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
    circ_a = half_Jd - A
    circ_b = half_Jd + A

    def assemble(weights):
        # vertex j collects the a-end of edge j and the b-end of edge j-1
        coef = (weights * dsdq)[:, None]
        contrib_a = coef * dq_da + circ_a
        contrib_b = coef * dq_db + circ_b
        grad = np.zeros((n, 2))
        grad += contrib_a
        grad[1:] += contrib_b[:-1]
        grad[0] += contrib_b[-1]
        return grad

    return p0 + circ, p0 + p1 + circ, w0, w1, assemble


def grad_action(spec: GeometrySpec, loop: Loop, params: ActionParams,
                cut: CutoffSpec | None = None) -> np.ndarray:
    """Gradient of S_{eps,tau} (cut None) or of the cutoff functional F.

    Shape (N, 2); entry (j, i) is the derivative with respect to vertex j's
    i-th chart coordinate.  Winding offsets are fixed data, so the gradient
    is well defined on torus loops in any covering representative.  For F
    it is f'(S_0) S_1 grad S_0 + f(S_0) grad S_1; grad S_0 is assembled only
    where f' is non-zero, since elsewhere its term adds exactly zero.
    """
    s0, s1, w0, w1, assemble = _grad_kernel(spec, loop, params)
    g1 = assemble(w1)
    if cut is None:
        return g1
    f = cutoff_f(s0, cut)
    df = cutoff_df(s0, cut)
    if df == 0.0:
        return f * g1
    return df * s1 * assemble(w0) + f * g1


def grad_norm(gradient: np.ndarray) -> float:
    """Euclidean norm of the flattened gradient array."""
    return float(np.linalg.norm(gradient.ravel()))
