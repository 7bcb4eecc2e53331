"""Closed polygonal loops and one-parameter families of them.

A Loop stores N chart vertices plus one integer winding offset per edge.
Edge j runs from vertex j to vertex (j+1) % N and its chart displacement is

    d_j = v_{(j+1) % N} + w_j - v_j,

so on a torus the offsets select which covering-space translate the edge
connects to.  On the plane offsets are identically zero.  Vertices are kept
unwrapped; all field evaluations wrap internally, so a loop may be stored in
any covering-chart representative without changing its invariants.

Geometric quantities use the midpoint metric per edge: with g = lam delta,
lam = exp(2u) the chart's conformal factor, the Riemannian edge length is
sqrt(lam(m_j) |d_j|^2) with m_j = v_j + d_j / 2, and the speed assigned to
edge j of an N-gon is N times that length (the loop parameter runs over
[0, 1]).  On a flat chart (u_amp = 0) lam = 1 and the multiply is
skipped, which changes no bit.  The edge kernel also takes vertex stacks
(..., N, 2), bit for bit per loop.

A Loop is immutable, so each keeps its edge quantities (d, m, lam, ell,
phi) and circulation, read-only, for the last GeometrySpec object it was
evaluated on (a private memo, computed again for any other spec); the
length functions, the action and its gradient read it.

Loops derived from an existing loop (with_vertices, interpolate) are built
by a trusted constructor that reuses the parent's frozen windings and takes
over the fresh vertex array instead of copying and re-validating it; only
the finiteness check is kept.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateLoop, NotConcatenable
from .geometry import (GeometrySpec, conformal_exponent, potential_eval,
                       torus_gap)

_SHARED_VERTEX_TOL = 1e-9


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Loop:
    """Closed polygon: vertices (N, 2) float and per-edge windings (N, 2) int."""

    vertices: np.ndarray
    windings: np.ndarray = None
    # (spec, (d, m, lam, ell, phi), circulation) of the last chart the loop
    # was evaluated on (_edge_memo); not a field
    _memo = None

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must have shape (N, 2)")
        if v.shape[0] < 3:
            raise ValueError("a loop needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        w = self.windings
        if w is None:
            w = np.zeros(v.shape, dtype=int)
        else:
            w = np.asarray(w)
            if w.shape != v.shape:
                raise ValueError("windings must match vertices in shape")
            if not np.all(w == np.round(w)):
                raise ValueError("windings must be integers")
            w = w.astype(int)
        object.__setattr__(self, "vertices", _frozen(v))
        object.__setattr__(self, "windings", _frozen(w))

    @classmethod
    def _trusted(cls, vertices: np.ndarray, windings: np.ndarray) -> "Loop":
        """Loop over a fresh float (N, 2) vertex array and an already frozen
        windings array of the same shape.

        The vertex array is frozen and kept, not copied; shape, dtype and
        winding checks are skipped.  Non-finite vertices still raise.
        """
        if not np.isfinite(vertices).all():
            raise ValueError("vertices must be finite")
        vertices.setflags(write=False)
        loop = object.__new__(cls)
        object.__setattr__(loop, "vertices", vertices)
        object.__setattr__(loop, "windings", windings)
        return loop

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    def displacements(self) -> np.ndarray:
        """Chart displacement of each edge, shape (N, 2)."""
        return _displacements(self.vertices, self.windings)

    def is_point(self) -> bool:
        """True iff the loop is a one-point curve (all displacements zero)."""
        return not np.any(self.displacements())

    def total_winding(self) -> np.ndarray:
        return self.windings.sum(axis=0)

    def with_vertices(self, vertices: np.ndarray) -> "Loop":
        """This loop's windings over new vertices.

        ``vertices`` must be a float array of this loop's shape that the
        caller does not keep writing to: it is frozen and kept, not copied.
        """
        if vertices.shape != self.vertices.shape:
            raise ValueError("vertices must match the loop in shape")
        return Loop._trusted(vertices, self.windings)


def make_point_loop(p, n: int) -> Loop:
    """Constant loop at chart point p with n coincident vertices."""
    p = np.asarray([p.x, p.y] if hasattr(p, "x") else p, dtype=float)
    return Loop(np.tile(p, (n, 1)))


def make_circle(center, r: float, orientation: int, n: int) -> Loop:
    """Regular n-gon inscribed in the circle of radius r about center.

    orientation +1 traverses counterclockwise, -1 clockwise; on
    plane_constant_B the sign of the enclosed flux flips with it.
    """
    if orientation not in (1, -1):
        raise ConfigError("orientation must be +1 or -1")
    if not (0 <= r < math.inf):
        raise ConfigError("radius must be finite and nonnegative")
    c = np.asarray([center.x, center.y] if hasattr(center, "x") else center,
                   dtype=float)
    theta = orientation * 2.0 * np.pi * np.arange(n) / n
    v = c + r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return Loop(v)


def _displacements(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Edge displacements v_{j+1} + w_j - v_j of a stack v (..., N, 2)."""
    d = np.concatenate((v[..., 1:, :], v[..., :1, :]), axis=-2)
    d += w
    d -= v
    return d


def _edge_metric(spec: GeometrySpec, v: np.ndarray, d: np.ndarray):
    """Midpoints, midpoint conformal factors lam and Riemannian lengths of
    the edges d leaving the vertices v, both of shape (..., N, 2).

    The length is sqrt((d_x lam) d_x + (d_y lam) d_y), the rounding of the
    contraction d . g . d; lam is the float 1.0 on a flat chart.
    """
    m = v + 0.5 * d
    dx, dy = d[..., 0], d[..., 1]
    if spec.is_flat:
        return m, 1.0, np.sqrt(dx * dx + dy * dy)
    lam = np.exp(2.0 * conformal_exponent(spec, m)[0])
    return m, lam, np.sqrt((dx * lam) * dx + (dy * lam) * dy)


def edge_geometry(spec: GeometrySpec, v: np.ndarray, w: np.ndarray):
    """Per-edge kernel (d, m, lam, ell, phi) of a vertex stack v (..., N, 2)
    over the shared windings w, from one displacement pass.

    d are the chart displacements, m the midpoints, lam the conformal
    factor at the midpoints (1.0 on a flat chart), ell the Riemannian edge
    lengths and phi the potential Phi of A = Phi(x) dy at the midpoints;
    every length, action value and gradient is assembled from these.
    """
    d = _displacements(v, w)
    m, lam, ell = _edge_metric(spec, v, d)
    return d, m, lam, ell, potential_eval(spec, m)


def _circulation(d: np.ndarray, phi: np.ndarray):
    """Circulation sum_j phi_j d_j,y of each loop of an edge_geometry stack."""
    return np.einsum("...n,...n->...", phi, d[..., 1])


def _memoize(loop: Loop, spec: GeometrySpec, geom: tuple, circ) -> tuple:
    """Set the loop's memo for spec to the edge quantities geom, made
    read-only, and the circulation circ."""
    for a in geom:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    memo = (spec, geom, circ)
    object.__setattr__(loop, "_memo", memo)
    return memo


def _edge_memo(spec: GeometrySpec, loop: Loop) -> tuple:
    """The loop's memo (spec, (d, m, lam, ell, phi), circulation) for this
    spec object; one edge_geometry pass fills it unless it holds spec."""
    memo = loop._memo
    if memo is None or memo[0] is not spec:
        geom = edge_geometry(spec, loop.vertices, loop.windings)
        memo = _memoize(loop, spec, geom, _circulation(geom[0], geom[4]))
    return memo


def edge_lengths(spec: GeometrySpec, loop: Loop) -> np.ndarray:
    """Riemannian length of each edge under the midpoint metric (the
    loop's read-only memo)."""
    return _edge_memo(spec, loop)[1][3]


def length(spec: GeometrySpec, loop: Loop) -> float:
    """Total Riemannian length; zero iff the loop is a one-point curve."""
    return float(edge_lengths(spec, loop).sum())


def speeds(spec: GeometrySpec, loop: Loop) -> np.ndarray:
    """Per-edge speeds N * edge_length (parameter interval [0, 1])."""
    return loop.n * edge_lengths(spec, loop)


def speed_cv(spec: GeometrySpec, loop: Loop) -> float:
    """Coefficient of variation of the edge speeds (0 for arc-length loops)."""
    s = speeds(spec, loop)
    mean = s.mean()
    if mean == 0.0:
        raise DegenerateLoop("speed CV undefined for a point loop")
    return float(s.std() / mean)


def _lifted_polyline(loop: Loop) -> np.ndarray:
    """Vertices lifted to the covering chart, shape (N+1, 2), last = first + W."""
    d = loop.displacements()
    p = np.empty((loop.n + 1, 2), dtype=float)
    p[0] = loop.vertices[0]
    np.cumsum(d, axis=0, out=p[1:])
    p[1:] += p[0]
    return p


def resample_arclength(spec: GeometrySpec, loop: Loop, n_out: int) -> Loop:
    """Redistribute n_out vertices so edge lengths are equal within 1e-9.

    Vertices are placed on the input polygon (lifted to the covering chart),
    anchored at the input's first vertex, by iterating cumulative-length
    redistribution.  The pass with the lowest edge-length CV is returned;
    the iteration stops at the first pass that does not lower it once it is
    below 1e-9.  Already uniform loops are returned unchanged up to
    roundoff.  The total winding class is preserved.
    """
    if n_out < 3:
        raise ValueError("n_out must be at least 3")
    ell = edge_lengths(spec, loop)
    total = float(ell.sum())
    if total <= 0.0:
        raise DegenerateLoop("cannot resample a zero-length loop")

    lifted = _lifted_polyline(loop)
    base = np.concatenate([[0.0], np.cumsum(ell)])
    base[-1] = total  # guard accumulated roundoff

    winding = loop.total_winding()
    s = np.arange(n_out) * (total / n_out)
    best_v = None
    best_cv = math.inf
    for _ in range(200):
        sx = np.clip(s, 0.0, total)
        v = np.stack([np.interp(sx, base, lifted[:, 0]),
                      np.interp(sx, base, lifted[:, 1])], axis=1)
        d = np.roll(v, -1, axis=0) - v
        d[-1] += winding
        c = _edge_metric(spec, v, d)[2]
        ctot = float(c.sum())
        if ctot <= 0.0:
            raise DegenerateLoop("resampling collapsed the loop")
        cv = float(c.std() / c.mean())
        if cv < best_cv:
            best_cv, best_v = cv, v
        elif best_cv < 1e-9:
            break  # at the rounding floor: further passes only trade noise
        # remap: equalize measured chord lengths, keeping the anchor fixed
        cum = np.concatenate([[0.0], np.cumsum(c)])
        targets = np.arange(n_out) * (ctot / n_out)
        s_nodes = np.concatenate([s, [s[0] + total]])
        s = np.interp(targets, cum, s_nodes)
        s[0] = 0.0

    w = np.zeros((n_out, 2), dtype=int)
    w[-1] = winding
    return Loop(best_v, w)


def concat(spec: GeometrySpec, first: Loop, second: Loop) -> Loop:
    """Concatenate two loops at a shared vertex (tolerance 1e-9).

    The result traverses all of ``first`` then all of ``second``; its action
    is the exact sum of the inputs' actions for any additive functional of
    edges.  Raises NotConcatenable when no vertex pair matches.  On a torus
    vertices may match through an integer chart translation.
    """
    gaps = torus_gap(
        spec, first.vertices[:, None, :] - second.vertices[None, :, :])
    dist = np.abs(gaps).max(axis=2)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    if dist[i, j] > _SHARED_VERTEX_TOL:
        raise NotConcatenable(
            f"closest vertex pair is {dist[i, j]:.3e} apart (tolerance 1e-9)")

    v1 = np.roll(first.vertices, -i, axis=0)
    w1 = np.roll(first.windings, -i, axis=0)
    v2 = np.roll(second.vertices, -j, axis=0)
    w2 = np.roll(second.windings, -j, axis=0)

    # Move the second loop to the chart representative whose start coincides
    # with the junction vertex; integer translations change no displacement,
    # so the original winding offsets stay valid for both closing edges.
    if spec.is_torus:
        v2 = v2 + np.round(v1[0] - v2[0])
    return Loop(np.concatenate([v1, v2]), np.concatenate([w1, w2]))


def rms_distance(a: Loop, b: Loop) -> float:
    """Root-mean-square vertexwise distance; the family interpolation metric."""
    if a.n != b.n:
        raise ValueError("loops must have equal vertex counts")
    diff = a.vertices - b.vertices
    return float(np.sqrt((diff * diff).sum(axis=1).mean()))


def interpolate(a: Loop, b: Loop, t: float) -> Loop:
    """Vertexwise linear interpolation; requires matching windings."""
    if a.n != b.n:
        raise ValueError("loops must have equal vertex counts")
    if a.windings is not b.windings and \
            not np.array_equal(a.windings, b.windings):
        raise ValueError("cannot interpolate loops with different windings")
    return Loop._trusted((1.0 - t) * a.vertices + t * b.vertices, a.windings)


@dataclass(frozen=True)
class LoopFamily:
    """A throwing-out family of loops.

    shape "path": a single row of loops from a one-point loop to a terminal
    loop.  shape "cylinder": several rows, each a path; rows sweep a second
    parameter (the base point around a cycle).  Adjacent loops in a row
    share windings, so piecewise-linear interpolation between them traces a
    continuous family.
    """

    shape: str
    rows: tuple

    def __post_init__(self):
        if self.shape not in ("path", "cylinder"):
            raise ValueError("shape must be 'path' or 'cylinder'")
        rows = tuple(tuple(r) for r in self.rows)
        if not rows or any(len(r) < 3 for r in rows):
            raise ValueError("each row needs at least 3 loops")
        if self.shape == "path" and len(rows) != 1:
            raise ValueError("a path family has exactly one row")
        n = rows[0][0].n
        for row in rows:
            if not row[0].is_point():
                raise ValueError("each row must start at a one-point loop")
            for lp in row:
                if lp.n != n:
                    raise ValueError("all loops must share a vertex count")
            for a, b in zip(row, row[1:]):
                if not np.array_equal(a.windings, b.windings):
                    raise ValueError("adjacent loops must share windings")
        object.__setattr__(self, "rows", rows)


def save_loop_csv(path, loop: Loop, torus: bool):
    """Write a loop as CSV: index,x,y on the plane, plus wx,wy on a torus.
    The bytes are csv.writer's for these rows: CRLF ends and repr floats."""
    rows = enumerate(loop.vertices.tolist())
    if torus:
        lines = [f"{i},{x!r},{y!r},{wx},{wy}\r\n" for (i, (x, y)), (wx, wy)
                 in zip(rows, loop.windings.tolist())]
    else:
        lines = [f"{i},{x!r},{y!r}\r\n" for i, (x, y) in rows]
    with open(path, "w", newline="") as fh:
        fh.write("index,x,y" + ",wx,wy" * torus + "\r\n" + "".join(lines))


def load_loop_csv(path) -> Loop:
    """Read a loop written by save_loop_csv (3- or 5-column form, rows in
    any order).  A file not in that form raises ConfigError, naming the
    line of a row of another length, of a value that does not parse, or of
    indices that are not 0..N-1 once each."""
    rows = []  # (index, line number, values)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # an empty file has no header
        if header not in (["index", "x", "y"],
                          ["index", "x", "y", "wx", "wy"]):
            raise ConfigError(f"unrecognized loop CSV header: {header}")
        for r in filter(None, reader):
            try:
                if len(r) != len(header):
                    raise ValueError(f"{len(r)} values, not {len(header)}")
                rows.append((int(r[0]), reader.line_num,
                             [float(r[1]), float(r[2]), *map(int, r[3:])]))
            except ValueError as exc:
                raise ConfigError(
                    f"{path}, line {reader.line_num}: {exc}") from None
    rows.sort()
    for k, (i, line, _) in enumerate(rows):
        if i != k:
            raise ConfigError(f"{path}, line {line}: index {i}, expected {k}"
                              f" (0..{len(rows) - 1} once each)")
    verts = np.array([v[:2] for *_, v in rows])
    if len(header) == 5:
        return Loop(verts, np.array([v[2:] for *_, v in rows]))
    return Loop(verts)
