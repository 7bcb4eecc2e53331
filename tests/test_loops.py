"""Polygonal loop container: resampling, concatenation, CSV round-trips."""

import csv
import io
import math

import numpy as np
import pytest

from magloop import (GeometryKind, GeometrySpec, Loop, LoopFamily, concat,
                     length, load_loop_csv, make_circle, make_point_loop,
                     resample_arclength, save_loop_csv, speed_cv, speeds)
from magloop.errors import ConfigError, DegenerateLoop, NotConcatenable
from magloop.loops import edge_lengths, interpolate, rms_distance

PLANE = GeometrySpec(GeometryKind.PLANE_CONSTANT_B, B=1.0)
TORUS = GeometrySpec(GeometryKind.FLAT_TORUS_SINE, a=3.0, k=1)


def _wobbly_loop(rng, n=96, center=(0.0, 0.0), r=1.0, jitter=0.01):
    theta = 2.0 * np.pi * np.arange(n) / n
    rad = r * (1.0 + 0.2 * np.cos(3 * theta) + 0.1 * np.sin(2 * theta))
    verts = np.stack([center[0] + rad * np.cos(theta),
                      center[1] + rad * np.sin(theta)], axis=1)
    verts += jitter * rng.standard_normal(verts.shape)
    return Loop(verts, np.zeros((n, 2), dtype=int))


def test_circle_length_closed_form():
    # inscribed n-gon perimeter: 2 n r sin(pi/n)
    for n in (16, 64, 256):
        loop = make_circle((0.3, -0.2), 2.0, 1, n)
        expect = 2.0 * n * 2.0 * math.sin(math.pi / n)
        assert abs(length(PLANE, loop) - expect) < 1e-12 * expect


def test_loop_validation():
    with pytest.raises(ValueError):
        Loop(np.zeros((2, 2)), np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError):
        Loop(np.full((8, 2), np.nan), np.zeros((8, 2), dtype=int))
    with pytest.raises(ValueError):
        Loop(np.zeros((8, 2)), 0.5 * np.ones((8, 2)))
    loop = make_circle((0, 0), 1.0, 1, 8)
    with pytest.raises(ValueError):
        loop.vertices[0, 0] = 99.0


def test_point_loop_semantics():
    pt = make_point_loop((0.2, 0.7), 16)
    assert pt.is_point()
    assert length(PLANE, pt) == 0.0
    with pytest.raises(DegenerateLoop):
        speed_cv(PLANE, pt)


def test_resample_uniformity_and_length():
    rng = np.random.default_rng(23)
    smooth = _wobbly_loop(rng, jitter=0.0)
    out = resample_arclength(PLANE, smooth, 128)
    assert out.n == 128
    assert speed_cv(PLANE, out) < 1e-10
    l0, l1 = length(PLANE, smooth), length(PLANE, out)
    # resampled vertices track the original polyline, so the length can only
    # shrink by corner cutting, quadratically small in the mesh size
    assert l1 <= l0 + 1e-12
    assert (l0 - l1) / l0 < 2e-3
    for _ in range(3):
        jagged = _wobbly_loop(rng)
        out = resample_arclength(PLANE, jagged, 128)
        assert speed_cv(PLANE, out) < 1e-10
        assert length(PLANE, out) <= length(PLANE, jagged) + 1e-12


def test_resample_preserves_winding():
    theta = 2.0 * np.pi * np.arange(64) / 64
    verts = np.stack([np.linspace(0.0, 1.0, 64, endpoint=False),
                      0.1 * np.sin(theta) + 0.5], axis=1)
    w = np.zeros((64, 2), dtype=int)
    w[-1, 0] = 1
    loop = Loop(verts, w)
    out = resample_arclength(TORUS, loop, 96)
    assert np.array_equal(out.total_winding(), loop.total_winding())
    assert speed_cv(TORUS, out) < 1e-10


def test_resample_point_loop_raises():
    with pytest.raises(DegenerateLoop):
        resample_arclength(PLANE, make_point_loop((0, 0), 8), 16)


def test_concat_additivity_and_errors():
    rng = np.random.default_rng(29)
    a = _wobbly_loop(rng, n=48, center=(0.0, 0.0))
    # share a vertex: translate b so its vertex 5 equals a's vertex 11
    b = _wobbly_loop(rng, n=32, center=(2.5, 0.0))
    shift = a.vertices[11] - b.vertices[5]
    b = b.with_vertices(b.vertices + shift)
    joined = concat(PLANE, a, b)
    assert joined.n == a.n + b.n
    assert abs(length(PLANE, joined)
               - length(PLANE, a) - length(PLANE, b)) < 1e-12
    far = _wobbly_loop(rng, n=32, center=(50.0, 0.0))
    with pytest.raises(NotConcatenable):
        concat(PLANE, a, far)


def test_concat_torus_windings_add():
    verts1 = np.stack([np.linspace(0.0, 1.0, 32, endpoint=False),
                       np.full(32, 0.25)], axis=1)
    w1 = np.zeros((32, 2), dtype=int)
    w1[-1, 0] = 1
    line1 = Loop(verts1, w1)
    verts2 = np.stack([np.linspace(0.25, 1.25, 32, endpoint=False) % 1.0,
                       np.full(32, 0.25)], axis=1)
    w2 = np.zeros((32, 2), dtype=int)
    w2[np.where(np.diff(verts2[:, 0]) < 0)[0]] = (1, 0)
    line2 = Loop(verts2, w2)
    assert np.array_equal(line2.total_winding(), [1, 0])
    joined = concat(TORUS, line1, line2)
    assert joined.n == 64
    assert np.array_equal(joined.total_winding(),
                          line1.total_winding() + line2.total_winding())
    assert abs(length(TORUS, joined) - length(TORUS, line1)
               - length(TORUS, line2)) < 1e-12


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    loop = _wobbly_loop(rng, n=40)
    path = tmp_path / "loop.csv"
    save_loop_csv(path, loop, torus=False)
    back = load_loop_csv(path)
    assert np.array_equal(back.vertices, loop.vertices)
    assert np.array_equal(back.windings, loop.windings)

    w = np.zeros((40, 2), dtype=int)
    w[7] = (1, -2)
    tl = Loop(loop.vertices % 1.0, w)
    path2 = tmp_path / "torus_loop.csv"
    save_loop_csv(path2, tl, torus=True)
    back2 = load_loop_csv(path2)
    assert np.array_equal(back2.vertices, tl.vertices)
    assert np.array_equal(back2.windings, tl.windings)


def test_csv_load_refuses_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="header"):
        load_loop_csv(path)


@pytest.mark.parametrize("body, message", [
    ("index,x,y\r\n0,1.0\r\n", "line 2: 2 values, not 3"),
    ("index,x,y,wx,wy\r\n0,0,0,0,0\r\n1,1,0,0\r\n2,0,1,0,0\r\n",
     "line 3: 4 values, not 5"),
    ("index,x,y\r\n0,0,0\r\n0,1,0\r\n5,0,1\r\n",
     "line 3: index 0, expected 1"),
    ("index,x,y\r\n0,0,0\r\n1,1,0\r\n5,0,1\r\n",
     "line 4: index 5, expected 2"),
    ("index,x,y\r\n0,0,0\r\n1,one,0\r\n2,0,1\r\n",
     "line 3: could not convert"),
    ("index,x,y,wx\r\n0,0,0,0\r\n", "header"),
], ids=["short_row", "short_torus_row", "repeated_index", "missing_index",
        "bad_number", "bad_header"])
def test_csv_load_refuses_a_malformed_file(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(body.encode())
    with pytest.raises(ConfigError, match=message):
        load_loop_csv(path)


def test_csv_load_takes_rows_in_any_order(tmp_path):
    path = tmp_path / "loop.csv"
    path.write_bytes(b"index,x,y\r\n2,0,1\r\n0,0,0\r\n1,1,0\r\n")
    assert load_loop_csv(path).vertices.tolist() == [[0, 0], [1, 0], [0, 1]]


def _csv_writer_bytes(loop, torus):
    """The bytes csv.writer wrote for a loop before save_loop_csv formatted
    its rows itself."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["index", "x", "y", "wx", "wy"] if torus
                    else ["index", "x", "y"])
    for i in range(loop.n):
        row = [i, repr(float(loop.vertices[i, 0])),
               repr(float(loop.vertices[i, 1]))]
        if torus:
            row += [int(loop.windings[i, 0]), int(loop.windings[i, 1])]
        writer.writerow(row)
    return buf.getvalue().encode()


def test_csv_bytes_equal_the_csv_writer_rows(tmp_path):
    rng = np.random.default_rng(37)
    plane = _wobbly_loop(rng, n=33)
    plane = plane.with_vertices(plane.vertices * np.array([1e-7, -3e5]))
    w = rng.integers(-2, 3, size=(33, 2))
    w[0] = (0, 0)
    torus = Loop(np.concatenate([[[-0.0, 1e-300]], rng.uniform(
        -1.0, 2.0, size=(32, 2))]), w)
    for loop, is_torus in ((plane, False), (torus, True)):
        path = tmp_path / "loop.csv"
        save_loop_csv(path, loop, torus=is_torus)
        assert path.read_bytes() == _csv_writer_bytes(loop, is_torus)
        back = load_loop_csv(path)
        assert back.vertices.tobytes() == loop.vertices.tobytes()
        assert np.array_equal(back.windings, loop.windings)


def test_interpolate_endpoints_and_winding_guard():
    a = make_circle((0, 0), 1.0, 1, 32)
    b = make_circle((0.5, 0.5), 2.0, 1, 32)
    assert np.array_equal(interpolate(a, b, 0.0).vertices, a.vertices)
    assert np.array_equal(interpolate(a, b, 1.0).vertices, b.vertices)
    mid = interpolate(a, b, 0.5)
    assert np.allclose(mid.vertices, 0.5 * (a.vertices + b.vertices))
    w = np.zeros((32, 2), dtype=int)
    w[-1, 0] = 1
    wound = Loop(a.vertices.copy(), w)
    with pytest.raises(ValueError):
        interpolate(a, wound, 0.5)


def test_derived_loops_reject_non_finite_vertices():
    # with_vertices and interpolate skip the constructor's checks but keep
    # the finiteness one
    a = make_circle((0, 0), 1.0, 1, 16)
    b = make_circle((0.5, 0.5), 2.0, 1, 16)
    bad = a.vertices.copy()
    bad[3, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        a.with_vertices(bad)
    with pytest.raises(ValueError, match="finite"):
        a.with_vertices(a.vertices - np.nan)
    with np.errstate(invalid="ignore", over="ignore"):
        for t in (np.inf, np.nan, 1e308):
            with pytest.raises(ValueError, match="finite"):
                interpolate(a, b, t)
    with pytest.raises(ValueError):
        a.with_vertices(np.zeros((8, 2)))
    out = a.with_vertices(a.vertices + 1.0)
    assert out.windings is a.windings
    with pytest.raises(ValueError):
        out.vertices[0, 0] = 0.0


def test_speeds_and_edge_lengths_consistency():
    rng = np.random.default_rng(37)
    loop = _wobbly_loop(rng)
    el = edge_lengths(PLANE, loop)
    sp = speeds(PLANE, loop)
    assert np.allclose(sp, loop.n * el)
    assert abs(length(PLANE, loop) - el.sum()) < 1e-14


def test_distance_helpers():
    a = make_circle((0, 0), 1.0, 1, 16)
    b = a.with_vertices(a.vertices + np.array([0.3, -0.4]))
    assert abs(rms_distance(a, b) - 0.5) < 1e-14


def test_loop_family_invariants():
    row = [make_point_loop((0.0, 0.0), 16)]
    for r in np.linspace(0.05, 1.0, 7):
        row.append(make_circle((0.0, 0.0), float(r), 1, 16))
    fam = LoopFamily("path", (tuple(row),))
    assert fam.rows[0][0].is_point()
    assert len(fam.rows) == 1 and len(fam.rows[0]) == 8
    with pytest.raises(ValueError):
        LoopFamily("path", (tuple(row[1:]),))  # rows must start at a point
    with pytest.raises(ValueError):
        LoopFamily("spiral", (tuple(row),))
    with pytest.raises(ValueError):
        LoopFamily("path", (tuple(row), tuple(row)))  # paths have one row
