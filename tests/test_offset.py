"""Polyline offsetting: miter joins and tangent-arc corners.

Expected coordinates are derived by hand from plane geometry: the offset of
a segment is a parallel line at the signed distance, positive to the left
of travel; miter joins meet where adjacent offset lines intersect; a corner
arc of radius R is centred R away from both legs along the tangent-point
normals, so the offset curve's arc radius is R -/+ the offset for
left/right turns.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from modraft import (Arc, Drawing, GenerationError, LineStyle, ModuleType, Point,
                     Rect, Segment, create_module, load_drawing, offset_path,
                     save_drawing)
from modraft.geometry import (_DEFAULT_STYLE, _EPS, MIN_JOIN_TURN_DEG, Element,
                              _as_float, _as_point, _line_intersection,
                              _path_directions, _turn_angles)


def test_straight_path_offsets_to_parallel_segment():
    out = offset_path([(0, 0), (100, 0)], 3.0)
    assert out == [Segment(Point(0, 3), Point(100, 3))]
    out = offset_path([(0, 0), (100, 0)], -3.0)
    assert out == [Segment(Point(0, -3), Point(100, -3))]


def test_left_turn_welded_miter():
    # travel +x then +y; left offset lines y=3 and x=97 meet at (97, 3)
    out = offset_path([(0, 0), (100, 0), (100, 100)], 3.0)
    assert out == [Segment(Point(0, 3), Point(97, 3)),
                   Segment(Point(97, 3), Point(97, 100))]


def test_right_turn_welded_miter():
    # travel +x then -y; left offset lines y=3 and x=103 meet at (103, 3)
    out = offset_path([(0, 0), (100, 0), (100, -100)], 3.0)
    assert out == [Segment(Point(0, 3), Point(103, 3)),
                   Segment(Point(103, 3), Point(103, -100))]


def test_oblique_miter_position():
    # 45-degree turn: miter sits d / tan(turn/2) short of the corner along
    # the incoming line, i.e. at x = 100 - 3*tan(22.5 deg) on y = 3
    out = offset_path([(0, 0), (100, 0), (200, 100)], 3.0)
    expected_x = 100 - 3 * math.tan(math.radians(22.5))
    assert math.isclose(out[0].p2.x, expected_x, rel_tol=1e-12)
    assert math.isclose(out[0].p2.y, 3.0, rel_tol=1e-12)
    assert out[0].p2 == out[1].p1


def test_bent_left_turn_arc():
    out = offset_path([(0, 0), (100, 0), (100, 100)], 3.0,
                      corner="bent", fillet_radius=10.0)
    seg_in, arc, seg_out = out
    assert seg_in == Segment(Point(0, 3), Point(90, 3))
    assert isinstance(arc, Arc)
    assert arc.center == Point(90, 10)
    assert arc.radius == 7.0
    assert (arc.start_angle, arc.end_angle) == (270.0, 0.0)
    assert seg_out == Segment(Point(97, 10), Point(97, 100))


def test_bent_near_straight_join_restarts_on_the_outgoing_line():
    # a 0.29-degree turn is below MIN_JOIN_TURN_DEG: no arc, the incoming
    # run ends abreast of the vertex and the outgoing run starts abreast of
    # it on its own offset line
    out = offset_path([(0, 0), (100, 0), (200, 0.5)], 3.0,
                      corner="bent", fillet_radius=10.0)
    seg_in, seg_out = out
    assert seg_in == Segment(Point(0, 3), Point(100, 3))
    assert isinstance(seg_out, Segment)
    assert math.isclose(seg_out.p1.distance_to(Point(100, 0)), 3.0, rel_tol=1e-12)
    assert seg_out.p1 != seg_in.p2
    assert math.isclose(seg_out.p2.distance_to(Point(200, 0.5)), 3.0, rel_tol=1e-12)


def test_bent_right_turn_arc_runs_clockwise_stored_ccw():
    out = offset_path([(0, 0), (100, 0), (100, -100)], 3.0,
                      corner="bent", fillet_radius=10.0)
    seg_in, arc, seg_out = out
    assert seg_in == Segment(Point(0, 3), Point(90, 3))
    assert arc.center == Point(90, -10)
    assert arc.radius == 13.0
    # traversal is clockwise from 90 to 0 degrees; stored ascending
    assert (arc.start_angle, arc.end_angle) == (0.0, 90.0)
    assert seg_out == Segment(Point(103, -10), Point(103, -100))


def test_flat_join_stays_unjoined():
    # 0.286-degree turn is below the joining threshold: no miter, the two
    # offset segments stay on their own parallel lines
    out = offset_path([(0, 0), (100, 0), (200, 0.5)], 3.0)
    assert len(out) == 2
    assert out[0].p2 == Point(100, 3)
    assert out[1].p1 != out[0].p2


def test_reversal_is_rejected():
    with pytest.raises(GenerationError):
        offset_path([(0, 0), (100, 0), (0, 0.1)], 3.0)


def test_repeated_point_is_rejected():
    with pytest.raises(GenerationError):
        offset_path([(0, 0), (0, 0), (10, 0)], 1.0)


def test_fillet_must_fit_segment():
    with pytest.raises(GenerationError):
        offset_path([(0, 0), (15, 0), (15, 15)], 3.0,
                     corner="bent", fillet_radius=20.0)


def test_fillet_must_exceed_offset():
    with pytest.raises(GenerationError):
        offset_path([(0, 0), (50, 0), (50, 50)], 5.0,
                     corner="bent", fillet_radius=5.0)


def _line_distance(p: Point, a: Point, u: tuple[float, float]) -> float:
    return abs((p.x - a.x) * u[1] - (p.y - a.y) * u[0])


def test_welded_offsets_random_paths_stay_parallel():
    rng = random.Random(11)
    for _ in range(100):
        # random staircase guarantees 90-degree turns
        pts = [Point(0, 0)]
        horizontal = True
        for _ in range(rng.randrange(1, 4)):
            step = rng.choice([-1, 1]) * rng.uniform(30, 80)
            last = pts[-1]
            pts.append(Point(last.x + step, last.y) if horizontal
                       else Point(last.x, last.y + step))
            horizontal = not horizontal
        d = rng.choice([-1, 1]) * rng.uniform(0.5, 5)
        out = offset_path(pts, d)
        assert len(out) == len(pts) - 1
        for seg, a, b in zip(out, pts, pts[1:]):
            length = a.distance_to(b)
            u = ((b.x - a.x) / length, (b.y - a.y) / length)
            assert math.isclose(_line_distance(seg.p1, a, u), abs(d), rel_tol=1e-9)
            assert math.isclose(_line_distance(seg.p2, a, u), abs(d), rel_tol=1e-9)
        for prev, nxt in zip(out, out[1:]):
            assert prev.p2 == nxt.p1  # miter joins are shared points


def test_bent_arcs_are_tangent_to_both_legs():
    rng = random.Random(13)
    for _ in range(100):
        pts = [Point(rng.uniform(-50, 50), rng.uniform(-50, 50))]
        horizontal = True
        for _ in range(rng.randrange(1, 4)):
            step = rng.choice([-1, 1]) * rng.uniform(40, 80)
            last = pts[-1]
            pts.append(Point(last.x + step, last.y) if horizontal
                       else Point(last.x, last.y + step))
            horizontal = not horizontal
        d = rng.choice([-1, 1]) * rng.uniform(0.5, 4)
        radius = rng.uniform(abs(d) + 1, 15)
        out = offset_path(pts, d, corner="bent", fillet_radius=radius)
        arcs = [e for e in out if isinstance(e, Arc)]
        assert len(arcs) == len(pts) - 2
        for arc, a, b, c in zip(arcs, pts, pts[1:], pts[2:]):
            for start, end in ((a, b), (b, c)):
                length = start.distance_to(end)
                u = ((end.x - start.x) / length, (end.y - start.y) / length)
                centre_line = _line_distance(arc.center, start, u)
                assert math.isclose(centre_line, radius, rel_tol=1e-9)


def test_a_segment_too_long_to_measure_is_refused():
    # hypot overflows to inf and the direction would be (0, 0): a miter
    # would divide by zero, and a straight run would not be shifted at all
    for path in ([(0, 0), (0, 1e308), (-1.5e308, 0)], [(0, 0), (1.5e308, 1.5e308)]):
        for corner in ("welded", "bent"):
            with pytest.raises(GenerationError, match="^degenerate path: "):
                offset_path(path, 2.0, corner, 3.0)
    with pytest.raises(GenerationError, match="^degenerate path: "):
        create_module(ModuleType.PIPELINE, {"path": [(0, 0), (1.5e308, 1.5e308)],
                                            "diameter_mm": 2.0})


def test_a_welded_run_shorter_than_twice_its_offset_reverses_and_still_round_trips():
    # A v1 limitation: welded corners have no fit check. Between two left
    # turns, the run of length 1 offset 0.8 inwards comes out from
    # (9.2, 0.8) down to (9.2, 0.2), against travel, so a 1.6 mm pipe's
    # walls cross. Bent corners refuse the same path. Refusing it welded
    # would stop v1 files holding such a pipe from loading, so a fit check
    # has to change this test on purpose.
    path = [(0, 0), (10, 0), (10, 1), (0, 1)]
    middle = offset_path(path, 0.8)[1]
    assert middle.p1 == Point(9.2, 0.8)
    assert middle.p2.x == 9.2 and middle.p2.y < middle.p1.y
    with pytest.raises(GenerationError, match="^fillet does not fit on a path segment$"):
        offset_path(path, 0.8, "bent", 1.0)
    d = Drawing.new(Rect.from_bounds(0, 0, 20, 20))
    d.add_module(ModuleType.PIPELINE, {"path": path, "diameter_mm": 1.6})
    data = save_drawing(d)
    assert save_drawing(load_drawing(data)) == data


# The two-walk offset_path this one walk replaced, kept verbatim as the
# reference for the differential test below.
def _reference_offset_path(points: Iterable[object], side_offset: float,
                           corner: str = "welded", fillet_radius: float = 0.0,
                           *, style: LineStyle = _DEFAULT_STYLE) -> list[Element]:
    pts = [_as_point(p) for p in points]
    if len(pts) < 2:
        raise GenerationError("path needs at least 2 points")
    dirs, lengths = _path_directions(pts)
    turns = _turn_angles(dirs)
    d = _as_float(side_offset)
    normals = [(-u[1], u[0]) for u in dirs]
    min_turn = math.radians(MIN_JOIN_TURN_DEG)

    if corner == "welded":
        starts = [Point(p.x + d * n[0], p.y + d * n[1])
                  for p, n in zip(pts[:-1], normals)]
        ends = [Point(q.x + d * n[0], q.y + d * n[1])
                for q, n in zip(pts[1:], normals)]
        for k, turn in enumerate(turns):
            if abs(turn) < min_turn:
                continue
            miter = _line_intersection(starts[k], dirs[k], starts[k + 1], dirs[k + 1])
            ends[k] = miter
            starts[k + 1] = miter
        return [Segment(a, b, style) for a, b in zip(starts, ends)]

    if corner != "bent":
        raise ValueError(f"unknown corner mode {corner!r}")

    radius = _as_float(fillet_radius)
    if radius <= abs(d):
        raise GenerationError("fillet radius must exceed the offset magnitude")

    def _tangent_length(turn: float) -> float:
        if abs(turn) < min_turn:
            return 0.0
        half = abs(turn) / 2.0
        # right-angle corners are ubiquitous; keep them exact
        return radius if half == math.pi / 4.0 else radius * math.tan(half)

    tangents = [_tangent_length(turn) for turn in turns]
    for i, length in enumerate(lengths):
        t_in = tangents[i - 1] if i > 0 else 0.0
        t_out = tangents[i] if i < len(tangents) else 0.0
        if t_in + t_out > length + _EPS:
            raise GenerationError("fillet does not fit on a path segment")

    elements: list[Element] = []
    cursor = Point(pts[0].x + d * normals[0][0], pts[0].y + d * normals[0][1])
    for j, turn in enumerate(turns):
        vertex = pts[j + 1]
        u_in, u_out = dirs[j], dirs[j + 1]
        n_in, n_out = normals[j], normals[j + 1]
        t = tangents[j]
        if t == 0.0:
            # Near-straight join: close off the incoming run, restart on the
            # outgoing offset line.
            end = Point(vertex.x + d * n_in[0], vertex.y + d * n_in[1])
            if cursor.distance_to(end) > _EPS:
                elements.append(Segment(cursor, end, style))
            cursor = Point(vertex.x + d * n_out[0], vertex.y + d * n_out[1])
            continue
        tan_in = Point(vertex.x - t * u_in[0], vertex.y - t * u_in[1])
        tan_out = Point(vertex.x + t * u_out[0], vertex.y + t * u_out[1])
        entry = Point(tan_in.x + d * n_in[0], tan_in.y + d * n_in[1])
        exit_ = Point(tan_out.x + d * n_out[0], tan_out.y + d * n_out[1])
        if cursor.distance_to(entry) > _EPS:
            elements.append(Segment(cursor, entry, style))
        left = turn > 0.0
        if left:
            center = Point(tan_in.x + radius * n_in[0], tan_in.y + radius * n_in[1])
            arc_radius = radius - d
        else:
            center = Point(tan_in.x - radius * n_in[0], tan_in.y - radius * n_in[1])
            arc_radius = radius + d
        a_entry = math.degrees(math.atan2(entry.y - center.y, entry.x - center.x))
        a_exit = math.degrees(math.atan2(exit_.y - center.y, exit_.x - center.x))
        if left:
            elements.append(Arc(center, arc_radius, a_entry, a_exit, style))
        else:
            elements.append(Arc(center, arc_radius, a_exit, a_entry, style))
        cursor = exit_
    tail = Point(pts[-1].x + d * normals[-1][0], pts[-1].y + d * normals[-1][1])
    if cursor.distance_to(tail) > _EPS:
        elements.append(Segment(cursor, tail, style))
    return elements


_SCALES = [30.0, 1.0, 1e3, 1e-9, 1e154, 1e300, 1.7e308, 1e-300, 1e-320]
_any_real = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _offset_paths(draw):
    """Free, staircase or near-flat paths of 2 to 6 points at one of
    ``_SCALES``, some coordinates or steps drawn from every finite float."""
    scale = draw(st.sampled_from(_SCALES))
    near = st.floats(-scale, scale)
    real = st.one_of(near, near, near, _any_real)
    long_step = st.builds(lambda f, back: -f if back else f,
                          st.floats(0.3 * scale, scale), st.booleans())
    shape = draw(st.sampled_from(["free", "staircase", "near_flat"]))
    step = st.one_of(long_step, long_step, real)
    pts = [(draw(real), draw(real))]
    for k in range(draw(st.integers(1, 5))):
        x, y = pts[-1]
        if shape == "free":
            x, y = x + draw(step), y + draw(step)
        elif shape == "staircase":
            x, y = (x + draw(step), y) if k % 2 else (x, y + draw(step))
        else:
            # turns near MIN_JOIN_TURN_DEG, whose tangent is about 0.0087
            dx = draw(step)
            x, y = x + dx, y + dx * draw(st.floats(-0.02, 0.02))
        pts.append((x, y))
    return pts


@st.composite
def _offsets_and_radii(draw):
    """A side offset and a fillet radius, each sometimes not a number."""
    d = draw(st.one_of(
        st.sampled_from([0.0, -0.0, 2.0, -3.0, 1e308, -1e308, 5e-324, -5e-324, "2"]),
        st.floats(-10.0, 10.0), st.floats(), st.integers(-5, 5)))
    just_over = abs(d) + 1e-9 if isinstance(d, float) else 1.0
    radius = draw(st.one_of(st.sampled_from([5e-324, 0.0, 10.0, just_over, None]),
                            st.floats(0.0, 100.0), st.floats()))
    return d, radius


def _outcome(offset, *args):
    try:
        return [repr(e) for e in offset(*args)]
    except Exception as exc:  # the class and message are the outcome
        return type(exc), str(exc)


@given(_offset_paths(), _offsets_and_radii(),
       st.sampled_from(["welded", "bent", "round"]))
@example([(0, 0), (0, 1e308), (-1.5e308, 0)], (1.0, 3.0), "welded")
@example([(0, 0), (1.5e308, 1.5e308)], (2.0, 3.0), "bent")
@example([(0, 0), (100, 0), (100, -100), (200, -100.5)], (-3.0, 10.0), "bent")
@example([(0, 0), (10, 0), (10, 1), (0, 1)], (0.5, 3.0), "welded")  # a zero-length run
@settings(max_examples=400, deadline=None)
def test_one_walk_matches_the_reference(path, side, corner):
    # Equal bit for bit, -0.0 included, or the same refusal; a path with a
    # segment too long to measure is refused, where the reference drew it
    # wrongly or divided by zero.
    d, radius = side
    got = _outcome(offset_path, path, d, corner, radius)
    lengths = [math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in zip(path, path[1:])]
    if all(map(math.isfinite, lengths)) or not all(math.isfinite(c) for p in path for c in p):
        assert got == _outcome(_reference_offset_path, path, d, corner, radius)
    else:
        assert got[0] is GenerationError and got[1].startswith("degenerate path: ")
