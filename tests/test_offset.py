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

import pytest
from modraft import Arc, GenerationError, Point, Segment, offset_path


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
