"""Protection-zone maths for single vertical rods, against an independent
transcription of the class A/B formulas, plus the plan-view geometry layout."""

from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modraft import (Circle, LightningParams, ModuleType,
                     NoProtectionAtHeight, OutOfMethodRange, Point, Rod,
                     SchemaViolation, Text,
                     ZoneClass, apex_height, create_module, ground_radius,
                     is_protected, single_rod_radius, zone_sections)

from propgen import lightning_props

# independent transcription used as the oracle
ORACLE = {
    "B": {"h0": lambda h: 0.92 * h,
          "r0": lambda h: 1.5 * h,
          "rx": lambda h, hx: 1.5 * (h - hx / 0.92)},
    "A": {"h0": lambda h: 0.85 * h,
          "r0": lambda h: (1.1 - 0.002 * h) * h,
          "rx": lambda h, hx: (1.1 - 0.002 * h) * (h - hx / 0.85)},
}


def test_spot_values():
    assert math.isclose(single_rod_radius(10.0, 5.0, ZoneClass.B),
                        6.847826086956522, abs_tol=1e-9)
    assert apex_height(10.0, ZoneClass.B) == pytest.approx(9.2, abs=1e-12)
    assert ground_radius(10.0, ZoneClass.B) == pytest.approx(15.0, abs=1e-12)
    assert single_rod_radius(20.0, 8.5, ZoneClass.A) == pytest.approx(10.6, abs=1e-9)
    assert apex_height(20.0, ZoneClass.A) == pytest.approx(17.0, abs=1e-12)
    assert ground_radius(20.0, ZoneClass.A) == pytest.approx(21.2, abs=1e-12)


def test_matches_oracle_everywhere():
    rng = random.Random(41)
    for _ in range(2000):
        cls = rng.choice(["A", "B"])
        h = rng.uniform(0.5, 150.0)
        hx = rng.uniform(0.0, ORACLE[cls]["h0"](h) * 0.999)
        got = single_rod_radius(h, hx, ZoneClass(cls))
        assert got == ORACLE[cls]["rx"](h, hx)
        assert apex_height(h, ZoneClass(cls)) == ORACLE[cls]["h0"](h)
        assert ground_radius(h, ZoneClass(cls)) == ORACLE[cls]["r0"](h)


def test_ground_section_equals_ground_radius():
    for cls in (ZoneClass.A, ZoneClass.B):
        for h in (1.0, 10.0, 42.5, 150.0):
            assert single_rod_radius(h, 0.0, cls) == pytest.approx(
                ground_radius(h, cls), rel=1e-12)


def test_no_protection_at_or_above_apex():
    apex = apex_height(10.0, ZoneClass.B)
    with pytest.raises(NoProtectionAtHeight):
        single_rod_radius(10.0, apex, ZoneClass.B)
    with pytest.raises(NoProtectionAtHeight):
        single_rod_radius(10.0, 11.0, ZoneClass.B)
    # just below the apex is still defined and tiny
    assert 0 < single_rod_radius(10.0, apex - 1e-9, ZoneClass.B) < 1e-6


def test_height_limit():
    with pytest.raises(OutOfMethodRange):
        single_rod_radius(150.0 + 1e-9, 5.0, ZoneClass.B)
    with pytest.raises(OutOfMethodRange):
        Rod(0.0, 0.0, 151.0)
    single_rod_radius(150.0, 5.0, ZoneClass.B)  # boundary is in range
    with pytest.raises(ValueError):
        single_rod_radius(-3.0, 1.0, ZoneClass.B)
    with pytest.raises(ValueError):
        single_rod_radius(10.0, -0.5, ZoneClass.B)


@given(st.sampled_from(["A", "B"]),
       st.floats(1.0, 150.0),
       st.floats(0.0, 0.8), st.floats(0.0, 0.8))
@settings(max_examples=200)
def test_radius_decreases_with_section_height(cls, h, f1, f2):
    h0 = apex_height(h, ZoneClass(cls))
    hx1, hx2 = sorted((f1 * h0, f2 * h0))
    r1 = single_rod_radius(h, hx1, ZoneClass(cls))
    r2 = single_rod_radius(h, hx2, ZoneClass(cls))
    assert r2 <= r1 + 1e-12


@given(st.sampled_from(["A", "B"]),
       st.floats(1.0, 149.0), st.floats(1.0, 149.0),
       st.floats(0.0, 0.9))
@settings(max_examples=200)
def test_radius_increases_with_rod_height(cls, ha, hb, frac):
    ha, hb = sorted((ha, hb))
    hx = frac * apex_height(ha, ZoneClass(cls))
    ra = single_rod_radius(ha, hx, ZoneClass(cls))
    rb = single_rod_radius(hb, hx, ZoneClass(cls))
    assert rb >= ra - 1e-12


@given(st.sampled_from(["A", "B"]), st.floats(1.0, 150.0),
       st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@settings(max_examples=200)
def test_radius_is_linear_in_section_height(cls, h, fa, fb):
    """rx(hx) is affine: the slope between any two points equals r0/h0."""
    h0 = apex_height(h, ZoneClass(cls))
    hxa, hxb = fa * h0, fb * h0
    if abs(hxa - hxb) < 1e-6:
        return
    ra = single_rod_radius(h, hxa, ZoneClass(cls))
    rb = single_rod_radius(h, hxb, ZoneClass(cls))
    slope = (rb - ra) / (hxb - hxa)
    expected = -ground_radius(h, ZoneClass(cls)) / h0
    assert math.isclose(slope, expected, rel_tol=1e-6, abs_tol=1e-9)


def _params(**kw) -> LightningParams:
    base = dict(rods=(Rod(0, 0, 20), Rod(30, 0, 12)),
                section_heights=(2.0, 6.0),
                zone_class=ZoneClass.B, scale_mm_per_m=1.0)
    base.update(kw)
    return LightningParams(**base)


def test_zone_sections_skip_short_rods():
    params = _params()
    # hx = 11.5: apex of the 12 m rod is 11.04 < 11.5, so only the tall rod
    circles = zone_sections(params, 11.5)
    assert len(circles) == 1
    assert circles[0].center == Point(0, 0)
    circles = zone_sections(params, 2.0)
    assert len(circles) == 2


def test_is_protected_matches_brute_force():
    params = _params()
    rng = random.Random(42)
    for _ in range(3000):
        x = rng.uniform(-40, 70)
        y = rng.uniform(-40, 40)
        z = rng.uniform(0, 20)
        expected = False
        for rod in params.rods:
            h0 = 0.92 * rod.h
            if z < h0:
                rx = 1.5 * (rod.h - z / 0.92)
                if math.hypot(x - rod.x, y - rod.y) <= rx:
                    expected = True
        assert is_protected(x, y, z, params) is expected


def test_is_protected_rejects_negative_height():
    with pytest.raises(ValueError):
        is_protected(0.0, 0.0, -1.0, _params())


@pytest.mark.parametrize("value, reason", [
    (math.nan, "value must be finite"),
    (math.inf, "value must be finite"),
    (-math.inf, "value must be finite"),
    ("5", "expected a real number, got str"),
    (True, "expected a real number, got bool"),
])
def test_zone_functions_read_heights_and_points_as_reals(value, reason):
    """zone_sections and is_protected refuse what single_rod_radius refuses:
    a NaN height is not "no zone here", and text is not a number."""
    params = _params()
    calls = [lambda: zone_sections(params, value),
             lambda: is_protected(0.0, 0.0, value, params),
             lambda: is_protected(value, 0.0, 1.0, params),
             lambda: is_protected(0.0, value, 1.0, params)]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == reason


def test_zone_functions_keep_their_negative_height_messages():
    with pytest.raises(ValueError, match="^section height must be non-negative$"):
        zone_sections(_params(), -1)
    with pytest.raises(ValueError, match="^height must be non-negative$"):
        is_protected(0, 0, -1, _params())
    assert is_protected(0, 0, 1, _params()) is True  # ints are reals


@pytest.mark.parametrize("h, error, message", [
    (-5, ValueError, "rod height must be positive"),
    (0, ValueError, "rod height must be positive"),
    (True, ValueError, "h: expected a real number, got bool"),
    (math.nan, ValueError, "h: value must be finite"),
    ("10", ValueError, "h: expected a real number, got str"),
    (1000, OutOfMethodRange, "rod height 1000.0 m exceeds 150.0 m"),
])
def test_apex_and_ground_radius_read_the_rod_height_as_a_rod_does(h, error, message):
    """apex_height and ground_radius refuse, with the same class and words,
    every rod height that single_rod_radius refuses."""
    calls = [lambda cls: single_rod_radius(h, 0.0, cls),
             lambda cls: apex_height(h, cls), lambda cls: ground_radius(h, cls)]
    for call in calls:
        for cls in ZoneClass:
            with pytest.raises(error) as info:
                call(cls)
            assert type(info.value) is error and str(info.value) == message


def test_apex_and_ground_radius_take_an_integer_height():
    assert apex_height(10, ZoneClass.B) == apex_height(10.0, ZoneClass.B)
    assert ground_radius(150, ZoneClass.A) == ground_radius(150.0, ZoneClass.A)


def test_params_validation():
    with pytest.raises(ValueError):
        LightningParams(rods=(), section_heights=(1.0,),
                        zone_class=ZoneClass.B, scale_mm_per_m=1.0)
    with pytest.raises(ValueError):
        _params(section_heights=(5.0, 2.0))     # not ascending
    with pytest.raises(ValueError):
        _params(section_heights=(2.0, 2.0))     # not distinct
    with pytest.raises(ValueError):
        _params(scale_mm_per_m=0.0)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: Rod("5", True, "20"), id="rod-text-and-bool"),
    pytest.param(lambda: Rod(0.0, 0.0, True), id="rod-bool-height"),
    pytest.param(lambda: _params(section_heights=("2.0", "6.0")), id="text-heights"),
    pytest.param(lambda: _params(scale_mm_per_m="1.0"), id="text-scale"),
])
def test_rod_and_params_refuse_text_and_booleans(make):
    """Numbers are read as property values are: never coerced by float()."""
    with pytest.raises(ValueError, match="expected a real number"):
        make()


@pytest.mark.parametrize("make, reason", [
    (lambda: Rod("5", 0.0, 1.0), "x: expected a real number, got str"),
    (lambda: Rod(0.0, True, 1.0), "y: expected a real number, got bool"),
    (lambda: Rod(0.0, 0.0, math.inf), "h: value must be finite"),
    (lambda: _params(scale_mm_per_m=math.inf), "plan scale must be positive"),
], ids=["rod-x", "rod-y", "rod-h", "plan-scale"])
def test_rod_names_its_field_and_the_scale_is_positive(make, reason):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == reason


def test_rod_record_fields_are_all_looked_up_before_any_is_read():
    with pytest.raises(SchemaViolation) as info:
        _plan_module(rods=[{"x": 0.0, "y": 0.0, "h": 20.0}, {"x": "5", "h": 20.0}])
    assert info.value.reason == "rods[1]: missing 'y'"


# --- plan-view geometry -------------------------------------------------------

def _plan_module(**over):
    props = {
        "rods": [{"x": 0.0, "y": 0.0, "h": 20.0},
                 {"x": 30.0, "y": 0.0, "h": 12.0}],
        "section_heights": [{"height": 2.0}, {"height": 6.0}],
        "zone_class": "B", "scale_mm_per_m": 2.0, "plan_origin": (100, 100)}
    props.update(over)
    return create_module(ModuleType.LIGHTNING, props)


def test_plan_scale_and_origin():
    m = _plan_module()
    circles = [e for e in m.geometry if isinstance(e, Circle)]
    # first circle: section 2.0 m of the 20 m rod at plan position (0, 0)
    assert circles[0].center == Point(100, 100)
    assert circles[0].radius == pytest.approx(
        2.0 * single_rod_radius(20.0, 2.0, ZoneClass.B), rel=1e-12)
    # second rod sits 30 m east -> 60 mm on paper
    assert circles[1].center == Point(160, 100)


def test_plan_labels_match_circles():
    m = _plan_module()
    circles = [e for e in m.geometry if isinstance(e, Circle)]
    labels = [e for e in m.geometry if isinstance(e, Text)]
    assert len(labels) == len(circles)
    for c, t in zip(circles, labels):
        r_m = c.radius / 2.0
        assert t.content == f"R{r_m:.2f}"
        assert t.anchor.x == c.center.x
        assert t.anchor.y == pytest.approx(c.center.y + c.radius + 1.0)


def test_plan_skips_unreachable_sections():
    # 12 m rod apex = 11.04; request a section above it -> circle omitted
    m = _plan_module(section_heights=[{"height": 2.0}, {"height": 11.5}])
    circles = [e for e in m.geometry if isinstance(e, Circle)]
    assert len(circles) == 3  # 2 rods at 2.0 m + tall rod only at 11.5 m


# Over 200 random plans of both zone classes; any change to the zone maths
# or the plan layout that moves a single float changes this digest.
LIGHTNING_GEOMETRY_SHA256 = \
    "895ed65c728440ba242c061979ccaf74c9f137d71d8ecc98a8082511dd02cfa9"


def test_lightning_geometry_bytes_are_pinned():
    rng = random.Random(2026)
    digest = hashlib.sha256()
    classes = set()
    for i in range(200):
        props = lightning_props(rng)
        classes.add(props["zone_class"])
        m = create_module(ModuleType.LIGHTNING, props, module_id=i + 1)
        digest.update(m.geometry_json)
    assert classes == {"A", "B"}
    assert digest.hexdigest() == LIGHTNING_GEOMETRY_SHA256
