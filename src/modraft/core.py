"""Typed parametric drawing modules.

A module stores a parametric representation (its properties) and the
geometry derived from it. The properties are primary: any property change
regenerates the geometry, and edits to placed geometry are expressed as
rewrites of the reserved placement properties (origin, angle_deg, mirrored)
followed by regeneration. All of a module's elements share the module's
layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .canon import _utf8
from .errors import GenerationError
from .generators import generate_local, internal_list_indices
from .geometry import (Element, Point, Rect, Transform, ZoneGrid, _compose,
                       _cos_sin_deg, _element_text, _positive, _raw,
                       apply_transform, element_bbox)
from .properties import Axis, ModuleType, validate_props

__all__ = [
    "Module", "WorkingModule", "create_module", "set_properties",
    "move_module", "rotate_module", "mirror_module", "align_by_attach",
    "spawn_working_modules", "placement_transform", "geometry_bytes",
]


@dataclass(frozen=True)
class Module:
    """A placed parametric module and the geometry its properties generate."""

    id: int
    type: ModuleType
    props: dict
    geometry: tuple[Element, ...]
    layer: int
    bbox: Rect

    @cached_property
    def geometry_json(self) -> bytes:
        """Canonical bytes of the geometry, encoded on first use and kept.

        The geometry tuple never changes, and every edit builds a new
        module, so the cached bytes cannot go stale. Not a field: equality,
        hashing and repr ignore it.
        """
        return geometry_bytes(self.geometry)


@dataclass(frozen=True)
class WorkingModule:
    """Transient view of one entry of a host module's internal list.

    Working modules exist only in memory; they are never persisted.
    """

    host_id: int
    list_name: str
    index: int
    geometry: tuple[Element, ...]


_ORIGIN = Point(0.0, 0.0)
_IDENTITY = _raw(Transform.identity())
_MIRROR_Y = _raw(Transform.mirror(_ORIGIN, 90.0))
_SYMMETRY = {"both": _raw(Transform.rotation(180.0)),
             "mirror_x": _raw(Transform.mirror(_ORIGIN, 0.0)),
             "mirror_y": _MIRROR_Y}


def _placement_raw(props: dict) -> tuple[float, ...]:
    """translation(origin) . rotation(angle_deg) [. mirror], as coefficients
    composed by ``geometry._compose``."""
    cos_a, sin_a = _cos_sin_deg(props["angle_deg"])
    t = (cos_a, -sin_a, sin_a, cos_a, 0.0, 0.0)
    if props["mirrored"]:
        t = _compose(t, _MIRROR_Y)
    origin = props["origin"]
    return _compose((1.0, 0.0, 0.0, 1.0, origin.x, origin.y), t)


def _placement_part(props: dict) -> Transform:
    """Placement transform excluding symbol-level scale and symmetry."""
    return Transform(*_placement_raw(props))


def placement_transform(mtype: ModuleType, props: dict) -> Transform:
    """Local-to-paper transform for a module's normalised properties.

    One Transform, built and checked once, from the coefficients that
    composing the placement's parts one by one would give: the arithmetic
    is ``geometry._compose``, the one ``Transform.compose`` runs.
    """
    t = _placement_raw(props)
    if ModuleType(mtype) is ModuleType.USER:
        inner = _SYMMETRY.get(props["symmetry"], _IDENTITY)
        scale = props["scale"]
        if scale != 1.0:
            s = _positive(scale, "scale factor")
            inner = _compose(inner, (s, 0.0, 0.0, s, 0.0, 0.0))
        if inner != _IDENTITY:
            t = _compose(t, inner)
    return Transform(*t)


def create_module(mtype: ModuleType, props: dict, *, module_id: int = 1,
                  grid: "ZoneGrid | None" = None) -> Module:
    """Validate properties, generate geometry, place it, derive extents.

    Deterministic: the same type and properties always yield byte-identical
    geometry. ``grid`` is accepted for compatibility and has no effect.
    """
    mtype = ModuleType(mtype)
    norm = validate_props(mtype, props)
    try:
        placement = placement_transform(mtype, norm)
        local = generate_local(mtype, norm)
        geometry = tuple(apply_transform(e, placement) for e in local)
        bbox = element_bbox(*geometry)
    except (ValueError, OverflowError) as exc:  # e.g. coordinates too large
        raise GenerationError(f"{mtype.value} module: {exc}") from exc
    return Module(int(module_id), mtype, norm, geometry, norm["layer"], bbox)


def set_properties(m: Module, updates: dict, *, grid: "ZoneGrid | None" = None) -> Module:
    """Merge property updates and regenerate; equivalent to a fresh create.

    ``grid`` is accepted for compatibility and has no effect.
    """
    merged = {**m.props, **updates}
    return create_module(m.type, merged, module_id=m.id)


def _apply_rigid(m: Module, make_edit: Callable[[], Transform]) -> Module:
    try:
        edit = make_edit()
        if edit.is_identity():
            return m
        q = edit.compose(_placement_part(m.props))
    except ValueError as exc:  # a finite edit can still overflow the placement
        raise GenerationError(f"{m.type.value} module: {exc}") from exc
    return set_properties(m, {
        "origin": (q.tx, q.ty),
        "angle_deg": q.rotation_deg,
        "mirrored": q.mirrored,
    })


def move_module(m: Module, dx: float, dy: float, *,
                grid: "ZoneGrid | None" = None) -> Module:
    """Translate a module by rewriting its placement origin.

    ``grid`` is accepted for compatibility and has no effect.
    """
    if dx == 0.0 and dy == 0.0:
        return m
    origin = m.props["origin"]
    return set_properties(m, {"origin": (origin.x + dx, origin.y + dy)})


def rotate_module(m: Module, angle_deg: float, about: Point, *,
                  grid: "ZoneGrid | None" = None) -> Module:
    """Rotate a module's placement about a paper-space point.

    ``grid`` is accepted for compatibility and has no effect.
    """
    return _apply_rigid(m, lambda: Transform.rotation(angle_deg, about))


def mirror_module(m: Module, axis_origin: Point, axis_angle_deg: float, *,
                  grid: "ZoneGrid | None" = None) -> Module:
    """Mirror a module's placement across a paper-space axis.

    ``grid`` is accepted for compatibility and has no effect.
    """
    return _apply_rigid(m, lambda: Transform.mirror(axis_origin, axis_angle_deg))


def align_by_attach(m: Module, own_axis_index: int, target: Axis, *,
                    grid: "ZoneGrid | None" = None) -> Module:
    """Rigidly move the module so one of its attach axes coincides with
    ``target`` (same origin, same direction).

    ``grid`` is accepted for compatibility and has no effect.
    """
    axes = m.props.get("attach")
    if not axes or not 0 <= own_axis_index < len(axes):
        raise ValueError(f"module {m.id} has no attach axis {own_axis_index}")
    own = axes[own_axis_index]

    def edit() -> Transform:
        placement = placement_transform(m.type, m.props)
        world_origin = placement.apply(own.origin)
        world_angle = placement.map_direction_deg(own.angle_deg)
        spin = Transform.rotation(target.angle_deg - world_angle, world_origin)
        shift = Transform.translation(target.origin.x - world_origin.x,
                                      target.origin.y - world_origin.y)
        return shift.compose(spin)

    return _apply_rigid(m, edit)


def spawn_working_modules(m: Module, list_name: str) -> list[WorkingModule]:
    """Working modules over the entries of one of the host's internal lists."""
    lists = internal_list_indices(m)
    if list_name not in lists:
        raise ValueError(
            f"module type {m.type.value!r} has no internal list {list_name!r}")
    return [WorkingModule(m.id, list_name, i,
                          tuple(m.geometry[j] for j in indices))
            for i, indices in enumerate(lists[list_name])]


def geometry_bytes(elements: tuple[Element, ...]) -> bytes:
    """Canonical byte form of an element sequence, for exact comparisons:
    ``canonical_encode([element_to_json(e) for e in elements])``, written
    directly."""
    return _utf8("[" + ",".join(map(_element_text, elements)) + "]")
