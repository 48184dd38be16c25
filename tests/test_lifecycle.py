"""Model-based test of the whole drawing lifecycle.

A hypothesis state machine drives one ``Drawing`` through adds, property
edits (refused ones included), placement edits, removals, free elements,
signatures, save/load round trips and table fills. Beside it runs a plain
model: the items in drawing order (a module as its id, type and the
properties it was given; a free element as its value) and ``next_id``.
After every step:

- ``save(load(save(d))) == save(d)``;
- the items match the model, and each module's ``geometry_json`` equals
  that of a fresh ``create_module`` from the model's properties;
- ``visible_items`` equals a brute-force scan for the drawn viewport;
- a signature made by ``sign_drawing`` has integrity "valid" exactly while
  nothing but signatures has changed since it was made, and its MAC checks
  with the signer's password and no other.

Budget: ``max_examples=60`` runs of at most ``stateful_step_count=30``
steps, 5-7 s on a 2-core host with Python 3.11.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)
from modraft import (Axis, Drawing, Module, ModuleType, Point, Rect,
                     SchemaViolation, Segment, Text, Transform, align_by_attach,
                     canonical_encode, collect_spec_rows, compute_digest,
                     create_module, element_bbox, fill_table_module,
                     load_drawing, mirror_module, move_module,
                     placement_transform, rotate_module, save_drawing,
                     sign_drawing, signature_mac, verify_signatures,
                     visible_items)
from modraft.properties import props_to_json

from propgen import PROP_MAKERS, random_props

EXTENT = Rect.from_bounds(-400.0, -400.0, 400.0, 400.0)
MAX_MODULES = 10

# Two elements only, so equal free elements are common and removal must go
# by position, not by value.
ELEMENTS = (Segment(Point(0.0, 0.0), Point(30.0, 10.0)),
            Text(Point(10.0, -60.0), 3.5, 0.0, "Б-1"))

# One value per module type that a single-value schema rule refuses.
REFUSED = {ModuleType.USER: ("scale", 0.0),
           ModuleType.PIPELINE: ("diameter_mm", -1.0),
           ModuleType.VALVE: ("symmetry", "diagonal"),
           ModuleType.INSTRUMENT: ("function_code", ""),
           ModuleType.TABLE: ("columns", []),
           ModuleType.FRAME: ("multiplicity", 0),
           ModuleType.POSDES: ("position_text", ""),
           ModuleType.LIGHTNING: ("rods", [])}

# Person, position and password of each signer.
SIGNERS = (("Иванов И.И.", "ГИП", "пароль"), ("Петрова А.С.", "Проверил", "s3cret"))
PASSWORDS = {person: password for person, _, password in SIGNERS}
WRONG_PASSWORDS = {person: password + "!" for person, password in PASSWORDS.items()}

picks = st.integers(0, 2**16)
offsets = st.floats(-100.0, 100.0, allow_nan=False)
angles = st.floats(-360.0, 360.0, allow_nan=False)
points = st.builds(Point, offsets, offsets)


@st.composite
def viewports(draw) -> Rect:
    x, y = draw(st.floats(-500.0, 500.0)), draw(st.floats(-500.0, 500.0))
    w, h = draw(st.floats(1.0, 800.0)), draw(st.floats(1.0, 800.0))
    return Rect.from_bounds(x, y, x + w, y + h)


@dataclass
class ModelModule:
    id: int
    type: ModuleType
    props: dict


def _pick(items: list, pick: int):
    return items[pick % len(items)]


def _close(p: Point, q: Point) -> bool:
    return math.isclose(p.x, q.x, abs_tol=1e-6) and math.isclose(p.y, q.y, abs_tol=1e-6)


class DrawingLifecycle(RuleBasedStateMachine):

    @initialize(viewport=viewports())
    def start(self, viewport):
        self.d = Drawing.new(EXTENT)
        self.items: list = []          # ModelModule or Element, drawing order
        self.next_id = 1
        self.signed: dict[int, tuple] = {}  # id -> content when signed
        self.viewport = viewport

    # --- model helpers ----------------------------------------------------

    def _modules(self, *, signatures: bool = True) -> list[ModelModule]:
        return [it for it in self.items if isinstance(it, ModelModule)
                and (signatures or it.type is not ModuleType.SIGNATURE)]

    def _content(self) -> tuple:
        """What a digest covers: every item but signatures, canonically."""
        out = []
        for it in self.items:
            if not isinstance(it, ModelModule):
                out.append(it)
            elif it.type is not ModuleType.SIGNATURE:
                fresh = create_module(it.type, it.props)
                out.append((it.id, canonical_encode(props_to_json(it.type, fresh.props))))
        return tuple(out)

    def _placed(self, model: ModelModule, m: Module) -> None:
        """Take the placement a rigid edit gave ``m`` into the model."""
        model.props.update(origin=(m.props["origin"].x, m.props["origin"].y),
                           angle_deg=m.props["angle_deg"], mirrored=m.props["mirrored"])
        self.d.replace_module(m)

    # --- rules ------------------------------------------------------------

    @precondition(lambda self: len(self._modules()) < MAX_MODULES)
    @rule(mtype=st.sampled_from(list(PROP_MAKERS)), seed=picks)
    def add_module(self, mtype, seed):
        props = random_props(random.Random(seed), mtype)
        m = self.d.add_module(mtype, props)
        assert m.id == self.next_id
        self.items.append(ModelModule(m.id, mtype, props))
        self.next_id += 1

    @precondition(lambda self: self._modules(signatures=False))
    @rule(pick=picks, seed=picks)
    def set_properties(self, pick, seed):
        model = _pick(self._modules(signatures=False), pick)
        updates = random_props(random.Random(seed), model.type)
        self.d.set_module_properties(model.id, updates)
        model.props.update(updates)

    @precondition(lambda self: self._modules(signatures=False))
    @rule(pick=picks)
    def set_refused_value(self, pick):
        model = _pick(self._modules(signatures=False), pick)
        key, value = REFUSED[model.type]
        before = save_drawing(self.d)
        try:
            self.d.set_module_properties(model.id, {key: value})
        except SchemaViolation as exc:
            assert exc.key == key
        else:
            raise AssertionError(f"{model.type.value} {key}={value!r} was accepted")
        assert save_drawing(self.d) == before

    @precondition(lambda self: self._modules())
    @rule(pick=picks, dx=offsets, dy=offsets)
    def move(self, pick, dx, dy):
        model = _pick(self._modules(), pick)
        self.d.replace_module(move_module(self.d.module(model.id), dx, dy))
        if dx != 0.0 or dy != 0.0:  # a zero move is no edit
            x, y = model.props.get("origin", (0.0, 0.0))
            model.props["origin"] = (x + dx, y + dy)

    @precondition(lambda self: self._modules())
    @rule(pick=picks, angle=angles, about=points)
    def rotate(self, pick, angle, about):
        model = _pick(self._modules(), pick)
        m = self.d.module(model.id)
        moved = rotate_module(m, angle, about)
        assert _close(moved.props["origin"],
                      Transform.rotation(angle, about).apply(m.props["origin"]))
        assert moved.props["mirrored"] == m.props["mirrored"]
        self._placed(model, moved)

    @precondition(lambda self: self._modules())
    @rule(pick=picks, axis_origin=points, angle=angles)
    def mirror(self, pick, axis_origin, angle):
        model = _pick(self._modules(), pick)
        m = self.d.module(model.id)
        moved = mirror_module(m, axis_origin, angle)
        assert _close(moved.props["origin"],
                      Transform.mirror(axis_origin, angle).apply(m.props["origin"]))
        assert moved.props["mirrored"] != m.props["mirrored"]
        self._placed(model, moved)

    @precondition(lambda self: any(self.d.module(it.id).props.get("attach")
                                   for it in self._modules()))
    @rule(pick=picks, target_origin=points, angle=angles)
    def align(self, pick, target_origin, angle):
        model = _pick([it for it in self._modules()
                       if self.d.module(it.id).props.get("attach")], pick)
        m = self.d.module(model.id)
        index = pick % len(m.props["attach"])
        moved = align_by_attach(m, index, Axis(target_origin, angle))
        own = moved.props["attach"][index].origin
        assert _close(placement_transform(moved.type, moved.props).apply(own), target_origin)
        self._placed(model, moved)

    @precondition(lambda self: self._modules())
    @rule(pick=picks)
    def remove_module(self, pick):
        model = _pick(self._modules(), pick)
        self.d.remove_module(model.id)
        self.items.remove(model)
        self.signed.pop(model.id, None)

    @rule(elements=st.lists(st.sampled_from(ELEMENTS), min_size=1, max_size=3))
    def add_elements(self, elements):
        for element in elements:
            self.d.add_element(element)
            self.items.append(element)

    @precondition(lambda self: len(self._modules()) < len(self.items))
    @rule(pick=picks)
    def remove_element(self, pick):
        positions = [i for i, it in enumerate(self.items)
                     if not isinstance(it, ModelModule)]
        index = len(positions) - 1 - pick % len(positions)  # from the end
        self.d.remove_free_element(index)
        del self.items[positions[index]]

    @precondition(lambda self: len(self._modules()) < MAX_MODULES)
    @rule(signer=st.sampled_from(SIGNERS))
    def sign(self, signer):
        person, position, password = signer
        digest = compute_digest(self.d)
        m = sign_drawing(self.d, person, position, "2026-10-19", "09:30", password)
        self.items.append(ModelModule(m.id, ModuleType.SIGNATURE, {
            "person": person, "position": position, "date": "2026-10-19",
            "time": "09:30", "digest": digest,
            "mac": signature_mac(digest, person, position, "2026-10-19", "09:30",
                                 password),
            "origin": (EXTENT.min.x + 5.0, EXTENT.min.y + 5.0)}))
        self.signed[m.id] = self._content()
        self.next_id += 1

    @rule()
    def save_and_load(self):
        self.d = load_drawing(save_drawing(self.d))

    @precondition(lambda self: any(it.type is ModuleType.TABLE for it in self._modules()))
    @rule(pick=picks)
    def fill_table(self, pick):
        model = _pick([it for it in self._modules() if it.type is ModuleType.TABLE], pick)
        n = len(model.props["columns"])
        column_map = {"position": 0, **({"qty": n - 1} if n > 1 else {})}
        rows, errors = collect_spec_rows([self.d])
        assert errors == []
        fill_table_module(self.d, model.id, rows, column_map)
        model.props["rows"] = [
            {"cells": [row.position] + [""] * (n - 2) + [str(row.qty)]} if n > 1
            else {"cells": [row.position]} for row in rows]

    @rule(viewport=viewports())
    def look(self, viewport):
        self.viewport = viewport

    # --- the four invariants ----------------------------------------------

    @invariant()
    def save_load_save_is_stable(self):
        saved = save_drawing(self.d)
        assert save_drawing(load_drawing(saved)) == saved

    @invariant()
    def items_regenerate_from_the_model(self):
        assert self.d.next_id == self.next_id
        assert len(self.d.items) == len(self.items)
        for item, model in zip(self.d.items, self.items):
            if not isinstance(model, ModelModule):
                assert not isinstance(item, Module) and item == model
                continue
            assert isinstance(item, Module)
            assert (item.id, item.type) == (model.id, model.type)
            fresh = create_module(model.type, model.props, module_id=model.id)
            assert item.props == fresh.props
            assert item.geometry_json == fresh.geometry_json

    @invariant()
    def culling_equals_a_scan(self):
        def bbox(item):
            return item.bbox if isinstance(item, Module) else element_bbox(item)
        expected = [item for item in self.d.items if bbox(item).intersects(self.viewport)]
        got = visible_items(self.d, self.viewport)
        assert [id(item) for item in got] == [id(item) for item in expected]

    @invariant()
    def signatures_hold_while_only_signatures_change(self):
        if not self.signed:
            return
        content = self._content()
        right = verify_signatures(self.d, PASSWORDS)
        wrong = verify_signatures(self.d, WRONG_PASSWORDS)
        for status, other in zip(right, wrong):
            if status.module_id in self.signed:
                signed_content = self.signed[status.module_id]
                assert status.integrity == ("valid" if content == signed_content else "broken")
                assert (status.authenticity, other.authenticity) == ("valid", "broken")


DrawingLifecycle.TestCase.settings = settings(max_examples=60, stateful_step_count=30,
                                              deadline=None)
TestDrawingLifecycle = DrawingLifecycle.TestCase
