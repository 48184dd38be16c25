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

A second machine, ``CliLifecycle``, runs the lifecycle through ``cli.main``
on a file; its docstring gives its checks and budget.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)
from modraft import (Axis, Drawing, KernelError, Module, ModuleType, Point,
                     PropKind, Rect, SchemaViolation, Segment, Text, Transform,
                     align_by_attach, apply_catalog_entry, canonical_encode,
                     collect_spec_rows, compute_digest, create_module,
                     element_bbox, fill_table_module, load_catalog,
                     load_drawing, load_prototypes, mirror_module, move_module,
                     placement_transform, rotate_module, save_drawing,
                     save_prototypes, schema_for, sign_drawing, signature_mac,
                     verify_signatures, visible_items)
from modraft import cli
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


# --- the same lifecycle through the command line ----------------------------------

# Catalog fields, a good entry and one whose name no UTF-8 file can hold.
CATALOG_ENTRY = {"name": "Манометр", "type_mark": "МП-100", "manufacturer_code": "МЗ",
                 "item_code": "1001", "unit": "шт", "unit_code": "796", "price": 99.5}
BAD_CATALOG_ERROR = ("error: entry 'e1': text holds the lone surrogate '\\ud800', "
                     "which UTF-8 cannot encode\n")
PROTOTYPE_NAMES = ("кран", "a", "b=c")
numbers = st.one_of(st.sampled_from([-0.0, 0.0, -1e-300, -250.5]), offsets)
refusals = st.sampled_from([False, False, True])


def _tokens(mtype: ModuleType, props: dict) -> list[str]:
    """``KEY=VALUE`` tokens that ``--props`` reads back as ``props``: text
    verbatim, every other kind as a Python literal."""
    schema = schema_for(mtype)
    return [f"{key}={value}" if schema[key].kind is PropKind.TEXT else f"{key}={value!r}"
            for key, value in props.items()]


def _fails(d: Drawing) -> None:
    """The model change of a command that only reads, and must exit 1."""
    raise KernelError("the command fails")


def _number_option(option: str, values, joined: bool) -> list[str]:
    """``--opt=V`` or ``--opt V``; V may start with a minus sign either way."""
    text = ",".join(map(repr, values))
    return [f"{option}={text}"] if joined else [option, text]


class CliLifecycle(RuleBasedStateMachine):
    """``cli.main`` on one drawing file, in one process, beside a model
    drawing that the same changes drive through the library.

    A change runs on a copy of the model, which replaces the model only if
    the change succeeds. After every step:

    - the exit code is 0, 1 or 2, and stderr holds no traceback;
    - the command succeeds exactly when the library change does;
    - the file equals ``save_drawing`` of the model, and a step that exits
      non-zero leaves it byte-identical;
    - one cached parser served every command.

    The drawing starts with a table, the modules that fill its rows and a
    prototype library. There is no ``remove`` subcommand, so no rule
    removes a module.

    Budget: ``max_examples=30`` runs of at most ``stateful_step_count=20``
    steps, 3-4 s on a 2-core host with Python 3.11.
    """

    @initialize(seed=picks)
    def start(self, seed):
        self.dir = tempfile.TemporaryDirectory(prefix="modraft-cli-")
        root = Path(self.dir.name)
        self.path = str(root / "d.json")
        self.catalog = root / "catalog.json"
        self.catalog.write_text(json.dumps({"entries": {"M-1": CATALOG_ENTRY}}), "utf-8")
        self.bad_catalog = root / "bad.json"
        self.bad_catalog.write_bytes(json.dumps({"entries": {
            "M-1": CATALOG_ENTRY, "e1": {**CATALOG_ENTRY, "name": "\ud800"}}}).encode())
        self.library = str(root / "lib.json")
        self.model = Drawing.new(EXTENT)
        code, _, _ = self._cli("new", self.path, "--extent", "-400,-400,400,400")
        assert code == 0 and Path(self.path).read_bytes() == save_drawing(self.model)
        # a table for fill-table to fill, rows for it, and prototypes to load
        for offset, mtype in enumerate((ModuleType.TABLE, ModuleType.VALVE,
                                        ModuleType.INSTRUMENT, ModuleType.POSDES)):
            self.add(mtype, seed + offset, refused=False)
        self.proto_save([1, 2], list(PROTOTYPE_NAMES[:2]))

    def teardown(self):
        if hasattr(self, "dir"):
            self.dir.cleanup()

    # --- running a command beside the model -------------------------------

    def _cli(self, *argv: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def _step(self, argv: list, change) -> tuple[int, str, str]:
        """Run ``change`` on a copy of the model and ``argv`` through the CLI."""
        m = self.model
        model = Drawing(m.extent, m.zone_grid, m.next_id, list(m.items))
        try:
            change(model)
        except (KernelError, ValueError, OverflowError):
            ok = False
        else:
            ok, self.model = True, model
        before = Path(self.path).read_bytes()
        code, out, err = self._cli(*argv)
        after = Path(self.path).read_bytes()
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
        assert (code == 0) == ok, (argv, code, err)
        assert code == 0 or after == before
        assert after == save_drawing(self.model)
        assert cli.build_parser.cache_info().currsize == 1
        return code, out, err

    def _module_id(self, pick: int, *, signatures: bool = True) -> int:
        """A module's id, or, for one pick in eight, one that names no module."""
        ids = [m.id for m in self.model.modules()
               if signatures or m.type is not ModuleType.SIGNATURE]
        return _pick(ids, pick) if ids and pick % 8 != 7 else self.model.next_id

    # --- rules ------------------------------------------------------------

    @precondition(lambda self: len(self.model.modules()) < MAX_MODULES)
    @rule(mtype=st.sampled_from(list(PROP_MAKERS)), seed=picks, refused=refusals)
    def add(self, mtype, seed, refused):
        props = random_props(random.Random(seed), mtype)
        if refused and mtype in REFUSED:
            key, value = REFUSED[mtype]
            props[key] = value
        self._step(["add", self.path, "--type", mtype.value, "--props",
                    *_tokens(mtype, props)],
                   lambda d: d.add_module(mtype, props))

    @rule(pick=picks, seed=picks, refused=refusals)
    def set(self, pick, seed, refused):
        module_id = self._module_id(pick, signatures=False)
        mtype = next((m.type for m in self.model.modules() if m.id == module_id),
                     ModuleType.VALVE)
        updates = random_props(random.Random(seed), mtype)
        if refused:
            updates = dict([REFUSED[mtype]])
        self._step(["set", self.path, "--id", str(module_id), "--props",
                    *_tokens(mtype, updates)],
                   lambda d: d.set_module_properties(module_id, updates))

    @rule(pick=picks, dx=numbers, dy=numbers, joined=st.booleans())
    def move(self, pick, dx, dy, joined):
        module_id = self._module_id(pick)
        self._step(["edit", self.path, "--id", str(module_id),
                    *_number_option("--move", (dx, dy), joined)],
                   lambda d: d.replace_module(move_module(d.module(module_id), dx, dy)))

    @rule(pick=picks, about=st.tuples(numbers, numbers), angle=angles, joined=st.booleans())
    def rotate(self, pick, about, angle, joined):
        module_id = self._module_id(pick)
        self._step(["edit", self.path, "--id", str(module_id),
                    *_number_option("--rotate", (*about, angle), joined)],
                   lambda d: d.replace_module(
                       rotate_module(d.module(module_id), angle, Point(*about))))

    @rule(pick=picks, origin=st.tuples(numbers, numbers), angle=angles, joined=st.booleans())
    def mirror(self, pick, origin, angle, joined):
        module_id = self._module_id(pick)
        self._step(["edit", self.path, "--id", str(module_id),
                    *_number_option("--mirror", (*origin, angle), joined)],
                   lambda d: d.replace_module(
                       mirror_module(d.module(module_id), Point(*origin), angle)))

    @precondition(lambda self: len(self.model.modules()) < MAX_MODULES)
    @rule(signer=st.sampled_from(SIGNERS),
          date=st.sampled_from(["2026-10-19", "2026-10-19", "19.10.2026"]))
    def sign(self, signer, date):
        person, position, password = signer
        self._step(["sign", self.path, "--person", person, "--position", position,
                    "--date", date, "--time", "09:30", "--password", password],
                   lambda d: sign_drawing(d, person, position, date, "09:30", password))

    @rule(password=st.sampled_from([None, *PASSWORDS.values(), "wrong"]))
    def verify(self, password):
        statuses = verify_signatures(self.model, password)
        intact = all(s.integrity == "valid" for s in statuses)
        good = intact and all(s.authenticity != "broken" for s in statuses)
        argv = ["verify", self.path] + ([] if password is None else ["--password", password])
        code, out, _ = self._step(argv, (lambda d: None) if good else _fails)
        assert out.startswith(f"integrity: {'valid' if intact else 'broken'}\n")

    @rule(picks_=st.lists(picks, min_size=1, max_size=2),
          names=st.lists(st.sampled_from(PROTOTYPE_NAMES), min_size=2, max_size=2))
    def proto_save(self, picks_, names):
        ids = [self._module_id(pick) for pick in picks_]
        names = names[:len(ids)]
        expected = []
        entries = [f"--entry={i}={name}" for i, name in zip(ids, names)]

        def save(d):
            expected.append(save_prototypes([d.module(i) for i in ids], names))

        code, _, _ = self._step(["proto-save", self.path, self.library, *entries], save)
        if code == 0:
            assert Path(self.library).read_bytes() == expected[0]

    @precondition(lambda self: len(self.model.modules()) < MAX_MODULES)
    @rule(name=st.sampled_from(PROTOTYPE_NAMES), at=st.none() | st.tuples(numbers, numbers),
          angle=st.none() | angles)
    def proto_load(self, name, at, angle):
        entries, _ = load_prototypes(Path(self.library).read_bytes())

        def place(d):
            proto = dict(entries).get(name)
            if proto is None:
                raise KernelError(f"no prototype named {name!r}")
            props = dict(proto.props)
            if at is not None:
                props["origin"] = Point(*at)
            if angle is not None:
                props["angle_deg"] = angle
            d.add_module(proto.type, props)

        argv = ["proto-load", self.path, self.library, "--name", name]
        argv += [] if at is None else ["--at", ",".join(map(repr, at))]
        argv += [] if angle is None else ["--angle", repr(angle)]
        self._step(argv, place)

    @rule(pick=picks, qty_column=st.integers(0, 3))
    def fill_table(self, pick, qty_column):
        tables = [m.id for m in self.model.modules() if m.type is ModuleType.TABLE]
        module_id = _pick(tables, pick) if tables and pick % 4 else self._module_id(pick)

        def fill(d):
            rows, errors = collect_spec_rows([(self.path, d)])
            if errors:
                raise KernelError("spec errors")
            fill_table_module(d, module_id, rows, {"position": 0, "qty": qty_column})

        self._step(["fill-table", self.path, "--id", str(module_id),
                    "--columns", f"position=0,qty={qty_column}"], fill)

    @rule(pick=picks, bad=refusals)
    def catalog_apply(self, pick, bad):
        specifying = [m.id for m in self.model.modules()
                      if m.type in (ModuleType.VALVE, ModuleType.INSTRUMENT, ModuleType.POSDES)]
        module_id = _pick(specifying, pick) if specifying and pick % 4 else self._module_id(pick)
        catalog = self.bad_catalog if bad else self.catalog
        entry = "e1" if bad else "M-1"

        def apply(d):
            found = load_catalog(catalog.read_bytes())
            d.replace_module(apply_catalog_entry(d.module(module_id), found, entry))

        code, _, err = self._step(["catalog-apply", self.path, "--id", str(module_id),
                                   "--catalog", str(catalog), "--entry", entry], apply)
        if bad:
            assert (code, err) == (1, BAD_CATALOG_ERROR)


CliLifecycle.TestCase.settings = settings(max_examples=30, stateful_step_count=20,
                                          deadline=None)
TestCliLifecycle = CliLifecycle.TestCase
