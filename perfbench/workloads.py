"""The four benchmark workloads.

Each workload is a class whose constructor is the timed set-up: it builds
the inputs from the seed (modules, drawings, files) and nothing else.
After that the harness drives it as a closed loop, one client in one
thread: ``op(i)`` runs operation ``i`` of a sequence fixed by the seed,
``check(i, out)`` checks its output outside the timed region, ``finish()``
runs the end-of-phase checks and ``reset()`` restarts the sequence from
the initial inputs. ``fingerprints()`` and ``golden()`` give SHA-256
fingerprints of the inputs and of a fixed set of outputs.

The checks do not trust the code under test: they compare against plans
the benchmark made itself (bounding boxes, planted duplicates, counts),
against an in-memory replay, or against negative controls that a check
which stopped checking would pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path
from typing import Iterator

import modraft
import modraft.cli
from modraft import Drawing, ModuleType, Point, Rect

import propgen

SHEET_EXTENT = Rect.from_bounds(-1000, -1000, 3000, 3000)
SHEET_TYPES = [t for t in propgen.PROP_MAKERS if t is not ModuleType.SIGNATURE]
# 8 types x 20 = 160 modules, about 0.23 MB on disk: an edit near 150 ms,
# so a 25-second run keeps ten samples beyond p90 while the host is slow.
SHEET_PER_TYPE = 20
# Fifteen of each type keep a verify near 160 ms, so a 25-second run has
# well over ten samples beyond its 90th percentile.
SIGNED_PER_TYPE = 15


def sha256(data: "bytes | str") -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def plain_json(obj: object) -> str:
    """Stable JSON of generated inputs, written by the benchmark itself."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"),
                      default=lambda o: o.value if hasattr(o, "value") else repr(o))


class Sequence:
    """Item ``i`` of an endless seeded stream, made on first use by
    ``make(rng, i)``."""

    def __init__(self, rng: random.Random, make):
        self._rng, self._make, self._items = rng, make, []

    def __getitem__(self, i: int):
        while len(self._items) <= i:
            self._items.append(self._make(self._rng, len(self._items)))
        return self._items[i]


def _rng(seed: int, stream: int) -> random.Random:
    return random.Random(seed * 100 + stream)


def _mixed_props(rng: random.Random, per_type: int) -> list[tuple[ModuleType, dict]]:
    plan = []
    for mtype in SHEET_TYPES:
        # Four times as many drawn, sorted by props size, every 4th kept:
        # the sheet's size then hardly varies with the seed.
        drawn = sorted((propgen.random_props(rng, mtype) for _ in range(4 * per_type)),
                       key=lambda props: len(plain_json(props)))
        plan.extend((mtype, props) for props in drawn[2::4])
    rng.shuffle(plan)
    return plan


def _mixed_sheet(plan: list[tuple[ModuleType, dict]]) -> Drawing:
    d = Drawing.new(SHEET_EXTENT)
    for mtype, props in plan:
        d.add_module(mtype, props)
    return d


class EditSheet:
    """``modraft edit`` on a mixed 160-module sheet: load, regenerate one
    moved or rotated module, save. Every module has its own random props,
    so a regeneration memo cannot hit."""

    name = "edit_sheet"
    trace_ops = 24
    golden_edits = 16
    expected = ("cli.main@cli", "cli.cmd_edit@cli",
                "persistence.load_drawing_file@cli", "persistence.save_drawing_file@cli",
                "persistence.load_drawing@persistence", "core.create_module@persistence")

    def __init__(self, seed: int, workdir: Path):
        self.plan = _mixed_props(_rng(seed, 1), SHEET_PER_TYPE)
        self.initial = modraft.save_drawing(_mixed_sheet(self.plan))
        self.path = workdir / "sheet.draw.json"
        self.path.write_bytes(self.initial)
        self.n_modules = len(self.plan)
        self.edits = Sequence(_rng(seed, 2), self._make_edit)
        self.reset()

    def _make_edit(self, rng: random.Random, i: int) -> tuple:
        module_id = rng.randrange(1, self.n_modules + 1)
        if rng.random() < 0.5:
            return ("move", module_id,
                    round(rng.uniform(-50, 50), 3), round(rng.uniform(-50, 50), 3))
        return ("rotate", module_id, round(rng.uniform(-500, 500), 3),
                round(rng.uniform(-500, 500), 3), round(rng.uniform(-180, 180), 3))

    def fingerprints(self) -> dict[str, str]:
        return {"props": sha256(plain_json(self.plan)), "files": sha256(self.initial)}

    def reset(self) -> None:
        self.path.write_bytes(self.initial)
        self.done: list[tuple[int, bool, str]] = []  # (op, exit 0, file sha)

    def _argv(self, edit: tuple) -> list[str]:
        # "--move=DX,DY": with a space, argparse reads "-3.5,2" as an option.
        kind, module_id, *numbers = edit
        return ["edit", str(self.path), "--id", str(module_id),
                f"--{kind}=" + ",".join(repr(x) for x in numbers)]

    def op(self, i: int) -> int:
        try:
            return modraft.cli.main(self._argv(self.edits[i]))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    def check(self, i: int, out: object) -> "str | None":
        self.done.append((i, out == 0, sha256(self.path.read_bytes())))
        return None if out == 0 else f"edit {i} exited {out}"

    def _replay(self, edits) -> Iterator[Drawing]:
        """Apply edits in memory through the library, as ``modraft edit``
        does; yields the drawing after each."""
        d = modraft.load_drawing(self.initial)
        for kind, module_id, *numbers in edits:
            m = d.module(module_id)
            if kind == "move":
                m = modraft.move_module(m, numbers[0], numbers[1], grid=d.zone_grid)
            else:
                cx, cy, angle = numbers
                m = modraft.rotate_module(m, angle, Point(cx, cy), grid=d.zone_grid)
            d.replace_module(m)
            yield d

    def finish(self) -> list[str]:
        errors = []
        applied = [(i, digest) for i, ok, digest in self.done if ok]
        last = len(applied) - 1
        for k, d in enumerate(self._replay(self.edits[i] for i, _ in applied)):
            if k % 8 == 7 or k == last:
                if sha256(modraft.save_drawing(d)) != applied[k][1]:
                    errors.append(f"file after edit {applied[k][0]} differs from "
                                  "the in-memory replay")
                    break
        data = self.path.read_bytes()
        if modraft.save_drawing(modraft.load_drawing(data)) != data:
            errors.append("load then save changed the final file")
        return errors

    def golden(self) -> dict[str, str]:
        d = None
        for d in self._replay(self.edits[i] for i in range(self.golden_edits)):
            pass
        return {"initial_file": sha256(self.initial),
                "file_after_16_edits": sha256(modraft.save_drawing(d))}


_SIGNERS = ["Иванов И.И.", "Петрова А.С.", "Сидоров К.Н.", "Кузнецова Е.В.",
            "Смирнов А.А.", "Попова Н.Ю.", "Волков Д.С.", "Лебедева О.М."]
_ROLES = ["ГИП", "Проверил", "Разработал"]


class VerifySigned:
    """``verify_signatures`` with 8 signatures on a mixed 120-module sheet
    in memory: canonical encoding and digests only, no loading or
    regeneration."""

    name = "verify_signed"
    trace_ops = 12
    expected = ("integrity.verify_signatures@modraft",
                "integrity.compute_digest@integrity", "integrity.signature_mac@integrity")

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 3)
        self.plan = _mixed_props(rng, SIGNED_PER_TYPE)
        self.d = _mixed_sheet(self.plan)
        self.passwords = {}
        self.signers = []
        for k, person in enumerate(_SIGNERS):
            password = f"пароль-{k}-{rng.randrange(10**6)}"
            fields = (person, _ROLES[k % 3],
                      f"2026-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
                      f"{rng.randrange(24):02d}:{rng.randrange(60):02d}")
            m = modraft.sign_drawing(self.d, *fields, password)
            self.passwords[person] = password
            self.signers.append((m.id, person))

    def fingerprints(self) -> dict[str, str]:
        return {"props": sha256(plain_json([self.plan, self.passwords]))}

    def reset(self) -> None:
        pass

    def op(self, i: int) -> object:
        return modraft.verify_signatures(self.d, self.passwords)

    def check(self, i: int, out: object) -> "str | None":
        got = [(s.module_id, s.person, s.integrity, s.authenticity) for s in out]
        want = [(mid, person, "valid", "valid") for mid, person in self.signers]
        return None if got == want else f"verify {i} gave {got}"

    def finish(self) -> list[str]:
        errors = []
        tampered = modraft.load_drawing(modraft.save_drawing(self.d))
        first = tampered.modules()[0]
        tampered.replace_module(modraft.move_module(first, 0.001, 0.0,
                                                    grid=tampered.zone_grid))
        n = len(self.signers)
        verdicts = [s.integrity for s in modraft.verify_signatures(tampered, self.passwords)]
        if verdicts != ["broken"] * n:
            errors.append(f"tampered copy reported integrity {verdicts}")
        wrong = {person: pw + "x" for person, pw in self.passwords.items()}
        verdicts = [(s.integrity, s.authenticity)
                    for s in modraft.verify_signatures(self.d, wrong)]
        if verdicts != [("valid", "broken")] * n:
            errors.append(f"wrong passwords reported {verdicts}")
        return errors

    def golden(self) -> dict[str, str]:
        sigs = [(m.props["digest"], m.props["mac"]) for m in self.d.modules()
                if m.type is ModuleType.SIGNATURE]
        statuses = modraft.verify_signatures(self.d, self.passwords)
        return {"file": sha256(modraft.save_drawing(self.d)),
                "digests_macs": sha256(plain_json(sigs)),
                "statuses": sha256(plain_json([repr(s) for s in statuses]))}


VIEW_SIDE = 4000.0
VIEW_MIN_SIDE = 50.0
_MODULE_ID_RE = re.compile(r'<g data-module-id="(\d+)"')
_PLASTIC = 1.324717957244746  # x**3 = x + 1
_R2 = (1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2)


class ViewDense:
    """``render_svg`` of random viewports over a dense sheet shaped like
    acceptance 7: at least 50,000 segments in about 3,400 user modules on a
    4,000 mm square. Small viewports stress culling, large ones emission."""

    name = "view_dense"
    trace_ops = 48
    golden_views = 16
    check_every = 4
    expected = ("render.render_svg@modraft", "render.visible_items@render")

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 4)
        self.d = Drawing.new(Rect.from_bounds(0, 0, VIEW_SIDE, VIEW_SIDE))
        self.records = []
        self.boxes = []  # (module id, x0, y0, x1, y1, segments), from the records
        total = 0
        while total < 50_000:
            n = rng.randrange(5, 25)
            x0, y0 = rng.uniform(0, VIEW_SIDE - 160), rng.uniform(0, VIEW_SIDE - 160)
            records = []
            for _ in range(n):
                ax, ay = x0 + rng.uniform(0, 120), y0 + rng.uniform(0, 120)
                records.append({"kind": "segment", "p1": [ax, ay],
                                "p2": [ax + rng.uniform(1, 40), ay + rng.uniform(1, 40)],
                                "style": {"color": rng.randrange(256),
                                          "line_type": "solid"}})
            m = self.d.add_module(ModuleType.USER, {"elements": records})
            xs = [r[k][0] for r in records for k in ("p1", "p2")]
            ys = [r[k][1] for r in records for k in ("p1", "p2")]
            self.boxes.append((m.id, min(xs), min(ys), max(xs), max(ys), n))
            self.records.append(records)
            total += n
        rng = _rng(seed, 5)
        self._side_offsets = (rng.random(), rng.random())
        self.viewports = Sequence(rng, self._make_viewport)

    def _make_viewport(self, rng: random.Random, i: int) -> tuple[float, float, float, float]:
        # Log-uniform sides drawn from the R2 low-discrepancy sequence, not
        # at random: any run of a few hundred views then holds nearly the
        # same mix of sizes, so the percentiles do not drift with the seed.
        lo, hi = math.log(VIEW_MIN_SIDE), math.log(VIEW_SIDE)
        u = (self._side_offsets[0] + i * _R2[0]) % 1.0
        v = (self._side_offsets[1] + i * _R2[1]) % 1.0
        w, h = math.exp(lo + (hi - lo) * u), math.exp(lo + (hi - lo) * v)
        x0, y0 = rng.uniform(0, VIEW_SIDE - w), rng.uniform(0, VIEW_SIDE - h)
        return (x0, y0, x0 + w, y0 + h)

    def fingerprints(self) -> dict[str, str]:
        return {"props": sha256(plain_json(self.records))}

    def reset(self) -> None:
        pass

    def op(self, i: int) -> str:
        return modraft.render_svg(self.d, Rect.from_bounds(*self.viewports[i]))

    def check(self, i: int, out: object) -> "str | None":
        if not (out.startswith("<?xml") and out.endswith("</svg>\n")):
            return f"render {i} is not a whole SVG document"
        if i % self.check_every:
            return None
        x0, y0, x1, y1 = self.viewports[i]
        want = [(mid, n) for mid, a, b, c, d, n in self.boxes
                if a <= x1 and x0 <= c and b <= y1 and y0 <= d]
        got = [int(mid) for mid in _MODULE_ID_RE.findall(out)]
        if got != [mid for mid, _ in want]:
            return f"render {i} drew modules {len(got)} != brute force {len(want)}"
        if out.count("<line ") != sum(n for _, n in want):
            return f"render {i} drew a wrong number of segments"
        return None

    def finish(self) -> list[str]:
        return []

    def golden(self) -> dict[str, str]:
        h = hashlib.sha256()
        for i in range(self.golden_views):
            h.update(self.op(i).encode("utf-8"))
        return {"svg_first_16": h.hexdigest()}


SPEC_TYPES = (ModuleType.VALVE, ModuleType.INSTRUMENT, ModuleType.POSDES,
              ModuleType.PIPELINE)
SPEC_FILES = 12
# Twenty-five modules a file keep a scan near 170 ms (see SIGNED_PER_TYPE).
SPEC_MODULES_PER_FILE = 25


class SpecScan:
    """Spec rows and duplicate positions over 12 files of 25 modules placed
    from 16 prototypes: read-only, many files, and most modules share their
    non-placement props, so a regeneration memo could hit."""

    name = "spec_scan"
    trace_ops = 8
    expected = ("speccing.collect_spec_rows@modraft",
                "speccing.find_duplicate_positions@modraft",
                "persistence.load_drawing_file@speccing", "core.create_module@persistence")

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 6)
        proto_props, modules = [], []
        for mtype in SPEC_TYPES:
            # 32 candidates per type, sorted by geometry size, and every 8th
            # kept (the 4th, 12th, 20th and 28th): every seed's library then
            # spans the same sizes, and the scanned bytes hardly vary.
            drawn = [propgen.random_props(rng, mtype) for _ in range(32)]
            made = sorted(((modraft.create_module(mtype, p), p) for p in drawn),
                          key=lambda pair: len(modraft.geometry_bytes(pair[0].geometry)))
            for m, props in made[3::8]:
                proto_props.append((mtype, props))
                modules.append(m)
        library = modraft.save_prototypes(modules, [f"proto-{k}" for k in range(16)])
        protos, errors = modraft.load_prototypes(library)
        if errors:
            raise RuntimeError(f"prototype library did not load: {errors}")
        placements = []
        self.paths = []
        self.files = []
        positions: dict[str, list] = {}
        self.spec_modules = 0
        # Every prototype is placed equally often, in shuffled order, so the
        # scanned size does not swing with how often a big one was drawn.
        order = [k % len(protos) for k in range(SPEC_FILES * SPEC_MODULES_PER_FILE)]
        rng.shuffle(order)
        for f in range(SPEC_FILES):
            d = Drawing.new(SHEET_EXTENT)
            path = str(workdir / f"sheet-{f:02d}.draw.json")
            for _ in range(SPEC_MODULES_PER_FILE):
                k = order[len(placements)]
                origin = (round(rng.uniform(-900, 2900), 3),
                          round(rng.uniform(-900, 2900), 3))
                placements.append((f, k, origin))
                _, proto = protos[k]
                m = d.add_module(proto.type, {**proto.props, "origin": origin})
                mtype, props = proto_props[k]
                if mtype is not ModuleType.PIPELINE:
                    self.spec_modules += 1
                text = props.get("position_text") or props.get("pos_designation")
                if text:
                    positions.setdefault(text, []).append((path, m.id))
            data = modraft.save_drawing(d)
            Path(path).write_bytes(data)
            self.paths.append(path)
            self.files.append(data)
        self.inputs = [proto_props, placements]
        self.planted = [(text, tuple(sorted(occ)))
                        for text, occ in sorted(positions.items()) if len(occ) >= 2]

    def fingerprints(self) -> dict[str, str]:
        return {"props": sha256(plain_json(self.inputs)),
                "files": sha256("".join(sha256(data) for data in self.files))}

    def reset(self) -> None:
        pass

    def op(self, i: int) -> object:
        if i % 2 == 0:
            return modraft.collect_spec_rows(self.paths)
        return modraft.find_duplicate_positions(self.paths)

    def check(self, i: int, out: object) -> "str | None":
        found, errors = out
        if errors:
            return f"scan {i} reported {errors}"
        if i % 2 == 0:
            qty = sum(row.qty for row in found)
            if qty != self.spec_modules:
                return f"spec rows sum to {qty}, {self.spec_modules} modules placed"
        elif [(g.position, g.occurrences) for g in found] != self.planted:
            return f"duplicate groups differ from the {len(self.planted)} planted"
        return None

    def finish(self) -> list[str]:
        return []

    def _portable(self, sources: tuple) -> list:
        return [(Path(label).name, module_id) for label, module_id in sources]

    def golden(self) -> dict[str, str]:
        rows, _ = self.op(0)
        groups, _ = self.op(1)
        row_text = [[repr(getattr(r, f)) for f in
                     ("position", "designation", "name", "type_mark", "unit",
                      "qty", "mass", "price", "note")] + [self._portable(r.sources)]
                    for r in rows]
        group_text = [[g.position, self._portable(g.occurrences)] for g in groups]
        return {"files": sha256("".join(sha256(data) for data in self.files)),
                "spec_rows": sha256(plain_json(row_text)),
                "duplicate_groups": sha256(plain_json(group_text))}


WORKLOADS = {cls.name: cls for cls in (EditSheet, VerifySigned, ViewDense, SpecScan)}
