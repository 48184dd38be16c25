"""Known mutants: faults the tests are known to catch, kept so they stay caught.

Each entry names a file under ``src/``, an exact snippet in it, the
replacement that puts the fault in, and the test files that must fail with
it. For each entry the tool copies ``src/``, ``tests/``, ``pyproject.toml``
and ``README.md`` into a temporary directory, applies that one patch there
and runs pytest on the named files, which must end with failing tests (pytest
exit code 1). The same files must pass on an unpatched copy first.

A snippet that no longer appears exactly once is an error: a change that
moves the code updates the entry. A mutant that its tests pass is a gap in
the tests, to be mended, not an entry to delete.

Usage, from any directory (standard library only; the tests need pytest and
hypothesis, as tier-1 does)::

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("the drawing reader always falls back to the checking walk",
           "src/modraft/persistence.py",
           "    if not screened:\n", "    if False:\n",
           ("tests/test_persistence.py",)),
    Mutant("the fast walk's drawing is returned without the byte comparison",
           "src/modraft/persistence.py",
           "                if raw == canonical_bytes(d):\n", "                if True:\n",
           ("tests/test_persistence.py",)),
    Mutant("a Point without its finiteness check",
           "src/modraft/geometry.py",
           "        if not (math.isfinite(x) and math.isfinite(y)):\n",
           "        if False:\n",
           ("tests/test_geometry.py",)),
    Mutant("a Text without norm_deg",
           "src/modraft/geometry.py",
           "_TEXT_ANGLE(self, norm_deg(angle_deg))", "_TEXT_ANGLE(self, angle_deg)",
           ("tests/test_geometry.py",)),
    Mutant("a ZoneGrid without its origin check",
           "src/modraft/geometry.py",
           "        if not isinstance(origin, Point):\n"
           "            raise _not_of_class(origin=origin)\n", "",
           ("tests/test_geometry.py",)),
    Mutant("a Polyline without its point check",
           "src/modraft/geometry.py",
           "            if not isinstance(p, Point):\n", "            if False:\n",
           ("tests/test_geometry.py",)),
    Mutant("geometry.__all__ without Rect",
           "src/modraft/geometry.py",
           '    "Rect", "ZoneGrid",\n', '    "ZoneGrid",\n',
           ("tests/test_readme.py",)),
    Mutant("the plain-JSON writer without its Point branch",
           "src/modraft/geometry.py",
           "    if isinstance(value, Point):\n        return [value.x, value.y]\n", "",
           ("tests/test_geometry.py",)),
    Mutant("a path segment too long to measure is not refused",
           "src/modraft/geometry.py",
           "        if length == math.inf:\n", "        if False:\n",
           ("tests/test_offset.py",)),
    Mutant("create_module without its module id check",
           "src/modraft/core.py",
           "    if not (type(module_id) is int and module_id >= 1):\n", "    if False:\n",
           ("tests/test_module_core.py",)),
    Mutant("a spec cell writes a real rounded to six digits",
           "src/modraft/speccing.py",
           'repr(value).removesuffix(".0") if', 'format(value, "g") if',
           ("tests/test_speccing.py",)),
    Mutant("a signature's authenticity is checked without the hex test",
           "src/modraft/integrity.py",
           '    elif _is_hex(props["digest"]) and props["mac"]',
           '    elif props["mac"]',
           ("tests/test_integrity.py",)),
    Mutant("a compose translation sum re-associated",
           "src/modraft/geometry.py",
           "a * itx + b * ity + tx,", "a * itx + (b * ity + tx),",
           ("tests/test_module_core.py",)),
    Mutant("the fast walk runs without the frame's head/tail pre-check",
           "src/modraft/persistence.py",
           "            if raw.startswith(head) and raw.endswith(tail):\n",
           "            if True:\n",
           ("tests/test_persistence.py",)),
    Mutant("the checking walk skips the stored-geometry comparison",
           "src/modraft/persistence.py",
           "    if check and stored_bytes != m.geometry_json:\n", "    if False:\n",
           ("tests/test_persistence.py",)),
    Mutant("render_svg joins its lines with CRLF",
           "src/modraft/render.py",
           '    return "\\n".join(chunks)\n', '    return "\\r\\n".join(chunks)\n',
           ("tests/test_render.py",)),
    Mutant("a property kind's row holds the wrong writer",
           "src/modraft/properties.py",
           "PropKind.TEXT: (_as_text, encode_basestring),",
           "PropKind.TEXT: (_as_text, json.encoder.encode_basestring_ascii),",
           ("tests/test_properties.py",)),
    Mutant("a thin solid line is stroked at full width",
           "src/modraft/render.py",
           "LineType.THIN_SOLID: (0.25, None),", "LineType.THIN_SOLID: (0.5, None),",
           ("tests/test_render.py",)),
    Mutant("apex_height without its rod height read",
           "src/modraft/lightning.py",
           "    h = Rod(0.0, 0.0, h).h\n    return _zone(h, zone_class)[0] * h\n",
           "    return _zone(h, zone_class)[0] * h\n",
           ("tests/test_lightning.py",)),
    Mutant("ground_radius without its rod height read",
           "src/modraft/lightning.py",
           "    h = Rod(0.0, 0.0, h).h\n    return _zone(h, zone_class)[1] * h\n",
           "    return _zone(h, zone_class)[1] * h\n",
           ("tests/test_lightning.py",)),
    Mutant("align_by_attach takes a bool as an axis index",
           "src/modraft/core.py",
           "    if type(own_axis_index) is not int or",
           "    if not isinstance(own_axis_index, int) or",
           ("tests/test_module_core.py",)),
    Mutant("a record value that is not JSON is kept",
           "src/modraft/properties.py",
           '    raise ValueError(f"value {value!r} is not serialisable")\n',
           "    return value\n",
           ("tests/test_properties.py",)),
    Mutant("an axis record without an origin is not refused by name",
           "src/modraft/properties.py",
           "        if \"origin\" not in value:\n"
           "            raise ValueError(\"bad axis: no 'origin'\")\n", "",
           ("tests/test_properties.py",)),
    Mutant("render_svg takes a viewport too wide to measure",
           "src/modraft/render.py",
           "    if not (math.isfinite(vp.width) and math.isfinite(vp.height)):\n",
           "    if False:\n",
           ("tests/test_render.py",)),
]


def _copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, into / name)


def _pytest(tree: Path, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.snippet)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name!r}: its snippet appears {count} times "
                         f"in {mutant.path}, not once; update the entry")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory(prefix="modraft-mutants-") as tmp:
        for index, baseline in enumerate(sorted({m.tests for m in MUTANTS})):
            tree = Path(tmp) / f"baseline-{index}"
            _copy_tree(tree)
            code = _pytest(tree, baseline)
            if code != 0:
                print(f"the unpatched copy fails {' '.join(baseline)} (pytest exit {code})")
                return 1
        for index, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant-{index}"
            _copy_tree(tree)
            _apply(tree, mutant)
            start = time.perf_counter()
            code = _pytest(tree, mutant.tests)
            verdict = "caught" if code == 1 else f"NOT CAUGHT (pytest exit {code})"
            print(f"{verdict}: {mutant.name} [{time.perf_counter() - start:.1f} s]")
            if code != 1:
                survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants not caught")
        return 1
    print(f"all {len(MUTANTS)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
