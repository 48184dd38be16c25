"""The frozen format-v1 corpus under other Python interpreters.

For each interpreter named on the command line, the tool runs itself under
that interpreter with this checkout's ``src/`` on the path and checks every
file that ``tests/data/v1/manifest.json`` pins, as ``tests/test_v1_corpus.py``
does under pytest:

- each drawing: load∘save is byte-identical, ``compute_digest`` is the
  pinned digest, every signature gives its verdict (``valid``/``valid`` with
  the pinned passwords, ``valid``/``unchecked`` without), the full and
  windowed SVG hash to the pinned values, and the spec rows are the pinned
  ones;
- the prototype library: its names, and load∘save is byte-identical;
- the catalog: its entry ids.

It prints one line per interpreter and per file that differs, naming the
checks that failed, then one summary line per interpreter, and exits 1 when
any file differs or an interpreter cannot run the check. The interpreters
need no third-party package.

Usage (standard library only; the tool searches for no interpreter, so name
each one)::

    python tools/crossver.py /usr/bin/python3.10 /usr/bin/python3.13
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "v1"
_CHILD = "--check-here"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _drawing_checks(name: str, entry: dict) -> dict:
    """Each check's name and whether this interpreter passes it."""
    from modraft import (ModuleType, Rect, SpecRow, collect_spec_rows,
                         compute_digest, load_drawing, render_svg, save_drawing,
                         verify_signatures)
    raw = (CORPUS / name).read_bytes()
    d = load_drawing(raw)
    passwords = entry["passwords"]
    signers = [m.props["person"] for m in d.modules() if m.type is ModuleType.SIGNATURE]
    verdicts = [[(s.integrity, s.authenticity) for s in verify_signatures(d, *given)]
                for given in ((passwords,), ())]
    rows, errors = collect_spec_rows([(name, d)])
    cells = [[repr(getattr(row, f.name)) for f in fields(SpecRow)] for row in rows]
    view = Rect.from_bounds(*entry["viewport"])
    return {
        "load-save": save_drawing(d) == raw,
        "digest": compute_digest(d) == entry["digest"],
        "signatures": sorted(signers) == sorted(passwords) and verdicts == [
            [("valid", "valid")] * len(signers), [("valid", "unchecked")] * len(signers)],
        "svg-full": _sha256(render_svg(d)) == entry["svg_full_sha256"],
        "svg-view": _sha256(render_svg(d, view)) == entry["svg_view_sha256"],
        "spec-rows": errors == [] and cells == entry["spec_rows"],
    }


def _check_here() -> int:
    """Under the interpreter being checked: one JSON line holding its
    version and, per file, the names of the checks that file fails."""
    from modraft import load_catalog_file, load_prototypes, save_prototypes
    manifest = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))
    results = {}
    for name, entry in sorted(manifest["drawings"].items()):
        try:
            results[name] = _drawing_checks(name, entry)
        except Exception as exc:  # a refusal here is a difference to report
            results[name] = {f"load ({type(exc).__name__}: {exc})": False}
    library = manifest["library"]
    raw = (CORPUS / library["file"]).read_bytes()
    loaded, errors = load_prototypes(raw)
    names = [name for name, _ in loaded]
    results[library["file"]] = {
        "names": errors == [] and names == library["names"],
        "load-save": save_prototypes([m for _, m in loaded], names) == raw,
    }
    catalog = manifest["catalog"]
    entries = sorted(load_catalog_file(CORPUS / catalog["file"]).entries)
    results[catalog["file"]] = {"entries": entries == catalog["entries"]}
    print(json.dumps([sys.version.split()[0],
                      [[name, [check for check, ok in checks.items() if not ok]]
                       for name, checks in results.items()]]))
    return 0


def _check(interpreter: str) -> bool:
    """Run the checks under ``interpreter``; print what differs and a summary."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [interpreter, str(Path(__file__).resolve()), _CHILD], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"})
    except OSError as exc:
        print(f"{interpreter}: the check did not run: {exc}")
        return False
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        print(f"{interpreter}: the check did not run: {last}")
        return False
    version, results = json.loads(proc.stdout)
    differ = [(name, failed) for name, failed in results if failed]
    for name, failed in differ:
        print(f"{interpreter} (Python {version}): {name} differs: {', '.join(failed)}")
    print(f"{interpreter} (Python {version}): {len(results)} files, {len(differ)} differ")
    return not differ


def main(argv: list[str]) -> int:
    if argv == [_CHILD]:
        return _check_here()
    if not argv:
        print("usage: python tools/crossver.py INTERPRETER...", file=sys.stderr)
        return 2
    return 0 if all([_check(interpreter) for interpreter in argv]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
