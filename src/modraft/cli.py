"""Command-line interface: one subcommand per kernel operation.

Every option that takes numbers is read by ``_parse_floats``: a bad or
non-finite number is a usage error, exit 2, like any bad argument. Every
subcommand that changes a drawing goes through ``_rewrite``, which writes
to --out or in place, and nothing when the change fails. ``main`` maps a
``KernelError``, an ``OSError``, and a ``ValueError`` or ``OverflowError``
from the kernel to ``error: ...`` on stderr and exit 1. Success is exit 0.
"""

from __future__ import annotations

import argparse
import ast
import functools
import math
import re
import sys
from pathlib import Path

from . import __version__
from .core import mirror_module, move_module, rotate_module
from .errors import KernelError, NoProtectionAtHeight
from .geometry import Point, Rect
from .integrity import sign_drawing, verify_signatures
from .lightning import params_from_props, single_rod_radius
from .persistence import (DEFAULT_GRID_NX, DEFAULT_GRID_NY, FORMAT_VERSION,
                          Drawing, _default_grid, load_drawing_file,
                          load_prototypes, save_drawing_file, save_prototypes)
from .properties import ModuleType, PropKind, schema_for
from .render import render_svg
from .speccing import (_SPEC_COLUMNS, _cell_text, apply_catalog_entry,
                       collect_spec_rows, fill_table_module,
                       find_duplicate_positions, load_catalog_file)

__all__ = ["main"]


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        needs = "one number" if count == 1 else f"{count} comma-separated numbers"
        raise argparse.ArgumentTypeError(f"{what} needs {needs}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {what}: {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(
            f"bad {what}: {text!r} (numbers must be finite)")
    return values


def _reads_numbers(read):
    """Mark an option type as reading numbers; see _join_negative_values."""
    read.reads_numbers = True
    return read


@_reads_numbers
def _rect_arg(text: str) -> Rect:
    x0, y0, x1, y1 = _parse_floats(text, 4, "rectangle")
    rect = Rect.from_bounds(x0, y0, x1, y1)
    if not (math.isfinite(rect.width) and math.isfinite(rect.height)):
        raise argparse.ArgumentTypeError(
            f"rectangle too large: {text!r} (width and height must be finite)")
    return rect


@_reads_numbers
def _point_arg(text: str) -> Point:
    x, y = _parse_floats(text, 2, "point")
    return Point(x, y)


def _parse_int(text: str) -> "int | None":
    """The integer ``text`` spells in decimal digits, or None."""
    try:  # int() reads what str.isdecimal passes; str.isdigit also passes '²'
        return int(text) if text.isdecimal() else None
    except ValueError:  # more digits than int() converts
        return None


def _grid_arg(text: str) -> tuple[int, int]:
    sizes = [_parse_int(part) for part in text.split(",")]
    if len(sizes) != 2 or not all(n is not None and n > 0 for n in sizes):
        raise argparse.ArgumentTypeError("grid needs NX,NY positive integers")
    return sizes[0], sizes[1]


def _id_arg(text: str) -> int:
    module_id = _parse_int(text)
    if module_id is None:
        raise argparse.ArgumentTypeError(f"bad module id {text!r}; use decimal digits")
    return module_id


def _type_arg(text: str) -> ModuleType:
    try:
        return ModuleType(text)
    except ValueError:
        names = ", ".join(t.value for t in ModuleType)
        raise argparse.ArgumentTypeError(
            f"unknown module type {text!r} (choose from {names})") from None


def _types_arg(text: str) -> frozenset:
    return frozenset(map(_type_arg, text.split(",")))


def _column_map_arg(text: str) -> dict:
    out = {}
    for part in text.split(","):
        name, eq, index = part.partition("=")
        out[name] = _parse_int(index)
        if not eq or out[name] is None:
            raise argparse.ArgumentTypeError(
                f"bad column mapping {part!r}; use field=index")
    return out


def _prop_value(key: str, text: str):
    """Parse a property value: Python literal syntax, else raw text."""
    try:
        return ast.literal_eval(text)
    except (ValueError, TypeError, SyntaxError, RecursionError) as exc:
        # TypeError: an unhashable key, as in {[]: 1}; past the parser's
        # nesting limit the literal is not raw text
        if isinstance(exc, RecursionError) or "too many nested" in str(exc):
            raise KernelError(
                f"property {key!r}: value is nested too deeply") from exc
        if text == "true":
            return True
        if text == "false":
            return False
        return text


def _props_arg(tokens: "list[str]", mtype: ModuleType) -> dict:
    """Parse key=value property tokens with the module schema in hand:
    text-kind keys take the value verbatim, everything else is a literal."""
    schema = schema_for(mtype)
    props = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or not key:
            raise KernelError(f"bad property assignment {token!r}; use key=value")
        spec = schema.get(key)
        if spec is not None and spec.kind is PropKind.TEXT:
            props[key] = value
        else:
            props[key] = _prop_value(key, value)
    return props


def cmd_new(args) -> int:
    nx, ny = args.grid or (DEFAULT_GRID_NX, DEFAULT_GRID_NY)
    d = Drawing.new(args.extent, _default_grid(args.extent, nx, ny))
    save_drawing_file(d, args.drawing)
    return 0


def _rewrite(args) -> int:
    """Load the drawing, apply ``args.change`` and write the drawing to
    --out or in place, then print the change's line. A change returns that
    line ("" for none), or None once it has reported a failure on stderr;
    a change that fails, by None or by raising, writes nothing."""
    d = load_drawing_file(args.drawing)
    line = globals()[args.change](args, d)
    if line is None:
        return 1
    save_drawing_file(d, args.out or args.drawing)
    if line:
        print(line)
    return 0


def cmd_add(args, d: Drawing) -> str:
    m = d.add_module(args.type, _props_arg(args.props, args.type))
    return f"module {m.id} {m.type.value}"


def cmd_set(args, d: Drawing) -> str:
    mtype = d.module(args.id).type
    d.set_module_properties(args.id, _props_arg(args.props, mtype))
    return ""


def cmd_edit(args, d: Drawing) -> str:
    if sum(a is not None for a in (args.move, args.rotate, args.mirror)) != 1:
        raise KernelError("pass exactly one of --move, --rotate, --mirror")
    m = d.module(args.id)
    if args.move is not None:
        dx, dy = args.move
        m = move_module(m, dx, dy)
    elif args.rotate is not None:
        cx, cy, angle = args.rotate
        m = rotate_module(m, angle, Point(cx, cy))
    else:
        x0, y0, axis_angle = args.mirror
        m = mirror_module(m, Point(x0, y0), axis_angle)
    d.replace_module(m)
    return ""


def cmd_list(args) -> int:
    d = load_drawing_file(args.drawing)
    for item in d.items:
        if hasattr(item, "props"):
            p = item.props
            origin = p["origin"]
            print(f"module {item.id} {item.type.value} layer={p['layer']} "
                  f"origin=({_cell_text(origin.x)},{_cell_text(origin.y)}) "
                  f"angle={_cell_text(p['angle_deg'])} "
                  f"mirrored={'true' if p['mirrored'] else 'false'} "
                  f"elements={len(item.geometry)}")
        else:
            print(f"element {type(item).__name__.lower()}")
    return 0


def cmd_render(args) -> int:
    d = load_drawing_file(args.drawing)
    svg = render_svg(d, args.viewport)
    Path(args.out).write_bytes(svg.encode("utf-8"))
    return 0


def _print_errors(errors) -> None:
    for label, message in errors:
        print(f"error: {label}: {message}", file=sys.stderr)


def cmd_spec(args) -> int:
    rows, errors = collect_spec_rows(args.drawings, args.types)
    print("\t".join(_SPEC_COLUMNS))
    for row in rows:
        print("\t".join(_cell_text(getattr(row, name)) for name in _SPEC_COLUMNS))
    _print_errors(errors)
    return 1 if errors else 0


def cmd_fill_table(args, d: Drawing) -> "str | None":
    # the drawing itself is read from memory, under its own file name
    rows, errors = collect_spec_rows(args.sources or [(args.drawing, d)],
                                     args.types)
    if errors:
        _print_errors(errors)
        return None
    fill_table_module(d, args.id, rows, args.columns)
    return f"filled {len(rows)} rows"


def cmd_check_dup(args) -> int:
    groups, errors = find_duplicate_positions(args.drawings)
    for group in groups:
        places = ", ".join(f"{label}#{module_id}"
                           for label, module_id in group.occurrences)
        print(f"position {group.position!r} used {len(group.occurrences)} "
              f"times: {places}")
    if not groups:
        print("no duplicate positions")
    _print_errors(errors)
    return 1 if errors else 0


def cmd_proto_save(args) -> int:
    d = load_drawing_file(args.drawing)
    modules, names = [], []
    for token in args.entry:
        id_text, eq, name = token.partition("=")
        module_id = _parse_int(id_text)
        if not eq or module_id is None or not name:
            raise KernelError(f"bad prototype entry {token!r}; use ID=NAME")
        modules.append(d.module(module_id))
        names.append(name)
    Path(args.out).write_bytes(save_prototypes(modules, names))
    print(f"saved {len(names)} prototypes")
    return 0


def cmd_proto_load(args, d: Drawing) -> str:
    entries, errors = load_prototypes(Path(args.library).read_bytes())
    _print_errors(errors)
    proto = dict(entries).get(args.name)
    if proto is None:
        raise KernelError(f"no prototype named {args.name!r}")
    props = dict(proto.props)
    if args.at is not None:
        props["origin"] = args.at
    if args.angle is not None:
        props["angle_deg"] = args.angle
    m = d.add_module(proto.type, props)
    return f"module {m.id} {m.type.value}"


def cmd_catalog_apply(args, d: Drawing) -> str:
    catalog = load_catalog_file(args.catalog)
    d.replace_module(apply_catalog_entry(d.module(args.id), catalog, args.entry))
    return ""


def cmd_lightning_section(args) -> int:
    d = load_drawing_file(args.drawing)
    lightning = [m for m in d.modules() if m.type is ModuleType.LIGHTNING]
    if args.id is not None:
        chosen = d.module(args.id)
        if chosen.type is not ModuleType.LIGHTNING:
            raise KernelError(f"module {args.id} is not a lightning module")
    elif lightning:
        chosen = lightning[0]
    else:
        raise KernelError("drawing has no lightning module")
    params = params_from_props(chosen.props)
    for rod in params.rods:
        try:
            print(repr(single_rod_radius(rod.h, args.hx, params.zone_class)))
        except NoProtectionAtHeight:
            print("no protection")
    return 0


def cmd_sign(args, d: Drawing) -> str:
    m = sign_drawing(d, args.person, args.position, args.date, args.time,
                     args.password)
    return f"module {m.id} signature"


def cmd_verify(args) -> int:
    d = load_drawing_file(args.drawing)
    statuses = verify_signatures(d, args.password)
    intact = all(s.integrity == "valid" for s in statuses)
    print(f"integrity: {'valid' if intact else 'broken'}")
    if not statuses:
        print("signatures: none")
        return 0
    for s in statuses:
        print(f"signature {s.module_id} ({s.person}, {s.position}, "
              f"{s.date} {s.time}): integrity {s.integrity}, "
              f"authenticity {s.authenticity}")
    return 0 if intact and all(s.authenticity != "broken" for s in statuses) else 1


def _file_command(sub, name: str, func, help: str,
                  rewrites: bool = False) -> argparse.ArgumentParser:
    """A subcommand on one drawing file. A rewriting one also takes --out and
    runs ``func`` as its change, through ``_rewrite``."""
    p = sub.add_parser(name, help=help)
    p.add_argument("drawing")
    if rewrites:
        p.add_argument("--out")
        p.set_defaults(func=_rewrite.__name__, change=func.__name__)
    else:
        p.set_defaults(func=func.__name__)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. It names each handler, and
    ``main`` looks the name up when it runs, so a handler rebound after
    the first call (by a tracer, say) is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="modraft",
        description="Parametric drawing modules: create, edit, render, "
                    "specify, sign.")
    parser.add_argument(
        "--version", action="version",
        version=f"modraft {__version__} (drawing format {FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _file_command(sub, "new", cmd_new, "create an empty drawing file")
    p.add_argument("--extent", type=_rect_arg, required=True,
                   metavar="X0,Y0,X1,Y1")
    p.add_argument("--grid", type=_grid_arg, metavar="NX,NY",
                   help=f"zone grid size (default "
                        f"{DEFAULT_GRID_NX},{DEFAULT_GRID_NY})")

    p = _file_command(sub, "add", cmd_add, "add a module to a drawing",
                      rewrites=True)
    p.add_argument("--type", type=_type_arg, required=True)
    p.add_argument("--props", nargs="*", default=[], metavar="KEY=VALUE")

    p = _file_command(sub, "set", cmd_set,
                      "change module properties and regenerate", rewrites=True)
    p.add_argument("--id", type=_id_arg, required=True)
    p.add_argument("--props", nargs="+", required=True, metavar="KEY=VALUE")

    p = _file_command(sub, "edit", cmd_edit, "move, rotate or mirror a module",
                      rewrites=True)
    p.add_argument("--id", type=_id_arg, required=True)
    p.add_argument("--move", metavar="DX,DY", type=_reads_numbers(
        lambda t: _parse_floats(t, 2, "--move")))
    p.add_argument("--rotate", metavar="CX,CY,DEG", type=_reads_numbers(
        lambda t: _parse_floats(t, 3, "--rotate")))
    p.add_argument("--mirror", metavar="X,Y,AXIS_DEG", type=_reads_numbers(
        lambda t: _parse_floats(t, 3, "--mirror")))

    _file_command(sub, "list", cmd_list, "list drawing items")

    p = _file_command(sub, "render", cmd_render, "render a viewport to SVG")
    p.add_argument("--out", required=True)
    p.add_argument("--viewport", type=_rect_arg, metavar="X0,Y0,X1,Y1")
    p.add_argument("--cull", action="store_true",
                   help="accepted for compatibility; has no effect")

    p = sub.add_parser("spec", help="aggregate specification rows")
    p.add_argument("drawings", nargs="+")
    p.add_argument("--types", type=_types_arg)
    p.set_defaults(func=cmd_spec.__name__)

    p = _file_command(sub, "fill-table", cmd_fill_table,
                      "fill a table module from spec rows", rewrites=True)
    p.add_argument("--id", type=_id_arg, required=True)
    p.add_argument("--columns", type=_column_map_arg, required=True,
                   metavar="FIELD=INDEX,...")
    p.add_argument("--from", dest="sources", nargs="*", default=[],
                   metavar="DRAWING")
    p.add_argument("--types", type=_types_arg)

    p = sub.add_parser("check-dup", help="report duplicate position texts")
    p.add_argument("drawings", nargs="+")
    p.set_defaults(func=cmd_check_dup.__name__)

    p = _file_command(sub, "proto-save", cmd_proto_save,
                      "save modules as prototypes")
    p.add_argument("out")
    p.add_argument("--entry", action="append", required=True,
                   metavar="ID=NAME")

    p = _file_command(sub, "proto-load", cmd_proto_load,
                      "instantiate a prototype into a drawing", rewrites=True)
    p.add_argument("library")
    p.add_argument("--name", required=True)
    p.add_argument("--at", type=_point_arg, metavar="X,Y")
    p.add_argument("--angle", metavar="DEG", type=_reads_numbers(
        lambda t: _parse_floats(t, 1, "--angle")[0]))

    p = _file_command(sub, "catalog-apply", cmd_catalog_apply,
                      "copy a catalog entry onto a module", rewrites=True)
    p.add_argument("--id", type=_id_arg, required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--entry", required=True)

    p = _file_command(sub, "lightning-section", cmd_lightning_section,
                      "print protection radii at a section height")
    p.add_argument("--hx", required=True, metavar="METRES", type=_reads_numbers(
        lambda t: _parse_floats(t, 1, "--hx")[0]))
    p.add_argument("--id", type=_id_arg)

    p = _file_command(sub, "sign", cmd_sign, "sign a drawing", rewrites=True)
    p.add_argument("--person", required=True)
    p.add_argument("--position", required=True)
    p.add_argument("--date", required=True, metavar="YYYY-MM-DD")
    p.add_argument("--time", required=True, metavar="HH:MM")
    p.add_argument("--password", required=True)

    p = _file_command(sub, "verify", cmd_verify, "verify drawing signatures")
    p.add_argument("--password")

    return parser


_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _join_negative_values(parser: argparse.ArgumentParser,
                          argv: "list[str]") -> "list[str]":
    """Join each value such as "-3.5,2" or "-1e1", which argparse takes for an
    option name, to the option before it if that one reads numbers."""
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    options = {option for sub in subcommands.values() for action in sub._actions
               if getattr(action.type, "reads_numbers", False)
               for option in action.option_strings}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in options and _NEGATIVE_NUMBER.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(parser, argv))
    try:
        return globals()[args.func](args)
    except (KernelError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
