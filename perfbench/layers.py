"""Per-layer metrics: what the tracer's totals mean, per operation.

Each metric names the functions it reads as ``<module>.<function>``, or as
``<module>.<function>@<binding module>`` when only calls made from one
module count. When none of them exists any more (a later change deleted
the function), the metric is reported as absent and reads 0.
"""

from __future__ import annotations

from typing import Callable


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _add(counts: dict, name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def _on_load(counts, args, kwargs, result, dur_ns):
    data = _arg(args, kwargs, 0, "data")
    _add(counts, "bytes_read", len(data) if isinstance(data, bytes)
         else len(data.encode("utf-8")))
    _add(counts, "modules_loaded", len(result.modules()))


def _on_save(counts, args, kwargs, result, dur_ns):
    _add(counts, "bytes_written", len(result))


def _on_generate(counts, args, kwargs, result, dur_ns):
    _add(counts, "elements", len(result))
    if _arg(args, kwargs, 0, "mtype") == "lightning":
        _add(counts, "lightning_ns", dur_ns)


def _on_encode(counts, args, kwargs, result, dur_ns):
    _add(counts, "bytes_encoded", len(result))


def _on_visible(counts, args, kwargs, result, dur_ns):
    _add(counts, "items_scanned", len(_arg(args, kwargs, 0, "d").items))
    _add(counts, "items_visible", len(result))


def _on_render(counts, args, kwargs, result, dur_ns):
    _add(counts, "svg_bytes", len(result.encode("utf-8")))


def _on_spec(counts, args, kwargs, result, dur_ns):
    rows, _errors = result
    _add(counts, "spec_rows", len(rows))
    _add(counts, "spec_modules", sum(row.qty for row in rows))


HOOKS = {
    "persistence.load_drawing": _on_load,
    "persistence.save_drawing": _on_save,
    "generators.generate_local": _on_generate,
    "canon.canonical_encode": _on_encode,
    "render.visible_items": _on_visible,
    "render.render_svg": _on_render,
    "speccing.collect_spec_rows": _on_spec,
}


class Totals:
    """The tracer's per-binding totals, summed per function on demand."""

    def __init__(self, totals: dict[str, tuple[int, int, int]],
                 counts: dict[str, float]):
        self._totals = totals
        self.counts = counts

    def _rows(self, name: str):
        definer, at, site = name.partition("@")
        for key, row in self._totals.items():
            key_definer, _, key_site = key.partition("@")
            if key_definer == definer and (not at or key_site == site):
                yield row

    def present(self, name: str) -> bool:
        return any(True for _ in self._rows(name))

    def calls(self, *names: str) -> int:
        return sum(row[0] for name in names for row in self._rows(name))

    def incl_ns(self, *names: str) -> int:
        return sum(row[1] for name in names for row in self._rows(name))

    def self_ns(self, *names: str) -> int:
        return sum(row[2] for name in names for row in self._rows(name))

    def module_self_ns(self, module: str) -> int:
        return sum(row[2] for key, row in self._totals.items()
                   if key.startswith(module + "."))

    def count(self, name: str) -> float:
        return self.counts.get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, functions read, value from (totals, ops)): values
# are per operation, except ratios and speccing.rows (per collect_spec_rows).
Metric = tuple[str, str, tuple[str, ...], Callable[[Totals, int], float]]


def _ms(reader: Callable[[Totals], int]) -> Callable[[Totals, int], float]:
    return lambda t, ops: reader(t) / 1e6 / ops


def _per_op(reader: Callable[[Totals], float]) -> Callable[[Totals, int], float]:
    return lambda t, ops: reader(t) / ops


def _whole(reader: Callable[[Totals], float]) -> Callable[[Totals, int], float]:
    return lambda t, ops: reader(t)


_LOAD = "persistence.load_drawing"
_CREATE = "core.create_module"
_GENERATE = "generators.generate_local"
_SPEC = ("speccing.collect_spec_rows", "speccing.find_duplicate_positions")

METRICS: list[Metric] = [
    ("persistence.load_ms", "ms", (_LOAD,), _ms(lambda t: t.incl_ns(_LOAD))),
    ("persistence.load_self_ms", "ms", (_LOAD,),
     _ms(lambda t: t.self_ns(_LOAD))),
    ("persistence.compare_ms", "ms", ("core.geometry_bytes@persistence",),
     _ms(lambda t: t.incl_ns("core.geometry_bytes@persistence"))),
    ("persistence.save_ms", "ms", ("persistence.save_drawing",),
     _ms(lambda t: t.incl_ns("persistence.save_drawing"))),
    ("persistence.file_read_ms", "ms", ("persistence.load_drawing_file",),
     _ms(lambda t: t.self_ns("persistence.load_drawing_file"))),
    ("persistence.file_write_ms", "ms", ("persistence.save_drawing_file",),
     _ms(lambda t: t.self_ns("persistence.save_drawing_file"))),
    ("persistence.bytes_read", "bytes", (_LOAD,),
     _per_op(lambda t: t.count("bytes_read"))),
    ("persistence.bytes_written", "bytes", ("persistence.save_drawing",),
     _per_op(lambda t: t.count("bytes_written"))),
    ("persistence.modules_loaded", "count", (_LOAD,),
     _per_op(lambda t: t.count("modules_loaded"))),
    ("properties.decode_ms", "ms", ("properties.props_from_json",),
     _ms(lambda t: t.incl_ns("properties.props_from_json"))),
    ("properties.validate_ms", "ms", ("properties.validate_props",),
     _ms(lambda t: t.incl_ns("properties.validate_props"))),
    ("properties.validate_calls", "count", ("properties.validate_props",),
     _per_op(lambda t: t.calls("properties.validate_props"))),
    ("properties.encode_ms", "ms", ("properties.props_to_json",),
     _ms(lambda t: t.incl_ns("properties.props_to_json"))),
    ("generators.generate_ms", "ms", (_GENERATE,),
     _ms(lambda t: t.incl_ns(_GENERATE))),
    ("generators.calls", "count", (_GENERATE,),
     _per_op(lambda t: t.calls(_GENERATE))),
    ("generators.calls_per_module", "ratio", (_GENERATE, _CREATE),
     _whole(lambda t: _ratio(t.calls(_GENERATE), t.calls(_CREATE)))),
    ("generators.elements", "count", (_GENERATE,),
     _per_op(lambda t: t.count("elements"))),
    ("lightning.generate_ms", "ms", (_GENERATE,),
     _ms(lambda t: t.count("lightning_ns"))),
    ("geometry.transform_ms", "ms", ("geometry.apply_transform",),
     _ms(lambda t: t.incl_ns("geometry.apply_transform"))),
    ("geometry.bbox_ms", "ms", ("geometry.element_bbox",),
     _ms(lambda t: t.incl_ns("geometry.element_bbox"))),
    ("geometry.zone_mask_ms", "ms", ("geometry.compute_zone_mask",),
     _ms(lambda t: t.incl_ns("geometry.compute_zone_mask"))),
    ("geometry.element_decode_ms", "ms", ("geometry.element_from_json",),
     _ms(lambda t: t.incl_ns("geometry.element_from_json"))),
    ("geometry.element_encode_ms", "ms", ("geometry.element_to_json",),
     _ms(lambda t: t.incl_ns("geometry.element_to_json"))),
    ("geometry.element_encode_calls", "count", ("geometry.element_to_json",),
     _per_op(lambda t: t.calls("geometry.element_to_json"))),
    ("core.create_self_ms", "ms", (_CREATE,), _ms(lambda t: t.self_ns(_CREATE))),
    ("core.create_calls", "count", (_CREATE,), _per_op(lambda t: t.calls(_CREATE))),
    ("core.geometry_bytes_ms", "ms", ("core.geometry_bytes",),
     _ms(lambda t: t.incl_ns("core.geometry_bytes"))),
    ("core.geometry_bytes_calls", "count", ("core.geometry_bytes",),
     _per_op(lambda t: t.calls("core.geometry_bytes"))),
    ("canon.encode_ms", "ms", ("canon.canonical_encode",),
     _ms(lambda t: t.incl_ns("canon.canonical_encode"))),
    ("canon.encode_calls", "count", ("canon.canonical_encode",),
     _per_op(lambda t: t.calls("canon.canonical_encode"))),
    ("canon.bytes_encoded", "bytes", ("canon.canonical_encode",),
     _per_op(lambda t: t.count("bytes_encoded"))),
    ("integrity.verify_ms", "ms", ("integrity.verify_signatures",),
     _ms(lambda t: t.incl_ns("integrity.verify_signatures"))),
    ("integrity.digest_ms", "ms", ("integrity.compute_digest",),
     _ms(lambda t: t.incl_ns("integrity.compute_digest"))),
    ("integrity.digest_calls_per_verify", "ratio",
     ("integrity.compute_digest", "integrity.verify_signatures"),
     _whole(lambda t: _ratio(t.calls("integrity.compute_digest"),
                             t.calls("integrity.verify_signatures")))),
    ("integrity.mac_ms", "ms", ("integrity.signature_mac",),
     _ms(lambda t: t.incl_ns("integrity.signature_mac"))),
    ("render.visible_ms", "ms", ("render.visible_items",),
     _ms(lambda t: t.incl_ns("render.visible_items"))),
    ("render.emit_self_ms", "ms", ("render.render_svg",),
     _ms(lambda t: t.self_ns("render.render_svg"))),
    ("render.items_scanned", "count", ("render.visible_items",),
     _per_op(lambda t: t.count("items_scanned"))),
    ("render.items_visible", "count", ("render.visible_items",),
     _per_op(lambda t: t.count("items_visible"))),
    ("render.visible_ratio", "ratio", ("render.visible_items",),
     _whole(lambda t: _ratio(t.count("items_visible"), t.count("items_scanned")))),
    ("render.svg_bytes", "bytes", ("render.render_svg",),
     _per_op(lambda t: t.count("svg_bytes"))),
    ("speccing.scan_self_ms", "ms", _SPEC, _ms(lambda t: t.self_ns(*_SPEC))),
    ("speccing.files", "count", ("persistence.load_drawing_file@speccing",),
     _per_op(lambda t: t.calls("persistence.load_drawing_file@speccing"))),
    ("speccing.rows", "count", ("speccing.collect_spec_rows",),
     _whole(lambda t: _ratio(t.count("spec_rows"),
                             t.calls("speccing.collect_spec_rows")))),
    ("speccing.merge_ratio", "ratio", ("speccing.collect_spec_rows",),
     _whole(lambda t: _ratio(t.count("spec_rows"), t.count("spec_modules")))),
    ("cli.self_ms", "ms", ("cli.main",), _ms(lambda t: t.module_self_ns("cli"))),
]


def layer_metrics(totals: Totals, ops: int) -> tuple[dict[str, dict], list[str]]:
    """Every per-layer metric as {name: {"value", "unit"}}, and the names of
    those whose functions no longer exist."""
    out, absent = {}, []
    for name, unit, reads, value in METRICS:
        if any(totals.present(r) for r in reads):
            out[name] = {"value": value(totals, ops), "unit": unit}
        else:
            absent.append(name)
            out[name] = {"value": 0.0, "unit": unit}
    return out, absent
