"""modraft: a parametric drawing-module kernel.

A drawing is an ordered set of modules; each module keeps a typed property
set as its primary data and a fully derived geometric part that is
regenerated — deterministically, to the byte — whenever a property changes.
On top of the kernel sit prototype libraries, specification aggregation
across drawing files, electronic-catalog ingestion, lightning-protection
zone computation, content signatures and a viewport SVG renderer.
"""

from .canon import canonical_dumps, canonical_encode
from .core import (Module, WorkingModule, align_by_attach, create_module,
                   geometry_bytes, mirror_module, move_module,
                   placement_transform, rotate_module, set_properties,
                   spawn_working_modules)
from .errors import (CatalogError, FileFormatError, GenerationError,
                     IntegrityMismatch, KernelError, NoProtectionAtHeight,
                     OutOfMethodRange, SchemaViolation)
from .geometry import (Arc, Circle, Element, LineStyle, LineType, Point,
                       Polyline, Rect, Segment, Text, Transform, ZoneGrid,
                       apply_transform, element_bbox, element_from_json,
                       element_to_json, norm_deg, offset_path, snap_points)
from .integrity import (SignatureStatus, compute_digest, sign_drawing,
                        signature_mac, validate_signer_fields,
                        verify_signatures)
from .lightning import (LightningParams, Rod, ZoneClass, apex_height,
                        ground_radius, is_protected, single_rod_radius,
                        zone_sections)
from .persistence import (FORMAT_VERSION, Drawing, canonical_bytes,
                          load_drawing, load_drawing_file, load_prototypes,
                          save_drawing, save_drawing_file, save_prototypes)
from .properties import (Axis, ModuleType, PropKind, PropSpec,
                         russian_property_names, schema_for, validate_props)
from .render import palette, render_svg, visible_items
from .speccing import (Catalog, DuplicateGroup, SpecRow, apply_catalog_entry,
                       collect_spec_rows, fill_table_module,
                       find_duplicate_positions, load_catalog,
                       load_catalog_file)

__version__ = "0.1.0"

__all__ = [
    "__version__", "FORMAT_VERSION",
    # geometry
    "Point", "Transform", "LineType", "LineStyle", "Segment", "Polyline",
    "Arc", "Circle", "Text", "Element", "Rect", "ZoneGrid",
    "norm_deg", "element_bbox", "apply_transform",
    "snap_points", "offset_path", "element_to_json", "element_from_json",
    # properties and modules
    "Axis", "ModuleType", "PropKind", "PropSpec", "schema_for",
    "validate_props", "russian_property_names",
    "Module", "WorkingModule", "create_module", "set_properties",
    "move_module", "rotate_module", "mirror_module", "align_by_attach",
    "spawn_working_modules", "placement_transform", "geometry_bytes",
    # lightning
    "Rod", "ZoneClass", "LightningParams", "apex_height", "ground_radius",
    "single_rod_radius", "zone_sections", "is_protected",
    # persistence
    "Drawing", "canonical_bytes", "save_drawing", "load_drawing",
    "save_drawing_file", "load_drawing_file", "save_prototypes",
    "load_prototypes", "canonical_dumps", "canonical_encode",
    # integrity
    "SignatureStatus", "compute_digest", "signature_mac",
    "validate_signer_fields", "sign_drawing", "verify_signatures",
    # speccing
    "SpecRow", "DuplicateGroup", "Catalog", "collect_spec_rows",
    "find_duplicate_positions", "fill_table_module", "load_catalog",
    "load_catalog_file", "apply_catalog_entry",
    # render
    "palette", "visible_items", "render_svg",
    # errors
    "KernelError", "SchemaViolation", "GenerationError", "IntegrityMismatch",
    "FileFormatError", "CatalogError", "NoProtectionAtHeight",
    "OutOfMethodRange",
]
