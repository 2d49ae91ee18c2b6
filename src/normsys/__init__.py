"""Exact invariants and isomorphism decisions for antipodal sphere
arrangements, normal systems, and hyperplane arrangements over ordered
fields.

The public names are imported lazily (PEP 562): ``import normsys`` loads no
submodule, and the first use of a name imports its module and keeps the
value here.  A module of ``_EXPORTS`` resolves as an attribute too.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module and the public names it defines
_EXPORTS = {
    "field": ("QuadExt", "cmp_values", "format_value", "parse_value", "sign"),
    "linalg": ("Matrix", "det", "kernel_basis", "rank"),
    "chirotope": ("Chirotope", "SignedBijection"),
    "sphere": (
        "AntipodalArrangement",
        "ArrangementError",
        "SpherePoint",
        "oriented_complement_frame",
        "positive_combination",
        "project_arrangement",
    ),
    "cycles": ("CycleInvariantSet", "LineCycle", "all_cycle_invariants", "line_cycle"),
    "symbols": (
        "Symbol",
        "all_orbits",
        "all_symbols",
        "automorphisms",
        "compatible_symbols",
        "orbit",
        "standard_arrangement",
    ),
    "normal_systems": (
        "NormalSystem",
        "find_isomorphisms",
        "is_convex_positive_bijection",
        "oracle_isomorphisms",
    ),
    "arrangements": (
        "HyperplaneArrangement",
        "IsoResult",
        "Region",
        "adjacent_cone_constants",
        "arrangements_isomorphic",
        "concurrency_sign_map",
        "cone_facets",
        "definition_oracle_isomorphic",
        "enumerate_regions",
        "hyperplanes_from",
        "induced_sign_map",
        "is_infinity_arrangement",
        "is_simplex_polyhedrality",
        "normal_system_of",
        "polyhedralities",
        "predicted_counts",
        "region_counts",
    ),
    "fixtures": (
        "FIXTURE_IDS",
        "VERIFIABLE_IDS",
        "PaperFixture",
        "compatible_pair_graph",
        "load_fixture",
        "verify_all",
        "verify_fixture",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
