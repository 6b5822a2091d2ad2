"""fhc: a calculus for the quotient structure of iterated labeled forests.

The package decides and manipulates the combinatorial indices of hierarchy
levels: finite labeled forests under the embedding order, their iterated
(tree-labeled-by-tree) generalization, the term algebra describing the same
quotient symbolically, Cantor-normal-form ordinals driving the classical
level family, and segment/diagram machinery for the quotient poset.

The submodules load lazily: each is in ``sys.modules`` from the start, but
runs only when first read, as do the package names taken from it.
"""

import sys
from importlib.util import LazyLoader, module_from_spec, spec_from_file_location

#: the public names of the package, by the module that defines them
_MODULES = {
    "forests": "ANTICHAIN BoundError LabelPreorder OracleBoundError"
               " canonical_decomposition h_leq h_leq_oracle is_join_irreducible minimize",
    "iterated": "IForest ITree canonical colim_leq color color_forest dot_p iminimize itree"
                " lift r_drop representative s_lift unlift",
    "terms": "Const Dot G Join encode g_to_s interpret jump_height restrict_level s_to_g"
             " term_leq term_r term_s window_normalize",
    "ordinals": "Ordinal build_t ord_compare parse_ordinal peel_last",
    "hierarchy": "LevelDescriptor QuotientSegment SegmentBoundError complete_witness"
                 " enumerate_segment hasse_dot level_relation",
    "notation": "parse_forest parse_term serialize_forest serialize_term",
}
_PUBLIC = {name: module for module, names in _MODULES.items() for name in names.split()}

for _name in _MODULES:
    _spec = spec_from_file_location(f"{__name__}.{_name}", f"{__path__[0]}/{_name}.py")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])


def __getattr__(name: str):
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_PUBLIC[name]], name)


__version__ = "0.1.0"
