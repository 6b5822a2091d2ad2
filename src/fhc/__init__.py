"""fhc: a calculus for the quotient structure of iterated labeled forests.

The package decides and manipulates the combinatorial indices of hierarchy
levels: finite labeled forests under the embedding order, their iterated
(tree-labeled-by-tree) generalization, the term algebra describing the same
quotient symbolically, Cantor-normal-form ordinals driving the classical
level family, and segment/diagram machinery for the quotient poset.

The submodules load lazily: each is in ``sys.modules`` from the start, but
runs only when first read.
"""

import sys
from importlib.util import LazyLoader, module_from_spec, spec_from_file_location

for _name in ("forests", "iterated", "terms", "ordinals", "hierarchy", "notation"):
    _spec = spec_from_file_location(f"{__name__}.{_name}", f"{__path__[0]}/{_name}.py")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])


__version__ = "0.1.0"
