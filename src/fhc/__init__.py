"""fhc: a calculus for the quotient structure of iterated labeled forests.

The package decides and manipulates the combinatorial indices of hierarchy
levels: finite labeled forests under the embedding order, their iterated
(tree-labeled-by-tree) generalization, the term algebra describing the same
quotient symbolically, Cantor-normal-form ordinals driving the classical
level family, and segment/diagram machinery for the quotient poset.
"""

from .forests import (
    ANTICHAIN,
    LabelPreorder,
    LForest,
    LTree,
    OracleBoundError,
    canonical_decomposition,
    h_leq,
    h_leq_oracle,
    is_join_irreducible,
    minimize,
)
from .iterated import (
    IForest,
    ITree,
    canonical,
    colim_leq,
    color,
    color_forest,
    dot_p,
    iminimize,
    itree,
    lift,
    r_drop,
    representative,
    s_lift,
    unlift,
)
from .terms import (
    Const,
    Dot,
    G,
    Join,
    encode,
    g_to_s,
    interpret,
    jump_height,
    restrict_level,
    s_to_g,
    term_leq,
    term_r,
    term_s,
    window_normalize,
)
from .ordinals import Ordinal, build_t, ord_compare, parse_ordinal, peel_last
from .hierarchy import (
    LevelDescriptor,
    QuotientSegment,
    SegmentBoundError,
    complete_witness,
    enumerate_segment,
    hasse_dot,
    level_relation,
)
from .notation import parse_forest, parse_term, serialize_forest, serialize_term

__version__ = "0.1.0"
