"""Latin square substructure laboratory.

Counting and sampling for intercalates and cuboctahedra, triangle
removal processes with girth constraints, extremal intercalate bounds,
fractional triangle decompositions with regularity boosting, and
absorber constructions on tripartite graphs.
"""

__version__ = "0.1.0"

from .core import (
    InputError,
    LatinRectangle,
    LatinSquare,
    TripartiteGraph,
    TripleSystem,
    group_table,
    to_triples,
    validate,
)
from .counting import (
    count_cuboctahedra_nondegenerate,
    count_cuboctahedra_total,
    count_intercalates,
    count_intercalates_each,
    count_subsquares,
    cuboctahedron_report,
    girth,
)
from .rng import RandomStream, substream
from .sampling import (
    SamplerConfig,
    sample_rectangle,
    sample_rectangles,
    sample_squares,
)
from .process import ProcessConfig, run_process

__all__ = [
    "InputError",
    "LatinRectangle",
    "LatinSquare",
    "TripartiteGraph",
    "TripleSystem",
    "group_table",
    "to_triples",
    "validate",
    "count_cuboctahedra_nondegenerate",
    "count_cuboctahedra_total",
    "count_intercalates",
    "count_intercalates_each",
    "count_subsquares",
    "cuboctahedron_report",
    "girth",
    "RandomStream",
    "substream",
    "SamplerConfig",
    "sample_rectangle",
    "sample_rectangles",
    "sample_squares",
    "ProcessConfig",
    "run_process",
    "__version__",
]
