"""Exact workbench for induced arrowing: decisions with certificates, witness
colorings built from structural recipes, lower-bound reports, and minimum-order
catalog sweeps."""

from .arrowing import (
    ArrowingResult,
    NotFoundBelow,
    arrows_complete_non_induced,
    ramsey_number_exact,
    strongly_arrows,
)
from .coloring import (
    BLUE,
    RED,
    EdgeColoring,
    Violation,
    blue_clique_free,
    find_mono_induced,
    red_component_independence_ok,
    red_isolatefree_independence_ok,
    verify_witness,
)
from .constructions import (
    Bound,
    BoundReport,
    ConstructionTrace,
    TraceStep,
    bound_report,
    chvatal_harary_bound,
    chvatal_harary_coloring,
    lemma2_coloring,
    lower_bound_connected,
    lower_bound_isolatefree,
    theorem1_coloring,
    theorem3_coloring,
    validate_trace,
)
from .errors import (
    ArrowheadError,
    CatalogError,
    ColoringMismatchError,
    ConstructionError,
    Graph6Error,
    OrderLimitError,
    PreconditionError,
)
from .graphs import (
    Embedding,
    Graph,
    check_embedding,
    chromatic_number,
    clique_number,
    complement,
    complete,
    components,
    cycle,
    disjoint_union,
    emit_graph6,
    find_induced_embedding,
    find_subgraph_embedding,
    independence_number,
    induced_subgraph,
    is_clique,
    is_connected,
    matching,
    parse_graph6,
    path,
    star,
)
from .search import (
    Catalog,
    IRResult,
    ResultCache,
    bundled_catalog,
    ir_exact,
)

__version__ = "0.1.0"
