"""Exact graph-minor testing, list-coloring, and random gadget constructions.

The package has four layers:

* :mod:`kstlab.graph` — immutable bitmask graphs, clique gluing, and the
  edge-list / JSON interchange formats.
* :mod:`kstlab.minors` — exact complete-bipartite-minor search with an
  independent brute-force oracle for cross-checking.
* :mod:`kstlab.listcolor` — list-coloring solver and exact k-choosability
  decisions on small graphs.
* :mod:`kstlab.construction` — random bipartite gadget sampling, the glued
  counterexample assembly with punched color lists, probability-bound
  exponents, and the choosability lower bound.
"""

from .graph import (
    CliqueGlueError,
    DuplicateEdgeWarning,
    Graph,
    GraphFormatError,
    GlueSpec,
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty,
    glue,
    induced_subgraph,
    parse,
    path,
    permuted,
    petersen,
    serialize,
)
from .listcolor import (
    ChoosabilityCapError,
    ChoosabilityVerdict,
    ListAssignment,
    find_l_coloring,
    is_k_choosable,
    uniform_lists,
    verify_coloring,
)
from .minors import (
    BranchModel,
    MinorQuery,
    MinorSearch,
    SearchStatus,
    find_kst_minor,
    model_violation,
    oracle_has_minor,
    verify_model,
)
from .construction import (
    AssemblyCapError,
    BlockCheck,
    BlockWitness,
    CounterexampleAssembly,
    DegreeCheck,
    EnumerationCapError,
    GadgetBuild,
    GadgetParams,
    LowerBound,
    SampleReport,
    SweepRow,
    block_collection_joined,
    block_failure_exponent,
    build_counterexample,
    build_gadget,
    check_block_property,
    check_degree_property,
    choosability_lower_bound,
    clique_gadget,
    degree_failure_exponent,
    degree_property_sweep,
    sample_bipartite,
    tiny_gadget,
    verify_no_l_coloring_pigeonhole,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyCapError",
    "BlockCheck",
    "BlockWitness",
    "BranchModel",
    "ChoosabilityCapError",
    "ChoosabilityVerdict",
    "CliqueGlueError",
    "CounterexampleAssembly",
    "DegreeCheck",
    "DuplicateEdgeWarning",
    "EnumerationCapError",
    "GadgetBuild",
    "GadgetParams",
    "Graph",
    "GraphFormatError",
    "GlueSpec",
    "ListAssignment",
    "LowerBound",
    "MinorQuery",
    "MinorSearch",
    "SampleReport",
    "SearchStatus",
    "SweepRow",
    "block_collection_joined",
    "block_failure_exponent",
    "build_counterexample",
    "build_gadget",
    "check_block_property",
    "check_degree_property",
    "choosability_lower_bound",
    "clique_gadget",
    "complement",
    "complete",
    "complete_bipartite",
    "cycle",
    "degree_failure_exponent",
    "degree_property_sweep",
    "empty",
    "find_kst_minor",
    "find_l_coloring",
    "glue",
    "induced_subgraph",
    "is_k_choosable",
    "model_violation",
    "oracle_has_minor",
    "parse",
    "path",
    "permuted",
    "petersen",
    "sample_bipartite",
    "serialize",
    "tiny_gadget",
    "uniform_lists",
    "verify_coloring",
    "verify_model",
    "verify_no_l_coloring_pigeonhole",
]
