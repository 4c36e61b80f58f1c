"""The public ``kstlab.*`` names.  Adding or removing a public name is a
deliberate change: it has to edit the list below."""

from __future__ import annotations

import dataclasses
import inspect

import kstlab
from kstlab import construction, listcolor

PUBLIC_NAMES = [
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
    "GlueSpec",
    "Graph",
    "GraphFormatError",
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


def test_public_names_are_pinned():
    assert sorted(kstlab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(kstlab, name) is not None
    # retired: test-only helpers and an unused build_gadget keyword
    assert not hasattr(kstlab, "CounterexampleParams")
    assert not hasattr(construction, "CounterexampleParams")
    assert not hasattr(kstlab, "greedy_degeneracy_bound")
    assert not hasattr(listcolor, "greedy_degeneracy_bound")
    assert "block_node_cap" not in inspect.signature(kstlab.build_gadget).parameters


def test_sampled_block_check_is_retired():
    # the block property has one exact check; nothing chooses a mode or
    # draws trials for it any more
    def params(fn):
        return inspect.signature(fn).parameters

    assert not {"mode", "trials", "seed"} & params(kstlab.check_block_property).keys()
    assert not {"block_mode", "block_trials"} & params(kstlab.build_gadget).keys()
    assert "block_trials" not in params(kstlab.degree_property_sweep)
    fields = [f.name for f in dataclasses.fields(kstlab.SweepRow)]
    assert fields == ["n", "seed", "p", "max_degree", "degree_pass"]


def test_choosability_verdict_fields_keep_their_positions():
    # the work count is the last field and defaults to 0, so verdicts built
    # positionally with four fields still construct
    fields = [f.name for f in dataclasses.fields(kstlab.ChoosabilityVerdict)]
    assert fields == ["k", "choosable", "witness", "universe_size", "assignments"]
    assert kstlab.ChoosabilityVerdict(2, True, None, 8).assignments == 0
