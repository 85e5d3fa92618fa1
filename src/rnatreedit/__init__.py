"""Comparison of RNA secondary structures as ordered labeled trees.

Implements the classical tree edit distance and its extension with node
and edge fusion, four RNA tree encodings, configurable cost models with a
validity checker, brute-force verification oracles, and a two-pass
multilevel comparison.

The oracle and multilevel exports load their module on first access, so
importing the package (or the CLI) does not pay for them.
"""

from importlib import import_module as _import_module

from .cost_models import (CostModel, InvalidTError, ValidityReport, named_model,
                          parse_model_config, structural_model, unit_model,
                          validate)
from .edit_distance import (Delete, DPTables, EdgeFusion, EdgeSplit, EditOp,
                            EditScript, Insert, NodeFusion, NodeSplit,
                            PreparedTree, Relabel, extract_script, prepare,
                            replay_script, validate_mapping, zs_distance)
from .fusion_distance import (FusionDPState, FusionParams, compare_trees,
                              extract_fusion_script, fusion_dp,
                              path_count_bound)
from .rna_structures import (ElementGraph, ElementKind, SecondaryStructure,
                             StructureElement, decompose, emit_ct,
                             emit_dotbracket, parse_ct, parse_dotbracket)
from .tree_model import (IndexedTree, Label, LabeledTree, TreeNode,
                         build, build_rep_b, build_rep_c, build_rep_d,
                         build_rep_e, index, to_dot, to_parenthesized,
                         trees_equal)

__version__ = "0.1.0"

_LAZY = {name: module for module, names in (
    ("multilevel", ("ColorAssignment", "ColoredRepB", "coarse_pass", "color_rep_b",
                    "fine_pass", "multilevel_compare")),
    ("oracle", ("BudgetExceededError", "SearchBudget", "mapping_oracle",
                "script_search_oracle")),
) for name in names}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [name for name in __dir__() if not name.startswith("_")]
