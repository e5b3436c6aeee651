"""FDR-controlling multiple testing for group- and DAG-structured
hypotheses: weighted focused step-up procedures with data-adaptive weights,
rejection-set filters, p-value smoothing, and a Monte Carlo harness."""

from .combine import (Combiner, intersection_dag_pvalues,
                      smooth_all_descendants)
from .dag import (Dag, DepthIndex, GroupIndex, ancestors, build_dag,
                  check_heredity, compute_depths, descendants,
                  disjoint_descendant_depths, group_index, is_tree)
from .filters import FilterSpec, apply_filter, is_monotonic
from .procedures import (PROCEDURES, ProcedureResult, ReshapingFn, RunParams,
                         StructurePlan, bh, by_procedure, fbh, run_procedure,
                         storey_bh, unity_weights, weighted_reshaped_fbh,
                         wfbh, yekutieli_tree)
from .simulate import (MethodSpec, SimConfig, SimSummary, assign_truth,
                       condition1_check, generate_graph, run_simulation,
                       sample_pvalues, superuniformity_check)
from .weights import (WeightConfig, WeightVector, auto_dw, dag_weights,
                      min_possible_weight, storey_pi0)

__version__ = "0.1.0"

__all__ = [
    "Combiner", "intersection_dag_pvalues", "smooth_all_descendants",
    "Dag", "DepthIndex", "GroupIndex", "ancestors", "build_dag",
    "check_heredity", "compute_depths", "descendants",
    "disjoint_descendant_depths", "group_index", "is_tree",
    "FilterSpec", "apply_filter", "is_monotonic",
    "PROCEDURES", "ProcedureResult", "ReshapingFn", "RunParams",
    "StructurePlan", "bh", "by_procedure", "fbh", "run_procedure",
    "storey_bh", "unity_weights",
    "weighted_reshaped_fbh", "wfbh", "yekutieli_tree",
    "MethodSpec", "SimConfig", "SimSummary", "assign_truth",
    "condition1_check", "generate_graph", "run_simulation", "sample_pvalues",
    "superuniformity_check",
    "WeightConfig", "WeightVector", "auto_dw", "dag_weights",
    "min_possible_weight", "storey_pi0",
    "__version__",
]
