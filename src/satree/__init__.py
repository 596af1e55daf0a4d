"""Self-adjusting complete-tree networks under the swap-cost model.

Items live one-per-server on a perfect binary tree; requests arrive online
at the root and pay their item's depth, while relocations pay one unit per
parent-child swap.  The package bundles the online relocation policies,
working-set accounting and MRU diagnostics, an exact push-down depth chain,
a brute-force offline optimum for tiny trees, workload generators, and a
benchmark harness with a CLI front end.
"""

from .bench import (
    RunReport,
    emit,
    random_push_rank_stats,
    run,
    workload_frequencies,
)
from .markov import (
    DepthDistribution,
    binomial_identity,
    concavity_check,
    expected_state,
    expected_state_curve,
    stochastically_leq,
    walk_distribution,
)
from .oracle import opt_cost, swap_distance
from .policies import (
    Policy,
    build_static_mfu,
    expected_path_length,
)
from .tree import (
    CostLedger,
    TreeState,
    depth,
    interchange,
    routing_header,
    tree_distance,
    tree_path,
)
from .workloads import WorkloadSpec, generate, read_trace, zipf_frequencies
from .workset import (
    RankTable,
    WsAccumulator,
    bad_pairs,
    is_mru,
    is_mru_beta,
    max_rank_item_at_depth,
    rank,
    ranks,
    record,
)

__version__ = "0.1.0"
