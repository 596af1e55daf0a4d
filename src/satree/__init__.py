"""Self-adjusting complete-tree networks under the swap-cost model.

Items live one-per-server on a perfect binary tree; requests arrive online
at the root and pay their item's depth, while relocations pay one unit per
parent-child swap.  The package bundles the online relocation policies,
working-set accounting and the MRU predicate, an exact push-down depth chain,
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
    expected_state_curve,
    walk_distribution,
)
from .oracle import opt_cost
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
)
from .workloads import WorkloadSpec, generate, read_trace, stream, zipf_frequencies
from .workset import (
    RankTable,
    WsAccumulator,
    is_mru,
    max_rank_item_at_depth,
    record,
)

__version__ = "0.1.0"
