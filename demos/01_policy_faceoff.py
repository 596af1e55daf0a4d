"""Compare the relocation policies on skewed and uniform workloads.

Each policy serves the same request sequences on its own tree; the table
reports total cost split into access and adjustment swaps, plus the ratio
against the working-set floor WS/4 that no algorithm can beat.
"""

from satree import WorkloadSpec, run

N = 127
M = 50_000

print(f"n = {N}, m = {M}\n")
header = f"{'policy':>12} {'workload':>16} {'access':>9} {'adjust':>9} {'cost':>9} {'WS':>10} {'cost/WS':>8}"
for workload, extra in (("zipf", {"alpha": 1.0}), ("uniform", {}), ("cyclic", {"subset_size": 16})):
    print(header)
    for algo in ("move-half", "random-push", "max-push", "static-mfu", "fixed"):
        rep = run(algo, WorkloadSpec(kind=workload, n=N, m=M, seed=7, **extra))
        print(
            f"{rep.policy:>12} {rep.workload:>16} {rep.access_total:>9} {rep.adjust_total:>9}"
            f" {rep.cost_total:>9} {rep.ws_bound:>10.1f} {rep.ratio_cost_over_ws:>8.2f}"
        )
        assert rep.cost_total >= rep.ws_bound / 4
    print()

print("every run sits above the WS/4 floor, as it must")
