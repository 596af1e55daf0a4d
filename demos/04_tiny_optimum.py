"""Competitive ratios against the exact offline optimum on tiny trees.

For n = 3 the optimum is computed over all 6 layouts by dynamic programming
with exact swap distances, exhaustively over every length-6 sequence.
"""

import itertools

from satree import Policy, opt_cost

INIT = (0, 1, 2)

worst_ratio, worst_seq = 0.0, None
floor_tightness = float("inf")
for seq in itertools.product(range(3), repeat=6):
    opt = opt_cost(list(seq), INIT)
    p = Policy("move-half", 3)
    for v in seq:
        p.serve(v)
    if opt:
        ratio = p.ledger.cost_total / opt
        if ratio > worst_ratio:
            worst_ratio, worst_seq = ratio, seq
        floor_tightness = min(floor_tightness, opt / (p.ws.total / 4))

print("exhaustive n=3, all 3^6 = 729 sequences of length 6")
print(f"  worst move-half cost / optimum: {worst_ratio:.3f} at {worst_seq}")
print(f"  tightest optimum / (WS/4) floor: {floor_tightness:.3f}")
print("  (the guaranteed online gate is 64x; observed behaviour is far better)")

seq = [2, 1, 2, 0, 2, 2]
print(f"\nworked example, requests {seq}:")
print(f"  optimum = {opt_cost(seq, INIT)} swaps+hops")
for kind in ("move-half", "random-push", "max-push", "fixed"):
    p = Policy(kind, 3, seed=0)
    for v in seq:
        p.serve(v)
    print(f"  {kind:>12}: cost {p.ledger.cost_total}")
