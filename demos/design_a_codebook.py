"""Design a 3-user codebook set and compare it against the shipped baseline.

The designer anneals the sharpness of a log-sum-exp soft minimum over all
pairwise rotated distances, then polishes at the sharpest setting under the
entry floor and per-user power constraints.
"""

import numpy as np

from scma_vlc import (
    DesignConfig,
    SystemParams,
    design,
    enumerate_superimposed,
    load_fixture,
    pairwise_report,
    power,
    save_codebook_set,
)

params = SystemParams(J=3, sigma2=0.01, varsigma2=5.0, Pe=30.0)
config = DesignConfig()

print(f"designing J={params.J} codebooks at Pe={params.Pe}, "
      f"shot-noise factor {params.varsigma2} ...")
result = design(params, config)
print(f"done in {result.wall_time:.1f}s, d_min = {result.final_d_min:.4f}")
print(f"active constraints: {result.active_constraints}")

for user, book in enumerate(result.set.books, start=1):
    print(f"\nuser {user} constellation "
          f"(power {power(book):.3f}):")
    print(np.array2string(book.C, precision=4, suppress_small=True))

baseline = load_fixture("ls-j3")
baseline_dmin = pairwise_report(
    enumerate_superimposed(baseline), params.varsigma2
).d_min
print(f"\nshipped baseline d_min = {baseline_dmin:.4f}")
print(f"designed / baseline     = {result.final_d_min / baseline_dmin:.3f}")

save_codebook_set(result.set, "designed-j3.scma")
print("\nwrote designed-j3.scma")
