"""Closed forms and approximations for repeater-chain waiting times.

The exact mean is only known in closed form for one nesting level and for
deterministic swapping; everything else is an approximation with a known
character: the mean-only product and the 3-over-2 refinement undershoot
unless probabilities are small, the level-by-level geometric approximation
is exact at level one and degrades slowly, and the deterministic-swap mean
is always a lower bound.  The exact reference below comes from the
distribution-tracking engine.
"""

from qnd.chainformulas import (ChainParams, det_swap_mean,
                               det_swap_mean_cutoff, det_swap_mean_harmonic,
                               geometric_level_mean, mean_only,
                               single_repeater, three_over_two)
from qnd.disttrack import chain_distribution

print("=== single repeater, p_g = p_s = 0.5 (everything exact) ===")
params = ChainParams(n=1, p_g=0.5, p_s=0.5)
stats = single_repeater(params)
print(f"  both links ready after  <M0> = {stats.mean_m0:.6f} = 8/3")
print(f"  end-to-end delivery     <T1> = {stats.mean_t1:.6f} = 16/3")
print(f"  storage-age law: P(0) = {stats.storage_pmf(0):.4f}, "
      f"P(1) = {stats.storage_pmf(1):.4f}, P(2) = {stats.storage_pmf(2):.4f}")

print("\n=== approximation ladder at n = 3, p_g = 0.3, p_s = 0.6 ===")
params = ChainParams(n=3, p_g=0.3, p_s=0.6)
exact = chain_distribution(params).mean()
rows = [
    ("mean-only", mean_only(params)),
    ("3-over-2", three_over_two(params)),
    ("geometric-level", geometric_level_mean(params)),
    ("deterministic-swap", det_swap_mean(params.segments, params.p_g)),
    ("exact (tracked)", exact),
]
for name, value in rows:
    err = abs(value - exact) / exact
    print(f"  {name:>20}: {value:10.3f}   rel. error {err:8.2%}")

print("\n=== deterministic swapping: exact, harmonic, cut-off ===")
for n_seg in (4, 16, 256):
    exact = det_swap_mean(n_seg, 0.05)
    approx = det_swap_mean_harmonic(n_seg, 0.05)
    print(f"  N = {n_seg:4d}: exact {exact:9.3f}, "
          f"harmonic H(N)/p {approx:9.3f}")
print("  with a flat memory cut-off on N parallel links (N = 16, p_g = 0.3);")
print("  the nested chain of the chain engines has this mean only at N = 2:")
for tau in (1, 2, 4, 16, 1000):
    value = det_swap_mean_cutoff(16, 0.3, tau)
    print(f"    tau = {tau:4d}: mean {value:9.3f}")
print(f"    no cut-off:   mean {det_swap_mean(16, 0.3):9.3f}")
