"""Symmetry-rank thresholds: deriving the published tables from scratch.

For each odd prime p the rank bound at relative distance 1/4 yields a
threshold function F(n, p) = f1*n + 2.5*log_p n + ... whose leading slope
f1(p) climbs toward, and past, 3/8 as p grows.  Two derived integer tables
summarize its behaviour:

  n0(p) - the least length from which F(n, p) <= c(p) * n holds for
          every n >= n0(p),
  N(p)  - the largest length for which F(n, p) still beats the baseline
          rank floor(3n/8) + O(1) at every n in [16, N(p)].

Both are recomputed here and compared to the shipped reference values.
Each scan first proves, with an enclosure of F(n, p) - s n over whole
ranges of n (s = c(p), resp. 3/8), a length from which the comparison
holds (fails) for every larger n, and then searches the lengths below it,
so both tables hold for every n, not just up to a cap.
"""

from qbounds.geometry import (SUPPORTED_PRIMES, baseline_rank, constants,
                              derive_c_n0, derive_N, paper_tables,
                              threshold_F)

tables = paper_tables()
print(f"{'p':>3}  {'f1(p)':>9}  {'c(p)':>12}  {'n0 derived':>10}  "
      f"{'n0 ref':>7}  {'N derived':>9}  {'N ref':>7}")
for p in SUPPORTED_PRIMES:
    cn0 = derive_c_n0(p)
    N = derive_N(p)
    ref_n0 = tables["n0"][p]
    ref_N = tables["N"][p]
    assert cn0.n0 == ref_n0 and N.N == ref_N
    print(f"{p:3d}  {constants(p).f1:9.6f}  {str(cn0.c):>12}  "
          f"{cn0.n0:10d}  {ref_n0:7d}  {N.N:9d}  {ref_N:7d}")

print("\nall derived values match the shipped reference tables")

p, N3 = 3, tables["N"][3]
print(f"\nanchor behaviour at p={p}: F(n,3) vs baseline rank near N(3)={N3}")
for n in (N3 - 1, N3, N3 + 1):
    F = threshold_F(p, n)
    b = baseline_rank(n)
    marker = "holds" if F > b else "FAILS"
    print(f"  n={n:3d}: F = {F:8.4f}  baseline = {b:3d}  -> {marker}")
