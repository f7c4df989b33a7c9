"""Exhaustive code search as a ground-truth oracle.

max_code_size finds the exact maximum size A_q(n, d) of a q-ary code of
length n and minimum distance d by branch-and-bound clique search on the
distance graph.  Small exact values double-check the analytic rate bound:
the rate of every extremal code must sit below it.
"""

import math

from qbounds import BoundParams, eb_rate_bound, serialize_code
from qbounds.oracle import max_code_size, pigeonhole_witness

size, witness = max_code_size(3, 4, 3)
print(f"A_3(4, 3) = {size}; an extremal code:")
print(serialize_code(witness))
assert witness.min_distance() == 3

print("small exact values vs the analytic rate bound:")
print(f"{'(q,n,d)':>10}  {'A_q(n,d)':>8}  {'rate':>8}  {'bound':>8}")
for q, n, d in [(2, 6, 2), (2, 7, 3), (3, 5, 2), (3, 4, 2)]:
    a, _ = max_code_size(q, n, d)
    rate = math.log(a) / (n * math.log(q))
    bound = eb_rate_bound(BoundParams(q=q, n=n, d=d)).rate_upper
    assert rate <= bound
    print(f"  ({q},{n},{d})   {a:8d}  {rate:8.4f}  {bound:8.4f}")

center, count = pigeonhole_witness(witness, 2)
print(f"\npigeonhole witness: radius-2 ball at {''.join(map(str, center))} "
      f"holds {count} codewords of the extremal code")
