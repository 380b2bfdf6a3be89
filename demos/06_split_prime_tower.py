#!/usr/bin/env python3
"""A tower Q(sqrt(p_1), sqrt(p_2), ...) where each new prime splits
everything below it.

Stage i picks p_i = 1 (mod 4 * product of all primes up to n_i), which makes
every prime q <= n_i a square mod p_i, so q splits totally in Q(sqrt(p_i));
the congruence mod 8 also pins p_i = 1 (mod 4), making the field discriminant
exactly p_i.  Block-sum certificates keep the splitting series growing, and
the relative discriminant norms p_{i+1}^(1/4) grow without bound.

The progression modulus is the primorial of n_i: 840 at stage 1, ~10^82 at
stage 2, ~17k bits at stage 3.  The default bit budget stops at stage 2;
raise SPLITLAB_MODULUS_BITS above 18000 for stage 3, and expect about 18
minutes of scanning with libgmp (1062 s measured).
"""

import time

from splitlab import build_split_prime_tower
from splitlab.errors import ResourceBudgetError
from splitlab.traceio import trace_to_doc, verify_trace_doc

t0 = time.perf_counter()
trace = build_split_prime_tower(2)
print(f"built 2 stages in {time.perf_counter() - t0:.2f}s\n")

for stage in trace.stages:
    p = stage.field_added.value
    shown = str(p) if p < 10**18 else f"{str(p)[:12]}... ({p.bit_length()} bits)"
    print(f"stage {stage.index}: n = {stage.n}, p = {shown}")
    print(f"  block sum {stage.block_sum:.4f} >= 1 over "
          f"({len(stage.block_primes)} primes)")
    w = stage.widmer
    q = f"{w.quantity:.4f}" if w.quantity is not None else "exp(%.1f)" % w.log_quantity
    print(f"  discriminant-norm quantity p^(1/4) = {q}")

print(f"\nverifier issues, every stage check re-derived from the trace: "
      f"{verify_trace_doc(trace_to_doc(trace))}")

print("\nattempting stage 3 under the default budget:")
try:
    build_split_prime_tower(3)
except ResourceBudgetError as exc:
    print(f"  ResourceBudgetError: {exc}")
