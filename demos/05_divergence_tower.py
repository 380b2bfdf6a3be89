#!/usr/bin/env python3
"""A totally real tower whose splitting series keeps growing, built so that
adjoining i collapses the series to a finite bound.

Each stage extends the block of primes 3 mod 4 until the block sum (on the
previous compositum) reaches 1, then builds a quadratic field splitting every
prime 3 mod 4 and inerting every prime 1 mod 4 below the new threshold.  The
certified blocks make the partial sums grow by at least 1 per stage; changing
sides, primes 3 mod 4 go inert in Q(i), so after adjoining i every prime
contributes at most log(p)/(p^2+1) and the whole series stays under a finite
bound.

Thresholds grow doubly exponentially (n_1 = 32, n_2 = 3408, n_3 ~ 1.1e7), so
stage 3 needs a prescription modulus of ~16 million bits; the builder refuses
it with a resource error under the default budget.  Two stages tell the
whole story.
"""

import time

from splitlab import (
    PrimeRange,
    build_divergence_tower,
    certify_adjoin_i_convergence,
    tower_sum,
)
from splitlab.errors import ResourceBudgetError
from splitlab.traceio import trace_to_doc, verify_trace_doc

t0 = time.perf_counter()
trace = build_divergence_tower(2)
print(f"built 2 stages in {time.perf_counter() - t0:.1f}s\n")

for stage in trace.stages:
    m = stage.field_added.value
    shown = str(m) if m < 10**18 else f"{str(m)[:12]}... ({m.bit_length()} bits)"
    print(f"stage {stage.index}: threshold n = {stage.n}")
    print(f"  block of {len(stage.block_primes)} primes (3 mod 4), "
          f"sum {stage.block_sum:.4f} >= 1")
    print(f"  auxiliary split prime {stage.auxiliary_primes[0]}, new field m = {shown}")

print(f"\nverifier issues, every stage check re-derived from the trace: "
      f"{verify_trace_doc(trace_to_doc(trace))}")

report = tower_sum(
    trace.stage_fields(),
    PrimeRange(2, trace.stages[-1].n - 1),
    trace.block_certificates(),
    residue_filter=(3, 4),
)
print(f"\ncertified series sum over both blocks: {report.partial_sum:.4f} (>= 2)")

bound = certify_adjoin_i_convergence(trace, 10**6)
print(f"after adjoining i: series bounded by {bound.partial_sum:.4f} "
      f"+ tail {bound.tail_upper_bound:.2e} = {bound.total_upper_bound:.4f} < 0.6")

print("\nattempting stage 3 under the default budget:")
try:
    build_divergence_tower(3)
except ResourceBudgetError as exc:
    print(f"  ResourceBudgetError: {exc}")
