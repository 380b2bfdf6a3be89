"""Executable field constructions, each emitting a verifiable certificate trace.

Four builders live here: quadratic fields with prescribed splitting at a
finite set of primes, the divergence tower (a totally real compositum whose
splitting series grows without bound while adjoining i caps it), the
split-prime tower (every stage's prime splits everything below it, with
discriminant-norm growth certificates), and reciprocity companion searches.

Each tower has one stage rule, a function listing every way a stage breaks
it.  The builders raise VerificationError on any problem it finds, as on a
quadratic field that misses its prescription, and traceio's verifier reports
the same texts as issues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ResourceBudgetError, VerificationError
from .multiquadratic import MultiquadField, is_totally_real, linearly_disjoint, totally_split
from .primes import (
    DEFAULT_AP_BUDGET,
    DEFAULT_SIEVE_CEILING,
    crt_solve,
    find_prime_in_ap,
    is_prime,
    iter_primes,
    prime_segments,
    smallest_nonresidue,
)
from .quadratic import SplittingType, SquarefreeInt, splitting_type
from .scan import scan
from .series import (
    Ratios,
    SeriesReport,
    StabilizationCertificate,
    enclosure,
    first_reaching,
    range_terms,
    segment_terms,
    tail_bound_fully_inert,
    term_ratios,
)

TWO_UNCONSTRAINED = "unconstrained"
TWO_SPLIT = "split"
TWO_INERT = "inert"
TWO_RAMIFIED = "ramified"

SIGNATURE_REAL = "totally_real"
SIGNATURE_COMPLEX = "totally_complex"

# Large enough for the reachable tower stages (the two-stage divergence tower
# needs ~4.9k bits), small enough that the doubly exponential later stages
# fail fast with a resource error instead of grinding for hours.
DEFAULT_MODULUS_BIT_BUDGET = 8192
DEFAULT_STAGE_CAP = 4

THM12_TOWER = "thm12-tower"
PROP71_TOWER = "prop71-tower"
CONSTRUCT_QUADRATIC = "construct-quadratic"


@dataclass(frozen=True)
class SplittingSpec:
    """Prescribed behaviour at disjoint finite sets of odd primes, plus the
    prime 2 and the infinite place."""

    split: frozenset[int] = frozenset()
    inert: frozenset[int] = frozenset()
    ramified: frozenset[int] = frozenset()
    two_behavior: str = TWO_UNCONSTRAINED
    signature: str = SIGNATURE_REAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "split", frozenset(self.split))
        object.__setattr__(self, "inert", frozenset(self.inert))
        object.__setattr__(self, "ramified", frozenset(self.ramified))
        if self.two_behavior not in (TWO_UNCONSTRAINED, TWO_SPLIT, TWO_INERT, TWO_RAMIFIED):
            raise ValueError(f"unknown two_behavior {self.two_behavior!r}")
        if self.signature not in (SIGNATURE_REAL, SIGNATURE_COMPLEX):
            raise ValueError(f"unknown signature {self.signature!r}")
        sets = (self.split, self.inert, self.ramified)
        for name, s in zip(("split", "inert", "ramified"), sets):
            for p in s:
                if type(p) is not int:
                    raise ValueError(f"prime {p!r} is not an integer")
                if p == 2 or not is_prime(p):
                    raise ValueError(f"{name} set must contain odd primes, got {p}")
        if self.split & self.inert or self.split & self.ramified or self.inert & self.ramified:
            raise ValueError("split, inert and ramified sets must be pairwise disjoint")
        if not (self.split or self.inert or self.ramified) and self.two_behavior == TWO_UNCONSTRAINED:
            raise ValueError("at least one constraint must be nonempty")


def proof_factor_base(spec: Optional[SplittingSpec]) -> set[int]:
    """2 and the prescribed primes: the primes a generator's n - 1 proof may
    use.  They divide the CRT modulus, so a cofactor t = 1 mod that modulus
    is proved over them."""
    return {2} if spec is None else {2, *spec.split, *spec.inert, *spec.ramified}


def construct_prescribed_quadratic(
    spec: SplittingSpec,
    *,
    ap_budget: int = DEFAULT_AP_BUDGET,
    modulus_bit_budget: int = DEFAULT_MODULUS_BIT_BUDGET,
) -> SquarefreeInt:
    """Smallest certifiable squarefree m realizing the prescription in Q(sqrt(m)).

    The residue conditions (a square mod each split prime, a fixed non-residue
    mod each inert prime, exact valuation 1 at each ramified prime, the mod-8
    condition for 2, the sign for the signature) are combined by CRT on the
    cofactor t of m = sign * (ramified product) * t; t is then the smallest
    prime in that class.  A prime cofactor keeps the output fully factored and
    never a square, so the result is certifiable by construction.
    """
    sigma = -1 if spec.signature == SIGNATURE_COMPLEX else 1
    ram_primes = sorted(spec.ramified)
    if spec.two_behavior == TWO_RAMIFIED:
        ram_primes = [2] + ram_primes
    ram_product = math.prod(ram_primes) if ram_primes else 1
    signed = sigma * ram_product

    congruences: list[tuple[int, int]] = []
    for p in sorted(spec.split):
        congruences.append((pow(signed % p, -1, p), p))
    for q in sorted(spec.inert):
        a = smallest_nonresidue(q)
        congruences.append((a * pow(signed % q, -1, q) % q, q))
    for ell in sorted(spec.ramified):
        cof = signed // ell
        congruences.append((pow(cof % ell, -1, ell), ell))
    if spec.two_behavior == TWO_SPLIT:
        congruences.append((pow(signed % 8, -1, 8), 8))
    elif spec.two_behavior == TWO_INERT:
        congruences.append((5 * pow(signed % 8, -1, 8) % 8, 8))
    elif spec.two_behavior == TWO_RAMIFIED:
        congruences.append((1, 2))  # odd cofactor keeps the valuation at 2 exact

    residue, modulus = crt_solve(congruences)
    if modulus.bit_length() > modulus_bit_budget:
        raise ResourceBudgetError(
            f"prescription needs a CRT modulus of {modulus.bit_length()} bits, "
            f"over the budget of {modulus_bit_budget}"
        )
    t = find_prime_in_ap(
        residue, modulus, 1, budget=ap_budget, factor_base=proof_factor_base(spec)
    )
    result = SquarefreeInt.from_prime_factors(sigma, ram_primes + [t])
    problems = prescription_problems(result, spec)
    if problems:
        raise VerificationError(
            f"constructed m={result.value} fails its own prescription: " + "; ".join(problems)
        )
    return result


def prescription_problems(m: SquarefreeInt, spec: SplittingSpec) -> list[str]:
    """Every way Q(sqrt(m)) misses the prescription, one message each."""
    problems = []
    wanted = (
        (spec.split, SplittingType.SPLIT),
        (spec.inert, SplittingType.INERT),
        (spec.ramified, SplittingType.RAMIFIED),
    )
    for primes, expected in wanted:
        for p in sorted(primes):
            got = splitting_type(m, p)
            if got is not expected:
                problems.append(f"p={p}: wanted {expected.value}, got {got.value}")
    if spec.two_behavior != TWO_UNCONSTRAINED:
        got2 = splitting_type(m, 2)
        if got2.value != spec.two_behavior:
            problems.append(f"p=2: wanted {spec.two_behavior}, got {got2.value}")
    if spec.signature == SIGNATURE_REAL and m.value < 0:
        problems.append("wanted a totally real field, got negative m")
    if spec.signature == SIGNATURE_COMPLEX and m.value > 0:
        problems.append("wanted a totally complex field, got positive m")
    return problems


# ---------------------------------------------------------------------------
# Certificate records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WidmerTerm:
    """Discriminant-norm growth certificate for one tower step.

    The relative discriminant norm for the step into `stage` is
    norm_base ** norm_exponent, and the Widmer quantity is its
    1/([L:Q][L:L_prev])-th root, i.e. norm_base ** (1/4); only its logarithm
    is stored since the primes grow past float range.
    """

    stage: int
    norm_base: int
    norm_exponent: int
    log_quantity: float

    @property
    def quantity(self) -> Optional[float]:
        try:
            return math.exp(self.log_quantity)
        except OverflowError:
            return None


def widmer_term(stage: int, p: int) -> WidmerTerm:
    """The discriminant-norm record of a split-prime stage whose generator is the prime p."""
    return WidmerTerm(stage=stage, norm_base=p, norm_exponent=1 << (stage - 1),
                      log_quantity=math.log(p) / 4.0)


@dataclass(frozen=True)
class StageRecord:
    index: int
    n: int
    auxiliary_primes: tuple[int, ...]
    field_added: SquarefreeInt
    cumulative_field: MultiquadField
    block_primes: tuple[int, ...]
    block_sum: float
    widmer: Optional[WidmerTerm] = None


@dataclass
class ConstructionTrace:
    """A construction's stages.  It comes from a builder, which raises on any
    stage that breaks its rule, or from traceio.trace_from_doc, whose records
    are the ones the verifier derived."""

    construction: str
    params: dict
    stages: tuple[StageRecord, ...]

    def stage_fields(self) -> list[MultiquadField]:
        """[Q, L_1, ..., L_K]: the cumulative fields with the base field first."""
        return [MultiquadField.rationals()] + [s.cumulative_field for s in self.stages]

    def block_certificates(self) -> list[StabilizationCertificate]:
        """One stabilization certificate per block prime: the block of stage k
        is evaluated on the previous compositum, index k-1 in stage_fields()."""
        certs = []
        for s in self.stages:
            for p in s.block_primes:
                certs.append(StabilizationCertificate(prime=p, stage=s.index - 1))
        return certs


# ---------------------------------------------------------------------------
# Shared scanning helpers
# ---------------------------------------------------------------------------


def valid_sum_target(sum_target: float) -> bool:
    """The towers' block sum target rule: finite and positive."""
    return math.isfinite(sum_target) and sum_target > 0


# The budgets a tower's params record, each a positive integer.
TOWER_BUDGETS = ("ap_budget", "sieve_ceiling", "modulus_bit_budget")


def _tower_params(num_stages: int, sum_target: float, *, stage_cap: int, **budgets) -> dict:
    """Check a tower builder's arguments; returns them as the trace's params."""
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    if num_stages > stage_cap:
        raise ValueError(f"num_stages {num_stages} exceeds the stage cap {stage_cap}")
    if not valid_sum_target(sum_target):
        raise ValueError("sum_target_per_block must be finite and positive")
    for name, value in budgets.items():
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return {"stages": num_stages, "sum_target": sum_target, **budgets}


def _scan_block(
    field: MultiquadField, lo: int, target: float, residue_filter: Optional[tuple[int, int]],
    *, sieve_ceiling: int, stage: int, hi: Optional[int] = None,
) -> tuple[list[int], float, int, bool]:
    """Collect the range_terms terms from `lo` until their real sum reaches the
    target, as series.first_reaching decides it; returns (block primes, block
    math.fsum, last prime, whether the block reached the target).  A block still
    short at `hi` is returned with hi as its last prime; one short at the sieve
    ceiling raises."""
    end = sieve_ceiling if hi is None else min(hi, sieve_ceiling)
    block: list[int] = []
    terms: list[float] = []
    sums: list[float] = []  # per segment, the fsum of its terms
    rows: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def ratios(k: int) -> Ratios:
        return term_ratios(*(np.concatenate(column)[:k] for column in zip(*rows)))

    for p, e, f, seg_terms in range_terms(
        field, lo, end, residue_filter=residue_filter, sieve_ceiling=sieve_ceiling
    ):
        block += p.tolist()
        seg = seg_terms.tolist()
        terms += seg
        sums.append(math.fsum(seg))
        rows.append((p, e, f))
        # The enclosure of the total of segment fsums holds the real sum too, so
        # while its top stays below the target, so does every prefix's real sum.
        if enclosure(math.fsum(sums))[1] < target:
            continue
        k = first_reaching(terms, target, ratios)
        if k is not None:
            return block[:k], math.fsum(terms[:k]), block[k - 1], True
    if end == hi:  # the range ran out before the sieve did
        return block, math.fsum(terms), hi, False
    raise ResourceBudgetError(
        f"stage {stage}: block scan exhausted the sieve ceiling {sieve_ceiling}"
    )


@dataclass(frozen=True)
class BlockShape:
    """A tower's block rule: stage k's block holds the primes from n_{k-1} + after
    that pass residue_filter, up to the first whose term lifts the block sum to
    the target, and n_k is that prime plus past_last."""

    after: int
    residue_filter: Optional[tuple[int, int]]
    past_last: int

    def block(self, field: MultiquadField, n_prev: int, target: float, *, sieve_ceiling: int,
              stage: int, n: Optional[int] = None) -> tuple[list[int], float, int, bool]:
        """(block primes, block sum, n_k, reached) on `field`; a stored n_k ends the
        scan at the last prime it admits, and a block short of the target there keeps
        that n_k with reached False."""
        block, total, last, reached = _scan_block(
            field, n_prev + self.after, target, self.residue_filter, sieve_ceiling=sieve_ceiling,
            stage=stage, hi=None if n is None else n - self.past_last)
        return block, total, last + self.past_last, reached


DIVERGENCE_BLOCK = BlockShape(after=0, residue_filter=(3, 4), past_last=1)  # [n_{k-1}, n_k)
SPLIT_PRIME_BLOCK = BlockShape(after=1, residue_filter=None, past_last=0)  # (n_{i-1}, n_i]


def divergence_prescription(n: int, *, sieve_ceiling: int) -> tuple[list[int], list[int]]:
    """(split, inert): the odd primes up to n that a divergence stage with
    threshold n splits (p = 3 mod 4) and keeps inert (p = 1 mod 4)."""
    primes = list(iter_primes(3, n, ceiling=sieve_ceiling))
    return [p for p in primes if p % 4 == 3], [p for p in primes if p % 4 == 1]


def split_prime_spec(small: list[int]) -> SplittingSpec:
    """A split-prime stage's prescription: every prime in `small` splits, 2 included."""
    return SplittingSpec(split=frozenset(small) - {2}, two_behavior=TWO_SPLIT)


def _smallest_split_aux_prime(
    field: MultiquadField, *, sieve_ceiling: int
) -> int:
    """Smallest prime q = 1 (mod 4) that splits totally in the field."""
    for p, e, f in scan(field, 5, sieve_ceiling, sieve_ceiling=sieve_ceiling):
        hits = np.flatnonzero((p % 4 == 1) & (e == 1) & (f == 1))
        if hits.size:
            return int(p[hits[0]])
    raise ResourceBudgetError(
        f"no totally split auxiliary prime below the sieve ceiling {sieve_ceiling}"
    )


# ---------------------------------------------------------------------------
# The divergence tower
# ---------------------------------------------------------------------------


def divergence_stage_problems(
    previous: MultiquadField, added: SquarefreeInt, aux: Sequence[int]
) -> list[str]:
    """Every way a divergence stage adding Q(sqrt(added)) to `previous` breaks
    the tower's rule, one message each; its prescription is checked apart.
    The rule takes exactly one auxiliary prime, an odd one."""
    problems = []
    if len(aux) != 1 or aux[0] == 2 or not is_prime(aux[0]):
        problems.append(f"auxiliary primes {list(aux)} are not one odd prime")
        aux = ()
    if not linearly_disjoint(previous, MultiquadField.from_generators([added])):
        problems.append("new field is not linearly disjoint")
    for q in aux:
        if splitting_type(added, q) is not SplittingType.INERT:
            problems.append(f"auxiliary prime {q} is not inert above")
        if not totally_split(previous, q):
            problems.append(f"auxiliary prime {q} does not split below")
    if not is_totally_real(previous.adjoin(added)):
        problems.append("compositum is not totally real")
    return problems


def build_divergence_tower(
    num_stages: int,
    sum_target_per_block: float = 1.0,
    *,
    ap_budget: int = DEFAULT_AP_BUDGET,
    sieve_ceiling: int = DEFAULT_SIEVE_CEILING,
    modulus_bit_budget: int = DEFAULT_MODULUS_BIT_BUDGET,
    stage_cap: int = DEFAULT_STAGE_CAP,
) -> ConstructionTrace:
    """Totally real quadratic tower certified stage by stage.

    Stage k: the threshold n_k is minimal with block sum >= target over the
    primes p = 3 (mod 4) in [n_{k-1}, n_k), evaluated on the previous
    compositum; the new quadratic field splits every p = 3 (mod 4) up to n_k
    and inerts every p = 1 (mod 4) up to n_k plus an auxiliary totally split
    prime (the linear-disjointness witness).

    Thresholds grow doubly exponentially (each stage halves the density of
    contributing primes), so the prescription modulus explodes quickly; the
    modulus bit budget turns that into a clean resource error.
    """
    params = _tower_params(
        num_stages, sum_target_per_block, stage_cap=stage_cap, ap_budget=ap_budget,
        sieve_ceiling=sieve_ceiling, modulus_bit_budget=modulus_bit_budget,
    )

    current = MultiquadField.rationals()
    n_prev = 1
    stages: list[StageRecord] = []
    for k in range(1, num_stages + 1):
        block, block_sum, n_k, _ = DIVERGENCE_BLOCK.block(
            current, n_prev, sum_target_per_block, sieve_ceiling=sieve_ceiling, stage=k)
        aux = _smallest_split_aux_prime(current, sieve_ceiling=sieve_ceiling)
        split, inert = divergence_prescription(n_k, sieve_ceiling=sieve_ceiling)
        # slack for the auxiliary prime and a mod-8 factor
        bits = 3.0 + math.fsum(map(math.log2, split + inert))
        if bits > modulus_bit_budget:
            raise ResourceBudgetError(
                f"stage {k}: prescribing every prime below n={n_k} needs a CRT "
                f"modulus of about {int(bits)} bits, over the budget of "
                f"{modulus_bit_budget}"
            )
        spec = SplittingSpec(split=split, inert=inert + [aux], signature=SIGNATURE_REAL)
        try:
            m_new = construct_prescribed_quadratic(
                spec, ap_budget=ap_budget, modulus_bit_budget=modulus_bit_budget
            )
        except ResourceBudgetError as exc:
            raise ResourceBudgetError(
                f"stage {k} (n={n_k}, {len(spec.split) + len(spec.inert)} prescribed "
                f"primes): {exc}"
            ) from exc
        problems = divergence_stage_problems(current, m_new, [aux])
        if problems:
            raise VerificationError(f"stage {k}: " + "; ".join(problems))
        grown = current.adjoin(m_new)
        stages.append(
            StageRecord(
                index=k,
                n=n_k,
                auxiliary_primes=(aux,),
                field_added=m_new,
                cumulative_field=grown,
                block_primes=tuple(block),
                block_sum=block_sum,
            )
        )
        current, n_prev = grown, n_k
    return ConstructionTrace(THM12_TOWER, params, tuple(stages))


def certify_adjoin_i_convergence(
    trace: ConstructionTrace,
    prime_ceiling: int,
    *,
    sieve_ceiling: int = DEFAULT_SIEVE_CEILING,
) -> SeriesReport:
    """Upper bound for the splitting series after adjoining i to the tower.

    Each prime up to the ceiling takes f = 2, and e = 2 only if it is a
    p = 1 (mod 4) dividing a generator of the top field (2 ramifies in Q(i):
    its true term is below the log(2)/5 used).  This bounds the tower's terms
    only under the recipe's promise, not checked here, that some stage inerts
    each p = 1 (mod 4).  An integral tail bound covers the primes above the
    ceiling.  perfbench/oracle.py's adjoin_i_sum pins this formula.
    """
    if trace.construction != THM12_TOWER:
        raise ValueError(f"expected a {THM12_TOWER} trace, got {trace.construction}")
    if prime_ceiling < 2:
        raise ValueError("prime_ceiling must be >= 2")
    top = trace.stages[-1].cumulative_field
    # e = 2 at ramified p = 1 (mod 4) and f = 2 everywhere; the cap keeps isin in int64
    ramified = [
        p for b in top.basis for p, _ in b.factored.factors if p % 4 == 1 and p <= prime_ceiling
    ]
    partial = math.fsum(chain.from_iterable(
        segment_terms(p, np.isin(p, ramified) + 1, np.full_like(p, 2)).tolist()
        for p in prime_segments(2, prime_ceiling, ceiling=sieve_ceiling)
    ))
    return SeriesReport(
        field_degree=2 * top.degree,
        prime_lo=2,
        prime_hi=prime_ceiling,
        partial_sum=partial,
        tail_upper_bound=tail_bound_fully_inert(prime_ceiling),
    )


# ---------------------------------------------------------------------------
# The split-prime tower
# ---------------------------------------------------------------------------


def split_prime_stage_problems(added: SquarefreeInt, n: int, p_prev: int) -> list[str]:
    """Every way a split-prime stage with generator `added`, threshold n and
    previous stage prime p_prev breaks the tower's rule, one message each;
    its prescription is checked apart."""
    p = added.value
    problems = []
    if p < 2 or added.atoms != {p}:
        problems.append(f"field_added {p} is not one positive prime")
    if p % 4 != 1:
        problems.append(f"prime {p} is not 1 mod 4")
    if p <= max(n, p_prev):
        problems.append("prime does not exceed max(n, previous prime)")
    return problems


def build_split_prime_tower(
    num_stages: int,
    sum_target_per_block: float = 1.0,
    *,
    ap_budget: int = DEFAULT_AP_BUDGET,
    sieve_ceiling: int = DEFAULT_SIEVE_CEILING,
    modulus_bit_budget: int = DEFAULT_MODULUS_BIT_BUDGET,
    stage_cap: int = DEFAULT_STAGE_CAP,
) -> ConstructionTrace:
    """Tower of prime quadratic fields Q(sqrt(p_1), ..., sqrt(p_K)).

    Stage i: n_i is minimal with block sum >= target over all primes in
    (n_{i-1}, n_i] on the previous compositum (the prime 2 participates in
    stage 1); p_i is the smallest prime exceeding max(n_i, p_{i-1}) in the
    progression 1 mod 4*(product of all primes <= n_i), which makes every
    prime <= n_i, including 2, split totally in Q(sqrt(p_i)) and pins
    p_i = 1 (mod 4) so that the field discriminant is exactly p_i.

    The progression modulus is the primorial of n_i: it exceeds any fixed
    bit budget within a few stages, which surfaces as a resource error.
    """
    params = _tower_params(
        num_stages, sum_target_per_block, stage_cap=stage_cap, ap_budget=ap_budget,
        sieve_ceiling=sieve_ceiling, modulus_bit_budget=modulus_bit_budget,
    )

    current = MultiquadField.rationals()
    n_prev = 1
    p_prev = 0
    stages: list[StageRecord] = []
    for i in range(1, num_stages + 1):
        block, block_sum, n_i, _ = SPLIT_PRIME_BLOCK.block(
            current, n_prev, sum_target_per_block, sieve_ceiling=sieve_ceiling, stage=i)
        small = list(iter_primes(2, n_i, ceiling=sieve_ceiling))
        bits = 2.0 + math.fsum(map(math.log2, small))
        if bits > modulus_bit_budget:
            raise ResourceBudgetError(
                f"stage {i}: progression modulus 4*({n_i} primorial) needs "
                f"about {int(bits)} bits, over the budget of {modulus_bit_budget}"
            )
        modulus = 4 * math.prod(small)
        p_i = find_prime_in_ap(1, modulus, max(n_i, p_prev), budget=ap_budget, factor_base=small)
        added = SquarefreeInt.from_prime_factors(1, [p_i])
        problems = (split_prime_stage_problems(added, n_i, p_prev)
                    + prescription_problems(added, split_prime_spec(small)))
        if problems:
            raise VerificationError(f"stage {i}: " + "; ".join(problems))
        grown = current.adjoin(added)
        stages.append(
            StageRecord(
                index=i,
                n=n_i,
                auxiliary_primes=(),
                field_added=added,
                cumulative_field=grown,
                block_primes=tuple(block),
                block_sum=block_sum,
                widmer=widmer_term(i, p_i),
            )
        )
        current, n_prev, p_prev = grown, n_i, p_i
    return ConstructionTrace(PROP71_TOWER, params, tuple(stages))


# ---------------------------------------------------------------------------
# Reciprocity companions
# ---------------------------------------------------------------------------


def search_inert_companion(
    p: int,
    modulus_exponent: int,
    want: Union[str, SplittingType],
    *,
    budget: int = DEFAULT_AP_BUDGET,
) -> int:
    """Smallest prime q = 1 (mod 2^m), q != p, with p behaving as `want` in
    Q(sqrt(q)); want is 'inert' or 'split'."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if modulus_exponent < 1:
        raise ValueError(f"modulus exponent must be >= 1, got {modulus_exponent}")
    if isinstance(want, str):
        want = SplittingType(want)
    if want not in (SplittingType.INERT, SplittingType.SPLIT):
        raise ValueError("want must be inert or split")
    step = 1 << modulus_exponent
    candidate = 1
    for _ in range(budget):
        candidate += step
        if candidate == p or not is_prime(candidate):
            continue
        if splitting_type(SquarefreeInt.from_prime_factors(1, [candidate]), p) is want:
            return candidate
    raise ResourceBudgetError(
        f"scan budget {budget} exhausted searching companions of {p} mod {step}"
    )
