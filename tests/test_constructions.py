import dataclasses
import json
import math
import random
from itertools import chain

import pytest

from splitlab.constructions import (
    SIGNATURE_COMPLEX,
    SIGNATURE_REAL,
    TOWER_BUDGETS,
    TWO_INERT,
    TWO_RAMIFIED,
    TWO_SPLIT,
    TWO_UNCONSTRAINED,
    SplittingSpec,
    build_divergence_tower,
    build_split_prime_tower,
    certify_adjoin_i_convergence,
    BlockShape,
    _smallest_split_aux_prime,
    construct_prescribed_quadratic,
    search_inert_companion,
)
from splitlab import cli, constructions, primes, series
from splitlab.errors import ResourceBudgetError, VerificationError
from splitlab.multiquadratic import MultiquadField, linearly_disjoint, totally_split
from splitlab.primes import MR_PROVEN_BOUND, PrimeRange, find_prime_in_ap, iter_primes, kronecker
from splitlab.quadratic import SplittingType, SquarefreeInt, splitting_type
from splitlab.series import series_term, tower_sum
from splitlab.traceio import trace_to_doc, verify_trace_doc


@pytest.fixture(scope="module")
def prop71_two_stage():
    return build_split_prime_tower(2)


class TestPrescribedQuadratic:
    def test_pinned_example(self):
        spec = SplittingSpec(split=frozenset({5}), inert=frozenset({3}))
        m = construct_prescribed_quadratic(spec)
        assert m.value == 11
        assert kronecker(11, 5) == 1 and kronecker(11, 3) == -1

    def test_ramified_prescription(self):
        spec = SplittingSpec(ramified=frozenset({7}))
        m = construct_prescribed_quadratic(spec)
        assert m.value % 7 == 0 and m.value % 49 != 0
        assert splitting_type(m, 7) is SplittingType.RAMIFIED

    def test_winner_below_the_sieve_bound_matches_unsieved(self, monkeypatch, capsys):
        # The progression 11 mod 15 starts at a prime far below the sieve bound.
        argv = ["construct-quadratic", "--split", "5", "--inert", "3"]
        assert cli.run(argv) == 0
        sieved = capsys.readouterr().out
        monkeypatch.setattr(primes, "_presieve_bound", lambda bits: 1)
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == sieved and json.loads(sieved)["m"] == 11

    def test_proved_winner_skips_the_strong_lucas_test(self, monkeypatch):
        # With every odd prime below 80 split, t = 1 modulo each and the
        # winner is proved over the spec's primes.  With the complex
        # signature t = -1 modulo each, the proof lacks its factor and the
        # winner takes is_prime's full battery, strong Lucas included.
        calls = []
        lucas = primes._strong_lucas_prp
        monkeypatch.setattr(primes, "_strong_lucas_prp", lambda n: calls.append(n) or lucas(n))
        split = frozenset(iter_primes(3, 80))
        real = construct_prescribed_quadratic(SplittingSpec(split=split))
        assert real.value > MR_PROVEN_BOUND and calls == []
        spec = SplittingSpec(split=split, signature=SIGNATURE_COMPLEX)
        assert calls == [-construct_prescribed_quadratic(spec).value]

    def test_disjointness_precondition(self):
        with pytest.raises(ValueError, match="disjoint"):
            SplittingSpec(split=frozenset({3}), inert=frozenset({3}))

    def test_two_excluded_from_sets(self):
        with pytest.raises(ValueError, match="odd primes"):
            SplittingSpec(split=frozenset({2}))
        # the sets hold odd primes as ints: a str, a float or a bool is refused
        # before the primality test, which would read "5" and 3.0 as primes
        for kwargs, bad in [({"split": ["5"]}, "'5'"), ({"split": [5], "inert": [3.0]}, "3.0"),
                            ({"ramified": [True]}, "True")]:
            with pytest.raises(ValueError) as excinfo:
                SplittingSpec(**kwargs)
            assert str(excinfo.value) == f"prime {bad} is not an integer"

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            SplittingSpec()

    def test_two_behavior_alone_is_a_constraint(self):
        m = construct_prescribed_quadratic(SplittingSpec(two_behavior=TWO_SPLIT))
        assert splitting_type(m, 2) is SplittingType.SPLIT

    def test_signatures(self):
        real = construct_prescribed_quadratic(
            SplittingSpec(split=frozenset({5}), signature=SIGNATURE_REAL)
        )
        cplx = construct_prescribed_quadratic(
            SplittingSpec(split=frozenset({5}), signature=SIGNATURE_COMPLEX)
        )
        assert real.value > 0 > cplx.value
        assert splitting_type(cplx, 5) is SplittingType.SPLIT

    def test_deterministic(self):
        spec = SplittingSpec(split=frozenset({13, 29}), inert=frozenset({7}))
        assert construct_prescribed_quadratic(spec).value == construct_prescribed_quadratic(spec).value

    def test_random_specs_all_verify(self):
        rng = random.Random(1729)
        odd_primes = [p for p in iter_primes(3, 100)]
        twos = (TWO_UNCONSTRAINED, TWO_SPLIT, TWO_INERT, TWO_RAMIFIED)
        signatures = (SIGNATURE_REAL, SIGNATURE_COMPLEX)
        for trial in range(200):
            two = twos[trial % 4]
            signature = signatures[(trial // 4) % 2]
            while True:
                sizes = [rng.randint(0, 4) for _ in range(3)]
                if sum(sizes) or two != TWO_UNCONSTRAINED:
                    break
            chosen = rng.sample(odd_primes, sum(sizes))
            spec = SplittingSpec(
                split=frozenset(chosen[: sizes[0]]),
                inert=frozenset(chosen[sizes[0] : sizes[0] + sizes[1]]),
                ramified=frozenset(chosen[sizes[0] + sizes[1] :]),
                two_behavior=two,
                signature=signature,
            )
            m = construct_prescribed_quadratic(spec)
            # independent re-verification through the splitting predicate
            for p in spec.split:
                assert splitting_type(m, p) is SplittingType.SPLIT
            for p in spec.inert:
                assert splitting_type(m, p) is SplittingType.INERT
            for p in spec.ramified:
                assert splitting_type(m, p) is SplittingType.RAMIFIED
            if two != TWO_UNCONSTRAINED:
                assert splitting_type(m, 2).value == two
            assert (m.value > 0) == (signature == SIGNATURE_REAL)


class TestDivergenceTower:
    def test_stage_one_threshold_from_scratch(self, thm12_two_stage):
        # independent accumulation of log p/(p+1) over p = 3 mod 4
        total, last = 0.0, None
        for p in iter_primes(2, 100):
            if p % 4 == 3:
                total += math.log(p) / (p + 1)
                last = p
                if total >= 1.0:
                    break
        assert thm12_two_stage.stages[0].n == last + 1 == 32

    def test_thresholds_pinned(self, thm12_two_stage):
        assert [s.n for s in thm12_two_stage.stages] == [32, 3408]

    def test_trace_accepted(self, thm12_two_stage):
        assert verify_trace_doc(trace_to_doc(thm12_two_stage)) == []

    def test_stage_conditions_recheck(self, thm12_two_stage):
        previous = MultiquadField.rationals()
        for stage in thm12_two_stage.stages:
            added = stage.field_added
            new_field = MultiquadField.from_generators([added])
            assert linearly_disjoint(previous, new_field)
            for p in iter_primes(3, stage.n):
                want = SplittingType.SPLIT if p % 4 == 3 else SplittingType.INERT
                assert splitting_type(added, p) is want
            (aux,) = stage.auxiliary_primes
            assert aux % 4 == 1
            assert totally_split(previous, aux)
            assert splitting_type(added, aux) is SplittingType.INERT
            previous = stage.cumulative_field

    def test_block_sums_on_previous_field(self, thm12_two_stage):
        fields = thm12_two_stage.stage_fields()
        for stage in thm12_two_stage.stages:
            terms = [series_term(fields[stage.index - 1], p) for p in stage.block_primes]
            assert stage.block_sum == math.fsum(terms) >= 1.0
            assert math.fsum(terms[:-1]) < 1.0

    def test_tower_sum_over_certified_blocks(self, thm12_two_stage):
        trace = thm12_two_stage
        report = tower_sum(
            trace.stage_fields(),
            PrimeRange(2, trace.stages[-1].n - 1),
            trace.block_certificates(),
            residue_filter=(3, 4),
        )
        assert report.partial_sum >= 2.0

    def test_adjoin_i_bound_below_cap(self, thm12_two_stage):
        report = certify_adjoin_i_convergence(thm12_two_stage, 10**6)
        assert report.total_upper_bound < 0.6

    def test_adjoin_i_bound_small_ceiling_finite(self, thm12_two_stage):
        report = certify_adjoin_i_convergence(thm12_two_stage, 2)
        assert report.partial_sum == pytest.approx(math.log(2) / 5, abs=1e-15)
        assert math.isfinite(report.total_upper_bound)

    def test_adjoin_i_bound_terms_at_ramified_primes(self, thm12_two_stage):
        # Honest towers ramify no small prime 1 mod 4, so put some into the
        # top field to reach the e = 2 terms, and check them bit for bit.
        gens = [-1, 5, 13, 7 * 17]
        top = dataclasses.replace(
            thm12_two_stage.stages[-1], cumulative_field=MultiquadField.from_generators(gens)
        )
        trace = dataclasses.replace(thm12_two_stage, stages=(top,))
        ramified = {5, 13, 7, 17}
        want = math.fsum(
            math.log(p) / ((2 if p % 4 == 1 and p in ramified else 1) * (float(p) ** 2 + 1.0))
            for p in iter_primes(2, 10**5)
        )
        assert certify_adjoin_i_convergence(trace, 10**5).partial_sum == want

    def test_adjoin_i_bound_monotone_in_ceiling(self, thm12_two_stage):
        loose = certify_adjoin_i_convergence(thm12_two_stage, 10**3)
        tight = certify_adjoin_i_convergence(thm12_two_stage, 10**6)
        assert tight.total_upper_bound <= loose.total_upper_bound

    def test_determinism(self, thm12_two_stage):
        assert build_divergence_tower(2) == thm12_two_stage

    def test_invalid_stage_counts(self):
        with pytest.raises(ValueError):
            build_divergence_tower(0)
        with pytest.raises(ValueError, match="stage cap"):
            build_divergence_tower(9)

    def test_third_stage_exhausts_budget(self):
        # n_3 = 11,057,864: the prescription modulus needs ~16M bits
        with pytest.raises(ResourceBudgetError, match="stage 3"):
            build_divergence_tower(3)


# The primes p = 3 (mod 4) from n_prev on, up to the first whose term lifts the sum to the target.
THREE_MOD_FOUR = BlockShape(after=0, residue_filter=(3, 4), past_last=0)


def test_scan_block_equals_scalar_series_terms():
    # A mixed field, a residue filter and a block that runs over several
    # sieve segments: the block, its sum and its last prime all come from
    # series_term prime by prime.
    field = MultiquadField.from_generators([3, 7, 460_322_471_827])
    block, block_sum, last_p, reached = THREE_MOD_FOUR.block(
        field, 1010, 0.3, sieve_ceiling=10**7, stage=0
    )
    primes = [p for p in iter_primes(1010, last_p) if p % 4 == 3]
    terms = [series_term(field, p) for p in primes]
    assert block == primes and block[-1] == last_p and block[-1] > 1 << 14 and reached
    assert block_sum == math.fsum(terms) >= 0.3 > math.fsum(terms[:-1])
    # An upper end past the crossing changes nothing; one before it returns
    # the short block: every filtered prime up to it, summed below the target.
    assert THREE_MOD_FOUR.block(field, 1010, 0.3, sieve_ceiling=10**7, stage=0,
                                n=last_p + 1000) == (block, block_sum, last_p, True)
    hi = last_p - 1000
    short, short_sum, end, short_reached = THREE_MOD_FOUR.block(
        field, 1010, 0.3, sieve_ceiling=10**7, stage=0, n=hi
    )
    primes = [p for p in iter_primes(1010, hi) if p % 4 == 3]
    assert short == primes and end == hi and not short_reached
    assert short_sum == math.fsum(series_term(field, p) for p in primes) < 0.3


def test_scan_block_bisects_inside_the_crossing_segment(monkeypatch):
    # Over Q, p = 3 (mod 4) from 2 to 6.0 spans seven sieve segments.  A
    # prefix is probed only once the enclosure of the segment fsums' total
    # can reach the target, and the bisection then stays inside the seventh
    # segment: every probed prefix ends in it.
    segments, probes = [], []
    range_terms = constructions.range_terms
    monkeypatch.setattr(constructions, "range_terms", lambda *args, **kwargs: (
        segments.append(seg[3].tolist()) or seg for seg in range_terms(*args, **kwargs)))
    enclosure = series.enclosure
    monkeypatch.setattr(series, "enclosure", lambda total: probes.append(total) or enclosure(total))
    block, block_sum, last_p, reached = THREE_MOD_FOUR.block(
        MultiquadField.rationals(), 2, 6.0, sieve_ceiling=10**7, stage=0
    )
    primes = [p for p in iter_primes(2, last_p) if p % 4 == 3]
    terms = [series_term(MultiquadField.rationals(), p) for p in primes]
    assert block == primes and last_p == 716_959 and reached and len(segments) == 7
    assert block_sum == math.fsum(terms) == 6.000016996251959 > math.fsum(terms[:-1])
    # One enclosure per segment, of the running total of segment fsums, and
    # no probe before the seventh: then the whole block, and the bisection.
    assert probes[:7] == [math.fsum(map(math.fsum, segments[:i])) for i in range(1, 8)]
    probed = probes[7:]
    assert probed[0] == math.fsum(chain.from_iterable(segments))
    assert min(probed) > math.fsum(chain.from_iterable(segments[:6]))
    assert len(probed) <= 1 + len(segments[6]).bit_length()


@pytest.mark.parametrize("build", [build_divergence_tower, build_split_prime_tower])
def test_block_scan_exhausting_the_sieve_ceiling_raises(build):
    # Over Q the sum of log p/(p+1) for p <= 1000 is about 5.6, below 10.
    with pytest.raises(ResourceBudgetError) as excinfo:
        build(1, 10.0, sieve_ceiling=1000)
    assert str(excinfo.value) == "stage 1: block scan exhausted the sieve ceiling 1000"


@pytest.mark.parametrize(
    "generators",
    [
        [],
        [-1, 2, 3, 5, 7, 11, 13],  # degree 128
        [3, 7, 460_322_471_827],
        [-5 * 460_322_471_827, 2, 13],
    ],
)
def test_smallest_split_aux_prime_equals_scalar_search(generators):
    field = MultiquadField.from_generators(generators)
    want = next(q for q in iter_primes(5, 10**7) if q % 4 == 1 and totally_split(field, q))
    assert _smallest_split_aux_prime(field, sieve_ceiling=10**7) == want


def test_smallest_split_aux_prime_on_tower_stages(thm12_two_stage):
    for field in thm12_two_stage.stage_fields():
        want = next(q for q in iter_primes(5, 10**7) if q % 4 == 1 and totally_split(field, q))
        assert _smallest_split_aux_prime(field, sieve_ceiling=10**7) == want


def test_smallest_split_aux_prime_budget():
    field = MultiquadField.from_generators([-1, 2, 3, 5, 7, 11, 13])
    with pytest.raises(ResourceBudgetError, match="auxiliary prime"):
        _smallest_split_aux_prime(field, sieve_ceiling=100)


class TestSplitPrimeTower:
    def test_stage_one_pinned(self, prop71_two_stage):
        stage1 = prop71_two_stage.stages[0]
        # independent check: log2/3 + log3/4 + log5/6 + log7/8 crosses 1
        acc = [math.log(p) / (p + 1) for p in (2, 3, 5, 7)]
        assert sum(acc[:3]) < 1.0 <= sum(acc)
        assert stage1.n == 7
        # oracle: first prime above 7 in 1 + 840k, by trial division
        candidate = 1
        while True:
            candidate += 840
            if candidate > 7 and all(candidate % d for d in range(2, math.isqrt(candidate) + 1)):
                break
        assert candidate == 2521
        assert stage1.field_added.value == candidate

    def test_trace_accepted(self, prop71_two_stage):
        assert verify_trace_doc(trace_to_doc(prop71_two_stage)) == []

    def test_total_splitting_certificates(self, prop71_two_stage):
        for stage in prop71_two_stage.stages:
            added = stage.field_added
            assert added.value % 4 == 1
            for q in iter_primes(2, stage.n):
                assert splitting_type(added, q) is SplittingType.SPLIT

    def test_block_sums(self, prop71_two_stage):
        fields = prop71_two_stage.stage_fields()
        n_prev = 1
        for stage in prop71_two_stage.stages:
            block = list(iter_primes(n_prev + 1, stage.n))
            assert block == list(stage.block_primes)
            terms = [series_term(fields[stage.index - 1], p) for p in block]
            assert stage.block_sum == math.fsum(terms) >= 1.0
            assert math.fsum(terms[:-1]) < 1.0
            n_prev = stage.n

    def test_primes_strictly_increase(self, prop71_two_stage):
        values = [s.field_added.value for s in prop71_two_stage.stages]
        assert values == sorted(values) and len(set(values)) == len(values)

    def test_widmer_terms(self, prop71_two_stage):
        logs = []
        for stage in prop71_two_stage.stages:
            w = stage.widmer
            assert w is not None
            assert w.norm_base == stage.field_added.value
            assert w.norm_exponent == 2 ** (stage.index - 1)
            assert w.log_quantity == pytest.approx(
                math.log(stage.field_added.value) / 4, rel=1e-15
            )
            logs.append(w.log_quantity)
        assert all(a < b for a, b in zip(logs, logs[1:]))
        # quantity is p^(1/4) while it fits in a float
        assert prop71_two_stage.stages[0].widmer.quantity == pytest.approx(
            2521 ** 0.25, rel=1e-12
        )

    def test_third_stage_exhausts_default_budget(self):
        with pytest.raises(ResourceBudgetError, match="stage 3"):
            build_split_prime_tower(3)

    def test_widmer_quantity_none_past_float_range(self):
        from splitlab.constructions import WidmerTerm

        small = WidmerTerm(stage=1, norm_base=2521, norm_exponent=1,
                           log_quantity=math.log(2521) / 4)
        assert small.quantity == pytest.approx(2521 ** 0.25)
        huge = WidmerTerm(stage=3, norm_base=10**9 + 7, norm_exponent=4,
                          log_quantity=3000.0)
        assert huge.quantity is None

    def test_ap_budget_plumbed(self):
        spec = SplittingSpec(split=frozenset({61, 67}), inert=frozenset({71, 73}))
        with pytest.raises(ResourceBudgetError, match="budget 0"):
            construct_prescribed_quadratic(spec, ap_budget=0)

    def test_determinism(self, prop71_two_stage):
        again = build_split_prime_tower(2)
        assert again.stages == prop71_two_stage.stages


@pytest.mark.parametrize("builder", [build_divergence_tower, build_split_prime_tower])
@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, 0.0, True])
def test_tower_rejects_non_finite_or_non_positive_sum_target(builder, target):
    with pytest.raises(ValueError, match="finite and positive"):
        builder(1, target)


@pytest.mark.parametrize("builder", [build_divergence_tower, build_split_prime_tower])
@pytest.mark.parametrize("budget", TOWER_BUDGETS)
@pytest.mark.parametrize("value", [0, -1, 2.0])
def test_tower_rejects_a_budget_that_is_not_a_positive_integer(builder, budget, value):
    with pytest.raises(ValueError) as excinfo:
        builder(1, **{budget: value})
    assert str(excinfo.value) == f"{budget} must be a positive integer, got {value!r}"


class TestInertCompanion:
    def test_examples(self):
        assert search_inert_companion(3, 2, "inert") == 5
        assert search_inert_companion(3, 2, "split") == 13

    def test_returns_smallest(self):
        for p in (3, 5, 7, 11):
            for m in (1, 2, 3):
                for want in ("inert", "split"):
                    q = search_inert_companion(p, m, want)
                    assert q % (1 << m) == 1 and q != p
                    fq = SquarefreeInt.from_prime_factors(1, [q])
                    assert splitting_type(fq, p).value == want
                    for smaller in iter_primes(2, q - 1):
                        if smaller % (1 << m) != 1 or smaller == p:
                            continue
                        f = SquarefreeInt.from_prime_factors(1, [smaller])
                        assert splitting_type(f, p).value != want

    def test_reciprocity_cross_check(self):
        for p in (3, 7, 11, 19):
            q = search_inert_companion(p, 2, "inert")
            assert q % 4 == 1
            fp = SquarefreeInt.from_prime_factors(1, [p])
            assert splitting_type(fp, q) is SplittingType.INERT

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            search_inert_companion(4, 2, "inert")
        with pytest.raises(ValueError):
            search_inert_companion(3, 0, "inert")
        with pytest.raises(ValueError):
            search_inert_companion(3, 2, "ramified")


class TestStageRules:
    """The builders raise on a stage that breaks its tower's rule."""

    def test_divergence_aux_prime_inert_below_raises(self, monkeypatch, capsys):
        # At target 0.4 stage 2 has n = 84; its auxiliary prime is replaced by
        # one = 1 (mod 4) above 84 that is inert in the stage-1 field.
        real = constructions._smallest_split_aux_prime
        chosen = []

        def inert_below(field, *, sieve_ceiling):
            if field.degree == 1:
                return real(field, sieve_ceiling=sieve_ceiling)
            chosen.append(next(q for q in iter_primes(85, 10**4)
                               if q % 4 == 1 and not totally_split(field, q)))
            return chosen[-1]

        monkeypatch.setattr(constructions, "_smallest_split_aux_prime", inert_below)
        with pytest.raises(VerificationError) as excinfo:
            build_divergence_tower(2, 0.4)
        assert str(excinfo.value) == f"stage 2: auxiliary prime {chosen[-1]} does not split below"
        assert cli.run(["thm12-tower", "--stages", "2", "--sum-target", "0.4"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "does not split below" in err

    def test_split_prime_generator_breaking_the_rule_raises(self, monkeypatch):
        # 7 at stage 1 (n = 7): not 1 mod 4, not above n, and 5, 7 and 2 do not split
        monkeypatch.setattr(constructions, "find_prime_in_ap", lambda *args, **kwargs: 7)
        with pytest.raises(VerificationError) as excinfo:
            build_split_prime_tower(1)
        assert str(excinfo.value) == (
            "stage 1: prime 7 is not 1 mod 4; prime does not exceed max(n, previous prime); "
            "p=5: wanted split, got inert; p=7: wanted split, got ramified; "
            "p=2: wanted split, got ramified"
        )


@pytest.mark.parametrize("construction, build", [
    (constructions.THM12_TOWER, build_divergence_tower),
    (constructions.PROP71_TOWER, build_split_prime_tower),
])
def test_builder_and_verifier_follow_one_recipe(monkeypatch, construction, build):
    # A rule added to the tower's recipe reaches both roles: the builder
    # raises on it, and verify reports it for the honest document.
    doc = trace_to_doc(build(1))
    recipe = constructions.TOWERS[construction]
    probed = dataclasses.replace(recipe, rule=lambda *args: recipe.rule(*args) + ["probe"])
    monkeypatch.setitem(constructions.TOWERS, construction, probed)
    with pytest.raises(VerificationError) as excinfo:
        build(1)
    assert str(excinfo.value) == "stage 1: probe"
    assert "stage 1: probe" in verify_trace_doc(doc)
