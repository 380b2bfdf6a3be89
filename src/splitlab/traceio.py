"""Construction-trace JSON: stable serialization, schema check, re-verification.

The wire format is pinned by trace_schema.json next to this module.  Output is
canonical (sorted keys, two-space indent, trailing newline) so identical runs
are byte-identical.  verify_trace_doc() re-derives every certified inequality
from scratch, and trace_from_doc() rebuilds objects only from a document it
accepts; trace_to_doc() alone gives a document its shape.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict
from importlib import resources
from typing import Any, Iterator, Optional

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .constructions import (
    CONSTRUCT_QUADRATIC,
    PROP71_TOWER,
    THM12_TOWER,
    CertifiedInequality,
    ConstructionTrace,
    SplittingSpec,
    StageRecord,
    WidmerTerm,
    divergence_prescription,
    prescription_problems,
    split_prime_spec,
    valid_sum_target,
)
from .errors import VerificationError
from .multiquadratic import MultiquadField, linearly_disjoint, totally_split
from .primes import DEFAULT_SIEVE_CEILING, is_prime, iter_primes
from .quadratic import SplittingType, SquarefreeInt, splitting_type
from .series import range_terms

TRACE_VERSION = 1

# A stored block sum may differ from the recomputed math.fsum by this relative
# amount.  It covers documents written when blocks were Kahan-summed: for
# positive terms Kahan's error is at most 2u and fsum's u/2 (u = 2**-53).
_STORED_SUM_REL = 2**-51

# A construct-quadratic document's params: the SplittingSpec fields.
_SPEC_PARAMS = ("split", "inert", "ramified", "two_behavior", "signature")


def load_schema() -> dict:
    with resources.files("splitlab").joinpath("trace_schema.json").open("rb") as fh:
        return json.load(fh)


def dumps_canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _factored_to_doc(m: SquarefreeInt) -> dict:
    return {
        "value": m.value,
        "factors": [[p, a] for p, a in m.factored.factors]
        + ([[-1, 1]] if m.factored.sign < 0 else []),
    }


def _factored_from_doc(doc: dict) -> SquarefreeInt:
    sign = 1
    primes = []
    for p, a in doc["factors"]:
        if p == -1:
            sign = -sign
            continue
        if a != 1:
            raise VerificationError(f"factor {p}^{a} is not squarefree")
        if not is_prime(p):
            raise VerificationError(f"claimed factor {p} is not prime")
        primes.append(p)
    try:
        m = SquarefreeInt.from_prime_factors(sign, primes)
    except ValueError as exc:  # a repeated prime, or m = 1
        raise VerificationError(str(exc)) from exc
    if m.value != doc["value"]:
        raise VerificationError(
            f"factored value mismatch: factors give {m.value}, document says {doc['value']}"
        )
    return m


def _stage_to_doc(s: StageRecord) -> dict:
    return {
        "index": s.index,
        "n": s.n,
        "auxiliary_primes": list(s.auxiliary_primes),
        "field_added": _factored_to_doc(s.field_added),
        "cumulative_field": [_factored_to_doc(b) for b in s.cumulative_field.basis],
        "certified_inequalities": [asdict(c) for c in s.certified_inequalities],
        "block_primes": list(s.block_primes),
        "block_sum": s.block_sum,
        "widmer": None if s.widmer is None else asdict(s.widmer),
    }


def trace_to_doc(trace: ConstructionTrace) -> dict:
    return {
        "construction": trace.construction,
        "version": TRACE_VERSION,
        "params": dict(trace.params),
        "stages": [_stage_to_doc(s) for s in trace.stages],
        "certificates": [asdict(c) for c in trace.certificates],
    }


def quadratic_doc(spec: SplittingSpec, m: SquarefreeInt) -> dict:
    """Prescribed-quadratic result in the common trace envelope.

    It stores no per-prime verdicts: the verifier re-derives the splitting at
    every prescribed prime from params and m.
    """
    params = {key: getattr(spec, key) for key in _SPEC_PARAMS}
    params.update((key, sorted(params[key])) for key in ("split", "inert", "ramified"))
    stage = StageRecord(
        index=1, n=0, auxiliary_primes=(), field_added=m,
        cumulative_field=MultiquadField.from_generators([m]),
        certified_inequalities=(), block_primes=(), block_sum=0.0,
    )
    doc = trace_to_doc(ConstructionTrace(CONSTRUCT_QUADRATIC, params, (stage,), ()))
    return {**doc, "m": m.value, "verified": True}


@functools.lru_cache(maxsize=1)
def _schema_validator():
    """The trace schema's validator, checked against its metaschema once."""
    schema = load_schema()
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_schema(doc: Any) -> None:
    # Same decision and message as jsonschema.validate, without re-checking
    # the schema and rebuilding the validator on every call.
    error = best_match(_schema_validator().iter_errors(doc))
    if error is not None:
        raise ValueError(f"trace does not match the schema: {error.message}") from error


def trace_from_doc(
    doc: dict, *, sieve_ceiling: int = DEFAULT_SIEVE_CEILING
) -> ConstructionTrace:
    """Rebuild a trace from a document the verifier accepts, else raise
    VerificationError; cumulative fields come from the proved generators."""
    issues, proved = _verify(doc, sieve_ceiling)
    if issues:
        raise VerificationError("; ".join(issues[:5]))
    field = MultiquadField.rationals()
    stages = []
    for s, added in zip(doc["stages"], proved):
        field = field.adjoin(added)
        stages.append(
            StageRecord(
                index=s["index"],
                n=s["n"],
                auxiliary_primes=tuple(s["auxiliary_primes"]),
                field_added=added,
                cumulative_field=field,
                certified_inequalities=tuple(
                    CertifiedInequality(**c) for c in s["certified_inequalities"]
                ),
                block_primes=tuple(s["block_primes"]),
                block_sum=s["block_sum"],
                widmer=None if s.get("widmer") is None else WidmerTerm(**s["widmer"]),
            )
        )
    return ConstructionTrace(
        construction=doc["construction"],
        params=dict(doc["params"]),
        stages=tuple(stages),
        certificates=tuple(CertifiedInequality(**c) for c in doc["certificates"]),
    )


# ---------------------------------------------------------------------------
# Re-verification
# ---------------------------------------------------------------------------


def _check_block(
    issues: list[str], stage: dict, field: MultiquadField, lo: int, last: int,
    residue_filter: Optional[tuple[int, int]], span: str, target: float, sieve_ceiling: int,
) -> float:
    """Check a stage's block against the primes of `span`, re-summed on `field`.

    The block must be every prime in [lo, last] that passes the residue
    filter, with the builders' terms.  The builder stops at the first prime
    whose term lifts the math.fsum of the block to the target, so the block
    must end at `last` and the sum before that prime must fall short.
    Returns the recomputed block sum.
    """
    block: list[int] = []
    terms: list[float] = []
    for p, _, _, seg_terms in range_terms(
        field, lo, last, residue_filter=residue_filter, sieve_ceiling=sieve_ceiling
    ):
        block += p.tolist()
        terms += seg_terms.tolist()
    k, stored = stage["index"], stage["block_sum"]
    if block != list(stage["block_primes"]):
        issues.append(f"stage {k}: block primes differ from the range {span}")
    total, before_last = math.fsum(terms), math.fsum(terms[:-1])
    if not math.isclose(total, stored, rel_tol=_STORED_SUM_REL, abs_tol=0.0):
        issues.append(f"stage {k}: recomputed block sum {total} != stored {stored}")
    if total < target:
        issues.append(f"stage {k}: block sum {total} below target {target}")
    if not block or block[-1] != last:
        issues.append(f"stage {k}: the last block prime is not {last}")
    elif before_last >= target:
        issues.append(
            f"stage {k}: block sum {before_last} before its last prime already "
            f"reaches target {target}"
        )
    return total


def _tower_stages(
    doc: dict, issues: list[str], proved: list[SquarefreeInt]
) -> Iterator[tuple[int, dict, SquarefreeInt]]:
    """(index, stage, proved field_added) per stage; a stage whose field_added
    fails its factorization is reported and skipped."""
    for stage in doc["stages"]:
        try:
            added = _factored_from_doc(stage["field_added"])
        except VerificationError as exc:
            issues.append(f"stage {stage['index']}: {exc}")
            continue
        proved.append(added)
        yield stage["index"], stage, added


def _verify_thm12(
    doc: dict, target: float, sieve_ceiling: int, proved: list[SquarefreeInt]
) -> list[str]:
    issues: list[str] = []
    previous = MultiquadField.rationals()
    n_prev = 1
    sums: list[float] = []
    for k, stage, added in _tower_stages(doc, issues, proved):
        n_k = stage["n"]
        sums.append(_check_block(issues, stage, previous, n_prev, n_k - 1, (3, 4),
                                 f"[{n_prev}, {n_k})", target, sieve_ceiling))
        if not linearly_disjoint(previous, MultiquadField.from_generators([added])):
            issues.append(f"stage {k}: new field is not linearly disjoint")
        split, inert = divergence_prescription(n_k, sieve_ceiling=sieve_ceiling)
        if split or inert:
            spec = SplittingSpec(split=split, inert=inert)
            issues += [f"stage {k}: {msg}" for msg in prescription_problems(added, spec)]
        for q in stage["auxiliary_primes"]:
            if splitting_type(added, q) is not SplittingType.INERT:
                issues.append(f"stage {k}: auxiliary prime {q} is not inert above")
            if not totally_split(previous, q):
                issues.append(f"stage {k}: auxiliary prime {q} does not split below")
        grown = previous.adjoin(added)
        stored_basis = [b["value"] for b in stage["cumulative_field"]]
        if [b.value for b in grown.basis] != stored_basis:
            issues.append(f"stage {k}: cumulative field does not match the recomputation")
        if any(b.value < 0 for b in grown.basis):
            issues.append(f"stage {k}: compositum is not totally real")
        previous, n_prev = grown, n_k
    # Each recomputed block sum is at least the target, and fsum and float
    # multiplication both round correctly and monotonically, so an honest
    # document meets this bound exactly, with no tolerance.
    total, want_total = math.fsum(sums), target * len(doc["stages"])
    if total < want_total:
        issues.append(f"total block sum {total} below {want_total}")
    return issues


def _verify_prop71(
    doc: dict, target: float, sieve_ceiling: int, proved: list[SquarefreeInt]
) -> list[str]:
    issues: list[str] = []
    previous = MultiquadField.rationals()
    n_prev = 1
    p_prev = 0
    last_log = -math.inf
    for i, stage, added in _tower_stages(doc, issues, proved):
        p_i = added.value
        n_i = stage["n"]
        _check_block(issues, stage, previous, n_prev + 1, n_i, None,
                     f"({n_prev}, {n_i}]", target, sieve_ceiling)
        if added.atoms != {p_i}:
            issues.append(f"stage {i}: field_added {p_i} is not one positive prime")
        if p_i % 4 != 1:
            issues.append(f"stage {i}: prime {p_i} is not 1 mod 4")
        if p_i <= max(n_i, p_prev):
            issues.append(f"stage {i}: prime does not exceed max(n, previous prime)")
        spec = split_prime_spec(list(iter_primes(2, n_i, ceiling=sieve_ceiling)))
        issues += [f"stage {i}: {msg}" for msg in prescription_problems(added, spec)]
        w = stage.get("widmer")
        if w is None:
            issues.append(f"stage {i}: missing discriminant-norm record")
        else:
            if w["norm_base"] != p_i or w["norm_exponent"] != 1 << (i - 1):
                issues.append(f"stage {i}: discriminant-norm power mismatch")
            expect = math.log(p_i) / 4.0
            if abs(w["log_quantity"] - expect) > 1e-12 * max(1.0, abs(expect)):
                issues.append(f"stage {i}: log quantity {w['log_quantity']} != {expect}")
            if not w["log_quantity"] > last_log:
                issues.append(f"stage {i}: discriminant-norm quantity fails to increase")
            last_log = w["log_quantity"]
        previous = previous.adjoin(added)
        stored_basis = [b["value"] for b in stage["cumulative_field"]]
        if [b.value for b in previous.basis] != stored_basis:
            issues.append(f"stage {i}: cumulative field does not match the recomputation")
        n_prev, p_prev = n_i, p_i
    return issues


def _verify_tower(doc: dict, sieve_ceiling: int, proved: list[SquarefreeInt]) -> list[str]:
    """A tower's params must be ones its builder accepts, then its stages verify."""
    issues: list[str] = []
    params, count = doc["params"], len(doc["stages"])
    if params.get("stages") != count:
        issues.append(f"params: stages is {params.get('stages')!r}, the trace has {count}")
    target = params.get("sum_target", 1.0)
    if not (isinstance(target, (int, float)) and valid_sum_target(target)):
        return issues + [f"params: sum target {target!r} is not finite and positive"]
    walk = _verify_thm12 if doc["construction"] == THM12_TOWER else _verify_prop71
    return issues + walk(doc, float(target), sieve_ceiling, proved)


def _verify_quadratic(doc: dict, proved: list[SquarefreeInt]) -> list[str]:
    params = doc["params"]
    try:
        spec = SplittingSpec(**{key: params[key] for key in _SPEC_PARAMS})
    except KeyError as exc:
        return [f"params: missing {exc.args[0]!r}"]
    except (TypeError, ValueError) as exc:
        return [f"params: {exc}"]
    try:
        m = _factored_from_doc(doc["stages"][0]["field_added"])
    except VerificationError as exc:
        return [str(exc)]
    proved.append(m)
    if m.value != doc.get("m", m.value):
        return [f"stage field {m.value} disagrees with top-level m={doc['m']}"]
    if [[b["value"] for b in s["cumulative_field"]] for s in doc["stages"]] != [[m.value]]:
        return ["the stages are not the one field Q(sqrt(m))"]
    return prescription_problems(m, spec)


def _verify(doc: dict, sieve_ceiling: int) -> tuple[list[str], list[SquarefreeInt]]:
    """The verifier's walk: the issues found, and each stage's proved field_added."""
    validate_schema(doc)
    issues: list[str] = []
    for where, certs in [("trace", doc["certificates"])] + [
        (f"stage {s['index']}", s["certified_inequalities"]) for s in doc["stages"]
    ]:
        for c in certs:
            if not c["holds"]:
                issues.append(f"{where}: stored certificate {c['name']!r} does not hold")
    proved: list[SquarefreeInt] = []
    kind = doc["construction"]
    if kind in (THM12_TOWER, PROP71_TOWER):
        issues.extend(_verify_tower(doc, sieve_ceiling, proved))
    elif kind == CONSTRUCT_QUADRATIC:
        issues.extend(_verify_quadratic(doc, proved))
    else:  # unreachable once the schema passed
        issues.append(f"unknown construction {kind!r}")
    return issues, proved


def verify_trace_doc(
    doc: dict, *, sieve_ceiling: int = DEFAULT_SIEVE_CEILING
) -> list[str]:
    """Re-derive every certificate in the document; returns found problems."""
    return _verify(doc, sieve_ceiling)[0]
