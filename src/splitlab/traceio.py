"""Construction-trace JSON: stable serialization, schema check, re-verification.

The wire format is pinned by trace_schema.json next to this module.  Output is
canonical (sorted keys, two-space indent, trailing newline) so identical runs
are byte-identical.  validate_schema() walks a document against the schema
once: it raises at the first shape error, else returns the integer places
that hold a float such as 32.0, which the verifier reports as its only
issues.  verify_trace_doc() re-derives every stage from scratch by the
builders' own tower recipe, constructions.TOWERS, then compares the
document whole with the one its derived records give, and trace_from_doc()
returns those records, only for a document it accepts; trace_to_doc() alone
gives a document its shape.
Documents store no verdicts: the flag lists stay empty, and a false flag in
an older document is still reported.  Each generator's primes are proved
over a factor base the verifier derives from the prescription, never from
the document; verify_with_primality() says which were only probable.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict
from fractions import Fraction
from importlib import resources
from typing import Any, Iterable, Iterator, Optional

from .constructions import (
    CONSTRUCT_QUADRATIC,
    THM12_TOWER,
    TOWER_BUDGETS,
    TOWERS,
    ConstructionTrace,
    SplittingSpec,
    StageRecord,
    TowerRecipe,
    _tower_params,
    prescription_problems,
    proof_factor_base,
    valid_sum_target,
)
from .errors import VerificationError
from .multiquadratic import MultiquadField
from .primes import DEFAULT_SIEVE_CEILING, PROBABLE, PROVED, primality
from .quadratic import SquarefreeInt
from .series import enclosure

TRACE_VERSION = 1

# A stored block sum may differ from the recomputed math.fsum by this relative
# amount.  It covers documents written when blocks were Kahan-summed from
# math.log terms: for positive terms Kahan's error is at most 2u and fsum's
# u/2 (u = 2**-53), and the rare 1-ulp log differences move a block sum by
# far less than u.
_STORED_SUM_REL = 2**-51

# A construct-quadratic document's params: the SplittingSpec fields.
_SPEC_PARAMS = ("split", "inert", "ramified", "two_behavior", "signature")

# The JSON Schema keywords trace_schema.json uses, all that _findings knows.
_KEYWORDS = frozenset("$schema title $defs $ref type required properties additionalProperties"
                      " items prefixItems minItems maxItems enum const minimum oneOf".split())
_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "null": type(None), "number": (int, float), "integer": (int, float)}


def load_schema() -> dict:
    """trace_schema.json; raises if it uses a keyword _findings does not know."""
    with resources.files("splitlab").joinpath("trace_schema.json").open("rb") as fh:
        schema = json.load(fh)
    pending = [schema]
    while pending:
        sub = pending.pop()
        if isinstance(sub, dict):
            if unknown := sub.keys() - _KEYWORDS:
                raise ValueError(f"trace schema keywords {sorted(unknown)} are not supported")
            pending += [*sub.get("properties", {}).values(), *sub.get("$defs", {}).values(),
                        *sub.get("prefixItems", []), *sub.get("oneOf", []),
                        sub.get("items", True), sub.get("additionalProperties", True)]
    return schema


def dumps_canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _factored_to_doc(m: SquarefreeInt) -> dict:
    return {
        "value": m.value,
        "factors": [[p, a] for p, a in m.factored.factors]
        + ([[-1, 1]] if m.factored.sign < 0 else []),
    }


def _factored_from_doc(doc: dict, factor_base: Iterable[int]) -> tuple[SquarefreeInt, str]:
    """The squarefree integer a document's factors give, and PROVED unless
    the primality of some factor is only probable over factor_base."""
    sign = 1
    primes = []
    label = PROVED
    for p, a in doc["factors"]:
        if p == -1 and a == 1 and sign > 0:  # the sign: at most one entry, [-1, 1]
            sign = -1
            continue
        if a != 1:
            raise VerificationError(f"factor {p}^{a} is not squarefree")
        verdict = primality(p, factor_base)
        if verdict is None:
            raise VerificationError(f"claimed factor {p} is not prime")
        if verdict == PROBABLE:
            label = PROBABLE
        primes.append(p)
    try:
        m = SquarefreeInt.from_prime_factors(sign, primes)
    except ValueError as exc:  # a repeated prime, or m = 1
        raise VerificationError(str(exc)) from exc
    if m.value != doc["value"]:
        raise VerificationError(
            f"factored value mismatch: factors give {m.value}, document says {doc['value']}"
        )
    return m, label


def _stage_to_doc(s: StageRecord) -> dict:
    return {
        "index": s.index,
        "n": s.n,
        "auxiliary_primes": list(s.auxiliary_primes),
        "field_added": _factored_to_doc(s.field_added),
        "cumulative_field": [_factored_to_doc(b) for b in s.cumulative_field.basis],
        "certified_inequalities": [],
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
        "certificates": [],
    }


def _quadratic_stage(m: SquarefreeInt) -> StageRecord:
    """The one stage of a prescribed-quadratic trace: Q(sqrt(m)) over Q."""
    return StageRecord(index=1, n=0, auxiliary_primes=(), field_added=m,
                       cumulative_field=MultiquadField.from_generators([m]), block_primes=(),
                       block_sum=0.0)


def quadratic_doc(spec: SplittingSpec, m: SquarefreeInt) -> dict:
    """Prescribed-quadratic result in the common trace envelope.

    It stores no per-prime verdicts: the verifier re-derives the splitting at
    every prescribed prime from params and m.
    """
    params = {key: getattr(spec, key) for key in _SPEC_PARAMS}
    params.update((key, sorted(params[key])) for key in ("split", "inert", "ramified"))
    doc = trace_to_doc(ConstructionTrace(CONSTRUCT_QUADRATIC, params, (_quadratic_stage(m),)))
    return {**doc, "m": m.value, "verified": True}


_schema = functools.lru_cache(maxsize=1)(load_schema)


def _is_type(value: Any, name: str) -> bool:
    """JSON Schema's types: a bool is not a number, and 1.0 is an integer."""
    return (isinstance(value, _JSON_TYPES[name]) and (name == "boolean" or type(value) is not bool)
            and (name != "integer" or isinstance(value, int) or value.is_integer()))


def _findings(schema: Any, value: Any, path: str) -> Iterator[tuple[bool, str]]:
    """(is_shape, text) for each place, lazily, where `value` at JSON path
    `path` breaks `schema`, a part of trace_schema.json whose $refs all name
    $defs entries (a shape finding), or holds a float such as 32.0 where it
    asks for an integer.  Each oneOf branch is walked whole, and only the one
    fitting branch's floats are reported."""
    if schema is False:
        yield True, f"{path} is not allowed"
    if isinstance(schema, bool):
        return
    if "$ref" in schema:
        yield from _findings(_schema()["$defs"][schema["$ref"].removeprefix("#/$defs/")],
                             value, path)
    if "type" in schema and not _is_type(value, schema["type"]):
        yield True, f"{path} is not of type {schema['type']!r}"
    elif schema.get("type") == "integer" and isinstance(value, float):
        yield False, f"{path} is {value!r}, not an integer"
    for allowed in (schema.get("enum"), [schema["const"]] if "const" in schema else None):
        # JSON equality with the schema's scalars, where true is not 1
        if allowed is not None and not any(
                v == value and isinstance(v, bool) == isinstance(value, bool) for v in allowed):
            yield True, f"{path} is not one of {allowed!r}"
    if "minimum" in schema and _is_type(value, "number") and value < schema["minimum"]:
        yield True, f"{path} is less than the minimum of {schema['minimum']!r}"
    if "oneOf" in schema:
        fits = [found for found in (list(_findings(s, value, path)) for s in schema["oneOf"])
                if not any(is_shape for is_shape, _ in found)]
        if len(fits) != 1:
            yield True, f"{path} fits {len(fits)} of the oneOf schemas, not exactly one"
        else:
            yield from fits[0]
    if isinstance(value, dict):
        yield from ((True, f"{path} lacks the required property {key!r}")
                    for key in schema.get("required", ()) if key not in value)
        for key, item in value.items():
            sub = schema.get("properties", {}).get(key, schema.get("additionalProperties", True))
            yield from _findings(sub, item, f"{path}.{key}")
    elif isinstance(value, list):
        if not schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", len(value)):
            yield True, f"{path} has {len(value)} items, outside the schema's bounds"
        subs = schema.get("prefixItems", []) + [schema.get("items", True)] * len(value)
        for i, (sub, item) in enumerate(zip(subs, value)):
            yield from _findings(sub, item, f"{path}[{i}]")


def validate_schema(doc: Any) -> list[str]:
    """Raise ValueError naming the JSON path where `doc` first breaks the
    schema; else return each place where it holds a float such as 32.0 at an
    integer, which JSON Schema accepts and the verifier, computing with ints,
    refuses."""
    floats = []
    for is_shape, text in _findings(_schema(), doc, "$"):
        if is_shape:
            raise ValueError(f"trace does not match the schema: {text}")
        floats.append(text)
    return floats


def trace_from_doc(
    doc: dict, *, sieve_ceiling: int = DEFAULT_SIEVE_CEILING
) -> ConstructionTrace:
    """The trace of a document the verifier accepts, with the stage records it
    derived, else raise VerificationError."""
    issues, proved = _verify(doc, sieve_ceiling)
    if issues:
        raise VerificationError("; ".join(issues[:5]))
    stages = tuple(record for record, _ in proved)
    return ConstructionTrace(doc["construction"], dict(doc["params"]), stages)


# ---------------------------------------------------------------------------
# Re-verification
# ---------------------------------------------------------------------------


# Per stage, the derived stage record with its generator's primality label,
# or None where the generator was refused.
_Proved = list[Optional[tuple[StageRecord, str]]]


def _mismatches(derived: dict, stored: dict) -> list[str]:
    """The keys, underscores as spaces, where a stored document or stage
    differs from the derived one as sorted-key JSON, an absent key reading
    as null.  See _same for what matches."""
    if json.dumps(derived, sort_keys=True) == json.dumps(stored, sort_keys=True):
        return []  # the common case, in two calls of the C encoder
    return [key.replace("_", " ") for key in sorted(derived.keys() | stored.keys())
            if key not in derived or not _same(key, derived[key], stored.get(key))]


def _same(key: str, want: Any, got: Any) -> bool:
    """Flag lists are the stored-flag check's; a stored block sum or Widmer
    log quantity matches within its tolerance; objects, alone or in a list
    (the schema has made the stored ones objects), match key by key."""
    if key in ("certificates", "certified_inequalities"):
        return True
    if key == "block_sum" and type(got) is float:
        return math.isclose(got, want, rel_tol=_STORED_SUM_REL, abs_tol=0.0)
    if key == "log_quantity" and type(got) is float:
        return abs(got - want) <= 1e-12 * max(1.0, abs(want))
    if isinstance(want, dict) and isinstance(got, dict):
        return not _mismatches(want, got)
    if isinstance(want, list) and want and isinstance(want[0], dict):
        return len(got) == len(want) and not any(map(_mismatches, want, got))
    return json.dumps(want, sort_keys=True) == json.dumps(got, sort_keys=True)


def _tower_stages(doc: dict, tower: TowerRecipe, target: float, sieve_ceiling: int,
                  proved: _Proved) -> list[str]:
    """Every stage's issues, each stage derived by the tower's recipe as the
    builder derives it.  The block rule runs up to the stored threshold and
    derives n, and the prescription for n gives the proof's factor base.  A
    stage whose field_added fails its factorization is skipped, and later
    stages keep their stored n, block and block sum.  The record keeps the
    stored auxiliary primes; a stage with no other issue must be the one
    its record gives."""
    issues: list[str] = []
    previous, n_prev, p_prev = MultiquadField.rationals(), 1, 0
    for k, stage in enumerate(doc["stages"], 1):
        before = len(issues)
        block, total, n = stage["block_primes"], stage["block_sum"], stage["n"]
        if all(proved):  # else the stage's base field is unknown, and it keeps the stored values
            block, total, n, reached = tower.shape.block(previous, n_prev, target,
                                                         sieve_ceiling=sieve_ceiling, stage=k, n=n)
            last = stage["n"] - tower.shape.past_last
            if not reached:  # the first of these that holds is the stage's one block issue
                issues.append(f"stage {k}: block sum {total} below target {target}")
            elif n != stage["n"] and stage["block_primes"][-1:] == [last]:
                issues.append(f"stage {k}: block sum {total} before its last prime already "
                              f"reaches target {target}")
            elif n != stage["n"]:
                issues.append(f"stage {k}: the last block prime is not {last}")
        n_prev, spec = n, tower.prescription(n, sieve_ceiling)
        try:
            added, label = _factored_from_doc(stage["field_added"], proof_factor_base(spec))
        except VerificationError as exc:
            issues.append(f"stage {k}: {exc}")
            proved.append(None)
            continue
        record = tower.record(k, n, stage["auxiliary_primes"], added, previous, block, total)
        proved.append((record, label))
        issues += [f"stage {k}: {msg}" for msg in tower.problems(previous, record, p_prev, spec)]
        previous, p_prev = record.cumulative_field, added.value
        if len(issues) == before and (keys := _mismatches(_stage_to_doc(record), stage)):
            issues.append(f"stage {k}: {', '.join(keys)} does not match the recomputation")
    return issues


def _verify_tower(doc: dict, sieve_ceiling: int, proved: _Proved) -> list[str]:
    """A tower's params must be ones its builder accepts, its params and
    top-level keys what the builder writes for them; then its stages verify,
    and a divergence tower's block sums reach K times the target."""
    issues: list[str] = []
    params, count = doc["params"], len(doc["stages"])
    if params.get("stages") != count or type(params.get("stages")) is not int:
        issues.append(f"params: stages is {params.get('stages')!r}, the trace has {count}")
    target = params.get("sum_target")
    if not valid_sum_target(target):
        return issues + [f"params: sum target {target!r} is not finite and positive"]
    try:
        derived = _tower_params(count, target, stage_cap=count,
                                **{name: params.get(name) for name in TOWER_BUDGETS})
    except ValueError as exc:
        issues.append(f"params: {exc}")
    else:
        envelope = trace_to_doc(ConstructionTrace(doc["construction"], derived, ()))
        if not issues and (keys := _mismatches(envelope, {**doc, "stages": []})):
            issues.append(f"trace: {', '.join(keys)} does not match the recomputation")
    target = float(target)
    issues += _tower_stages(doc, TOWERS[doc["construction"]], target, sieve_ceiling, proved)
    if doc["construction"] == THM12_TOWER:
        # Each recomputed block's real sum reaches the target, so an honest
        # document's real total reaches K·T and the top of its enclosure does too.
        total = math.fsum(record.block_sum for record, _ in filter(None, proved))
        if Fraction(enclosure(total)[1]) < count * Fraction(target):
            issues.append(f"total block sum {total} below {target * count}")
    return issues


def _verify_quadratic(doc: dict, proved: _Proved) -> list[str]:
    params = doc["params"]
    try:
        spec = SplittingSpec(**{key: params[key] for key in _SPEC_PARAMS})
    except KeyError as exc:
        return [f"params: missing {exc.args[0]!r}"]
    except (TypeError, ValueError) as exc:
        return [f"params: {exc}"]
    try:
        m, label = _factored_from_doc(doc["stages"][0]["field_added"], proof_factor_base(spec))
    except VerificationError as exc:
        proved.append(None)
        return [str(exc)]
    proved.append((_quadratic_stage(m), label))
    if problems := prescription_problems(m, spec):
        return problems
    if _mismatches(quadratic_doc(spec, m), doc):  # every other field is derived from params and m
        return ["the document is not what construct-quadratic emits for these params and m"]
    return []


def _verify(doc: dict, sieve_ceiling: int) -> tuple[list[str], _Proved]:
    """The verifier's walk: the issues found, and per stage the proved
    field_added with its primality label, or None where it was refused."""
    issues = validate_schema(doc)
    if issues:  # integral floats; the walk below computes with these values as ints
        return issues, []
    # Older documents stored verdict flags; one that reads false is still an issue.
    for where, certs in [("trace", doc["certificates"])] + [
        (f"stage {k}", s["certified_inequalities"]) for k, s in enumerate(doc["stages"], 1)
    ]:
        for c in certs:
            if not c["holds"]:
                issues.append(f"{where}: stored certificate {c['name']!r} does not hold")
    proved: _Proved = []
    kind = doc["construction"]
    if kind in TOWERS:
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


def verify_with_primality(
    doc: dict, *, sieve_ceiling: int = DEFAULT_SIEVE_CEILING
) -> tuple[list[str], list[Optional[str]]]:
    """verify_trace_doc's problems, and per stage how its generator's primes
    were shown prime: PROVED, PROBABLE, or None where the generator was refused."""
    issues, proved = _verify(doc, sieve_ceiling)
    return issues, [None if g is None else g[1] for g in proved]
