import contextlib
import copy
import io
import json
import math
import subprocess
import sys
import types

import pytest
from jsonschema.validators import validator_for

from splitlab import constructions, traceio
from splitlab.cli import run as cli_run
from splitlab.constructions import (
    SplittingSpec,
    build_divergence_tower,
    build_split_prime_tower,
    construct_prescribed_quadratic,
)
from splitlab.errors import VerificationError
from splitlab.multiquadratic import MultiquadField
from splitlab.primes import iter_primes
from splitlab.series import series_term
from splitlab.traceio import (
    dumps_canonical,
    load_schema,
    quadratic_doc,
    trace_from_doc,
    trace_to_doc,
    validate_schema,
    verify_trace_doc,
)


# A divergence tower whose last block can grow by one prime p = 3 (mod 4)
# with every other check still passing: its last field happens to split or
# inert, as prescribed, each prime up to that next one.
EXTENSIBLE_THM12 = (2, 0.7)
# Earlier versions Kahan-summed blocks and stored this for stage 2 of that
# tower: 1 ulp above the math.fsum value stored now.
KAHAN_ERA_STAGE_2_SUM = 0.7042878484305749

# The issue for a construct-quadratic document that differs from the one
# its params and m give.
NOT_EMITTED = "the document is not what construct-quadratic emits for these params and m"

# The always-true verdict flags that earlier versions stored in tower
# documents: (names per stage, names of the trace-level flags).
STORED_FLAG_NAMES = {
    "thm12-tower": (
        ["(a) linearly disjoint from the previous compositum",
         "(b) prescribed splitting verified at every prime <= n",
         "(c) block sum reaches the target",
         "auxiliary prime inert above, totally split below",
         "compositum stays totally real"],
        ["total certified block sum"],
    ),
    "prop71-tower": (
        ["block sum reaches the target",
         "every prime up to n splits totally in the new field",
         "stage prime is 1 mod 4",
         "stage prime strictly exceeds n and the previous prime",
         "degree doubles"],
        ["discriminant-norm quantities strictly increase"],
    ),
}


def _flag(name, holds=True):
    return {"name": name, "lhs": 1.0, "rhs": 1.0, "holds": holds}


def _with_stored_flags(doc):
    """A tower doc with the verdict flags earlier versions stored."""
    old = copy.deepcopy(doc)
    stage_names, trace_names = STORED_FLAG_NAMES[doc["construction"]]
    for stage in old["stages"]:
        stage["certified_inequalities"] = [_flag(name) for name in stage_names]
    old["certificates"] = [_flag(name) for name in trace_names]
    return old


def _extend_last_block(doc, residue_mod_4=None):
    """The doc with its last block one prime longer and its sum and n to match."""
    doc = copy.deepcopy(doc)
    stage, below = doc["stages"][-1], doc["stages"][-2]
    field = MultiquadField.from_generators([b["value"] for b in below["cumulative_field"]])
    last = stage["block_primes"][-1]
    q = next(p for p in iter_primes(last + 1, 2 * last)
             if residue_mod_4 is None or p % 4 == residue_mod_4)
    stage["block_primes"].append(q)
    stage["block_sum"] = math.fsum(series_term(field, p) for p in stage["block_primes"])
    stage["n"] = q + 1 if residue_mod_4 is not None else q
    return doc


@pytest.fixture(scope="module")
def thm12_doc(thm12_two_stage):
    return trace_to_doc(thm12_two_stage)


@pytest.fixture(scope="module")
def thm12_one_stage_doc():
    return trace_to_doc(build_divergence_tower(1))


@pytest.fixture(scope="module")
def extensible_thm12_doc():
    return trace_to_doc(build_divergence_tower(*EXTENSIBLE_THM12))


@pytest.fixture(scope="module")
def prop71_doc():
    return trace_to_doc(build_split_prime_tower(2))


@pytest.fixture(scope="module")
def quad_doc():
    spec = SplittingSpec(split=frozenset({5}), inert=frozenset({3}))
    return quadratic_doc(spec, construct_prescribed_quadratic(spec))


# What the shape-check corpus writes at each path: JSON Schema's edge cases
# of number, integer, bool and null, and a value of each other type.
MUTANT_VALUES = [math.nan, math.inf, -math.inf, 10**400, -(10**400), True, False, None,
                 0, -1, 1, 1.0, 2.5, "", "1", [], {}]


def _trimmed(node, keep=3):
    """node with every list cut to its first `keep` items."""
    if isinstance(node, dict):
        return {key: _trimmed(child, keep) for key, child in node.items()}
    if isinstance(node, list):
        return [_trimmed(child, keep) for child in node[:keep]]
    return node


def _paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _edited(node, path, edit):
    """node with edit(container, key) applied at path; only the containers on
    the path are copied."""
    node = copy.copy(node)
    if len(path) == 1:
        edit(node, path[0])
    else:
        node[path[0]] = _edited(node[path[0]], path[1:], edit)
    return node


def _duplicate(container, key):
    if isinstance(container, list):
        container.insert(key, container[key])
    else:
        container[f"{key}2"] = container[key]


def _mutants(doc):
    """doc, and doc with each path deleted, duplicated or set to each MUTANT_VALUE."""
    yield doc
    yield from MUTANT_VALUES
    for path in list(_paths(doc))[1:]:
        yield _edited(doc, path, lambda container, key: container.pop(key))
        yield _edited(doc, path, _duplicate)
        for value in MUTANT_VALUES:
            yield _edited(doc, path, lambda container, key: container.__setitem__(key, value))


class TestSchema:
    def test_documents_validate(self, thm12_doc, prop71_doc, quad_doc):
        for doc in (thm12_doc, prop71_doc, quad_doc):
            validate_schema(doc)

    def test_missing_field_rejected(self, thm12_doc):
        broken = copy.deepcopy(thm12_doc)
        del broken["stages"]
        with pytest.raises(ValueError, match=r"schema: \$ lacks the required property 'stages'"):
            validate_schema(broken)

    def test_bad_version_rejected(self, thm12_doc):
        broken = copy.deepcopy(thm12_doc)
        broken["version"] = 2
        with pytest.raises(ValueError, match=r"schema: \$\.version is not one of \[1\]"):
            validate_schema(broken)

    def test_unknown_construction_rejected(self, thm12_doc):
        broken = copy.deepcopy(thm12_doc)
        broken["construction"] = "mystery"
        with pytest.raises(ValueError, match=r"schema: \$\.construction is not one of"):
            validate_schema(broken)

    def test_error_names_the_json_path(self, prop71_doc):
        broken = copy.deepcopy(prop71_doc)
        broken["stages"][1]["field_added"]["factors"][0][1] = 1.5
        with pytest.raises(ValueError, match=r"\$\.stages\[1\]\.field_added\.factors\[0\]\[1\] "
                                             r"is not of type 'integer'$"):
            validate_schema(broken)

    def test_integral_float_does_not_hide_a_shape_error(self, thm12_doc, tmp_path):
        # The walk meets the integral float first and still raises on the
        # non-integral one after it.
        broken = copy.deepcopy(thm12_doc)
        broken["stages"][0].update(index=1.0, n=32.5)
        with pytest.raises(ValueError, match=r"\$\.stages\[0\]\.n is not of type 'integer'$"):
            validate_schema(broken)
        assert _cli_exit_code(broken, tmp_path, "verify") == 1

    def test_integral_float_reported_once_at_its_place(self, prop71_doc):
        broken = copy.deepcopy(prop71_doc)
        broken["stages"][1]["widmer"]["stage"] = 2.0
        broken["stages"][0]["field_added"]["factors"][0][0] = 2521.0
        assert validate_schema(broken) == ["$.stages[0].field_added.factors[0][0] is 2521.0, "
                                           "not an integer",
                                           "$.stages[1].widmer.stage is 2.0, not an integer"]

    def test_one_of_reports_only_the_fitting_branch(self, monkeypatch):
        # 5.0 fits the number branch; the integer branch, whose minimum it
        # breaks, has no say about the float.
        schema = {"oneOf": [{"type": "integer", "minimum": 100}, {"type": "number"}]}
        monkeypatch.setattr(traceio, "_schema", lambda: schema)
        assert validate_schema(5.0) == []
        with pytest.raises(ValueError, match=r"\$ fits 2 of the oneOf schemas"):
            validate_schema(500.0)
        schema["oneOf"][1] = {"type": "string"}
        assert validate_schema(500.0) == ["$ is 500.0, not an integer"]

    def test_agrees_with_jsonschema(self, thm12_doc, prop71_doc, quad_doc):
        # jsonschema is the oracle: the same accept/reject decision on every
        # document of the corpus.  One `items` subschema checks every item of
        # a list, so lists are cut to three items (block_primes has 238 in
        # thm12_doc): the corpus then costs jsonschema ~3 s, not ~20 s.  The
        # prop71 document with stored flags keeps $defs/inequality covered.
        schema = load_schema()
        oracle = validator_for(schema)(schema)
        count = 0
        corpus = (thm12_doc, prop71_doc, quad_doc, _with_stored_flags(prop71_doc))
        for doc in map(_trimmed, corpus):
            for mutant in _mutants(doc):
                try:
                    validate_schema(mutant)
                except ValueError:
                    accepted = False
                else:
                    accepted = True
                assert accepted == oracle.is_valid(mutant), mutant
                count += 1
        assert count > 4000

    def test_unsupported_keyword_raises_on_load(self, monkeypatch, tmp_path):
        schema = load_schema()
        schema["$defs"]["inequality"]["properties"]["name"]["pattern"] = "^[a-z]+$"
        (tmp_path / "trace_schema.json").write_text(json.dumps(schema))
        monkeypatch.setattr(traceio, "resources",
                            types.SimpleNamespace(files=lambda package: tmp_path))
        with pytest.raises(ValueError, match=r"keywords \['pattern'\] are not supported"):
            load_schema()

    def test_cli_import_loads_no_jsonschema(self):
        probe = ("import sys, splitlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0]"
                 " in {'jsonschema', 'referencing', 'rpds', 'jsonschema_specifications'}))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=60, check=True)
        assert proc.stdout.strip() == "[]"


class TestRoundTrip:
    def test_json_round_trip_is_exact(self, thm12_doc, prop71_doc, quad_doc):
        for doc in (thm12_doc, prop71_doc, quad_doc):
            text = dumps_canonical(doc)
            assert json.loads(text) == doc
            assert dumps_canonical(json.loads(text)) == text

    def test_trace_objects_survive(self, thm12_doc):
        rebuilt = trace_from_doc(json.loads(dumps_canonical(thm12_doc)))
        assert dumps_canonical(trace_to_doc(rebuilt)) == dumps_canonical(thm12_doc)

    def test_fake_factorization_caught(self, prop71_doc):
        broken = copy.deepcopy(prop71_doc)
        broken["stages"][0]["field_added"]["factors"] = [[2520, 1]]  # composite
        broken["stages"][0]["field_added"]["value"] = 2520
        with pytest.raises(VerificationError, match="not prime"):
            trace_from_doc(broken)

    def test_quadratic_objects_survive(self, quad_doc):
        rebuilt = trace_from_doc(quad_doc)
        assert rebuilt.stages[0].cumulative_field.basis == (rebuilt.stages[0].field_added,)
        doc = trace_to_doc(rebuilt)
        assert {**doc, "m": quad_doc["m"], "verified": True} == quad_doc

    def test_refuses_what_verify_rejects(self, thm12_one_stage_doc, prop71_doc, quad_doc):
        edits = [
            # a moved block sum, with every stored flag still reading true
            (_with_stored_flags(prop71_doc), lambda d: d["stages"][0].update(
                block_sum=d["stages"][0]["block_sum"] + 0.5)),
            (prop71_doc, lambda d: d["stages"][1].update(n=d["stages"][1]["n"] + 1)),
            (prop71_doc, lambda d: d["stages"][1]["widmer"].update(log_quantity=0.001)),
            (prop71_doc, lambda d: d["stages"][1]["cumulative_field"].pop()),
            (prop71_doc, lambda d: d["certificates"].append(_flag("stored", holds=False))),
            (quad_doc, lambda d: d["params"].update(split=[3], inert=[5])),
            # stage identity: block_certificates() would point at stage 6
            (thm12_one_stage_doc, lambda d: d["stages"][0].update(index=7)),
            (prop71_doc, lambda d: d["stages"][1]["widmer"].update(stage=99)),
            (thm12_one_stage_doc, lambda d: d["stages"][0].update(
                widmer={"stage": 1, "norm_base": 5, "norm_exponent": 1,
                        "log_quantity": math.log(5) / 4.0})),
        ]
        for doc, edit in edits:
            broken = copy.deepcopy(doc)
            edit(broken)
            issues = verify_trace_doc(broken)
            assert issues
            with pytest.raises(VerificationError) as excinfo:
                trace_from_doc(broken)
            assert str(excinfo.value) == "; ".join(issues[:5])


class TestVerification:
    def test_clean_traces_verify(self, thm12_doc, prop71_doc, quad_doc):
        for doc in (thm12_doc, prop71_doc, quad_doc):
            assert verify_trace_doc(doc) == []

    def test_tampered_block_sum_detected(self, thm12_doc):
        broken = copy.deepcopy(thm12_doc)
        broken["stages"][0]["block_sum"] += 0.5
        issues = verify_trace_doc(broken)
        assert any("block sum" in msg for msg in issues)

    def test_block_sum_moved_by_1e_12_detected(self, thm12_doc):
        broken = copy.deepcopy(thm12_doc)
        stored = broken["stages"][1]["block_sum"]
        broken["stages"][1]["block_sum"] = stored + 1e-12
        issues = verify_trace_doc(broken)
        assert issues == ["stage 2: block sum does not match the recomputation"]

    def test_kahan_era_block_sum_still_verifies(self, extensible_thm12_doc):
        stage = extensible_thm12_doc["stages"][1]
        assert math.nextafter(stage["block_sum"], math.inf) == KAHAN_ERA_STAGE_2_SUM
        old = copy.deepcopy(extensible_thm12_doc)
        old["stages"][1]["block_sum"] = KAHAN_ERA_STAGE_2_SUM
        assert verify_trace_doc(json.loads(dumps_canonical(old))) == []
        # the trace holds the recomputed sum, not the stored one
        rebuilt = trace_from_doc(json.loads(dumps_canonical(old)))
        assert [s.block_sum for s in rebuilt.stages] == [
            s["block_sum"] for s in extensible_thm12_doc["stages"]]

    def test_tampered_threshold_detected(self, thm12_doc):
        broken = copy.deepcopy(thm12_doc)
        broken["stages"][1]["n"] -= 100
        issues = verify_trace_doc(broken)
        assert issues

    def test_tampered_field_detected(self, thm12_doc):
        broken = copy.deepcopy(thm12_doc)
        # replace the stage-1 field by one that fails its prescription
        broken["stages"][0]["field_added"] = {"value": 3, "factors": [[3, 1]]}
        issues = verify_trace_doc(broken)
        assert any("not" in msg for msg in issues)

    def test_thm12_block_extended_by_one_prime_detected(self, extensible_thm12_doc):
        issues = verify_trace_doc(_extend_last_block(extensible_thm12_doc, residue_mod_4=3))
        assert len(issues) == 1
        assert "before its last prime already reaches target" in issues[0]

    def test_prop71_block_extended_by_one_prime_detected(self, prop71_doc):
        issues = verify_trace_doc(_extend_last_block(prop71_doc))
        assert len(issues) == 1
        assert "before its last prime already reaches target" in issues[0]

    def test_thm12_threshold_past_last_block_prime_detected(self, thm12_doc):
        broken = copy.deepcopy(thm12_doc)
        broken["stages"][-1]["n"] += 1  # the range gains no prime
        issues = verify_trace_doc(broken)
        last = broken["stages"][-1]["block_primes"][-1]
        assert issues == [f"stage 2: the last block prime is not {last + 1}"]

    def test_prop71_threshold_past_last_block_prime_detected(self, prop71_doc):
        broken = copy.deepcopy(prop71_doc)
        broken["stages"][-1]["n"] += 1  # the range gains no prime
        issues = verify_trace_doc(broken)
        n = broken["stages"][-1]["n"]
        assert issues == [f"stage 2: the last block prime is not {n}"]

    def test_tampered_widmer_detected(self, prop71_doc):
        broken = copy.deepcopy(prop71_doc)
        broken["stages"][1]["widmer"]["log_quantity"] = 0.001
        issues = verify_trace_doc(broken)
        assert issues == ["stage 2: widmer does not match the recomputation"]

    def test_tampered_prescription_detected(self, quad_doc):
        broken = copy.deepcopy(quad_doc)
        broken["params"]["inert"] = [5]
        broken["params"]["split"] = [3]
        issues = verify_trace_doc(broken)
        assert issues

    def test_failed_certificate_flag_detected(self, prop71_doc):
        broken = _with_stored_flags(prop71_doc)
        broken["certificates"][0]["holds"] = False
        assert verify_trace_doc(broken) == [
            "trace: stored certificate 'discriminant-norm quantities strictly increase'"
            " does not hold"
        ]

    def test_quadratic_cumulative_field_checked(self, quad_doc):
        for cumulative in ([], [{"value": 7, "factors": [[7, 1]]}]):
            broken = copy.deepcopy(quad_doc)
            broken["stages"][0]["cumulative_field"] = cumulative
            assert verify_trace_doc(broken) == [NOT_EMITTED]
        broken = copy.deepcopy(quad_doc)
        broken["stages"].append(copy.deepcopy(broken["stages"][0]))
        assert verify_trace_doc(broken) == [NOT_EMITTED]

    @pytest.mark.parametrize("path,value", [
        (("stages", 0, "n"), 1),
        (("stages", 0, "block_sum"), -5e-324),
        (("stages", 0, "block_sum"), 0),
        (("stages", 0, "block_primes"), [3]),
        (("stages", 0, "auxiliary_primes"), [7]),
        (("verified",), False),
        (("params", "split"), [5, 5]),
    ])
    def test_quadratic_doc_compared_whole(self, quad_doc, tmp_path, path, value):
        # Each value is derived from params and m, so an edit of one is
        # refused even where every splitting check still holds.
        broken = _edited(quad_doc, path, lambda c, key: c.__setitem__(key, value))
        assert verify_trace_doc(broken) == [NOT_EMITTED]
        assert _cli_exit_code(broken, tmp_path, "verify") == 3

    def test_quadratic_doc_with_extra_or_missing_keys_refused(self, quad_doc):
        extra = {**quad_doc, "note": "hand-edited"}
        missing = {key: v for key, v in quad_doc.items() if key != "verified"}
        for broken in (extra, missing):
            assert verify_trace_doc(broken) == [NOT_EMITTED]

    def test_quadratic_doc_stores_no_verdicts(self, quad_doc):
        assert quad_doc["stages"][0]["certified_inequalities"] == []

    def test_tower_docs_store_no_verdicts(self, thm12_doc, prop71_doc):
        for doc in (thm12_doc, prop71_doc):
            assert doc["certificates"] == []
            assert all(s["certified_inequalities"] == [] for s in doc["stages"])

    def test_quadratic_doc_with_stored_verdicts_still_verifies(self, quad_doc):
        # Earlier versions stored one always-true flag per prescribed prime.
        # Such documents stay valid, and a flag set to false is still reported.
        old = copy.deepcopy(quad_doc)
        old["stages"][0]["certified_inequalities"] = [
            {"name": f"splitting at {p} is {kind}", "lhs": 1.0, "rhs": 1.0, "holds": True}
            for kind in ("split", "inert", "ramified")
            for p in old["params"][kind]
        ]
        assert len(old["stages"][0]["certified_inequalities"]) == 2
        assert verify_trace_doc(json.loads(dumps_canonical(old))) == []
        old["stages"][0]["certified_inequalities"][1]["holds"] = False
        issues = verify_trace_doc(old)
        assert issues == [
            "stage 1: stored certificate 'splitting at 3 is inert' does not hold"
        ]

    def test_tower_docs_with_stored_verdicts_still_verify(self, thm12_doc, prop71_doc):
        # Earlier versions stored five flags per tower stage and one per trace.
        for doc in (thm12_doc, prop71_doc):
            old = _with_stored_flags(doc)
            assert verify_trace_doc(json.loads(dumps_canonical(old))) == []
            old["stages"][1]["certified_inequalities"][0]["holds"] = False
            name = STORED_FLAG_NAMES[doc["construction"]][0][0]
            assert verify_trace_doc(old) == [
                f"stage 2: stored certificate {name!r} does not hold"
            ]


# A stored threshold far past the honest one, below the default sieve ceiling.
INFLATED_N = 3 * 10**7


def _verify_counting_segments(monkeypatch, doc):
    """verify_trace_doc(doc), and how many kernel segments its block scans read."""
    count = 0
    kernel = constructions.range_terms

    def counting(*args, **kwargs):
        nonlocal count
        for segment in kernel(*args, **kwargs):
            count += 1
            yield segment

    with monkeypatch.context() as patch:
        patch.setattr(constructions, "range_terms", counting)
        return verify_trace_doc(doc), count


@pytest.mark.parametrize("name, past_last", [("thm12_doc", 1), ("prop71_doc", 0)])
def test_inflated_threshold_costs_the_honest_scan(request, monkeypatch, name, past_last):
    # The verifier scans no further than the builders' block rule, and takes
    # the next stage's start from the threshold it derives, not the stored one.
    doc = request.getfixturevalue(name)
    issues, honest = _verify_counting_segments(monkeypatch, doc)
    assert issues == [] and honest > 0
    for k in (1, 2):
        broken = copy.deepcopy(doc)
        broken["stages"][k - 1]["n"] = INFLATED_N
        issues, scanned = _verify_counting_segments(monkeypatch, broken)
        assert issues == [f"stage {k}: the last block prime is not {INFLATED_N - past_last}"]
        assert scanned == honest


def _cli_exit_code(doc, tmp_path, *command):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))  # writes NaN as NaN, which json.load reads back
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli_run([*command, str(path)])


def _nan_target_thm12_doc():
    """A 0.5-target divergence tower with its target set to NaN, stage 1 cut to
    the block [3] at n = 4, and 7 moved into stage 2, both sums recomputed."""
    trace = build_divergence_tower(2, 0.5)
    doc = trace_to_doc(trace)
    fields = trace.stage_fields()
    first, second = doc["stages"]
    assert first["block_primes"] == [3, 7]
    first.update(block_primes=[3], n=4)
    second["block_primes"].insert(0, 7)
    for stage in (first, second):
        field = fields[stage["index"] - 1]
        stage["block_sum"] = math.fsum(series_term(field, p) for p in stage["block_primes"])
    doc["params"]["sum_target"] = math.nan
    return doc


class TestTowerRules:
    """Edits the builders could never emit, each of which once verified."""

    def test_nan_sum_target_rejected(self, tmp_path):
        doc = _nan_target_thm12_doc()
        assert verify_trace_doc(doc) == ["params: sum target nan is not finite and positive"]
        assert _cli_exit_code(doc, tmp_path, "verify") == 3
        assert _cli_exit_code(doc, tmp_path, "adjoin-i-bound", "--in") == 3
        # with the target the tower was built for, the cut stage falls short
        doc["params"]["sum_target"] = 0.5
        assert "stage 1: block sum" in verify_trace_doc(doc)[0]

    @pytest.mark.parametrize("target", [math.inf, -math.inf, 0.0, -0.5, "1.0", None])
    def test_sum_target_the_builders_reject(self, thm12_doc, prop71_doc, target):
        for doc in (thm12_doc, prop71_doc):
            broken = copy.deepcopy(doc)
            broken["params"]["sum_target"] = target
            assert verify_trace_doc(broken) == [
                f"params: sum target {target!r} is not finite and positive"
            ]

    @pytest.mark.parametrize("budget", ["ap_budget", "sieve_ceiling", "modulus_bit_budget"])
    @pytest.mark.parametrize("value", [0, -7, 1.5, "100", None])
    def test_budget_the_builders_reject(self, thm12_one_stage_doc, prop71_doc, tmp_path,
                                        budget, value):
        for doc in (thm12_one_stage_doc, prop71_doc):
            broken = copy.deepcopy(doc)
            broken["params"][budget] = value
            assert verify_trace_doc(broken) == [
                f"params: {budget} must be a positive integer, got {value!r}"]
        assert _cli_exit_code(broken, tmp_path, "verify") == 3

    def test_missing_budget_rejected(self, prop71_doc):
        broken = copy.deepcopy(prop71_doc)
        del broken["params"]["ap_budget"]
        assert verify_trace_doc(broken) == [
            "params: ap_budget must be a positive integer, got None"]

    def test_deleted_stage_rejected(self, thm12_doc, prop71_doc):
        for doc in (thm12_doc, prop71_doc):
            broken = copy.deepcopy(doc)
            del broken["stages"][1]
            assert verify_trace_doc(broken) == ["params: stages is 2, the trace has 1"]

    def test_composite_split_prime_generator_rejected(self, prop71_doc, tmp_path):
        # 6721 = 11 * 13 * 47 = 1 (mod 840) replaces stage 1's prime 2521;
        # stage 2's block is rescanned on the new field, so only the
        # factorization of the generator gives it away.
        composite = {"value": 6721, "factors": [[11, 1], [13, 1], [47, 1]]}
        doc = copy.deepcopy(prop71_doc)
        first, second = doc["stages"]
        first.update(field_added=composite, cumulative_field=[composite])
        first["widmer"].update(norm_base=6721, log_quantity=math.log(6721) / 4.0)
        below = MultiquadField.from_generators([6721])
        block, terms = [], []
        for p in iter_primes(first["n"] + 1, 10**4):
            block.append(p)
            terms.append(series_term(below, p))
            if math.fsum(terms) >= 1.0:
                break
        second.update(block_primes=block, block_sum=math.fsum(terms), n=block[-1])
        grown = below.adjoin(second["field_added"]["value"])
        second["cumulative_field"] = [
            {"value": b.value, "factors": [[q, 1] for q, _ in b.factored.factors]}
            for b in grown.basis
        ]
        assert verify_trace_doc(doc) == ["stage 1: field_added 6721 is not one positive prime"]
        assert _cli_exit_code(doc, tmp_path, "verify") == 3

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_thm12_threshold_without_odd_primes_reports_issues(self, thm12_doc, tmp_path, n):
        broken = copy.deepcopy(thm12_doc)
        broken["stages"][0]["n"] = n
        assert verify_trace_doc(broken)
        assert _cli_exit_code(broken, tmp_path, "verify") == 3

    def test_stage_identity_checked(self, thm12_one_stage_doc, prop71_doc, quad_doc, tmp_path):
        # One edit per derived stage key, and two to the envelope: each is
        # one issue naming the key that differs from the derived document.
        widmer = {"stage": 1, "norm_base": 5, "norm_exponent": 1,
                  "log_quantity": math.log(5) / 4.0}
        both = [
            ("index", lambda s: s.update(index=7)),
            ("block primes", lambda s: s["block_primes"].pop(0)),
            ("block sum", lambda s: s.update(block_sum=s["block_sum"] + 1e-12)),
            ("cumulative field", lambda s: s["cumulative_field"].append(
                {"value": 7, "factors": [[7, 1]]})),
        ]
        only = {
            "thm12-tower": [("widmer", lambda s: s.update(widmer=widmer))],
            "prop71-tower": [
                ("widmer", lambda s: s["widmer"].update(stage=99)),
                ("widmer", lambda s: s["widmer"].update(norm_base=s["widmer"]["norm_base"] + 4)),
                ("widmer", lambda s: s["widmer"].update(norm_exponent=1)),
                ("widmer", lambda s: s["widmer"].update(log_quantity=0.001)),
                ("widmer", lambda s: s.update(widmer=None)),
            ],
        }
        cases = [(quad_doc, lambda d: d["stages"][0].update(index=2), NOT_EMITTED)]
        for doc in (thm12_one_stage_doc, prop71_doc):
            k = len(doc["stages"])
            cases += [(doc, lambda d, edit=edit, k=k: edit(d["stages"][k - 1]),
                       f"stage {k}: {key} does not match the recomputation")
                      for key, edit in both + only[doc["construction"]]]
            cases += [(doc, lambda d: d["params"].update(note="hand-edited"),
                       "trace: params does not match the recomputation"),
                      (doc, lambda d: d.update(note="hand-edited"),
                       "trace: note does not match the recomputation")]
        for doc, edit, issue in cases:
            broken = copy.deepcopy(doc)
            edit(broken)
            assert verify_trace_doc(broken) == [issue]
            assert _cli_exit_code(broken, tmp_path, "verify") == 3
        # earlier versions wrote no widmer key into divergence stages
        old = copy.deepcopy(thm12_one_stage_doc)
        del old["stages"][0]["widmer"]
        assert verify_trace_doc(old) == []
        # a Widmer log quantity within 1e-12 of the derived one matches it
        near = copy.deepcopy(prop71_doc)
        near["stages"][1]["widmer"]["log_quantity"] *= 1 + 1e-13
        assert verify_trace_doc(near) == []

    @pytest.mark.parametrize("aux", [[6], [-5], [], [5, 5], [2], [0], [9]])
    def test_auxiliary_primes_must_be_one_odd_prime(self, thm12_one_stage_doc, aux):
        broken = copy.deepcopy(thm12_one_stage_doc)
        assert broken["stages"][0]["auxiliary_primes"] == [5]
        broken["stages"][0]["auxiliary_primes"] = aux
        assert verify_trace_doc(broken) == [
            f"stage 1: auxiliary primes {aux} are not one odd prime"
        ]

    def test_cumulative_field_factors_checked(self, thm12_one_stage_doc, prop71_doc, quad_doc,
                                              tmp_path):
        for doc, k, issue in [
            (thm12_one_stage_doc, 1, "stage 1: cumulative field does not match the recomputation"),
            (prop71_doc, 1, "stage 1: cumulative field does not match the recomputation"),
            (prop71_doc, 2, "stage 2: cumulative field does not match the recomputation"),
            (quad_doc, 1, NOT_EMITTED),
        ]:
            for factors in ([[4, 1], [9, 0]], [], [[7, 1]]):
                broken = copy.deepcopy(doc)
                broken["stages"][k - 1]["cumulative_field"][0]["factors"] = factors
                assert verify_trace_doc(broken) == [issue]
            assert _cli_exit_code(broken, tmp_path, "verify") == 3

    def test_recomputed_block_sums_equal_scalar_terms(self, thm12_two_stage):
        # The verifier sums on the scan kernel; series_term is the scalar
        # reference.  trace_from_doc returns the verifier's sums, and a stored
        # sum of 0 is refused.
        for trace in (thm12_two_stage, build_split_prime_tower(2)):
            doc, fields = trace_to_doc(trace), trace.stage_fields()
            derived = trace_from_doc(doc).stages
            for stage in trace.stages:
                want = math.fsum(series_term(fields[stage.index - 1], p)
                                 for p in stage.block_primes)
                assert derived[stage.index - 1].block_sum == want
                broken = copy.deepcopy(doc)
                broken["stages"][stage.index - 1]["block_sum"] = 0.0
                assert verify_trace_doc(broken) == [
                    f"stage {stage.index}: block sum does not match the recomputation"
                ]
