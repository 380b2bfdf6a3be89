import copy
import json

import pytest

from splitlab.constructions import (
    SplittingSpec,
    build_divergence_tower,
    build_split_prime_tower,
    construct_prescribed_quadratic,
)
from splitlab.errors import VerificationError
from splitlab.traceio import (
    dumps_canonical,
    quadratic_doc,
    trace_from_doc,
    trace_to_doc,
    validate_schema,
    verify_trace_doc,
)


@pytest.fixture(scope="module")
def thm12_doc():
    return trace_to_doc(build_divergence_tower(2))


@pytest.fixture(scope="module")
def prop71_doc():
    return trace_to_doc(build_split_prime_tower(2))


@pytest.fixture(scope="module")
def quad_doc():
    spec = SplittingSpec(split=frozenset({5}), inert=frozenset({3}))
    return quadratic_doc(spec, construct_prescribed_quadratic(spec))


class TestSchema:
    def test_documents_validate(self, thm12_doc, prop71_doc, quad_doc):
        for doc in (thm12_doc, prop71_doc, quad_doc):
            validate_schema(doc)

    def test_missing_field_rejected(self, thm12_doc):
        broken = copy.deepcopy(thm12_doc)
        del broken["stages"]
        with pytest.raises(ValueError, match="schema"):
            validate_schema(broken)

    def test_bad_version_rejected(self, thm12_doc):
        broken = copy.deepcopy(thm12_doc)
        broken["version"] = 2
        with pytest.raises(ValueError, match="schema"):
            validate_schema(broken)

    def test_unknown_construction_rejected(self, thm12_doc):
        broken = copy.deepcopy(thm12_doc)
        broken["construction"] = "mystery"
        with pytest.raises(ValueError, match="schema"):
            validate_schema(broken)


class TestRoundTrip:
    def test_json_round_trip_is_exact(self, thm12_doc, prop71_doc, quad_doc):
        for doc in (thm12_doc, prop71_doc, quad_doc):
            text = dumps_canonical(doc)
            assert json.loads(text) == doc
            assert dumps_canonical(json.loads(text)) == text

    def test_trace_objects_survive(self, thm12_doc):
        rebuilt = trace_from_doc(json.loads(dumps_canonical(thm12_doc)))
        assert rebuilt.accepted
        assert dumps_canonical(trace_to_doc(rebuilt)) == dumps_canonical(thm12_doc)

    def test_fake_factorization_caught(self, prop71_doc):
        broken = copy.deepcopy(prop71_doc)
        broken["stages"][0]["field_added"]["factors"] = [[2520, 1]]  # composite
        broken["stages"][0]["field_added"]["value"] = 2520
        with pytest.raises(VerificationError, match="not prime"):
            trace_from_doc(broken)


class TestVerification:
    def test_clean_traces_verify(self, thm12_doc, prop71_doc, quad_doc):
        for doc in (thm12_doc, prop71_doc, quad_doc):
            assert verify_trace_doc(doc) == []

    def test_tampered_block_sum_detected(self, thm12_doc):
        broken = copy.deepcopy(thm12_doc)
        broken["stages"][0]["block_sum"] += 0.5
        issues = verify_trace_doc(broken)
        assert any("block sum" in msg for msg in issues)

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

    def test_tampered_widmer_detected(self, prop71_doc):
        broken = copy.deepcopy(prop71_doc)
        broken["stages"][1]["widmer"]["log_quantity"] = 0.001
        issues = verify_trace_doc(broken)
        assert any("quantity" in msg for msg in issues)

    def test_tampered_prescription_detected(self, quad_doc):
        broken = copy.deepcopy(quad_doc)
        broken["params"]["inert"] = [5]
        broken["params"]["split"] = [3]
        issues = verify_trace_doc(broken)
        assert issues

    def test_failed_certificate_flag_detected(self, prop71_doc):
        broken = copy.deepcopy(prop71_doc)
        broken["stages"][0]["certified_inequalities"][0]["holds"] = False
        issues = verify_trace_doc(broken)
        assert any("does not hold" in msg for msg in issues)

    def test_quadratic_doc_stores_no_verdicts(self, quad_doc):
        assert quad_doc["stages"][0]["certified_inequalities"] == []

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
