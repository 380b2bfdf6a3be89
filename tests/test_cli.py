import argparse
import copy
import json
import subprocess
import sys

import pytest

from splitlab import traceio
from splitlab.cli import build_parser, run
from splitlab.primes import primality


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "splitlab.cli", *args],
        capture_output=True,
        timeout=300,
        **kwargs,
    )


def capture(capsys, args):
    code = run(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = capture(capsys, ["northcott-bounds", "--primes", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] == pytest.approx(0.11552453009332421)
        assert doc["upper"] == pytest.approx(0.6931471805599453)

    def test_invalid_argument_is_one(self, capsys):
        code, _, err = capture(capsys, ["thm12-tower", "--stages", "0"])
        assert code == 1
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["error"]["kind"] == "invalid-argument"

    @pytest.mark.parametrize("command", ["thm12-tower", "prop71-tower"])
    @pytest.mark.parametrize("target", ["nan", "inf"])
    def test_non_finite_sum_target_is_one(self, capsys, command, target):
        code, out, err = capture(
            capsys, [command, "--stages", "1", "--sum-target", target]
        )
        assert code == 1 and out == ""
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["error"]["kind"] == "invalid-argument"
        assert "finite and positive" in diag["error"]["message"]

    def test_per_decade_zero_is_one(self, capsys):
        code, out, err = capture(
            capsys,
            ["density-check", "--prime-ceiling", "1000", "--per-decade", "0"],
        )
        assert code == 1 and out == ""
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["error"]["kind"] == "invalid-argument"
        assert "per_decade" in diag["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [["verify", "DIR"], ["adjoin-i-bound", "--in", "DIR"],
         ["thm12-tower", "--stages", "1", "--out", "DIR"]],
        ids=["verify", "adjoin-i-bound", "thm12-tower"],
    )
    def test_unreadable_path_is_one(self, capsys, tmp_path, argv):
        # a directory where a file is read or written is an OSError, not a crash
        code, out, err = capture(capsys, [str(tmp_path) if a == "DIR" else a for a in argv])
        assert code == 1 and out == ""
        [line] = err.strip().splitlines()
        assert json.loads(line)["error"]["kind"] == "invalid-argument"

    def test_unknown_flag_is_one(self, capsys):
        code, _, err = capture(capsys, ["northcott-bounds", "--primes", "2", "--frobnicate"])
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand_is_one(self, capsys):
        code, _, _ = capture(capsys, ["not-a-command"])
        assert code == 1

    def test_resource_error_is_two(self, capsys):
        code, _, err = capture(
            capsys,
            ["sfrak-sum", "--basis", "2", "--prime-ceiling", "100000",
             "--budget-sieve", "1000"],
        )
        assert code == 2
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["error"]["kind"] == "resource"

    def test_prop71_third_stage_resource_error(self, capsys):
        code, _, err = capture(capsys, ["prop71-tower", "--stages", "3"])
        assert code == 2
        assert "stage 3" in err

    def test_verification_failure_is_three(self, capsys, tmp_path):
        code, out, _ = capture(capsys, ["prop71-tower", "--stages", "1"])
        assert code == 0
        doc = json.loads(out)
        doc["stages"][0]["block_sum"] += 1.0
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        code, out, err = capture(capsys, ["verify", str(path)])
        assert code == 3
        report = json.loads(out)
        assert report["verified"] is False and report["issues"]
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["error"]["kind"] == "verification"

    def test_verify_reports_primality_per_stage(self, capsys, tmp_path, thm12_two_stage):
        docs = [traceio.trace_to_doc(thm12_two_stage)]
        for argv in (["thm12-tower", "--stages", "1"], ["prop71-tower", "--stages", "2"],
                     ["construct-quadratic", "--split", "3,7,11,19,23", "--inert", "5,13,17"]):
            code, out, _ = capture(capsys, argv)
            assert code == 0
            docs.append(json.loads(out))
        refused = copy.deepcopy(docs[2])
        refused["stages"][0]["field_added"] = {"value": 6721, "factors": [[6721, 1]]}
        path = tmp_path / "trace.json"
        for doc, want in [(doc, ["proved"] * len(doc["stages"])) for doc in docs] + [
                (refused, [None, "proved"])]:
            path.write_text(json.dumps(doc))
            code, out, _ = capture(capsys, ["verify", str(path)])
            report = json.loads(out)
            assert report["primality"] == want
            assert code == (0 if report["verified"] else 3)
        assert "claimed factor 6721 is not prime" in report["issues"][0]

    @pytest.mark.parametrize(
        "build, check",
        [
            (["thm12-tower", "--stages", "1"], ["verify"]),
            (["thm12-tower", "--stages", "1"],
             ["adjoin-i-bound", "--prime-ceiling", "1000", "--in"]),
            (["construct-quadratic", "--split", "5", "--inert", "3"], ["verify"]),
        ],
    )
    def test_trace_without_stages_is_one(self, capsys, tmp_path, build, check):
        code, out, _ = capture(capsys, build)
        assert code == 0
        doc = json.loads(out)
        doc["stages"] = []
        path = tmp_path / "no_stages.json"
        path.write_text(json.dumps(doc))
        code, out, err = capture(capsys, check + [str(path)])
        assert code == 1 and out == ""
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["error"]["kind"] == "invalid-argument"
        assert "does not match the schema" in diag["error"]["message"]

    @pytest.mark.parametrize("check", [["verify"],
                                       ["adjoin-i-bound", "--prime-ceiling", "1000", "--in"]],
                             ids=["verify", "adjoin-i-bound"])
    @pytest.mark.parametrize(
        "build, edit, issue",
        [
            (["thm12-tower", "--stages", "1"],
             lambda doc: doc["stages"][0].update(field_added={"value": 1, "factors": []}),
             "rational field"),
            (["construct-quadratic", "--split", "5", "--inert", "3"],
             lambda doc: doc["params"].update(split=[4]), "odd primes, got 4"),
            (["construct-quadratic", "--split", "5", "--inert", "3"],
             lambda doc: doc["params"].pop("split"), "params: missing 'split'"),
            (["construct-quadratic", "--split", "5", "--inert", "3"],
             lambda doc: doc["params"].update(split=5), "params: 'int' object is not iterable"),
            (["thm12-tower", "--stages", "1"],
             lambda doc: doc["stages"][0]["field_added"]["factors"].append(
                 doc["stages"][0]["field_added"]["factors"][0]),
             "strictly increasing"),
            (["construct-quadratic", "--split", "5", "--inert", "3"],
             lambda doc: doc["stages"][0]["field_added"]["factors"].extend([[-1, 1], [-1, 1]]),
             "claimed factor -1 is not prime"),
            (["construct-quadratic", "--split", "5", "--inert", "3"],
             lambda doc: doc["stages"][0]["field_added"]["factors"].append([-1, 2]),
             "factor -1^2 is not squarefree"),
            # past the sieve ceiling: the block rule stops at the honest block's end
            (["thm12-tower", "--stages", "1"],
             lambda doc: doc["stages"][0].update(n=2 * 10**8),
             "stage 1: the last block prime is not 199999999"),
            # JSON Schema counts 32.0 an integer; the verifier refuses it
            (["thm12-tower", "--stages", "1"], lambda doc: doc["stages"][0].update(n=32.0),
             "$.stages[0].n is 32.0, not an integer"),
            (["prop71-tower", "--stages", "2"], lambda doc: doc["stages"][1].update(n=32.0),
             "$.stages[1].n is 32.0, not an integer"),
            (["thm12-tower", "--stages", "1"],
             lambda doc: doc["stages"][0].update(auxiliary_primes=[5.0]),
             "$.stages[0].auxiliary_primes[0] is 5.0, not an integer"),
            (["thm12-tower", "--stages", "1"], lambda doc: doc["stages"][0].update(index=1.0),
             "$.stages[0].index is 1.0, not an integer"),
            (["thm12-tower", "--stages", "1"],
             lambda doc: doc["stages"][0]["block_primes"].__setitem__(0, 3.0),
             "$.stages[0].block_primes[0] is 3.0, not an integer"),
            (["construct-quadratic", "--split", "5", "--inert", "3"],
             lambda doc: doc["params"].update(inert=[3.0]), "params: prime 3.0 is not an integer"),
            # integral floats reached through oneOf, prefixItems and $ref
            (["prop71-tower", "--stages", "2"],
             lambda doc: doc["stages"][1]["widmer"].update(stage=2.0),
             "$.stages[1].widmer.stage is 2.0, not an integer"),
            (["prop71-tower", "--stages", "2"],
             lambda doc: doc["stages"][0]["field_added"]["factors"][0].__setitem__(0, 2521.0),
             "$.stages[0].field_added.factors[0][0] is 2521.0, not an integer"),
            (["prop71-tower", "--stages", "2"],
             lambda doc: doc["stages"][0]["field_added"].update(value=2521.0),
             "$.stages[0].field_added.value is 2521.0, not an integer"),
            # a split-prime generator below 2 has no discriminant-norm record to derive
            (["prop71-tower", "--stages", "2"],
             lambda doc: doc["stages"][0].update(
                 field_added={"value": -2521, "factors": [[2521, 1], [-1, 1]]}),
             "stage 1: field_added -2521 is not one positive prime"),
            (["prop71-tower", "--stages", "2"],
             lambda doc: doc["stages"][0].update(field_added={"value": -1, "factors": [[-1, 1]]}),
             "stage 1: field_added -1 is not one positive prime"),
        ],
        ids=["field-added-one", "split-four", "split-missing", "split-not-a-list",
             "factor-twice", "sign-twice", "sign-squared", "n-past-sieve-ceiling",
             "n-float-stage-1", "n-float-stage-2", "auxiliary-prime-float", "index-float",
             "block-prime-float", "inert-prime-float", "widmer-stage-float-one-of",
             "factor-float-prefix-items", "value-float-ref", "prop71-generator-negative",
             "prop71-generator-minus-one"],
    )
    def test_rejected_document_values_are_three(self, capsys, tmp_path, check, build, edit,
                                                 issue):
        code, out, _ = capture(capsys, build)
        assert code == 0
        doc = json.loads(out)
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        code, out, err = capture(capsys, check + [str(path)])
        assert code == 3
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["error"]["kind"] == "verification"
        assert issue in diag["error"]["message"]
        if check == ["verify"]:
            assert any(issue in line for line in json.loads(out)["issues"])

    @pytest.mark.parametrize("check", [["verify"],
                                       ["adjoin-i-bound", "--prime-ceiling", "1000", "--in"]],
                             ids=["verify", "adjoin-i-bound"])
    def test_honest_trace_over_its_sieve_budget_is_two(self, capsys, tmp_path, check):
        code, out, _ = capture(capsys, ["thm12-tower", "--stages", "1"])
        assert code == 0 and json.loads(out)["stages"][0]["block_primes"][-1] == 31
        path = tmp_path / "trace.json"
        path.write_text(out)
        code, out, err = capture(capsys, [*check, str(path), "--budget-sieve", "20"])
        assert code == 2 and out == ""
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["error"] == {"kind": "resource",
                                 "message": "stage 1: block scan exhausted the sieve ceiling 20"}

    def test_missing_file_is_one(self, capsys):
        code, _, _ = capture(capsys, ["verify", "/nonexistent/trace.json"])
        assert code == 1


class TestOutputsAndFormats:
    def test_construct_quadratic_doc(self, capsys):
        code, out, _ = capture(capsys, ["construct-quadratic", "--split", "5", "--inert", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["m"] == 11 and doc["verified"] is True
        assert doc["construction"] == "construct-quadratic"

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "bounds.json"
        code, out, _ = capture(
            capsys, ["northcott-bounds", "--primes", "2,3", "--out", str(path)]
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["primes"] == [2, 3]

    def test_density_csv(self, capsys):
        code, out, _ = capture(
            capsys,
            ["density-check", "--basis", "-1", "--prime-ceiling", "2000",
             "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,count,expected,ratio"
        assert len(lines) > 3

    def test_csv_rejected_elsewhere(self, capsys):
        code, _, err = capture(
            capsys, ["northcott-bounds", "--primes", "2", "--format", "csv"]
        )
        assert code == 1
        assert "csv" in err

    def test_human_format(self, capsys):
        code, out, _ = capture(
            capsys, ["northcott-bounds", "--primes", "2", "--format", "human"]
        )
        assert code == 0
        assert "lower" in out and "{" not in out

    def test_env_override_format(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLITLAB_FORMAT", "human")
        code, out, _ = capture(capsys, ["northcott-bounds", "--primes", "2"])
        assert code == 0
        assert "{" not in out

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLITLAB_FORMAT", "human")
        code, out, _ = capture(
            capsys, ["northcott-bounds", "--primes", "2", "--format", "json"]
        )
        assert code == 0
        json.loads(out)

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLITLAB_BUDGET_SIEVE", "1000")
        code, _, _ = capture(capsys, ["sfrak-sum", "--basis", "2", "--prime-ceiling", "5000"])
        assert code == 2

    def test_bad_env_budget_is_invalid_argument(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLITLAB_BUDGET_SIEVE", "soon")
        code, _, err = capture(capsys, ["sfrak-sum", "--basis", "2", "--prime-ceiling", "5000"])
        assert code == 1
        assert "SPLITLAB_BUDGET_SIEVE" in err


# The budget flags and environment variables each subcommand reads, and a
# cheap invocation of it; trace commands get the path of a one-stage tower.
SETTINGS = {
    "construct-quadratic": (["ap"], ["BUDGET_AP", "MODULUS_BITS"],
                            ["--split", "5", "--inert", "3"]),
    "thm12-tower": (["ap", "sieve"], ["BUDGET_AP", "BUDGET_SIEVE", "MODULUS_BITS", "STAGE_CAP"],
                    ["--stages", "1"]),
    "prop71-tower": (["ap", "sieve"], ["BUDGET_AP", "BUDGET_SIEVE", "MODULUS_BITS", "STAGE_CAP"],
                     ["--stages", "1"]),
    "sfrak-sum": (["sieve"], ["BUDGET_SIEVE"], ["--basis", "2", "--prime-ceiling", "1000"]),
    "adjoin-i-bound": (["sieve"], ["BUDGET_SIEVE"], ["--prime-ceiling", "1000", "--in"]),
    "northcott-bounds": ([], [], ["--primes", "2,3"]),
    "northcott-select": (["sieve"], ["BUDGET_SIEVE"], ["--r", "1", "--epsilon", "0.5"]),
    "density-check": (["sieve"], ["BUDGET_SIEVE"], ["--basis=-1", "--prime-ceiling", "1000"]),
    "inert-companion": (["ap"], ["BUDGET_AP"], ["--p", "3", "--mod-power", "2", "--want", "inert"]),
    "verify": (["sieve"], ["BUDGET_SIEVE"], []),
}
BUDGET_VARIABLES = ["BUDGET_AP", "BUDGET_SIEVE", "MODULUS_BITS", "STAGE_CAP"]


@pytest.fixture(scope="module")
def one_stage_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "thm12.json"
    assert run(["thm12-tower", "--stages", "1", "--out", str(path)]) == 0
    return str(path)


def invocation(command, trace):
    argv = [command] + SETTINGS[command][2]
    return argv + [trace] if command in ("adjoin-i-bound", "verify") else argv


class TestSettings:
    def test_each_subcommand_offers_only_what_it_reads(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(SETTINGS)
        for command, parser in sub.choices.items():
            flags = {o for a in parser._actions for o in a.option_strings}
            budgets = sorted(f[len("--budget-"):] for f in flags if f.startswith("--budget-"))
            assert budgets == sorted(SETTINGS[command][0]), command
            (fmt,) = [a for a in parser._actions if "--format" in a.option_strings]
            csv = ("csv",) if command == "density-check" else ()
            assert set(fmt.choices) == {"json", "human", *csv}, command

    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_unread_budget_variables_are_ignored(self, capsys, monkeypatch, command,
                                                 one_stage_trace):
        argv = invocation(command, one_stage_trace)
        expected = capture(capsys, argv)
        assert expected[0] == 0
        for name in BUDGET_VARIABLES:
            if name not in SETTINGS[command][1]:
                monkeypatch.setenv("SPLITLAB_" + name, "soon")
        assert capture(capsys, argv) == expected

    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_read_budget_variables_are_checked(self, capsys, monkeypatch, command,
                                               one_stage_trace):
        for name in SETTINGS[command][1]:
            with monkeypatch.context() as env:
                env.setenv("SPLITLAB_" + name, "soon")
                code, out, err = capture(capsys, invocation(command, one_stage_trace))
            assert code == 1 and out == "", name
            diag = json.loads(err)
            assert diag["error"]["kind"] == "invalid-argument"
            assert "SPLITLAB_" + name in diag["error"]["message"]

    @pytest.mark.parametrize(
        "command, flag",
        [("inert-companion", ["--budget-sieve", "5"]),
         ("verify", ["--budget-ap", "5"]),
         ("northcott-bounds", ["--budget-ap", "0"])],
    )
    def test_unread_budget_flags_are_rejected(self, capsys, command, flag, one_stage_trace):
        code, out, err = capture(capsys, invocation(command, one_stage_trace) + flag)
        assert code == 1 and out == ""
        assert "unrecognized arguments: --budget-" in err

    @pytest.mark.parametrize("value", ["bogus", "csv", "JSON"])
    def test_unoffered_env_format_is_invalid_argument(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SPLITLAB_FORMAT", value)
        code, out, err = capture(capsys, ["northcott-bounds", "--primes", "2"])
        assert code == 1 and out == ""
        diag = json.loads(err)
        assert diag["error"]["kind"] == "invalid-argument"
        assert f"SPLITLAB_FORMAT={value!r}" in diag["error"]["message"]

    def test_env_csv_on_density_check(self, capsys, monkeypatch):
        argv = ["density-check", "--basis=-1", "--prime-ceiling", "2000"]
        flagged = capture(capsys, argv + ["--format", "csv"])
        monkeypatch.setenv("SPLITLAB_FORMAT", "csv")
        assert capture(capsys, argv) == flagged
        assert flagged[1].startswith("x,count,expected,ratio\n")


class TestPipelines:
    def test_tower_verify_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "tower.json"
        code, _, _ = capture(capsys, ["prop71-tower", "--stages", "2", "--out", str(path)])
        assert code == 0
        code, out, _ = capture(capsys, ["verify", str(path)])
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_adjoin_i_bound_pipeline(self, capsys, tmp_path):
        path = tmp_path / "thm12.json"
        code, _, _ = capture(capsys, ["thm12-tower", "--stages", "1", "--out", str(path)])
        assert code == 0
        code, out, _ = capture(
            capsys,
            ["adjoin-i-bound", "--in", str(path), "--prime-ceiling", "100000"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total_upper_bound"] < 0.6

    def test_adjoin_i_bound_verifies_its_trace(self, capsys, tmp_path):
        code, out, _ = capture(capsys, ["thm12-tower", "--stages", "1"])
        assert code == 0
        doc = json.loads(out)
        doc["stages"][0]["block_sum"] += 0.5  # every stored flag still reads true
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        code, out, err = capture(
            capsys, ["adjoin-i-bound", "--in", str(path), "--prime-ceiling", "1000"]
        )
        assert code == 3 and out == ""
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["error"]["kind"] == "verification"
        assert "block sum does not match the recomputation" in diag["error"]["message"]

    def test_adjoin_i_bound_proves_each_generator_once(
        self, capsys, tmp_path, monkeypatch, thm12_two_stage
    ):
        path = tmp_path / "thm12.json"
        path.write_text(traceio.dumps_canonical(traceio.trace_to_doc(thm12_two_stage)))
        generator = thm12_two_stage.stages[1].field_added.value
        tested = []

        def counting_primality(n, factor_base):
            tested.append(n)
            return primality(n, factor_base)

        monkeypatch.setattr(traceio, "primality", counting_primality)
        code, out, _ = capture(
            capsys, ["adjoin-i-bound", "--in", str(path), "--prime-ceiling", "1000"]
        )
        assert code == 0 and json.loads(out)["field_degree"] == 8
        assert tested.count(generator) == 1

    def test_quadratic_verify_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "quad.json"
        code, _, _ = capture(
            capsys,
            ["construct-quadratic", "--ramified", "11", "--two", "inert",
             "--out", str(path)],
        )
        assert code == 0
        code, out, _ = capture(capsys, ["verify", str(path)])
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_console_entry_point(self):
        proc = run_cli(["northcott-bounds", "--primes", "2"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["lower"] > 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["construct-quadratic", "--split", "5,13", "--inert", "3", "--two", "split"],
            ["sfrak-sum", "--basis=-1,2", "--prime-ceiling", "10000", "--terms"],
            ["northcott-bounds", "--primes", "2,3,5,7"],
            ["northcott-select", "--r", "1", "--epsilon", "0.5"],
            ["density-check", "--basis", "-1", "--prime-ceiling", "2000"],
            ["density-check", "--basis", "2,5", "--prime-ceiling", "2000", "--format", "csv"],
            ["inert-companion", "--p", "7", "--mod-power", "3", "--want", "inert"],
            ["prop71-tower", "--stages", "2"],
        ],
    )
    def test_byte_identical_runs(self, capsys, args):
        first = capture(capsys, args)
        second = capture(capsys, args)
        assert first == second
        assert first[0] == 0

    def test_shared_parser_keeps_calls_apart(self, capsys):
        # One parser serves every call in a process; a call must not see
        # another call's lists, nor leave anything in a flag's default.
        assert build_parser() is build_parser()
        five = ["construct-quadratic", "--split", "5", "--inert", "3"]
        first = capture(capsys, five)
        seven = capture(capsys, ["construct-quadratic", "--split", "7", "--inert", "11"])
        bare = capture(capsys, ["construct-quadratic", "--inert", "3"])
        assert capture(capsys, five) == first
        assert json.loads(first[1])["params"]["split"] == [5]
        assert json.loads(seven[1])["params"]["split"] == [7]
        assert json.loads(bare[1])["params"]["split"] == []
