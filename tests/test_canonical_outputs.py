"""Canonical outputs against the committed manifest, tests/canonical_outputs.txt.

Each line of the manifest is what tools/canonical_outputs.py prints for one
command: the argv, the exit code and the sha256 of its output.  The test
runs the same commands in this process through cli.run and names every one
whose line moved.  A change that moves an output on purpose rewrites those
lines (`python3 tools/canonical_outputs.py . > tests/canonical_outputs.txt`)
and lists them in CHANGES.md.  Per-term float lists (`sfrak-sum --terms`)
stay out of the manifest: each term carries np.log's rounding, which
depends on the CPU numpy dispatches to.
"""

import hashlib
import importlib.util
import os
from pathlib import Path

from splitlab import cli, constructions

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "canonical_outputs.txt"
_spec = importlib.util.spec_from_file_location("canonical_outputs",
                                               ROOT / "tools" / "canonical_outputs.py")
canonical_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(canonical_outputs)


def _run_in_process(workdir, argv, capsys):
    """run_command's (exit code, digest) of one command, run through cli.run."""
    code = cli.run(argv)
    captured = capsys.readouterr()
    output = captured.out.encode()
    if "--out" in argv and code == 0:
        output = (workdir / argv[argv.index("--out") + 1]).read_bytes()
    return code, hashlib.sha256(output + captured.err.encode()).hexdigest()


def test_a_command_is_hashed_by_its_stdout(tmp_path, capsys):
    argv = ["northcott-bounds", "--primes", "2,3"]
    assert cli.run(argv) == 0
    want = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert canonical_outputs.run_command(ROOT, tmp_path, argv) == (0, want)


def test_canonical_outputs_match_the_manifest(tmp_path, monkeypatch, capsys, thm12_two_stage):
    # The default two-stage divergence tower is the session's build; its
    # manifest line shows that it is the one the command builds.
    build = constructions.build_divergence_tower
    monkeypatch.setattr(constructions, "build_divergence_tower", lambda stages, target, **kw: (
        thm12_two_stage if (stages, target) == (2, 1.0) else build(stages, target, **kw)))
    for name in [name for name in os.environ if name.startswith("SPLITLAB_")]:
        monkeypatch.delenv(name)
    monkeypatch.chdir(tmp_path)
    want = MANIFEST.read_text().splitlines()
    got = []
    for argv in canonical_outputs.COMMANDS:
        code, digest = _run_in_process(tmp_path, argv, capsys)
        got.append(f"{' '.join(argv)} {code} {digest}")
    assert len(got) == len(want)
    moved = [" ".join(argv) for argv, line, old in zip(canonical_outputs.COMMANDS, got, want)
             if line != old]
    assert not moved, f"these commands' outputs moved: {moved}"
