"""tools/canonical_outputs.py's per-command hash, on one quick command."""

import hashlib
import importlib.util
from pathlib import Path

from splitlab import cli

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("canonical_outputs",
                                               ROOT / "tools" / "canonical_outputs.py")
canonical_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(canonical_outputs)


def test_a_command_is_hashed_by_its_stdout(tmp_path, capsys):
    argv = ["northcott-bounds", "--primes", "2,3"]
    assert cli.run(argv) == 0
    want = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert canonical_outputs.run_command(ROOT, tmp_path, argv) == (0, want)
