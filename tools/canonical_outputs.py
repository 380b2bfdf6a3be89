"""Hashes of the canonical outputs of one checkout, for byte-identity checks.

    python3 tools/canonical_outputs.py CHECKOUT

Runs each command of COMMANDS as `python -m splitlab.cli` with
PYTHONPATH=CHECKOUT/src in one fresh temporary directory, in order (a verify
reads the trace an earlier build wrote there), and prints one line per
command: the argv, the exit code, and the sha256 of its stdout (of its --out
file when it has one) followed by its stderr, where a failing command's
diagnosis goes.  Run it on two checkouts and compare the manifests; equal
manifests mean byte-identical outputs.  SPLITLAB_* environment variables are
cleared, so each command runs on its defaults.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_BASIS = "-1,3,11,29,1073741827"
_TOWERS = [
    ("thm12-tower", "thm12-1.json", ["--stages", "1"]),
    ("thm12-tower", "thm12-2.json", ["--stages", "2"]),
    *(("thm12-tower", f"thm12-2-{t}.json", ["--stages", "2", "--sum-target", t])
      for t in ("0.5", "0.61", "0.77", "0.9")),
    ("prop71-tower", "prop71-2.json", ["--stages", "2"]),
    ("construct-quadratic", "quadratic.json", ["--split", "5", "--inert", "3"]),
]
COMMANDS = [
    *([name, *args, "--out", path] for name, path, args in _TOWERS),
    *(["verify", path] for _, path, _ in _TOWERS),
    ["adjoin-i-bound", "--in", "thm12-2.json", "--prime-ceiling", "1000000"],
    *(["northcott-select", "--r", r, "--epsilon", "0.25"]
      for r in ("0.5", "1.0", "1.3", "1.7", "2.0", "3.0", "50")),
    ["sfrak-sum", f"--basis={_BASIS}", "--prime-ceiling", "10000000"],
    ["density-check", f"--basis={_BASIS}", "--prime-ceiling", "10000000", "--per-decade", "4"],
]


def run_command(checkout: Path, workdir: Path, argv: list[str]) -> tuple[int, str]:
    """(exit code, sha256 hex of stdout or the --out file, then stderr) of one command."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPLITLAB_")}
    env["PYTHONPATH"] = str(Path(checkout).resolve() / "src")
    proc = subprocess.run([sys.executable, "-m", "splitlab.cli", *argv], cwd=workdir,
                          env=env, capture_output=True, check=False)
    output = proc.stdout
    if "--out" in argv and proc.returncode == 0:
        output = (workdir / argv[argv.index("--out") + 1]).read_bytes()
    return proc.returncode, hashlib.sha256(output + proc.stderr).hexdigest()


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in COMMANDS:
            code, digest = run_command(Path(sys.argv[1]), Path(tmp), argv)
            print(" ".join(argv), code, digest, flush=True)


if __name__ == "__main__":
    main()
