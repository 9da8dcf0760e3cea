"""Print `sha256  path` for every file the criterion-8 pipeline writes.

Runs tests/test_acceptance.py's _run_pipeline once under ACCEPT_CFG in a
temporary directory and lists each file under it, sorted by path, in
sha256sum's format; what the pipeline's commands print goes to stderr.
Run it at two commits and diff the outputs:

    python3 ci/pipeline_sums.py > after.txt
    diff before.txt after.txt

The source tree beside this script is the one that runs: its src/ and
tests/ go first on sys.path.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import ACCEPT_CFG, _run_pipeline  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "exp.cfg"
        cfg.write_text(ACCEPT_CFG)
        root = Path(tmp) / "pipeline"
        with contextlib.redirect_stdout(sys.stderr):  # what the commands print
            _run_pipeline(root, cfg)
        for p in sorted(root.rglob("*")):
            if p.is_file():
                print(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
