"""Regenerate bench/reference.json: the deterministic outputs the checks
compare against, for the full and the smoke sizes.

    python3 bench/make_reference.py

The committed file was taken from the commit that introduced the benchmark.
Regenerate it only on purpose (a new op, or an output whose change has been
reviewed); otherwise the checks would compare the tree with itself.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    ref = {}
    with tempfile.TemporaryDirectory() as workdir:
        for smoke in (False, True):
            for name in workloads.BUILDERS:
                for op in workloads.build(name, 0, smoke, Path(workdir)):
                    if op.ref_key is not None and op.ref_key not in ref:
                        ref[op.ref_key] = op.reference(op.call())
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ref)} entries to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
