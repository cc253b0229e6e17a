"""Print how far the summary.json numbers of two checkouts drift apart.

    python3 tools/summary_drift.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the `src` directories of two checkouts.  Each
runs the thirteen configs of `tools/artifact_hashes.py` in a child process
of its own (both packages are named `pdeopt`).  Then one line per run gives
its label and the worst relative change of any number in its summary.json,
with the key where it occurs.  A scalar is measured against the larger of
its two magnitudes, and a list of numbers against its largest entry in
magnitude, so a component that is zero up to rounding next to O(1) entries
does not read as a large change.  Below the run, one indented line names
each non-numeric difference (a string, flag, null or non-finite value, a
key on one side only, a list of another length) and each changed integer,
since integers here are counts.  A run that raises ends the script with a
traceback and a nonzero status; drift alone never does.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent

_CHILD = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from artifact_hashes import write_runs
for _ in write_runs(sys.argv[2], Path(sys.argv[3])):
    pass
"""


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _rel(a: list, b: list) -> float:
    scale = max(abs(x) for x in a + b)
    return max(abs(x - y) for x, y in zip(a, b)) / scale if scale else 0.0


def drift(a, b, key: str, diffs: list) -> tuple[float, str]:
    """(worst relative change, its key) between two JSON values; every
    non-numeric difference and changed integer is appended to ``diffs``."""
    if _is_number(a) and _is_number(b):
        if isinstance(a, int) and isinstance(b, int) and a != b:
            diffs.append(f"{key}: {a} -> {b}")
        return _rel([a], [b]), key
    if isinstance(a, dict) and isinstance(b, dict):
        worst = (0.0, key)
        for k in sorted(a.keys() | b.keys()):
            sub = f"{key}.{k}" if key else k
            if k not in a or k not in b:
                diffs.append(f"{sub}: only in {'base' if k in a else 'head'}")
            else:
                worst = max(worst, drift(a[k], b[k], sub, diffs), key=lambda t: t[0])
        return worst
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        if a and all(_is_number(x) for x in a + b):
            return _rel(a, b), key
        worst = (0.0, key)
        for i, (x, y) in enumerate(zip(a, b)):
            worst = max(worst, drift(x, y, f"{key}[{i}]", diffs), key=lambda t: t[0])
        return worst
    if json.dumps(a) != json.dumps(b):
        diffs.append(f"{key}: {json.dumps(a)} -> {json.dumps(b)}")
    return 0.0, key


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, str(TOOLS))
    from artifact_hashes import runs

    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / side for side in ("base", "head")]
        for src, root in zip(argv, roots):
            subprocess.run([sys.executable, "-c", _CHILD, str(TOOLS), src, str(root)],
                           check=True)
        for label, _, _ in runs():
            a, b = (json.loads((root / label / "summary.json").read_text()) for root in roots)
            diffs: list[str] = []
            worst, key = drift(a, b, "", diffs)
            print(f"{label}: worst relative change {worst:.1e}" + (f" at {key}" if worst else ""))
            for line in diffs:
                print(f"    {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
