"""Compare the artifacts of a fixed set of pipeline runs on two checkouts.

    python3 tools/summary_drift.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the `src` directories of two checkouts.  Each
checkout runs fifteen configs through `pdeopt.cli.run`, once, in a child
process of its own (both packages are named `pdeopt`): the three benchmark
workloads at seed 0 (taken from `perfbench/workloads.py` next to this
script), `simulate`, `gradcheck`, `riccati-validate`, `optimize` and
`worst-ic` on KS with n = 64, nt = 100 and on linear heat 8x8 with
nt = riccati.nt = 100 (KS `riccati-validate` and `worst-ic` on the linear
model), and `riccati-validate` on linear KS at lambda = 60 and at
lambda = 40 (tau = 0.5, riccati.nt = 800, n = 64), whose unstable operators
keep Pi dense; the lambda = 40 cross-check concludes, the lambda = 60 one
does not.

Then one line per run gives its label, the worst relative change of any
float in its summary.json, with the key where it occurs, and the artifacts
whose bytes differ (or "byte-identical"); `manifest.json` is left out, since
its wall time differs on every run.  A scalar is measured against the
larger of its two magnitudes, and a list of floats against its largest
entry in magnitude, so a component that is zero up to rounding next to O(1)
entries does not read as a large change.  Below the run, one indented line
names each non-numeric difference (a string, flag, null or non-finite
value, a key on one side only, a list of another length), each changed
integer, since integers here are counts, and each changed stopping residual
(`res_u`, `res_r`, `kkt_residual`), which only has to stay below its
tolerance and moves with the optimizer's path.  A run that raises ends the
script with a traceback and a nonzero status; drift alone never does.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent

_KS = {"model.kind": "ks", "grid.n": 64, "time.nt": 100}
_HEAT = {"model.kind": "heat", "model.linear": True, "grid.nx": 8, "grid.ny": 8,
         "time.nt": 100, "riccati.nt": 100}
_KS_DENSE = {"model.kind": "ks", "model.linear": True, "grid.n": 64, "time.tau": 0.5,
             "riccati.nt": 800}
_PIPELINES = ("simulate", "gradcheck", "riccati-validate", "optimize", "worst-ic")
_RESIDUALS = ("res_u", "res_r", "kkt_residual")

_CHILD = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from summary_drift import write_runs
write_runs(sys.argv[2], Path(sys.argv[3]))
"""


def runs() -> list[tuple[str, str, dict]]:
    """(label, subcommand, config values) of every run, in print order."""
    sys.path.insert(0, str(TOOLS.parent / "perfbench"))
    import workloads

    out = []
    for name in workloads.WORKLOADS:
        subcommand, configs, _ = workloads.make_inputs(name, 0)
        out.append((name, subcommand, configs[0]))
    for sub in _PIPELINES:
        linear = {"model.linear": True} if sub in ("riccati-validate", "worst-ic") else {}
        out.append((f"ks-n64-{sub}", sub, {**_KS, **linear}))
    for sub in _PIPELINES:
        out.append((f"heat-8x8-{sub}", sub, dict(_HEAT)))
    for lam in (60, 40):
        out.append((f"ks{lam}-n64-riccati-validate", "riccati-validate",
                    {**_KS_DENSE, "model.lambda": float(lam)}))
    return out


def write_runs(src, root: Path) -> None:
    """Run every config with the `pdeopt` under ``src`` into ``root / label``."""
    sys.path.insert(0, str(Path(src).resolve()))
    from pdeopt.cli import run
    from pdeopt.config import ExperimentConfig

    for label, sub, values in runs():
        run(sub, ExperimentConfig(values=values), root / label)


def _is_float(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def _rel(a: list, b: list) -> float:
    scale = max(abs(x) for x in a + b)
    return max(abs(x - y) for x, y in zip(a, b)) / scale if scale else 0.0


def drift(a, b, key: str, diffs: list) -> tuple[float, str]:
    """(worst relative change of a finite float, its key) between two JSON
    values; every other difference, a changed integer or stopping residual
    among them, is appended to ``diffs``."""
    if _is_float(a) and _is_float(b) and key not in _RESIDUALS:
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
        if a and all(_is_float(x) for x in a + b):
            return _rel(a, b), key
        worst = (0.0, key)
        for i, (x, y) in enumerate(zip(a, b)):
            worst = max(worst, drift(x, y, f"{key}[{i}]", diffs), key=lambda t: t[0])
        return worst
    if json.dumps(a) != json.dumps(b):
        diffs.append(f"{key}: {json.dumps(a)} -> {json.dumps(b)}")
    return 0.0, key


def changed_artifacts(base: Path, head: Path) -> list[str]:
    """Names of the artifacts, `manifest.json` aside, whose bytes differ or
    that exist on one side only."""
    names = {p.name for d in (base, head) for p in d.iterdir()
             if p.is_file() and p.name != "manifest.json"}
    return [n for n in sorted(names)
            if not ((base / n).is_file() and (head / n).is_file()
                    and (base / n).read_bytes() == (head / n).read_bytes())]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / side for side in ("base", "head")]
        for src, root in zip(argv, roots):
            subprocess.run([sys.executable, "-c", _CHILD, str(TOOLS), src, str(root)],
                           check=True)
        for label, _, _ in runs():
            base, head = (root / label for root in roots)
            a, b = (json.loads((d / "summary.json").read_text()) for d in (base, head))
            diffs: list[str] = []
            worst, key = drift(a, b, "", diffs)
            changed = changed_artifacts(base, head)
            print(f"{label}: worst relative change {worst:.1e}"
                  + (f" at {key}" if worst else "")
                  + (f"; bytes differ: {' '.join(changed)}" if changed
                     else "; byte-identical"))
            for line in diffs:
                print(f"    {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
