"""Print the SHA-256 of every artifact of a fixed set of pipeline runs.

    python3 tools/artifact_hashes.py SRC

SRC is the `src` directory of a checkout; its `pdeopt` runs thirteen
configs through `pdeopt.cli.run`: the three benchmark workloads at seed 0
(taken from `perfbench/workloads.py` next to this script), and
`simulate`, `gradcheck`, `riccati-validate`, `optimize` and `worst-ic` on
KS with n = 64, nt = 100 and on linear heat 8x8 with
nt = riccati.nt = 100 (KS `riccati-validate` and `worst-ic` on the linear
model).  Each run prints one line: its label, then `name=sha256` for each
artifact except `manifest.json`, whose wall time differs on every run.
Diffing the output of two checkouts shows which artifacts a change moved.
A run that raises ends the script with a traceback and a nonzero status.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_KS = {"model.kind": "ks", "grid.n": 64, "time.nt": 100}
_HEAT = {"model.kind": "heat", "model.linear": True, "grid.nx": 8, "grid.ny": 8,
         "time.nt": 100, "riccati.nt": 100}
_PIPELINES = ("simulate", "gradcheck", "riccati-validate", "optimize", "worst-ic")


def runs() -> list[tuple[str, str, dict]]:
    """(label, subcommand, config values) of every run, in print order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
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
    return out


def write_runs(src, root: Path):
    """Run every config with the `pdeopt` under ``src`` into ``root / label``,
    yielding (label, output directory) after each run."""
    sys.path.insert(0, str(Path(src).resolve()))
    from pdeopt.cli import run
    from pdeopt.config import ExperimentConfig

    for label, sub, values in runs():
        run(sub, ExperimentConfig(values=values), root / label)
        yield label, root / label


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for label, out in write_runs(argv[0], Path(tmp)):
            hashes = [f"{p.name}={hashlib.sha256(p.read_bytes()).hexdigest()}"
                      for p in sorted(out.iterdir())
                      if p.is_file() and p.name != "manifest.json"]
            print(label, *hashes, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
