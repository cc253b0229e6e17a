"""Fresh-interpreter probes, run as child processes by `run.py`.

    python3 perfbench/probe.py setup SUBCOMMAND CONFIG.ini OUT_DIR
        Runs the pipeline until its first Crank-Nicolson factorization is
        ready, stops it there, and prints that moment on the
        CLOCK_MONOTONIC clock (`time.perf_counter`), which the parent
        shares.
    python3 perfbench/probe.py rss SUBCOMMAND CONFIG.ini OUT_DIR
        Runs the whole pipeline and prints the process's peak RSS in KiB.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class _Ready(BaseException):
    """Carries the ready time out of the pipeline; no handler in the
    program catches a BaseException."""


def _stop_after_first_factorization() -> None:
    from pdeopt import forward
    factors = forward.crank_nicolson_factors

    def ready(*args, **kwargs):
        factors(*args, **kwargs)
        raise _Ready(time.perf_counter())

    for name, mod in list(sys.modules.items()):
        if name.startswith("pdeopt."):
            for key, value in list(vars(mod).items()):
                if value is factors:
                    setattr(mod, key, ready)


def main(argv: list[str]) -> int:
    mode, subcommand, ini, out = argv
    from pdeopt import cli
    from pdeopt.config import ExperimentConfig

    if mode == "rss":
        cli.run(subcommand, ExperimentConfig.from_ini(ini), out)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return 0
    _stop_after_first_factorization()
    try:
        cli.run(subcommand, ExperimentConfig.from_ini(ini), out)
    except _Ready as done:
        print(repr(done.args[0]))
        return 0
    print("pipeline ended without a Crank-Nicolson factorization", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
