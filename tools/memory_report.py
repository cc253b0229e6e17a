"""Print the memory footprint of each benchmark workload's pipeline.

    python3 tools/memory_report.py SRC [WORKLOAD]

SRC is the `src` directory of a checkout; its `pdeopt` runs the benchmark
workloads at seed 0 (taken from `perfbench/workloads.py` next to this
script), or only WORKLOAD, through `pdeopt.cli.run`.  Each workload runs in
a child process of its own, since the page faults of a run depend on what
the heap holds from earlier runs in the same process, and prints one line
with:

- the tracemalloc peak of one run, in trajectories of (time.nt + 1) x n
  float64 values, and the innermost `pdeopt` functions (up to three, inner
  first) that were running when the traced memory reached that peak (a
  profile hook reads the peak at every call and return);
- the forward and adjoint solves of that traced run, counted by the same
  hook: the optimizer's algorithmic cost, apart from the speed of a step;
- the minor page faults (`ru_minflt`) of one untraced run, the median of
  REPEATS runs after one warm-up run.  Fresh pages the heap maps, and
  remaps after returning them to the system, show up here;
- the peak RSS (`ru_maxrss`) in MiB of a fresh interpreter that imports
  `pdeopt`, reads the workload's INI file and runs the pipeline once, as
  `perfbench/probe.py rss` does for the benchmark's `peak_rss_mb`;
- that peak above the same interpreter's peak RSS after importing
  `pdeopt`, before the run.  What the interpreter maps for the checkout
  itself (module paths, bytecode) is below this baseline, so this column
  compares the code of two checkouts where the total can differ by up to
  1 MiB for the same code in directories of other names, or where one
  tree imports cached bytecode and the other compiles from source.

BLAS runs on one thread, as in `perfbench/run.py`, unless the environment
sets the thread counts.

A run that raises ends the script with a traceback and a nonzero status.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
DEPTH = 3
SOLVES = {("pdeopt.forward", "solve_forward"): "forward",
          ("pdeopt.adjoint", "solve_adjoint"): "adjoint"}
# argv: SRC SUBCOMMAND CONFIG.ini OUT_DIR; prints ru_maxrss in KiB after the
# imports and after the run
FRESH_RUN = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from pdeopt import cli
from pdeopt.config import ExperimentConfig
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
cli.run(sys.argv[2], ExperimentConfig.from_ini(sys.argv[3]), sys.argv[4])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _fresh_rss_mib(src: str, subcommand: str, cfg, tmp: Path) -> tuple[float, float]:
    """Peak RSS of a fresh interpreter after importing `pdeopt` and after
    one run of the pipeline, in MiB."""
    ini = tmp / "input.ini"
    cfg.to_ini(ini)
    out = subprocess.run([sys.executable, "-c", FRESH_RUN, str(Path(src).resolve()),
                          subcommand, str(ini), str(tmp / "fresh")],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.split()
    return int(lines[0]) / 1024, int(lines[-1]) / 1024  # KiB on Linux


def _faults_per_run(run) -> int:
    run()  # warm-up: imports, first-use caches, the heap's first growth
    counts = []
    for _ in range(REPEATS):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run()
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return int(statistics.median(counts))


def _traced_peak(run) -> tuple[int, str, dict]:
    """Peak traced bytes above those live at the start, where it fell, and
    the forward and adjoint solves of the run."""
    peak, where = 0, "(outside pdeopt)"
    solves = dict.fromkeys(SOLVES.values(), 0)

    def hook(frame, event, _arg):
        nonlocal peak, where
        if event == "call":
            kind = SOLVES.get((frame.f_globals.get("__name__"), frame.f_code.co_name))
            if kind is not None:
                solves[kind] += 1
        now = tracemalloc.get_traced_memory()[1]
        if now <= peak:
            return
        peak = now
        # the peak grew while the caller of a new frame was running
        f = frame.f_back if event == "call" else frame
        chain = []
        while f is not None and len(chain) < DEPTH:
            module = f.f_globals.get("__name__", "")
            if module.startswith("pdeopt."):
                code = f.f_code
                chain.append(f"{module}.{getattr(code, 'co_qualname', code.co_name)}")
            f = f.f_back
        where = " < ".join(chain) or "(outside pdeopt)"

    tracemalloc.start()
    try:
        base = peak = tracemalloc.get_traced_memory()[0]
        sys.setprofile(hook)
        try:
            run()
        finally:
            sys.setprofile(None)
        return peak - base, where, solves
    finally:
        tracemalloc.stop()


def _report(src: str, name: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    import workloads
    from pdeopt.cli import run
    from pdeopt.config import ExperimentConfig

    subcommand, configs, _ = workloads.make_inputs(name, 0)
    cfg = ExperimentConfig(values=configs[0])
    trajectory = 8 * (cfg["time.nt"] + 1) * cfg.build_grid().size
    with tempfile.TemporaryDirectory() as tmp:
        base_rss, max_rss = _fresh_rss_mib(src, subcommand, cfg, Path(tmp))

        def once():
            run(subcommand, cfg, Path(tmp) / name)

        faults = _faults_per_run(once)
        peak, where, solves = _traced_peak(once)
    print(f"{name}: traced peak {peak / 2**20:.2f} MiB = "
          f"{peak / trajectory:.2f} trajectories of {trajectory / 2**20:.2f} MiB "
          f"in {where}; peak RSS {max_rss:.2f} MiB, {max_rss - base_rss:.2f} MiB "
          f"above the imports; {faults} minor faults per run; "
          f"{solves['forward']} forward and {solves['adjoint']} adjoint solves",
          flush=True)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    if len(argv) == 2:
        if argv[1] not in workloads.WORKLOADS:
            print(f"unknown workload {argv[1]!r}; one of {', '.join(workloads.WORKLOADS)}",
                  file=sys.stderr)
            return 2
        _report(*argv)
        return 0
    for name in workloads.WORKLOADS:
        if subprocess.run([sys.executable, __file__, argv[0], name]).returncode:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
