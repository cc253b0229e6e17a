"""pdeopt benchmark: times `pdeopt.cli.run` on seeded workloads.

    python3 perfbench/run.py --workload ks-optimize --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

Load is one client in a closed loop: one process runs the pipeline back
to back, each run starting when the previous one ends, cycling through the
seed's inputs (see workloads.py).  `--trace 0`
reports the end-to-end metrics of BENCHMARK.json; `--trace 1` alternates
untraced runs with runs traced by `tracing.Tracer` and reports the per-layer
metrics.  Every run's artifacts are checked, then deleted; the last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The input configs, spans and a full result record
stay in `.perfbench/`.
`--workload all` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # pinned: two OpenBLAS threads on two cores widen the spread
SETUP_PROBES = 11
MIN_RUNS = 3  # timed runs, even when they outlast --seconds
MIN_TRACED = 2  # traced and untraced runs each, in --trace 1
MAX_TRIES = 12  # runs attempted before giving up on reaching the minimum
PROBE_TIMEOUT_S = 120


@dataclass
class Session:
    """One workload and seed: where it runs and how its runs went."""

    workload: str
    subcommand: str
    inis: list[Path]  # one config per input
    work: Path
    references: dict[int, bytes] = field(default_factory=dict)  # first summary.json
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, index: int, out: Path, error: str | None) -> None:
        """Count one run of input `index`; it fails if it raised, if its
        artifacts fail the workload's check, or if its summary.json differs
        from the first run's on the same input."""
        self.attempted += 1
        problems = [error] if error else workloads.check_run(self.workload, out)
        if not error:
            summary = (out / "summary.json").read_bytes()
            first = self.references.setdefault(index, summary)
            if summary != first:
                problems.append("summary.json differs from the first run's")
        if problems:
            self.failed += 1
            self.problems.append(f"run {self.attempted} (input {index}): "
                                 + "; ".join(problems))


def _run_in_process(session: Session, pdeopt, index: int, tracer=None, run_id: int = -1):
    """One `cli.run` on input `index`; its wall seconds, or None if it raised."""
    out = session.work / "run"
    shutil.rmtree(out, ignore_errors=True)
    if tracer is not None:
        tracer.install()
        tracer.begin_run(run_id)
    try:
        cfg = pdeopt.config.ExperimentConfig.from_ini(session.inis[index])
        start = time.perf_counter()
        pdeopt.cli.run(session.subcommand, cfg, out)
        seconds = time.perf_counter() - start
    except Exception as err:  # a failed run is counted, not fatal
        session.record(index, out, f"{type(err).__name__}: {err}")
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    session.record(index, out, None)
    return seconds


def _probe(session: Session, mode: str) -> tuple[float, str]:
    """Run probe.py on input 0 in a fresh interpreter; (spawn time, its
    last line)."""
    out = session.work / f"probe-{mode}"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "probe.py"), mode, session.subcommand,
           str(session.inis[0]), str(out)]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} probe exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return spawned, proc.stdout.split()[-1]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def _end_to_end(session: Session, pdeopt, seconds: float) -> tuple[dict, dict]:
    setup = []

    def probe_setup():
        spawned, ready = _probe(session, "setup")
        setup.append(float(ready) - spawned)

    metrics = {}
    try:
        _, peak_kib = _probe(session, "rss")
        metrics["peak_rss_mb"] = float(peak_kib) / 1024
        session.record(0, session.work / "probe-rss", None)
    except RuntimeError as err:
        session.record(0, session.work / "probe-rss", str(err))

    _run_in_process(session, pdeopt, 0)  # warm-up: lazy imports, first-call paths
    runs = []
    busy, tries = 0.0, 0  # seconds spent in timed runs
    while (len(runs) < MIN_RUNS and tries < MAX_TRIES) or busy < seconds:
        start = time.perf_counter()
        t = _run_in_process(session, pdeopt, tries % len(session.inis))
        busy += time.perf_counter() - start
        tries += 1
        if t is not None:
            runs.append(t)
        if len(setup) < SETUP_PROBES:  # spread the probes over the run
            probe_setup()
    while len(setup) < SETUP_PROBES:
        probe_setup()
    metrics["setup_s"] = statistics.median(setup)
    if runs:
        metrics["run_s"] = statistics.median(runs)
    return metrics, {"run_s": runs, "setup_s": setup}


def _per_layer(session: Session, pdeopt, seconds: float) -> tuple[dict, dict]:
    tracer = tracing.Tracer(pdeopt)
    _run_in_process(session, pdeopt, 0)  # warm-up, untraced
    plain, traced, layer_runs = [], [], []
    start, tries = time.perf_counter(), 0
    while (min(len(plain), len(traced)) < MIN_TRACED and tries < MAX_TRIES) \
            or time.perf_counter() - start < seconds:
        # untraced and traced runs alternate, in pairs on the same input
        index = (tries // 2) % len(session.inis)
        run_id = tries
        tries += 1
        if run_id % 2 == 0:
            t = _run_in_process(session, pdeopt, index)
            if t is not None:
                plain.append(t)
            continue
        t = _run_in_process(session, pdeopt, index, tracer, run_id)
        if t is None:
            continue
        traced.append(t)
        spans = tracer.run_spans(run_id)
        rows = None
        if session.subcommand == "optimize":
            lines = (session.work / "run" / "iterations.csv").read_text().splitlines()
            rows = len(lines) - 1
        for problem in tracing.self_check(spans, rows):
            session.problems.append(f"span self-check, traced run {run_id}: {problem}")
        layer_runs.append(tracing.per_layer(spans))
    tracer.write(session.work / "spans.tsv")
    metrics = {name: statistics.median(run[name] for run in layer_runs)
               for name in (layer_runs[0] if layer_runs else {})}
    if plain and traced:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, {"run_s": plain, "traced_run_s": traced}


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "blas": f"{blas['name']} {blas['version']}",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def _declared(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _import_pdeopt():
    """Import the package from this checkout's sources, or exit."""
    if not (SRC / "pdeopt" / "__init__.py").is_file():
        sys.exit(f"error: no pdeopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdeopt
    import pdeopt.cli  # also loads pdeopt.config
    if Path(pdeopt.__file__).resolve().parent != SRC / "pdeopt":
        sys.exit(f"error: imported pdeopt from {pdeopt.__file__}, not from {SRC}")
    return pdeopt


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    pdeopt = _import_pdeopt()
    units = _declared(trace)
    subcommand, values, drawn = workloads.make_inputs(name, seed)
    cfgs = [pdeopt.config.ExperimentConfig(values=v) for v in values]
    need = max(workloads.riccati_bytes(subcommand, cfg) for cfg in cfgs)
    limit = workloads.memory_limit_bytes()
    if need > limit:
        print(f"error: {name} needs {need / 2**20:.0f} MiB of Riccati storage, over "
              f"{workloads.MEMORY_SHARE:.0%} of memory ({limit / 2**20:.0f} MiB)",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(name, subcommand,
                      [work / f"input{i}.ini" for i in range(len(cfgs))], work)
    for cfg, ini in zip(cfgs, session.inis):
        cfg.to_ini(ini)

    measure = _per_layer if trace else _end_to_end
    metrics, samples = measure(session, pdeopt, seconds)
    for leftover in ("run", "probe-rss", "probe-setup"):  # checked already
        shutil.rmtree(work / leftover, ignore_errors=True)
    missing = sorted(set(units) - set(metrics))
    if missing:
        session.problems.append(f"metrics not measured: {missing}")
    env = _environment()
    fail_rate = session.failed / max(session.attempted, 1)
    record = {"workload": name, "seed": seed, "trace": trace, "inputs": drawn,
              "riccati_bytes": need, "environment": env, "samples": samples,
              "metrics": metrics, "fail_rate": fail_rate, "problems": session.problems}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {name} seed {seed} trace {trace}: {subcommand} with {drawn}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in session.problems:
        print(f"FAILED {problem}")
    for key, xs in samples.items():
        if xs:
            q1, med, q3 = _quartiles(xs)
            print(f"{key}: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} over {len(xs)}")
    for metric, unit in units.items():
        print(f"{metric} {metrics.get(metric, float('nan')):.6g} {unit}")
    print(f"fail_rate {fail_rate:.6g} ratio "
          f"({session.failed} failed / {session.attempted} attempted)")
    print(json.dumps({
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m: {"value": metrics[m], "unit": u}
                    for m, u in units.items() if m in metrics},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; then one table of the results."""
    rows = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.splitlines()[-1])
    print()
    for name, res in rows.items():
        cells = [f"{m} {v['value']:.4g} {v['unit']}" for m, v in res["metrics"].items()]
        if not trace:
            cells.append(f"fail_rate {res['failed'] / res['attempted']:.4g} ratio")
        print(f"{name:22s} " + "; ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{n}:{m}": v for n, r in rows.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # before numpy loads; the probes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
