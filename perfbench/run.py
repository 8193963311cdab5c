"""Benchmark runner: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload sv-pmh-cli --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports rieszmc from its
``src/``.  It builds the workload's inputs from the seed (set-up), then runs
whole rounds of operations until their summed time reaches ``--seconds``,
checks every operation's output, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (set-up time, peak memory, work per second);
with ``--trace 1`` the public rieszmc functions are wrapped in spans and the
metrics are the per-layer ones, and the spans are written to
``perfbench/out/trace-<workload>-<seed>.npz``.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

# one working thread: no BLAS/OpenMP pool may add load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# every round is run whole; at least this many rounds, so a run-level check
# (such as the unbiasedness test over passes) always has two operations
MIN_ROUNDS = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import rieszmc from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import rieszmc

    if src.resolve() not in Path(rieszmc.__file__).resolve().parents:
        raise ImportError(f"rieszmc imported from {rieszmc.__file__}, "
                          f"not from {src}")
    return rieszmc


def run(workload, seconds: float, tracer=None, log=sys.stderr) -> dict:
    """Set up, run whole rounds for ``seconds`` of operation time, check.

    ``setup_s`` is the CPU time from the start of the process (interpreter
    start-up and imports included) to the end of ``workload.setup``: it
    counts the set-up's work, not the waits of a cold file cache.  The
    benchmark's reference computations run after it.  Operations are timed
    by the wall clock.

    An operation that raises or fails its check counts as failed and adds
    no work.  The rate is the work of the operations that passed over their
    summed time, not a median over operations: a run holds only 6 to 35
    operations, and on a machine whose speed flips between two levels every
    few seconds the median of so few jumps between the levels, where the
    mean moves with the share of time spent at each.

    With a ``tracer`` (installed before the call, so set-up is traced), the
    even rounds run traced and the odd rounds untraced: the tracing overhead
    is measured against operations run in the same process and at the same
    time, which a machine whose speed drifts from one run to the next
    cannot skew.
    """
    workload.setup()
    setup_s = time.process_time()
    workload.prepare_references()
    timed = 0.0
    done = {False: [0.0, 0.0], True: [0.0, 0.0]}  # traced: [work, seconds]
    attempted = failed = traced_ops = 0
    k = 0
    while timed < seconds or k < MIN_ROUNDS:
        traced = tracer is not None and k % 2 == 0
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.restore()
        for op in workload.round(k):
            attempted += 1
            if traced:
                traced_ops += 1
                tracer.run_id = attempted
            started = time.perf_counter()
            try:
                work, payload = op()
            except Exception as exc:  # an operation's failure is counted
                payload, problems = None, [f"{type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - started
            timed += dt
            if traced:
                tracer.run_id = -1  # the checks' own calls are not timed
            if payload is not None:
                problems = workload.check(payload)
            if problems:
                failed += 1
                print(f"op {attempted} failed: " + "; ".join(problems),
                      file=log)
            else:
                done[traced][0] += work
                done[traced][1] += dt
        k += 1
    run_problems = workload.check_run()
    for p in run_problems:
        print(f"run check failed: {p}", file=log)
    untraced_rate, traced_rate = (w / t if t else 0.0
                                  for w, t in (done[False], done[True]))
    return {"correct": not run_problems, "attempted": attempted,
            "failed": failed, "work_per_s": untraced_rate, "timed_s": timed,
            "setup_s": setup_s, "traced_ops": traced_ops,
            "traced_work_per_s": traced_rate}


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import rieszmc from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import resource
    import shutil

    from tracing import PER_LAYER, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        res = run(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if tracer is None:
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
            "work_per_s": {"value": res["work_per_s"], "unit": "work/s"},
        }
    else:
        tracer.restore()
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.npz")
        values = tracer.summary(res["traced_ops"])
        values["trace.work_per_s"] = res["traced_work_per_s"]
        values["trace.overhead_frac"] = (res["work_per_s"]
                                         / res["traced_work_per_s"] - 1.0)
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
