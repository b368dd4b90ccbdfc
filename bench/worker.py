"""One benchmark process: set up a workload, then run it in a closed loop.

Started by run.py in a fresh interpreter, with src/ on PYTHONPATH, so its
set-up time includes the curvelattice and sympy imports.  Roles:

  probe  set up, report the set-up time, exit;
  work   set up, run untraced the number of whole passes that best fills
         --seconds (at least one), report every operation's time;
  trace  set up, run one pass untraced, install the tracer, run the same
         pass traced, report per-layer aggregates and write the spans.

  worker.py cli-trace SPANS ARGV...  runs one traced CLI command (the
  traced counterpart of the plain entry point used by cli-batch).

Probe and work processes sample the host's speed from their first line on
(hostspeed.py) and report set-up and operation times both as wall seconds
and as reference seconds, the wall time scaled by the host's speed over
that interval.  cli-batch's work process samples the fresh CLI processes
that do the work instead of itself.  The trace process is not sampled.

The last line of standard output is one JSON document for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH.parent / ".bench_results"


def _cli_trace(spans_path, argv):
    from curvelattice import cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.run(argv)
    finally:
        tracer.dump(spans_path)
    sys.exit(code)


def _timed_pass(inputs, op, failures, run_op=None, sampler=None):
    """Wall seconds of each operation, or with a sampler
    (reference seconds, net wall seconds) of each."""
    samples = []
    for inp in inputs:
        since = sampler.mark() if sampler else 0
        t = time.perf_counter()
        try:
            (run_op or op)(inp)
        except Exception as exc:  # an operation that raises is a failed operation
            failures.append(f"{type(exc).__name__}: {exc}"[:500])
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t
        samples.append(sampler.scale(wall, since) if sampler else wall)
    return samples


def _sampled_cli(op, sampler):
    """cli-batch's operation, sampled in the CLI process that does the
    work: this process stops sampling and adopts each child's samples, so
    that sampler.scale() subtracts and uses them."""
    sampler.stop()
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"cli-speed-{os.getpid()}.json"
    prefix = [sys.executable, str(BENCH / "hostspeed.py"), str(path)]

    def run_op(inp):
        try:
            op(inp, prefix=prefix)
        finally:
            if path.exists():
                with open(path, encoding="utf-8") as fh:
                    sampler.durations += json.load(fh)
                path.unlink()

    return run_op


def _peak_rss_kb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "cli-trace":
        _cli_trace(sys.argv[2], sys.argv[3:])
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("probe", "work", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--spans", default=None, help="path prefix for the trace role's span files")
    args = ap.parse_args()
    sampler = None
    if args.role != "trace":
        from hostspeed import SpeedSampler

        sampler = SpeedSampler()
        sampler.start()

    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    import workloads

    make_pass, op = workloads.WORKLOADS[args.workload]
    inputs = make_pass(args.seed)
    setup_wall = time.monotonic() - args.t0
    out = {"sympy": sympy.__version__, "ground_types": GROUND_TYPES}
    if sampler:
        out["setup_s"] = sampler.scale(setup_wall, 0)
    if args.role == "probe":
        sampler.stop()
        print(json.dumps(out))
        return

    failures = []
    if args.role == "work":
        run_op = _sampled_cli(op, sampler) if args.workload == "cli-batch" else None
        samples = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            samples += _timed_pass(inputs, op, failures, run_op=run_op, sampler=sampler)
            last = time.perf_counter() - t
            # stop when one more pass would end farther from --seconds
            if time.perf_counter() - start + last / 2 > args.seconds:
                break
        sampler.stop()
        out.update(
            samples=[ref for ref, _net in samples],
            wall_samples=[net for _ref, net in samples],
            host_speed=sampler.speed(),
            failures=failures,
            peak_rss_kb=_peak_rss_kb(args.workload),
        )
        print(json.dumps(out))
        return

    from tracer import OP_SPAN, Tracer, merge

    untraced = _timed_pass(inputs, op, failures)
    tracer = Tracer()
    children = []
    if args.workload == "cli-batch":

        def run_op(inp):
            path = f"{args.spans}-cmd{len(children)}.json"
            prefix = [sys.executable, str(BENCH / "worker.py"), "cli-trace", path]
            try:
                op(inp, prefix=prefix)
            finally:
                if Path(path).exists():
                    children.append(Tracer.load(path).summary())
    else:
        tracer.install()

        def run_op(inp):
            tracer.span(OP_SPAN, op, inp)

    traced = _timed_pass(inputs, op, failures, run_op=run_op)
    own = tracer.summary()
    if args.workload == "cli-batch":
        # time the CLI processes spend outside cli.run: start-up and imports
        covered = merge(children)["root_s"]
    else:
        covered = sum(traced) - own["agg"][OP_SPAN][1]
        tracer.dump(f"{args.spans}.json")
    out.update(
        untraced=untraced,
        traced=traced,
        failures=failures,
        layers=merge([own] + children),
        uncovered_share=1.0 - covered / sum(traced),
        overhead_s=statistics.median(traced) - statistics.median(untraced),
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
