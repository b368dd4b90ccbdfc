"""curvelattice benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it measures the end-to-end metrics untraced: a work process
runs the number of whole passes over the workload's seeded inputs that
best fills S seconds (at least one pass), and four more fresh processes only
set up, so set-up time is a median of five.  wall_s and setup_s are in
reference seconds: each interval's wall time scaled by the host's speed
over that interval, sampled by bench/hostspeed.py, because the shared host
swings by up to 2x; the plain wall medians and the host's speed are printed
and recorded beside them.  With --trace 1 one process runs a pass untraced
and the same pass traced, and reports the per-layer metrics in plain wall
seconds.  Every operation's exact answer is checked (bench/workloads.py).

The last line of standard output is the result document; the line before
it names every metric with its unit.  The full record, stamped with the
commit, the Python and sympy versions, sympy's ground types and the CPU
count, is appended to .bench_results/runs.jsonl; spans of traced runs go
to .bench_results/spans/.  bench/compare.py compares two record files.

Not workloads, because one operation would outlast a run: the tier-1 test
suite (about 209 s) and the squarefree part of the degree-56 polynomial
with genuine Q(w) coefficients (about 240 s); nine-cusp covers the Q(w)
kernel path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("nine-cusp", "torus-sextics", "cusp-scheme-deg12", "cli-batch")
SETUP_PROBES = 4  # fresh processes that only set up, besides the work process
IMPORT_PROBES = 3
DEADLINE_S = 170  # every run ends well inside the 180 s limit


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _communicate(cmd, deadline, what):
    """Run a child to completion before the deadline; return (stdout, stderr)."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}:\n{err[-2000:]}")
    return out, err


def _worker(args, role, deadline, spans=None):
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--role", role,
    ]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--t0", repr(time.monotonic())]
    out, err = _communicate(cmd, deadline, f"{role} process")
    sys.stderr.write(err)
    return json.loads(out.strip().splitlines()[-1])


def _import_times(workload, deadline):
    """(sympy_s, curvelattice_s) from `python -X importtime` in a fresh
    interpreter; curvelattice_s is the cumulative time of the top-level
    curvelattice imports, sympy included."""
    if workload == "cli-batch":
        stmt = "import curvelattice.cli"
    else:  # what bench/workloads.py imports
        stmt = "import curvelattice.adjunction, curvelattice.lattice, curvelattice.torus"
    _out, err = _communicate(
        [sys.executable, "-X", "importtime", "-c", stmt], deadline, "import probe"
    )
    sympy_us = cl_us = 0
    for line in err.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)", line)
        if not m:
            continue
        cum, indent, name = int(m.group(1)), m.group(2), m.group(3)
        if name == "sympy" and not sympy_us:
            sympy_us = cum
        if not indent and name.startswith("curvelattice"):
            cl_us += cum
    return sympy_us / 1e6, cl_us / 1e6


def _git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tail(samples):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n <= 10:
        return None
    k = n - 10
    return {"value": sorted(samples)[k - 1], "percentile": 100.0 * k / n, "samples": n}


def _end_to_end(args, deadline):
    work = _worker(args, "work", deadline)
    setups = [work["setup_s"]] + [
        _worker(args, "probe", deadline)["setup_s"] for _ in range(SETUP_PROBES)
    ]
    samples = work["samples"]
    metrics = {
        "wall_s": {"value": statistics.median(samples), "unit": "s"},
        "setup_s": {"value": statistics.median(ref for ref, _wall in setups), "unit": "s"},
        "peak_rss_mb": {"value": work["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }
    extra = {
        "wall_s.tail": _tail(samples),
        "fail_ratio": len(work["failures"]) / len(samples),
        "samples": samples,
        "setup_samples": [ref for ref, _wall in setups],
        # the same intervals in plain wall seconds, and the host's speed
        "wall_s.unscaled": statistics.median(work["wall_samples"]),
        "setup_s.unscaled": statistics.median(wall for _ref, wall in setups),
        "host_speed": work["host_speed"],
        "wall_samples": work["wall_samples"],
    }
    return work, metrics, len(samples), extra


def _per_layer(args, deadline):
    from tracer import COUNT, TARGETS, metric_names, stats_for

    spans_dir = RESULTS / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    run = _worker(args, "trace", deadline, spans=str(spans_dir / f"{args.workload}-seed{args.seed}"))
    imports = [_import_times(args.workload, deadline) for _ in range(IMPORT_PROBES)]
    layers = run["layers"]
    agg, counts, extra = layers["agg"], layers["counts"], layers["extra"]
    values = {}
    for _mod, _path, prefix, kind, layer in TARGETS:
        calls, self_s, total_s = agg.get(prefix, [0, 0.0, 0.0])
        if kind == COUNT:
            calls = counts.get(prefix, 0)
        stat_values = {"calls": calls, "self_s": self_s, "total_s": total_s}
        for stat in stats_for(kind, layer):
            values[f"{prefix}.{stat}"] = stat_values[stat]
    muls = counts.get("algebra.Cyclo.mul", 0)
    dets = agg.get("algebra.det_cyclo", [0])[0]
    values["algebra.Cyclo.mul.rational_share"] = extra["algebra.Cyclo.mul.rational"] / muls if muls else 0.0
    values["algebra.resultant.max_degree"] = extra["algebra.resultant.max_degree"]
    values["algebra.det_cyclo.qomega_share"] = extra["algebra.det_cyclo.qomega"] / dets if dets else 0.0
    values["algebra.qomega_roots.missing"] = extra["algebra.qomega_roots.missing"]
    values["linalg.rank.max_cells"] = extra["linalg.rank.max_cells"]
    values.update(layers["nested"])
    values["import.sympy_s"] = statistics.median(s for s, _c in imports)
    values["import.curvelattice_s"] = statistics.median(c for _s, c in imports)
    values["trace.overhead_s"] = run["overhead_s"]
    values["trace.uncovered_share"] = run["uncovered_share"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}
    attempted = len(run["untraced"]) + len(run["traced"])
    extra_doc = {
        "fail_ratio": len(run["failures"]) / attempted,
        "untraced": run["untraced"],
        "traced": run["traced"],
    }
    return run, metrics, attempted, extra_doc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "curvelattice" / "algebra.py").is_file():
        print(f"no curvelattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            worker, metrics, attempted, extra = _per_layer(args, deadline)
        else:
            worker, metrics, attempted, extra = _end_to_end(args, deadline)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    failures = worker["failures"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "sympy": worker["sympy"],
            "ground_types": worker["ground_types"],
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "failures": failures,
        **extra,
        **result,
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    shown = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    if not args.trace:
        tail = extra["wall_s.tail"]
        shown.insert(1, "wall_s.tail " + (
            f"{tail['value']:.6g} s (p{tail['percentile']:.0f} of {tail['samples']})" if tail
            else f"n/a ({attempted} samples)"
        ))
    shown.append(f"fail_ratio {extra['fail_ratio']:.6g} ({len(failures)}/{attempted})")
    if not args.trace:
        shown.append(
            f"unscaled wall_s {extra['wall_s.unscaled']:.6g} s, setup_s "
            f"{extra['setup_s.unscaled']:.6g} s at host speed {extra['host_speed']:.3g}"
        )
    if args.trace:
        print(f"{args.workload} seed {args.seed}:\n  " + "\n  ".join(shown))
    else:
        print(f"{args.workload} seed {args.seed}: " + " | ".join(shown))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
