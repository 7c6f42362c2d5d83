"""Closed-loop CLI benchmark for mmmkit.

Usage:
    python3 perfbench/run.py --workload {sweep,odd-mmm,point-queries}
        --seed N --seconds S --trace {0,1}

Each query is one fresh ``python -m mmmkit.cli ... --format json`` process.
Queries run one after another from this process: a closed loop with one
client, so at most one query process runs at a time.  A pass runs the
workload's seeded query list (see workloads.py) once, and passes repeat
until S seconds have gone by.  Every answer is checked against goldens.json.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced passes with traced ones, whose queries
run under traced_cli.py, and reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDENS = BENCH / "goldens.json"

SETUP_FIRST = 5  # set-up samples before the first pass
SETUP_PER_PASS = 2  # and after every pass, so they span the whole run
QUERY_TIMEOUT_S = 60
RUN_LIMIT_S = 150  # no new pass starts that would end a run later than this

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# The median query latency is printed beside these but is not a gated
# metric: on sweep and odd-mmm it rests on a few one-second queries, and the
# speed changes of a shared machine moved its ten-seed spread past 0.3.


def child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


@dataclass
class Finished:
    """One child process: exit code, wall time, CPU and memory, output."""

    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


def run_process(cmd, work):
    """Run ``cmd`` to completion, timing it and reading its rusage via wait4."""
    env = child_env()
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(QUERY_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Finished(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024,
            stdout=out.read(),
            stderr=err.read(),
            timed_out=wall >= QUERY_TIMEOUT_S,
        )


def result_digest(doc):
    text = json.dumps(doc["result"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check(query, done, goldens):
    """(problem, wrong_result): problem is None when the query was answered right.

    A wrong result is an answer the program reported as a success that
    differs from the golden; every other problem is a refusal, crash,
    timeout, failed check or wrong exit code.
    """
    golden = goldens.get(query.key)
    if golden is None:
        return "no golden for this query", True
    if done.timed_out:
        return f"timed out after {QUERY_TIMEOUT_S} s", False
    if golden["exit"] != 0:
        if done.code == golden["exit"]:
            return None, False
        return f"exit {done.code}, expected {golden['exit']}", False
    try:
        doc = json.loads(done.stdout)
    except ValueError:
        return f"exit {done.code}, no JSON document", False
    failing = [c["name"] for c in doc.get("checks", []) if not c["pass"]]
    if done.code != 0 or failing:
        return f"exit {done.code}, failed checks {failing}", False
    if result_digest(doc) != golden["sha256"]:
        return "result differs from the golden", True
    return None, False


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies: list = field(default_factory=list)
    maxrss_mb: float = 0.0
    problems: list = field(default_factory=list)  # (query key, problem)
    wrong: int = 0
    traces: list = field(default_factory=list)


def run_pass(queries, goldens, work, traced):
    result = Pass()
    start = time.perf_counter()
    for i, query in enumerate(queries):
        if traced:
            trace_path = work / f"trace-{i}.json"
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_path), str(i), *query.argv]
        else:
            cmd = [sys.executable, "-m", "mmmkit.cli", *query.argv]
        done = run_process(cmd, work)
        result.latencies.append(done.wall_s)
        result.cpu_s += done.cpu_s
        result.maxrss_mb = max(result.maxrss_mb, done.maxrss_mb)
        problem, wrong = check(query, done, goldens)
        if problem:
            result.problems.append((query.key, problem))
            result.wrong += wrong
        if traced:
            with open(trace_path) as fh:
                result.traces.append(json.load(fh))
    result.wall_s = time.perf_counter() - start
    return result


_SETUP_CMD = [sys.executable, "-c", "import mmmkit.cli, mmmkit.exactq as q; print(q.COMPILED_CORE)"]


def setup_times(work, n):
    """Wall times of ``n`` fresh processes that import mmmkit.cli."""
    return [run_process(_SETUP_CMD, work).wall_s for _ in range(n)]


def compiled_core(work):
    """Whether exactq uses the compiled elimination core.  This first import
    may write bytecode caches, so it is not a set-up sample."""
    first = run_process(_SETUP_CMD, work)
    if first.code != 0:
        raise SystemExit(f"cannot import mmmkit from {ROOT / 'src'}:\n{first.stderr.decode()}")
    return first.stdout.decode().strip() == "True"


def run_passes(queries, goldens, work, seconds, traced_too):
    """Passes until ``seconds`` of passes have gone by; with ``traced_too``
    each untraced pass is followed by a traced one.  Set-up samples are taken
    before and between passes.  Returns (untraced, traced, setup times)."""
    untraced, traced = [], []
    setup = setup_times(work, SETUP_FIRST)
    measured = 0.0
    while True:
        start = time.perf_counter()
        untraced.append(run_pass(queries, goldens, work, traced=False))
        if traced_too:
            traced.append(run_pass(queries, goldens, work, traced=True))
        measured += time.perf_counter() - start
        setup += setup_times(work, SETUP_PER_PASS)
        if measured >= seconds or measured * (1 + 1 / len(untraced)) > RUN_LIMIT_S:
            return untraced, traced, setup


def end_to_end_metrics(passes, setup_s):
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": max(p.maxrss_mb for p in passes),
        "setup_s": setup_s,
    }


def _pass_layers(p):
    """Per-layer totals of one traced pass."""
    spans = {name: [0, 0.0, 0.0] for name, *_ in layers.SPANS}
    counts = {name: 0 for name, _ in layers.COUNTS}
    caches = {name: [0, 0] for name, *_ in layers.CACHES}
    import_s = query_s = 0.0
    for trace in p.traces:
        import_s += trace["import_s"]
        query_s += trace["query_s"]
        for name, stat in trace["spans"].items():
            spans[name] = [a + b for a, b in zip(spans[name], stat)]
        for name, value in trace["counts"].items():
            counts[name] = max(counts[name], value) if ".max_" in name else counts[name] + value
        for name, stat in trace["caches"].items():
            caches[name] = [a + b for a, b in zip(caches[name], stat)]
    out = {}
    for name, (calls, incl, self_s) in spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.incl_s"] = incl
        out[f"{name}.self_s"] = self_s
    out.update(counts)
    for name, (hits, misses) in caches.items():
        out[f"{name}.hits"] = hits
        out[f"{name}.misses"] = misses
    out["process.import_s"] = import_s
    out["trace.wall_s"] = p.wall_s
    out["trace.unattributed_s"] = query_s - import_s - sum(s[2] for s in spans.values())
    return out


def per_layer_metrics(workload, untraced, traced):
    """Median per-layer figures over the traced passes, after the coverage guard.

    The low median is one pass's own figure, so counts stay whole numbers.
    """
    per_pass = [_pass_layers(p) for p in traced]
    values = {name: statistics.median_low(v[name] for v in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
        p.wall_s for p in untraced
    )
    missing = [
        name
        for name, _, _, hit_on in layers.SPANS
        if workload in hit_on and values[f"{name}.calls"] == 0
    ]
    if missing:
        raise SystemExit(f"coverage guard: spans never hit on {workload}: {', '.join(missing)}")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind as on an error: the running query is killed and
    # reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "mmmkit" / "cli.py").is_file():
        raise SystemExit(f"no mmmkit sources under {ROOT / 'src'}")
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    queries = workloads.draw(args.workload, args.seed)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        compiled = compiled_core(work)
        untraced, traced, setup = run_passes(queries, goldens, work, args.seconds, args.trace == 1)
        if args.trace:
            values = per_layer_metrics(args.workload, untraced, traced)
            units = layers.per_layer_metrics()
        else:
            values = end_to_end_metrics(untraced, statistics.median(setup))
            units = END_TO_END

    runs = untraced + traced
    attempted = sum(len(p.latencies) for p in runs)
    problems = [item for p in runs for item in p.problems]
    wrong = sum(p.wrong for p in runs)
    latencies = [t for p in untraced for t in p.latencies]

    print(
        f"workload {args.workload}  seed {args.seed}  {len(queries)} queries/pass"
        f"  {len(untraced)} untraced + {len(traced)} traced passes"
        f"  compiled core: {compiled}"
    )
    for name, unit in units:
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setup)} imports)"
        elif name in ("wall_s", "cpu_s"):
            note = f"  (median of {len(untraced)} passes)"
        print(f"  {name:<44} {values[name]:>14.6g} {unit}{note}")
    print(
        f"  query_p50_s {statistics.median(latencies):.6g} s"
        f" (median of {len(latencies)} untraced queries)"
    )
    print(
        f"  failed_frac {len(problems) / attempted:.4f} ({len(problems)} of {attempted} queries)"
    )
    if args.trace:
        untraced_wall = statistics.median(p.wall_s for p in untraced)
        print(
            f"  tracing overhead: {values['trace.overhead_s']:.3f} s per pass"
            f" ({values['trace.wall_s']:.3f} s traced vs {untraced_wall:.3f} s untraced)"
        )
    print(f"correctness: {attempted} attempted, {len(problems)} failed, {wrong} wrong results")
    for key, problem in sorted(set(problems)):
        print(f"  FAILED {key}: {problem}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(
        json.dumps(
            {"correct": wrong == 0, "attempted": attempted, "failed": len(problems), "metrics": metrics}
        )
    )


if __name__ == "__main__":
    main()
