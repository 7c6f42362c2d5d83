"""Self-test of the benchmark.  Run with: python3 -m pytest perfbench -q

It runs a cheap slice of every workload, checks the output schema and the
metric names of both modes, and checks that wrong answers, missing sources,
unwrapped bindings and unhit spans are failures.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import layers
import run
import workloads

RUN_PY = run.BENCH / "run.py"


def _run_bench(*args, script=RUN_PY, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _cheap(workload, seed):
    """The seeded list of a workload, without its multi-second queries."""
    heavy = ("--model so --format", "--model u --format", "mmm test")
    return [q for q in workloads.draw(workload, seed) if not any(h in q.key for h in heavy)]


@pytest.fixture(scope="module")
def goldens():
    with open(run.GOLDENS) as fh:
        return json.load(fh)


@pytest.fixture
def work():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        yield Path(tmp)


def test_draw_is_seeded():
    for workload in workloads.WORKLOADS:
        assert workloads.draw(workload, 3) == workloads.draw(workload, 3)
    assert workloads.draw("point-queries", 3) != workloads.draw("point-queries", 4)


def test_spec_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_goldens_cover_every_query(goldens):
    assert {q.key for q in workloads.all_queries()} == set(goldens)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_slice_of_each_workload_is_answered(workload, goldens, work):
    queries = _cheap(workload, 11)
    assert queries
    result = run.run_pass(queries, goldens, work, traced=False)
    assert result.wrong == 0
    known_defects = [k for k, _ in result.problems if "--bound 0" in k or "custom" in k]
    assert len(result.problems) == len(known_defects)


def test_wrong_golden_counts_as_failure(goldens, work):
    query = workloads.Query(("lclass", "-k", "2", "--format", "json"))
    bad = dict(goldens)
    bad[query.key] = {"exit": 0, "sha256": "0" * 64}
    result = run.run_pass([query], bad, work, traced=False)
    assert result.problems == [(query.key, "result differs from the golden")]
    assert result.wrong == 1
    bad[query.key] = {"exit": 2}
    result = run.run_pass([query], bad, work, traced=False)
    assert result.problems == [(query.key, "exit 0, expected 2")]


def test_end_to_end_schema():
    proc = _run_bench("--workload", "point-queries", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in out["metrics"].values())
    for line in ("query_p50_s", "failed_frac", "correctness:"):
        assert line in proc.stdout


def test_traced_schema_and_span_accounting():
    proc = _run_bench("--workload", "point-queries", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    metrics = out["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == layers.per_layer_metrics()
    # Self times plus import plus the small unattributed rest make up the
    # in-process time of the traced queries.
    value = {k: v["value"] for k, v in metrics.items()}
    assert 0 <= value["trace.unattributed_s"] < 0.1 * value["trace.wall_s"]
    assert value["cli.run.incl_s"] == pytest.approx(
        sum(value[f"{name}.self_s"] for name, *_ in layers.SPANS), rel=1e-6
    )


_INSTALL_CHECK = """
import mmmkit.cli, mmmkit.exactq as exactq, mmmkit.nearprim as nearprim
import tracer
tracer.install()
wrapped = [nearprim.kernel_basis, exactq.kernel_basis, exactq._core.rref_int, mmmkit.cli.npd]
assert all(hasattr(f, "__wrapped__") for f in wrapped), wrapped
"""

_STALE_CHECK = """
import mmmkit.cli, mmmkit.nearprim as nearprim
import tracer
class Holder:
    kernel = nearprim.kernel_basis
Holder.__module__ = "mmmkit.nearprim"
nearprim.Holder = Holder
tracer.install()
"""


def test_install_replaces_every_binding():
    env = run.child_env()
    ok = subprocess.run([sys.executable, "-c", _INSTALL_CHECK], cwd=run.BENCH, env=env)
    assert ok.returncode == 0
    stale = subprocess.run(
        [sys.executable, "-c", _STALE_CHECK], cwd=run.BENCH, env=env, capture_output=True, text=True
    )
    assert "exactq.kernel_basis: Holder.kernel is still unwrapped" in stale.stderr


def test_coverage_guard_rejects_unhit_span():
    silent = run.Pass(wall_s=1.0, latencies=[1.0], traces=[])
    with pytest.raises(SystemExit, match="spans never hit on sweep"):
        run.per_layer_metrics("sweep", [silent], [silent])


def test_fails_without_program_sources(work):
    shutil.copytree(run.BENCH, work / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    proc = _run_bench(
        "--workload", "sweep", "--seed", "1", "--seconds", "1",
        script=work / "perfbench" / "run.py", cwd=work,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
