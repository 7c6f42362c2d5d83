"""Record goldens.json: the expected outcome of every query any seed can draw.

Usage: PYTHONPATH=src python3 perfbench/record_goldens.py

A valid query's golden is exit 0 plus the SHA-256 of its ``result``, taken
from the program at the current commit.  An invalid query's golden is exit 2,
whatever the program does today.  Queries whose current outcome differs
from the golden are listed; they are known defects the benchmark counts as
failures.  A valid query the program refuses today takes its expected
result from ``workloads.EXPECTED_RESULTS``.  Run it in-process, so the whole pool takes minutes, not hours.
"""

import contextlib
import io
import json
from collections import Counter

from mmmkit import cli

import workloads
from run import GOLDENS, result_digest


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


def main():
    goldens = {}
    unanswered = []
    decisions = Counter()
    for query in workloads.all_queries():
        code, out = invoke(query.argv)
        if not query.valid:
            goldens[query.key] = {"exit": 2}
            if code != 2:
                print(f"known defect: exit {code}, expected 2: {query.key}")
            continue
        if code != 0:
            print(f"known defect: exit {code}, expected 0: {query.key}")
        if not out:
            if query.key not in workloads.EXPECTED_RESULTS:
                unanswered.append(query.key)
                continue
            doc = {"result": workloads.EXPECTED_RESULTS[query.key]}
        else:
            doc = json.loads(out)
        goldens[query.key] = {"exit": 0, "sha256": result_digest(doc)}
        if "decision" in doc["result"]:
            outcome = doc["result"]["reason"] or doc["result"]["decision"]
            decisions[(query.argv[3], query.argv[5], outcome)] += 1
    if unanswered:
        raise SystemExit("valid queries with no document and no expected result:\n" + "\n".join(unanswered))
    for (flavor, d, outcome), n in sorted(decisions.items()):
        print(f"mmm test --flavor {flavor} -d {d}: {n} x {outcome}")
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(goldens)} goldens to {GOLDENS}")


if __name__ == "__main__":
    main()
