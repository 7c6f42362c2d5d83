"""Run one mmmkit CLI query with its layers traced.

Usage: python perfbench/traced_cli.py TRACE_PATH QUERY_ID ARGV...

The query sees only ARGV and behaves as ``python -m mmmkit.cli ARGV...``:
same standard output, standard error and exit code.  When it ends, its
spans, counts and cache statistics are written to TRACE_PATH as JSON,
tagged with QUERY_ID.
"""

import json
import sys
import time

import tracer


def main():
    path, query_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import mmmkit.cli

    import_s = time.perf_counter() - start
    trace = tracer.install()
    code = 1
    try:
        code = mmmkit.cli.run(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    finally:
        query_s = time.perf_counter() - start
        with open(path, "w") as fh:
            json.dump({"query": query_id, "import_s": import_s, "query_s": query_s, **trace.report()}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
