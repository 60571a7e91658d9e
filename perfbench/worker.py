"""One measured process: import the CLI, then make the requested calls.

Usage: python3 worker.py REQUEST.json RESULT.json

The request lists ``argvs``; each is one ``incmine.cli.main(argv)`` call,
timed on its own.  An empty list only measures the import.  The result holds
``setup_s`` (the import of ``incmine.cli``, numpy included), each call's exit
code and wall time, the process's peak resident set, and, when the request
asks for ``trace``, the tracer's report.  Outputs are checked by the parent,
not here.
"""

import json
import resource
import sys
from time import perf_counter


def main(request_path: str, result_path: str) -> None:
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)

    start = perf_counter()
    from incmine import cli
    result = {"setup_s": perf_counter() - start}

    tracer = None
    if request.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    calls = []
    for argv in request["argvs"]:
        start = perf_counter()
        rc = cli.main(argv)
        calls.append({"rc": rc, "wall_s": perf_counter() - start})
    result["calls"] = calls
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
