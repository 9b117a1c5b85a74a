"""One experiment run in a fresh interpreter, as a user would start it.

Usage (``run.py`` starts it with ``src`` on ``PYTHONPATH``)::

    python child.py RESULT.json [--trace SPANS.jsonl RUN_ID] [-- CLI ARGS...]

Times the import of ``torusgas.cli`` (the set-up), then the call of
``torusgas.cli.main`` with the CLI arguments, and writes both times, the
exit code, the process CPU time and the peak resident set to RESULT.json.
Without CLI arguments only the import is timed.  With ``--trace`` the
layers are wrapped after the import and the spans are written at the end.
"""

from __future__ import annotations

import time

_start = time.perf_counter()
import torusgas.cli  # noqa: E402  (the import is what is being timed)

_setup_s = time.perf_counter() - _start

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> None:
    result_path, rest = argv[0], argv[1:]
    tracer = None
    if rest[:1] == ["--trace"]:
        from spans import Tracer

        spans_path, run_id, rest = rest[1], rest[2], rest[3:]
        tracer = Tracer(run_id)
        tracer.install()
        torusgas.cli.main = tracer.wrap(torusgas.cli.main, "cli.main")
    cli_args = rest[1:] if rest[:1] == ["--"] else rest
    result = {"setup_s": _setup_s}
    if cli_args:
        cpu0 = time.process_time()
        start = time.perf_counter()
        result["exit_code"] = torusgas.cli.main(cli_args)
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(spans_path)
    with open(result_path, "w", encoding="ascii") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
