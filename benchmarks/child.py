"""One benchmark invocation: import ``threefold.cli``, run ``main(argv)``, exit.

Usage: python3 benchmarks/child.py [--trace] -- <threefold argv...>

With no threefold argv the child only imports, which warms the bytecode
cache.

The program under test is imported from ``src/`` next to this directory,
never from an installed copy.  After the run, one line
``PERFBENCH {...}`` goes to stderr with:

* ``ready_at``: CLOCK_MONOTONIC time at which ``threefold.cli`` was imported
  and ready to run a verb (the parent subtracts its spawn time);
* ``main_s``: seconds spent inside ``threefold.cli.main(argv)``;
* with ``--trace``, the spans recorded around the library's public
  functions (see ``layers.py``).

The line ``PERFBENCH_READY`` is written to stderr at the ready point, so that
``-X importtime`` output can be split into start-up and lazy imports.  The
exit code is the one ``main`` returns.
"""

import os
import sys
import time


def run():
    argv = sys.argv[1:]
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    if argv[:1] != ["--"]:
        sys.stderr.write("usage: child.py [--trace] -- <threefold argv...>\n")
        return 2
    argv = argv[1:]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

    import threefold.cli

    ready_at = time.perf_counter()
    if not argv:
        return 0
    sys.stderr.write("PERFBENCH_READY\n")
    sys.stderr.flush()

    recorder = None
    if traced:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)  # wraps threefold.cli.main too
    start = time.perf_counter()
    rc = threefold.cli.main(argv)
    main_s = time.perf_counter() - start
    sys.stdout.flush()

    import json

    record = {"ready_at": ready_at, "main_s": main_s}
    if recorder is not None:
        record["names"] = recorder.names
        record["spans"] = recorder.spans
    sys.stderr.write("PERFBENCH " + json.dumps(record) + "\n")
    sys.stderr.flush()
    return rc


if __name__ == "__main__":
    sys.exit(run())
