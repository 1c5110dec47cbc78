"""One benchmark op: a fresh interpreter running one holobound CLI invocation.

    python3 perfbench/worker.py <trace 0|1> <holobound argv...>

The worker imports ``holobound.cli`` and reads the config, then marks itself
ready; the parent times set-up from spawn to that mark on the shared
``CLOCK_MONOTONIC`` clock.  It then calls ``holobound.cli.main(argv)`` exactly
as the ``holobound`` console script does, and prints one JSON line: the ready
mark, the wall time of ``main``, its exit code, the peak resident set and,
when traced, the span summary.
"""

import json
import resource
import sys
import time


def main() -> int:
    traced, argv = sys.argv[1] == "1", sys.argv[2:]
    from holobound import cli

    with open(argv[argv.index("--config") + 1], encoding="utf-8") as fh:
        json.load(fh)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - start
    print(json.dumps({
        "ready": ready,
        "main_s": main_s,
        "code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
