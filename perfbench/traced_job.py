"""Run one ``floss`` command in this process with every layer wrapped in spans.

Usage: python3 traced_job.py TRACE_OUT.json -- <floss arguments>

The spans and counters go to TRACE_OUT.json when the command ends.  The
wall time starts before ``floss.cli`` is imported, as it does for the
untraced command, so import time counts as time no layer span covers.
"""
from __future__ import annotations

import json
import sys
import time

from tracing import Tracer


def main(argv: list[str]) -> int:
    out_path, sep, *floss_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_job.py TRACE_OUT.json -- <floss arguments>")
    t0 = time.perf_counter()
    import floss.cli

    tracer = Tracer()
    tracer.install()
    floss.cli.main.main(args=floss_args, prog_name="floss", standalone_mode=False)
    wall_s = time.perf_counter() - t0
    with open(out_path, "w") as fh:
        json.dump(tracer.dump(wall_s), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
