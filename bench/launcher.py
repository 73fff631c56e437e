"""Runs one stratavol CLI request with the tracer installed.

usage: python3 bench/launcher.py TRACE_OUT ARG...

Equivalent to ``python -m stratavol.cli ARG...`` (same stdout, stderr and
exit code), and additionally writes the tracer's summary as JSON to
TRACE_OUT.  ``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import stratavol.cli
    import_s = perf_counter() - t0

    from tracing import Tracer, cache_entries

    tracer = Tracer()
    tracer.install()
    try:
        code = stratavol.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        missed = tracer.unwrapped_bindings()
        tracer.uninstall()
    sys.stdout.flush()
    summary = tracer.summary()
    summary.update(cache_entries=cache_entries(), import_s=import_s,
                   missed_bindings=missed)
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
