"""Run one workload process under the span tracer.

    python3 perfbench/traced.py SPANS.json cli ARGS...     # as python3 -m prtail ARGS
    python3 perfbench/traced.py SPANS.json oracle ARGS...  # as python3 perfbench/oracle.py ARGS

The spans go to SPANS.json when the entry point returns; the import
of the entry point ends at the recorded import_end time.
"""

import sys
import time


def main() -> int:
    spans_path, target, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if target == "cli":
        import prtail.cli as entry
    else:
        import oracle as entry
    import_end = time.monotonic()
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(namespaces=[entry])
    try:
        return entry.main(argv)
    finally:
        tracer.dump(spans_path, import_end)


if __name__ == "__main__":
    raise SystemExit(main())
