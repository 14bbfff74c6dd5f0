"""Run one wassrec CLI stage in-process with the span tracer installed.

Usage: ``python3 perfbench/traced_stage.py SPANS.json STAGE [ARGS...]``.
Measures the cost of one span, calls ``wassrec.cli.main([STAGE, ARGS...])``
after ``tracer.install``, writes the spans and that cost to SPANS.json
and exits with the stage's exit code.
``wassrec`` is imported from ``src/`` next to this directory.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer  # noqa: E402


def main(argv) -> int:
    spans_path, stage_argv = argv[0], argv[1:]
    cost = tracer.span_cost()
    t = tracer.Tracer()
    tracer.install(t)
    import wassrec.cli
    try:
        return wassrec.cli.main(stage_argv)
    finally:
        t.dump(spans_path, span_cost_s=cost)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
