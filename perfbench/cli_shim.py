"""Stand-in for the `fibera` console script, run from this checkout.

    python3 perfbench/cli_shim.py COMMAND [ARGS...]

behaves like `fibera COMMAND [ARGS...]` with fibera imported from src/.
With PERFBENCH_SPANS=PATH in the environment it wraps fibera's entry points
first and writes the spans and counters of the run to PATH at exit.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

if __name__ == "__main__":
    spans_path = os.environ.get("PERFBENCH_SPANS")
    if spans_path is None:
        from fibera.cli import main
        sys.exit(main())
    import tracing
    sys.exit(tracing.run_traced_cli(spans_path))
