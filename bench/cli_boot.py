"""Traced stand-in for `python -m bkgeom.cli`, used by the traced cli_cold run.

    python bench/cli_boot.py SPANS_JSON <bkgeom cli arguments...>

Times `import bkgeom.cli`, installs the layer wrappers, calls
`bkgeom.cli.main(argv)` and writes the spans to SPANS_JSON.  Stdout and the
exit code are the CLI's own.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import bkgeom.cli
    import_ms = 1e3 * (time.perf_counter() - t0)
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    tracer.check = 0
    try:
        return bkgeom.cli.main(argv)
    finally:
        doc = tracer.dump()
        doc["import_ms"] = import_ms
        with open(spans_path, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
