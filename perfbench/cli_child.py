"""Run one `ffq` command line with the layer tracer installed.

    python3 perfbench/cli_child.py SUMMARY_JSON ARGS...

Writes the span summary and the import time of `ffq.cli` to SUMMARY_JSON and
exits with the command's exit code.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    start = perf_counter()
    import ffq.cli
    import_s = perf_counter() - start
    from tracing import Tracer

    with Tracer() as tracer:
        code = ffq.cli.main(argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "summary": tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
