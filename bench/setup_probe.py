"""Time one fresh set-up: import growthtail, then one warm-up CLI invocation.

Usage: python3 setup_probe.py SRC_DIR ARGV_JSON

Only the standard library is imported before the clock starts, so the
numpy import paid by every user of the CLI is part of the figure.  The
warm-up invocation loads the model file named in the argv.  Prints one
JSON object {"setup_s": ..., "exit_code": ...}.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    src, argv_path = sys.argv[1], sys.argv[2]
    with open(argv_path, encoding="utf-8") as fh:
        argv = json.load(fh)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from growthtail import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "exit_code": code}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
