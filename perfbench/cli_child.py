"""Traced stand-in for ``python -m shintani.cli`` in the cli-cold workload.

Usage: cli_child.py SUMMARY_JSON SUBCOMMAND [cli options...]

Times the import of shintani.cli, installs the same wrappers the library
workloads use, runs cli.main() with the remaining arguments, writes the
trace summary to SUMMARY_JSON and exits with the CLI's own exit code.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    summary_path, args = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import shintani.cli as cli

    import_s = time.perf_counter() - start
    import layers

    tracer = layers.Tracer()
    tracer.install(layers.HOOKS)
    sys.argv = ["shintani", *args]
    code = 0
    try:
        cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["counts"]["cli.import_s"] = import_s
        summary["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
        with open(summary_path, "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
