"""Run one twostate CLI command with the span hooks installed.

The traced run of the cli_cold workload starts this script in place of
``python -m twostate.cli``; the spans are written as JSON for the parent.

    python bench/cli_child.py SPANS_JSON CLI_ARGS...
"""

import json
import sys

import tracing


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracing.import_package()
    from twostate import cli

    rec = tracing.Recorder()
    rec.install()
    try:
        return cli.main(argv)
    finally:
        rec.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
