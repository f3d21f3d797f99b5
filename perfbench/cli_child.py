"""One `fluxion` command-line run with the benchmark's span wrappers installed.

Usage: python3 cli_child.py SPANS_JSON EXPERIMENT --config PATH [fluxion options]

Behaves like the `fluxion` entry point and, when it returns, writes the spans
and counters it recorded to SPANS_JSON for the traced cli-configs pass.
"""

import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import fluxion.cli

    rec = tracing.Recorder()
    installed = tracing.Installed(rec)
    rec.run_id = "child"
    try:
        return fluxion.cli.main(argv)
    finally:
        rec.run_id = None
        installed.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"spans": rec.spans, "counts": dict(rec.counts["child"])}, fh)


if __name__ == "__main__":
    sys.exit(main())
