"""Run one cyclicsieve CLI request with the tracer installed.

Usage: python traced_cli.py SPANS_JSON [cyclicsieve arguments...]

Stdout, stderr and the exit code are the CLI's own; the span totals and
counters of this process, q_binomial memo figures included, go to
SPANS_JSON.
"""

import json
import sys

from tracer import Recorder, install, record_memo


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    install(rec)
    from cyclicsieve.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        record_memo(rec)
        with open(spans_path, "w") as fh:
            json.dump(rec.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
