"""One benchmark job in a fresh interpreter, on the path a CLI call takes.

    python3 job.py OUT_DIR TRACE CONFIG...

Imports gapcert, loads and validates every configuration (set-up), then for
each one runs `report.run` and `write_report` to OUT_DIR/report-NNN.json.
It writes OUT_DIR/job.json with the monotonic clock readings at the first
task and after the last report, and with TRACE=1 also OUT_DIR/spans.npz.
The parent reads the clock at spawn, so set-up time includes interpreter
start-up and imports.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    out_dir, trace, paths = argv[0], argv[1] == "1", argv[2:]
    import gapcert

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    configs = [gapcert.load_config(path) for path in paths]
    first_task = time.monotonic()
    for index, config in enumerate(configs):
        report = gapcert.report.run(config)
        gapcert.report.write_report(
            report, os.path.join(out_dir, f"report-{index:03d}.json")
        )
    end = time.monotonic()
    if tracer is not None:
        tracer.dump(os.path.join(out_dir, "spans.npz"))
    with open(os.path.join(out_dir, "job.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "first_task": first_task,
                "end": end,
                "gapcert_file": gapcert.__file__,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
