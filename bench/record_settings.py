#!/usr/bin/env python3
"""Record the setting counts of the default seed's settings tasks.

    python3 bench/record_settings.py

Writes bench/expected_settings.json, mapping the argv (joined by spaces) of
each task in the first ROUNDS rounds to the `count` the program printed. The checker then requires the
same count whenever the default seed replays that task, so a later change to
the measurement layer cannot change a setting count unnoticed. Run it only on
a commit whose counts are trusted; the file in the repository was recorded at
the seed commit.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 30


def main() -> int:
    cli = run.import_cli()
    counts = {}
    for rnd in islice(workloads.rounds("settings", workloads.DEFAULT_SEED), ROUNDS):
        for task in rnd:
            code, out, _ = run.run_inline(cli, task.argv)
            if code != 0:
                sys.exit(f"exit code {code}: {' '.join(task.argv)}")
            counts[" ".join(task.argv)] = json.loads(out)["count"]
    (HERE / "expected_settings.json").write_text(json.dumps(counts, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(counts)} counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
