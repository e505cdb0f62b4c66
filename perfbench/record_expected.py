#!/usr/bin/env python3
"""Record the reference batch outputs the output checks compare against.

    python3 perfbench/record_expected.py --entities 10000 --seeds 1 2 3

Runs the canonical pipeline on the driver path once per seed and stores the
entity checksum, entity count, blocking recall and match F1 under
``"<entities>:<seed>"`` in ``perfbench/expected.json``, with the host facts.
A run whose seed is recorded must reproduce these values exactly.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entities", type=int, default=run.Sizes().batch_entities)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    for seed in args.seeds:
        sample = run.batch_sample(seed, args.entities, None)
        expected["recorded"][f"{args.entities}:{seed}"] = {
            field: sample[field]
            for field in ("checksum", "entities", "blocking_recall", "match_f1")
        }
        print(seed, expected["recorded"][f"{args.entities}:{seed}"], flush=True)
    expected["recorded_on"] = run.host_facts()
    expected["recorded"] = dict(sorted(expected["recorded"].items()))
    path.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
