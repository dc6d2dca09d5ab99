#!/usr/bin/env python3
"""Fill a memo journal with the cold-walk mix, for warm-rewalk's set-up.

    python3 perfbench/fill_journal.py JOURNAL_DIR ORDER_SEED

Walks the 18 (kernel, board) pairs with ``explore()`` in the seeded
order, each with ``memo_dir=JOURNAL_DIR``, and prints one JSON object:
the walks' wall time and each pair's selection.  It runs in a process of
its own, as the batch or fleet worker that wrote the journal before a
restart did, so what these walks leave on the heap does not weigh on
the walks warm-rewalk times.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from workloads import _label, selection, walk_mix


def main(argv) -> int:
    from repro.dse import ExploreConfig, explore

    journal, order_seed = Path(argv[1]), int(argv[2])
    mix = walk_mix()
    selections = {}
    started = time.perf_counter()
    for kernel, board in random.Random(order_seed).sample(mix, len(mix)):
        result = explore(kernel.program(), board,
                         config=ExploreConfig(memo_dir=journal))
        selections[_label(kernel, board)] = selection(result.selected)
    seconds = time.perf_counter() - started
    print(json.dumps({"seconds": seconds, "selections": selections}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
