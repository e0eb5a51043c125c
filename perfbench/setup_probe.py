"""Time p2pq's set-up in a fresh process: ``setup_probe.py SRC MANIFEST``.

Reads every network document the manifest's requests name, then times
``import p2pq`` plus one ``load_network`` per document, and prints the
seconds: raw, then scaled to nominal speed by the reference loop
(``speed.py``) timed just before and just after.
"""

from __future__ import annotations

import json
import sys
import time

import speed


def main(argv) -> int:
    src, manifest = argv
    with open(manifest, encoding="utf-8") as fh:
        paths = list(dict.fromkeys(req["argv"][1] for req in json.load(fh)))
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    sys.path.insert(0, src)
    refs = [speed.sample() for _ in range(5)]
    start = time.perf_counter()
    import p2pq

    for text in texts:
        p2pq.load_network(text)
    elapsed = time.perf_counter() - start
    refs += [speed.sample() for _ in range(5)]
    print(elapsed, elapsed * speed.scale(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
