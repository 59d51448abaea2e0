"""Per-item layer split of a traced benchmark run.

    python3 perfbench/split.py .perfbench/trace-cssg_heavy-1.jsonl

Reads the spans a --trace 1 run wrote and prints, for every item, its
traced wall and each layer's share of it (self time: a span's duration
minus the part its children cover), medians over the traced passes.
"""

import collections
import json
import statistics
import sys


def main(path):
    spans = [json.loads(line) for line in open(path)]
    by_id = {s["id"]: s for s in spans}
    child_time = collections.Counter()
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    # per item: list (one entry per traced pass) of {layer: self seconds}
    items = collections.defaultdict(list)
    for s in spans:
        if s["parent"] < 0:
            items[s["item"]].append({"wall": s["end"] - s["start"], "id": s["id"]})
    layers = collections.defaultdict(lambda: collections.Counter())
    for s in spans:
        if s["parent"] < 0:
            continue
        root = s
        while root["parent"] >= 0:
            root = by_id[root["parent"]]
        self_s = (s["end"] - s["start"]) - child_time[s["id"]]
        layers[root["id"]][s["name"]] += self_s
    names = sorted({n for c in layers.values() for n in c})
    for label, keep in (("ALL ITEMS", lambda i: not i.startswith("request:")),
                        ("ALL REQUESTS", lambda i: i.startswith("request:"))):
        roots = [s for s in spans if s["parent"] < 0 and keep(s["item"])]
        if not roots:
            continue
        wall = sum(s["end"] - s["start"] for s in roots)
        total = collections.Counter()
        for s in roots:
            total.update(layers[s["id"]])
        top = sorted(total.items(), key=lambda kv: -kv[1])
        text = ", ".join("%s %.2f%%" % (n, 100 * v / wall) for n, v in top if v / wall >= 0.0001)
        print("%-36s %9.4f s  %s" % (label, wall, text))
    for item, passes in sorted(items.items()):
        wall = statistics.median(p["wall"] for p in passes)
        shares = {
            n: statistics.median(layers[p["id"]][n] for p in passes) / wall
            for n in names
        }
        top = sorted(shares.items(), key=lambda kv: -kv[1])
        text = ", ".join("%s %.1f%%" % (n, 100 * v) for n, v in top if v >= 0.001)
        print("%-36s %9.4f s  %s" % (item, wall, text))


if __name__ == "__main__":
    main(sys.argv[1])
