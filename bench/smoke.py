#!/usr/bin/env python3
"""JSON helpers for the smoke targets in the Makefile.

    python3 bench/smoke.py same A B              # equal outside "timing"
    python3 bench/smoke.py golden [--records] GOLDEN DOC
    python3 bench/smoke.py tamper-audit DOC FLIP DROP
    python3 bench/smoke.py corrupt-segment CACHE
    python3 bench/smoke.py recovered-warm REPORT
    python3 bench/smoke.py slow IN OUT SECTION.METRIC...

`golden` compares the canonical form of DOC (parsed, "timing" removed,
re-printed with one-space indent) byte for byte against GOLDEN; with
DEFLECTION_UPDATE_GOLDEN=1 it rewrites GOLDEN instead. `golden --records
GOLDEN DOC` keeps only the schedule-independent part of an audit document
written by several workers: its record multiset without `seq` and `lane`.
Every check exits 1 with a message on failure.
"""
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def untimed(doc):
    doc = dict(doc)
    doc.pop("timing", None)
    return doc


def record_multiset(doc):
    recs = []
    for r in doc["records"]:
        r = dict(r)
        r.pop("seq")
        r.pop("lane")
        recs.append(r)
    return {
        "schema": doc["schema"],
        "records": sorted(recs, key=lambda r: json.dumps(r, sort_keys=True)),
    }


def fail(msg):
    print("smoke: " + msg, file=sys.stderr)
    sys.exit(1)


def same(a, b):
    if untimed(load(a)) != untimed(load(b)):
        fail("%s and %s differ outside the timing object" % (a, b))


def golden(args):
    records = args[0] == "--records"
    if records:
        args = args[1:]
    gold, path = args
    doc = load(path)
    doc = record_multiset(doc) if records else untimed(doc)
    text = json.dumps(doc, indent=1) + "\n"
    if os.environ.get("DEFLECTION_UPDATE_GOLDEN") == "1":
        with open(gold, "w") as f:
            f.write(text)
        return
    with open(gold) as f:
        if f.read() != text:
            fail("%s no longer matches golden %s" % (path, gold))


def tamper_audit(src, flip_path, drop_path):
    doc = load(src)
    flip = json.loads(json.dumps(doc))
    flip["records"][2]["ssa_q"] += 1
    with open(flip_path, "w") as f:
        json.dump(flip, f)
    drop = json.loads(json.dumps(doc))
    del drop["records"][1]
    with open(drop_path, "w") as f:
        json.dump(drop, f)


def corrupt_segment(path):
    doc = load(path)
    mac = doc["segments"][0]["mac"]
    doc["segments"][0]["mac"] = ("1" if mac[0] == "0" else "0") + mac[1:]
    with open(path, "w") as f:
        json.dump(doc, f)


def recovered_warm(path):
    r = load(path)["recovery"]
    if not r["found"] or r["malformed"]:
        fail("sealed state not found or malformed: %r" % r)
    if r["segments_discarded"] < 1:
        fail("tampered segment was not discarded")
    if not any(s["status"] == "loaded" for s in r["segments"]):
        fail("one bad segment must not take the intact ones down")


def slow(src, dst, metrics):
    doc = load(src)
    for m in metrics:
        section, key = m.split(".")
        doc["sections"][section][key] /= 2
    with open(dst, "w") as f:
        json.dump(doc, f)


def main(argv):
    cmd, args = argv[1], argv[2:]
    if cmd == "same":
        same(*args)
    elif cmd == "golden":
        golden(args)
    elif cmd == "tamper-audit":
        tamper_audit(*args)
    elif cmd == "corrupt-segment":
        corrupt_segment(*args)
    elif cmd == "recovered-warm":
        recovered_warm(*args)
    elif cmd == "slow":
        slow(args[0], args[1], args[2:])
    else:
        fail("unknown command " + cmd)


if __name__ == "__main__":
    main(sys.argv)
