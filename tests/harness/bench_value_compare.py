#!/usr/bin/env python3
"""Checks that a cell BENCH file (BENCH_scale/_dtn/_adversary.json) lost no
value against an older one: every key of OLD must appear in NEW with the
same printed text.

A point-level key may stay where it was, move into the point's `timing`
object, or, as `sim_events`, be renamed to `timing.effective_events`.
Wall-clock values (`wall_clock_s` and the per-second rates), at point
level or inside `timing`, must still be present but are not compared. Numbers are compared as the text the
writer printed, not as parsed floats.

Usage: bench_value_compare.py OLD.json NEW.json   (exit 1 on any loss)
"""
import json
import sys

WALL_CLOCK = {"wall_clock_s", "events_per_sec", "effective_events_per_sec"}


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f, parse_float=str, parse_int=str)


def compare(old, new, where, problems, counts):
    """Every leaf of `old` equals the leaf at the same place in `new`."""
    if isinstance(old, dict):
        if not isinstance(new, dict):
            problems.append(f"{where}: object became {type(new).__name__}")
            return
        for key, value in old.items():
            if key not in new:
                problems.append(f"{where}.{key}: missing")
            elif key in WALL_CLOCK:
                counts["exempt"] += 1
            else:
                compare(value, new[key], f"{where}.{key}", problems, counts)
    elif isinstance(old, list):
        if not isinstance(new, list) or len(new) != len(old):
            problems.append(f"{where}: list length changed")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            compare(a, b, f"{where}[{i}]", problems, counts)
    elif old != new:
        problems.append(f"{where}: {old!r} became {new!r}")
    else:
        counts["compared"] += 1


def candidates(key, point):
    """Where a point-level key of the old file may live in the new point."""
    timing = point.get("timing", {})
    places = [(point, key), (timing, key)]
    if key == "sim_events":
        places.append((timing, "effective_events"))
    return [obj[k] for obj, k in places if k in obj]


def compare_point(old, new, where, problems, counts):
    for key, value in old.items():
        if key == "series":
            compare(value, new.get("series"), f"{where}.series", problems, counts)
            continue
        found = candidates(key, new)
        if not found:
            problems.append(f"{where}.{key}: missing")
            continue
        if key in WALL_CLOCK:
            counts["exempt"] += 1
            continue
        first_miss = None
        for candidate in found:
            sub_problems, sub_counts = [], {"compared": 0, "exempt": 0}
            compare(value, candidate, f"{where}.{key}", sub_problems, sub_counts)
            if not sub_problems:
                counts["compared"] += sub_counts["compared"]
                counts["exempt"] += sub_counts["exempt"]
                break
            first_miss = first_miss or sub_problems
        else:
            problems.extend(first_miss)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    old, new = load(sys.argv[1]), load(sys.argv[2])
    problems = []
    counts = {"compared": 0, "exempt": 0}
    for key, value in old.items():
        if key == "points":
            continue
        compare(value, new.get(key), key, problems, counts)
    old_points, new_points = old.get("points", []), new.get("points", [])
    if len(old_points) != len(new_points):
        problems.append(f"points: {len(old_points)} became {len(new_points)}")
    for i, (a, b) in enumerate(zip(old_points, new_points)):
        compare_point(a, b, f"points[{i}]", problems, counts)
    for p in problems:
        print(f"LOST {p}")
    print(f"{sys.argv[2]}: {counts['compared']} values identical to "
          f"{sys.argv[1]}, {counts['exempt']} wall-clock values present, "
          f"{len(problems)} lost")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
