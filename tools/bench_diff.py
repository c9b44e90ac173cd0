#!/usr/bin/env python3
"""Compares two BENCH_*.json files, ignoring host-time keys.

Usage:
  tools/bench_diff.py EXPECTED.json ACTUAL.json
      Exits 0 when the files agree on every key except host-time ones
      (`wall_ms`, `query_wall_ms` and any `host_*` key, at any depth),
      and 1 otherwise, listing each difference by its JSON path.
  tools/bench_diff.py --trim IN.json OUT.json
      Writes IN.json without its host-time keys, pretty-printed with
      sorted keys: the form committed under bench/snapshots/.

Virtual-time outputs are deterministic per binary, so any difference
outside the host keys is a model change or a bug.
"""

import json
import sys

HOST_KEYS = ("wall_ms", "query_wall_ms")


def is_host_key(key):
    return key in HOST_KEYS or key.startswith("host_")


def trim(node):
    """Returns `node` with every host-time key removed, recursively."""
    if isinstance(node, dict):
        return {k: trim(v) for k, v in node.items() if not is_host_key(k)}
    if isinstance(node, list):
        return [trim(v) for v in node]
    return node


def diff(expected, actual, path, out):
    """Appends one line per difference between the two trimmed trees."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}"
            if key not in actual:
                out.append(f"{sub}: missing in actual")
            elif key not in expected:
                out.append(f"{sub}: unexpected in actual")
            else:
                diff(expected[key], actual[key], sub, out)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{path}: {len(expected)} items vs {len(actual)}")
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff(e, a, f"{path}[{i}]", out)
    elif expected != actual or type(expected) is not type(actual):
        out.append(f"{path}: {expected!r} vs {actual!r}")


def load(path):
    with open(path, encoding="utf-8") as f:
        return trim(json.load(f))


def main(argv):
    if len(argv) == 4 and argv[1] == "--trim":
        with open(argv[3], "w", encoding="utf-8") as f:
            json.dump(load(argv[2]), f, indent=1, sort_keys=True)
            f.write("\n")
        return 0
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    out = []
    diff(load(argv[1]), load(argv[2]), "$", out)
    for line in out[:50]:
        print(line)
    if len(out) > 50:
        print(f"... {len(out) - 50} more")
    if out:
        print(f"{argv[2]} differs from {argv[1]} in {len(out)} place(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
