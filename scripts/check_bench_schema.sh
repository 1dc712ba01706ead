#!/usr/bin/env bash
# Validates that a bench JSON document follows the layout contracted in
# docs/BENCH_FORMAT.md: top-level bench/config/rows/metrics, the common
# config keys, non-empty rows with a consistent key set, and a flat
# scalar-valued metrics block. Guards the CI smoke run against silent
# schema drift.
#
# Usage: scripts/check_bench_schema.sh <file.json> [expected_row_key ...]

set -u

if [ "$#" -lt 1 ]; then
  echo "usage: $0 <file.json> [expected_row_key ...]" >&2
  exit 2
fi

file="$1"
shift

python3 - "$file" "$@" <<'EOF'
import json
import sys

path, expected_keys = sys.argv[1], sys.argv[2:]
fail = []

try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    print(f"{path}: unreadable or invalid JSON: {e}", file=sys.stderr)
    sys.exit(1)

for key, typ in (("bench", str), ("config", dict), ("rows", list),
                 ("metrics", dict)):
    if not isinstance(doc.get(key), typ):
        fail.append(f"top-level '{key}' missing or not a {typ.__name__}")

config = doc.get("config", {})
if isinstance(config, dict):
    for key in ("scale", "seed", "tmlat_ns"):
        if key not in config:
            fail.append(f"config missing common key '{key}'")

rows = doc.get("rows", [])
if isinstance(rows, list):
    if not rows:
        fail.append("rows is empty")
    scalar = (int, float, str)
    keysets = set()
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            fail.append(f"rows[{i}] is not an object")
            continue
        keysets.add(tuple(sorted(row)))
        for k, v in row.items():
            if not isinstance(v, scalar) or isinstance(v, bool):
                fail.append(f"rows[{i}].{k} is not a number or string")
    if len(keysets) > 1:
        fail.append(f"rows have {len(keysets)} different key sets "
                    "(every row must mirror the same printed table)")
    if expected_keys and keysets:
        missing = set(expected_keys) - set(next(iter(keysets)))
        if missing:
            fail.append(f"rows missing expected key(s): {sorted(missing)}")

metrics = doc.get("metrics", {})
if isinstance(metrics, dict):
    for k, v in metrics.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            fail.append(f"metrics['{k}'] is not a number")

if fail:
    for msg in fail:
        print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)
print(f"{path}: schema OK "
      f"({len(rows)} row(s), {len(metrics)} metric(s))")
EOF
