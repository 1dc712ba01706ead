#!/usr/bin/env bash
# Checks that the span table in docs/OBSERVABILITY.md ("Span taxonomy")
# matches the code: every span name passed as a string literal to
# obs::ObsTracer::Span under src/ must have a row, and every row must name
# a span that some code under src/ emits. Run from anywhere.
#
# Usage: scripts/check_spans.sh

set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
doc=docs/OBSERVABILITY.md

# `Span("name")` and `Span var("name")`, one name per line.
code="$(grep -rhoE 'Span([[:space:]]+[A-Za-z_][A-Za-z0-9_]*)?\([[:space:]]*"[^"]+"' src |
  sed -E 's/.*"([^"]+)"$/\1/' | sort -u)"
# First-column code spans of the table under the "Span taxonomy" heading.
table="$(awk '/^## /{t = ($0 ~ /^## Span taxonomy/)} t && /^\| `/' "$doc" |
  sed -E 's/^\| `([^`]+)`.*/\1/' | sort -u)"

if [ -z "$code" ] || [ -z "$table" ]; then
  echo "no spans found in src/ or no span table in $doc"
  exit 1
fi

fail=0
while IFS= read -r name; do
  echo "SPAN NOT IN $doc: $name"
  fail=1
done < <(comm -23 <(echo "$code") <(echo "$table"))
while IFS= read -r name; do
  echo "SPAN IN $doc BUT NOT EMITTED UNDER src/: $name"
  fail=1
done < <(comm -13 <(echo "$code") <(echo "$table"))

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "span table OK ($(echo "$code" | wc -l) spans)"
