#!/bin/bash
# Runs every example binary of a build tree and compares its stdout, and
# the sha256 of trace_dump's Chrome trace, with examples/golden/. The
# examples are deterministic, so any difference is a behaviour change.
#
#   tools/check_examples.sh <build_dir>           # diff; exit 1 on change
#   tools/check_examples.sh <build_dir> --update  # rewrite the goldens
#
# The examples write their files (s2v_trace.json) into a temporary
# directory, not the working directory.
set -euo pipefail

EXAMPLES="quickstart etl_pipeline ml_pipeline vertica_sql_tour trace_dump
node_failure multi_tenant designer"

build=$(cd "$1" && pwd)
golden=$(cd "$(dirname "$0")/../examples/golden" && pwd)
update=${2:-}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cd "$work"
for name in $EXAMPLES; do
  "$build/examples/$name" > "$name.stdout"
done
sha256sum s2v_trace.json | cut -d' ' -f1 > s2v_trace.sha256

status=0
for file in $(for name in $EXAMPLES; do echo "$name.stdout"; done) \
    s2v_trace.sha256; do
  if [ "$update" = "--update" ]; then
    cp "$file" "$golden/$file"
  elif ! diff -u "$golden/$file" "$file"; then
    status=1
  fi
done
exit $status
