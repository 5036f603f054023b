#!/bin/sh
# Golden pins for the observation outputs of `windim_cli dimension`.
#
# Reruns the CLI on the thesis fixtures and on c12.net (a generated
# 12-class network where up to 7 classes share a channel) and compares
# each output byte for byte with its pinned copy in this directory,
# after zeroing the measured values ("ts", "dur", "wall_us");
# everything else in the search trace, the convergence log and the
# span trace is a pure function of the spec.
#
#   usage: check.sh WINDIM_CLI SPEC_DIR GOLDEN_DIR
#
# To re-pin after an intended format change, run the CLI commands
# below and pipe each output through normalize() into GOLDEN_DIR.
set -eu

cli=$1
specs=$2
golden=$3
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

normalize() {
  sed -E 's/"(ts|dur|wall_us)":[^,}]+/"\1":0/g' "$1"
}

"$cli" dimension "$specs/canada.net" \
  --trace-out="$out/canada.trace.jsonl" \
  --convergence-out="$out/canada.convergence.jsonl" \
  --trace-spans-out="$out/canada.spans.json" >/dev/null
"$cli" dimension "$specs/canada4.net" \
  --trace-out="$out/canada4.trace.jsonl" >/dev/null
"$cli" dimension "$golden/c12.net" \
  --trace-out="$out/c12.trace.jsonl" >/dev/null

status=0
for name in canada.trace.jsonl canada.convergence.jsonl canada.spans.json \
    canada4.trace.jsonl c12.trace.jsonl; do
  normalize "$out/$name" >"$out/$name.normalized"
  if ! cmp "$out/$name.normalized" "$golden/$name"; then
    echo "golden mismatch: $name"
    status=1
  fi
done
[ "$status" -eq 0 ] && echo golden-ok
exit "$status"
