#!/usr/bin/env bash
# Copyright 2026 The balanced-clique Authors.
#
# Byte-identity checks for the large-graph data path: two `mbc_cli gen`
# runs with the same BSCL parameters and seed must write identical
# binaries, and `mbc_cli convert` of that binary (loaded through the mmap
# loader, re-written through the v2 writer) must reproduce it byte for
# byte.
#
#   gen_convert_test.sh <mbc_cli>
set -u

MBC_CLI="$1"

WORK="$(mktemp -d)"
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT
cd "$WORK" || exit 1

fail() { echo "FAIL: $1"; exit 1; }

for out in gen_a.mbcg gen_b.mbcg; do
  "$MBC_CLI" gen --family bscl --vertices 20000 --edges 100000 --seed 7 \
    --out "$out" > /dev/null || fail "gen $out"
done
cmp gen_a.mbcg gen_b.mbcg || fail "gen is not byte-deterministic"

"$MBC_CLI" convert --graph gen_a.mbcg --out roundtrip.mbcg > /dev/null \
  || fail "convert"
cmp gen_a.mbcg roundtrip.mbcg || fail "convert round trip changed bytes"

echo "PASS"
exit 0
