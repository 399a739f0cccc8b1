#!/usr/bin/env bash
# Lint: nothing on a hot path may materialise the store as records.
#
# `Store::dump_records()` builds a `Vec<WalRecord>` with a deep-cloned
# `SeriesKey` per *point*. It once sat under both the content hash and the
# checkpoint snapshot, where it was most of a checkpoint's cost and a third
# of peak RSS; both now go through `Store::walk`, which borrows. The
# function stays public for tests and the benchmark's drills. This check
# fails if any library source calls it — `crates/*/src/**` other than its
# home `crates/tsdb/src/store.rs` — so the O(points) clone cannot creep back.
# Exempt: `tests/`, `crates/*/tests/`, `crates/bench/` and `benchmark/`.
set -euo pipefail
cd "$(dirname "$0")/.."

violations=$(grep -rn --include='*.rs' -F 'dump_records(' crates/*/src 2>/dev/null |
    grep -v '^crates/tsdb/src/store\.rs:' |
    grep -v '^crates/bench/' || true)

if [[ -n "$violations" ]]; then
    echo "error: dump_records() called from library code — visit the store with Store::walk instead" >&2
    echo "$violations" >&2
    exit 1
fi

# One sample frame on disk: a sample is an entry of a `B` frame under a `K`
# frame, for every WAL policy and for snapshots. The text `S` record, its
# encoder and the line writer are gone; this fails if `crates/tsdb/src`
# regains any of them.
text_sample=$(grep -rn --include='*.rs' -E "encode_sample_into|fn write_line|b'S' *=>" crates/tsdb/src 2>/dev/null || true)
if [[ -n "$text_sample" ]]; then
    echo "error: a second on-disk form of a sample is back in crates/tsdb/src — frame it as K/B (wal.rs)" >&2
    echo "$text_sample" >&2
    exit 1
fi

# A `LinkSummary` is the dense per-bin window and nothing else. Its carried-
# verdict gate (`refresh`), its presence bitset and the bench binary that
# timed them (with its `INFER_*` knobs) had no caller in the product; this
# fails if any of them returns under `crates/`.
summary_extras=$({
    grep -rn --include='*.rs' -E 'LinkSummary::refresh|BitSet|INFER_' crates
    grep -Hn -E 'fn (refresh|analyze_exact)\(' crates/inference/src/summary.rs
} 2>/dev/null || true)
if [[ -n "$summary_extras" ]]; then
    echo "error: LinkSummary grew back a second mechanism (or its bench knobs) — it serves dense windows only" >&2
    echo "$summary_extras" >&2
    exit 1
fi

# One map per store shard: a key's points and quality windows share one
# entry, found through the shard's one key -> index map. The parallel
# quality map, the seqlock latest-sample cells (which nothing read) and the
# unused rollup / per-series CSV export are gone; this fails if `Store`
# declares a second sharded vector or a second map, or any of them returns
# under `crates/`.
stripes=$(grep -c -F 'Vec<RwLock<' crates/tsdb/src/store.rs || true)
maps=$(grep -c -F 'HashMap<' crates/tsdb/src/store.rs || true)
[[ "$stripes" -gt "$maps" ]] && maps=$stripes
store_extras=$(grep -rn --include='*.rs' -E 'LatestCell|latest_handle|fn rollup|fn export_csv' crates 2>/dev/null || true)
if [[ "$maps" -gt 1 || -n "$store_extras" ]]; then
    echo "error: Store grew back a second sharded map ($maps declared) or a dead read path — one entry per key" >&2
    [[ -n "$store_extras" ]] && echo "$store_extras" >&2
    exit 1
fi

# One border map per VP, no retention. `BdrmapResult` is the sorted link
# list and `link()` its lookup: the per-VP copy (`LinkMeta`,
# `bdrmap_links`) and the per-link destination lists nobody read
# (`dest_link`, `trace_count`) are gone, and so is the store's retention
# path (`retain_from`, `trim_before`, the `R` record), which nothing wrote.
# This fails if any of them returns under `crates/`.
unread=$(grep -rn --include='*.rs' -E '\b(LinkMeta|bdrmap_links|dest_link|trace_count|retain_from|trim_before)\b|WalRecord::Retain\b' crates 2>/dev/null || true)
if [[ -n "$unread" ]]; then
    echo "error: a second border map or the store's retention path is back — read vp.bdrmap's link(); the store keeps every point" >&2
    echo "$unread" >&2
    exit 1
fi
echo "lint_store_walk: ok"
