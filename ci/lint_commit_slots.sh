#!/usr/bin/env bash
# Lint: the round commit writes by series slot, not by key.
#
# `StagedOps::commit` once made one key-based `Store::write_batch` per
# series per round (15.6k on planet-20k), each hashing and comparing a
# four-string `SeriesKey` twice. Each VP now resolves its tasks' keys to
# `SeriesSlot`s when a task set is installed, and the commit goes through
# `write_batch_at` / `annotate_at`. This check fails if
# crates/core/src/engine.rs calls a key-based store write (`write(`,
# `write_batch(`, `annotate(`) again. `StagedOps`'s own `annotate` (staging,
# no store) is exempt.
set -euo pipefail
cd "$(dirname "$0")/.."

src=crates/core/src/engine.rs
calls=$(grep -n -E '\.\s*(write|write_batch|annotate)\s*\(' "$src" |
    grep -v -E '^[0-9]+:\s*//' |
    grep -v -E '\bself\s*\.\s*annotate\s*\(' || true)
if [[ -n "$calls" ]]; then
    echo "error: $src writes the store by key — write by slot (Store::write_batch_at / annotate_at)" >&2
    echo "$calls" >&2
    exit 1
fi
echo "lint_commit_slots: ok"
