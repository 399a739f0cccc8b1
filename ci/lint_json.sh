#!/usr/bin/env bash
# Lint: JSON is written through `manic_obs::JsonWriter`, never by hand.
#
# Nine files once built their JSON with `format!` templates, a shared
# `json_escape` and hand-counted commas, and they disagreed on non-finite
# floats (a bare `NaN` reached `/api/link/<ip>/explain`). The writer owns
# escaping, separators and `null` for non-finite floats now. This check fails
#
#   - on `json_escape` anywhere under crates/, and
#   - on a string literal holding an escaped JSON key (`\"<ident>\":`) in
#     crates/{obs,serve,core}/src, outside the writer's own module
#     (crates/obs/src/json.rs) and test code (a trailing `#[cfg(test)] mod`
#     block, or a `tests.rs` file).
set -euo pipefail
cd "$(dirname "$0")/.."

escapes=$(grep -rn --include='*.rs' -F 'json_escape' crates 2>/dev/null || true)
if [[ -n "$escapes" ]]; then
    echo "error: json_escape is gone — write strings with manic_obs::JsonWriter::str" >&2
    echo "$escapes" >&2
    exit 1
fi

hand_built=$(find crates/obs/src crates/serve/src crates/core/src -name '*.rs' \
        ! -name tests.rs ! -path crates/obs/src/json.rs | sort |
    while read -r f; do
        awk -v f="$f" '
            /^#\[cfg\(test\)\]/ { getline nxt; if (nxt ~ /^mod [A-Za-z_]+ *\{/) exit; $0 = nxt }
            /\\"[A-Za-z_][A-Za-z0-9_]*\\":/ { print f ":" NR ": " $0 }
        ' "$f"
    done)
if [[ -n "$hand_built" ]]; then
    echo "error: hand-built JSON in library code — emit it with manic_obs::JsonWriter" >&2
    echo "$hand_built" >&2
    exit 1
fi
echo "lint_json: ok"
