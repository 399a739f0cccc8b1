#!/usr/bin/env bash
# Lint: library code must log through manic-obs, not raw print macros.
#
# Structured events carry sim time, level, and fields, and can be silenced,
# filtered, ring-buffered, and shipped as CI artifacts; a stray eprintln!
# bypasses all of that. This check fails on any `println!` / `eprintln!` in
# workspace Rust sources outside the places terminal output is the point:
#
#   - crates/cli/           (user-facing command output)
#   - crates/bench/src/bin/ (experiment and correctness-gate reports)
#
# Note crates/serve/ is deliberately NOT allowlisted: the HTTP layer logs
# through manic-obs like every other library crate.
#
# A line may opt out with an `ALLOW_PRINT: <reason>` comment — reserved for
# the journal's own stderr sink and similarly self-justifying sites.
set -euo pipefail
cd "$(dirname "$0")/.."

violations=$(grep -rn --include='*.rs' -E '\b(println|eprintln)!' \
    crates/ src/ tests/ 2>/dev/null |
    grep -v '^crates/cli/' |
    grep -v '^crates/bench/src/bin/' |
    grep -v 'ALLOW_PRINT' || true)

if [[ -n "$violations" ]]; then
    echo "error: raw print macros outside cli/bench-bin code — use manic_obs::event! instead" >&2
    echo "$violations" >&2
    exit 1
fi
echo "lint_println: ok"
