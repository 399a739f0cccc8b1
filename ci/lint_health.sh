#!/usr/bin/env bash
# Lint: one health record per task, one backoff.
#
# A task's darkness was once counted twice — the health machine's misses and
# a parallel `stale_rounds` map keyed the same way, updated in the same loop —
# and "exponential backoff" existed three times (`TaskHealth`'s
# `backoff_secs`, the VP supervisor's, `CycleBackoff`), tuned by 12 settable
# thresholds (`HealthConfig`, `SupervisorConfig`, `CycleBackoff`'s bounds)
# that nothing ever varied. Now `TaskHealth::dark_rounds` is the dark count,
# `health::Backoff` derives every delay from a failure count, and the
# thresholds are constants in crates/core/src/health.rs. This check fails if
# any of the old names returns under crates/, or if a second
# `saturating_mul(1 << …)` doubling appears beside `Backoff::delay`.
set -euo pipefail
cd "$(dirname "$0")/.."

old=$(grep -rn --include='*.rs' -E 'stale_rounds|HealthConfig|SupervisorConfig|CycleBackoff|backoff_secs' crates 2>/dev/null || true)
if [[ -n "$old" ]]; then
    echo "error: a second dark count, backoff or threshold config is back — use TaskHealth::dark_rounds, health::Backoff and the health.rs constants" >&2
    echo "$old" >&2
    exit 1
fi

doublings=$(grep -rn --include='*.rs' -F 'saturating_mul(1 <<' crates 2>/dev/null || true)
if [[ $(grep -c . <<<"$doublings") -gt 1 ]]; then
    echo "error: more than one exponential-backoff computation under crates/ — derive delays with health::Backoff::delay" >&2
    echo "$doublings" >&2
    exit 1
fi
echo "lint_health: ok"
