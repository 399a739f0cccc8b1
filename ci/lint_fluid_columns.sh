#!/usr/bin/env bash
# Lint: the fluid TSLP synthesis reads link columns, on one code path.
#
# `TslpProber::synthesize_window` once called `ProbePath::rtt_and_prob` per
# (task, end, path, bin), re-deriving the demand, queue and loss of every
# link a VP's paths share. It now evaluates each (link, direction) once per
# bin into a column (`Network::link_states_into`) and folds paths from the
# columns. This check fails if crates/probing/src/tslp.rs calls
# `rtt_and_prob` or `link_state` again, so the per-bin walk cannot come back.
#
# Fault queries are read once per run of bins up to
# `FaultSchedule::stable_until`, which on an empty schedule is the whole
# chunk. A second, fault-free branch would run only in worlds without
# faults — which is every benchmark workload — so it could be neither
# measured against nor checked by the faulted path. This check also fails
# if tslp.rs branches on the schedule's `is_empty()` or a `faulted` flag.
set -euo pipefail
cd "$(dirname "$0")/.."

src=crates/probing/src/tslp.rs
calls=$(grep -n -E '\b(rtt_and_prob|link_state)\s*\(' "$src" || true)
if [[ -n "$calls" ]]; then
    echo "error: $src evaluates link state per bin — fill columns with Network::link_states_into" >&2
    echo "$calls" >&2
    exit 1
fi
forks=$(grep -n -E '\bfault\s*\.\s*(events\s*\(\s*\)\s*\.\s*)?(is_empty|len)\s*\(|\bfaulted\b' "$src" || true)
if [[ -n "$forks" ]]; then
    echo "error: $src forks on whether the world has faults — read fault queries per run (FaultSchedule::stable_until) on the one path" >&2
    echo "$forks" >&2
    exit 1
fi
echo "lint_fluid_columns: ok"
