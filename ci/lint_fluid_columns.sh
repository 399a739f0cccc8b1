#!/usr/bin/env bash
# Lint: one fluid evaluator, reading link columns, on one code path.
#
# Fluid mode once had three evaluators of a probe path over time: TSLP
# synthesis, loss synthesis and `ProbePath::rtt_and_prob`, which the other
# two and the NDT/asymmetry views called per (path, bin), re-deriving the
# demand, queue and loss of every link a VP's paths share. One column engine
# (`tslp::fold_paths`) now evaluates each (link, direction) once per bin
# (`Network::link_states_into`) and folds paths from the columns; TSLP and
# loss synthesis reduce its fold, and one path at one instant is a one-bin
# `synthesize_task`. The per-instant walk lives on only as the reference in
# tests/fluid_columns.rs. This check fails if `rtt_and_prob` is called in
# crates/*/src, crates/bench or examples/, or if crates/probing/src calls
# `link_state` again, so a second evaluator cannot come back.
#
# Fault queries are read once per run of bins up to
# `FaultSchedule::stable_until`, which on an empty schedule is the whole
# chunk. A second, fault-free branch would run only in worlds without
# faults — which is every benchmark workload — so it could be neither
# measured against nor checked by the faulted path. This check also fails
# if tslp.rs or loss.rs branches on the schedule's `is_empty()` or a
# `faulted` flag.
set -euo pipefail
cd "$(dirname "$0")/.."

calls=$(grep -rn --include='*.rs' -E '\brtt_and_prob\s*\(' crates/*/src crates/bench examples || true)
if [[ -n "$calls" ]]; then
    echo "error: a second fluid evaluator — read the column engine (tslp::synthesize_task for one path)" >&2
    echo "$calls" >&2
    exit 1
fi
calls=$(grep -rn --include='*.rs' -E '\blink_state\s*\(' crates/probing/src || true)
if [[ -n "$calls" ]]; then
    echo "error: crates/probing/src evaluates link state per bin — fill columns with Network::link_states_into" >&2
    echo "$calls" >&2
    exit 1
fi
for src in crates/probing/src/tslp.rs crates/probing/src/loss.rs; do
    forks=$(grep -n -E '\bfault\s*\.\s*(events\s*\(\s*\)\s*\.\s*)?(is_empty|len)\s*\(|\bfaulted\b' "$src" || true)
    if [[ -n "$forks" ]]; then
        echo "error: $src forks on whether the world has faults — read fault queries per run (FaultSchedule::stable_until) on the one path" >&2
        echo "$forks" >&2
        exit 1
    fi
done
echo "lint_fluid_columns: ok"
