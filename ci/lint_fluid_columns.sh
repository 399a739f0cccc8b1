#!/usr/bin/env bash
# Lint: the fluid TSLP synthesis reads link columns.
#
# `TslpProber::synthesize_window` once called `ProbePath::rtt_and_prob` per
# (task, end, path, bin), re-deriving the demand, queue and loss of every
# link a VP's paths share. It now evaluates each (link, direction) once per
# bin into a column (`Network::link_states_into`) and folds paths from the
# columns. This check fails if crates/probing/src/tslp.rs calls
# `rtt_and_prob` or `link_state` again, so the per-bin walk cannot come back.
set -euo pipefail
cd "$(dirname "$0")/.."

calls=$(grep -n -E '\b(rtt_and_prob|link_state)\s*\(' crates/probing/src/tslp.rs || true)
if [[ -n "$calls" ]]; then
    echo "error: crates/probing/src/tslp.rs evaluates link state per bin — fill columns with Network::link_states_into" >&2
    echo "$calls" >&2
    exit 1
fi
echo "lint_fluid_columns: ok"
