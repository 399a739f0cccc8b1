#!/usr/bin/env bash
# Lint: one probe route.
#
# Where a probe goes and who answers it was once worked out three ways:
# `send_probe` (a reply hashing its ECMP choices on the answering address),
# and two copies — the fluid fast path's `probe_path` and
# `Network::record_route_into` — that re-walked both legs with
# `forward_path`, which hashes on the responder's *first* interface, so the
# fluid series could follow a parallel link the packets never took. Both
# now read `Network::probe_route_into`, built from the resolved path, answer
# rule and reply sink tree `send_probe` uses. This check fails if
# crates/probing/src calls `forward_path` again, or if `record_route_into`
# goes back to walking paths with `forward_path_into`.
set -euo pipefail
cd "$(dirname "$0")/.."

walks=$(grep -rn --include='*.rs' -E '\bforward_path(_into)?\s*\(' crates/probing/src 2>/dev/null || true)
if [[ -n "$walks" ]]; then
    echo "error: crates/probing/src walks a probe path of its own — read Network::probe_route_into (or send_probe)" >&2
    echo "$walks" >&2
    exit 1
fi

rr=$(awk '/fn record_route_into\(/ { inside = 1 }
          inside && /forward_path_into/ { print FILENAME ":" FNR ": " $0 }
          inside && /^    }$/ { inside = 0 }' crates/netsim/src/forward.rs)
if [[ -n "$rr" ]]; then
    echo "error: record_route_into walks paths with forward_path_into — map the crossings of Network::probe_route_into" >&2
    echo "$rr" >&2
    exit 1
fi
echo "lint_probe_route: ok"
