#!/usr/bin/env bash
# Lint: one AS graph.
#
# The workspace once held two AS graphs: `manic_scenario::AsGraph` for the
# hand-built worlds, the compiler and BGP, and worldgen's `CompactGraph`
# (built through a `GraphBuilder`, names in an `Interner`) for the generated
# universe, whose focus was then copied into an `AsGraph` node by node. Each
# brought its own relationship enum (`Neighborhood` and `Rel`, the same
# three variants in the same order) and its own kind enum. The generator
# now writes the universe straight into an `AsGraph`. This check fails if
# crates/*/src declares or names `CompactGraph`, `GraphBuilder` or
# `struct Interner` again, or declares a second enum whose variants are
# exactly `Provider`, `Customer` and `Peer` (`Neighborhood` is the one).
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t srcs < <(find crates/*/src -name '*.rs' | sort)

second=$(grep -n -E '\b(CompactGraph|GraphBuilder)\b|\bstruct\s+Interner\b' "${srcs[@]}" || true)
if [[ -n "$second" ]]; then
    echo "error: a second AS graph — generate into manic_scenario::AsGraph" >&2
    echo "$second" >&2
    exit 1
fi

# Every enum whose variants (one per line, comments and attributes aside)
# are exactly Customer, Peer and Provider.
rels=$(perl -0777 -ne '
    while (/\benum\s+(\w+)\s*\{([^}]*)\}/g) {
        my ($name, $body) = ($1, $2);
        $body =~ s{//[^\n]*}{}g;
        $body =~ s{#\[[^\]]*\]}{}g;
        my @variants = sort ($body =~ /^\s*([A-Z]\w*)/mg);
        print "$ARGV: enum $name\n" if "@variants" eq "Customer Peer Provider";
    }' "${srcs[@]}")
if [[ $(grep -c . <<<"$rels") -gt 1 ]]; then
    echo "error: a second relationship enum — use manic_scenario::asgraph::Neighborhood" >&2
    echo "$rels" >&2
    exit 1
fi
echo "lint_one_graph: ok"
