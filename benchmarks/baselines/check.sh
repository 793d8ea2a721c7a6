#!/usr/bin/env sh
# The regression gate: re-run every baselined scenario with default
# parameters — and every baselined spec file under specs/ through
# `run --spec examples/specs/<name>.json` — and compare against the
# checked-in JSON.  CI runs this on every push; a diff means a semantic
# change that must be intentional (regenerate with regen.sh and commit the
# new baseline alongside the code change).
#
# hotspot-shift-monitoring.json and the two files under specs/ were
# generated at the commit before the three monitoring loops became one;
# like quickstart, skewed-reassignment and sharded-hotspot-reassignment
# they regenerate when ROADMAP item 1 (the weight-gain refresh) lands.
#
# Every built-in scenario has a file here (tests/test_paper_claims.py holds
# the two listings equal).  Of the twelve added with the E1-E11 catalogue,
# generated at the commit before it, item 1 regenerates one:
# dynamic-storage-adaptation, whose dynamic-weighted row measures latencies
# after two transfers into a storage cluster.  storage-vs-reconfig runs the
# same refresh but reports liveness booleans only; crash-resilience and the
# two static baselines issue no transfer; epoch-vs-epochless, limitation-vc,
# protocol-costs, example1-semantics, reduction-alg1/2 and wmqs-vs-mqs run
# reassignment servers, oracles or closed forms with no storage register.
set -e
cd "$(dirname "$0")/../.."
status=0
check() {  # check <label> <baseline> <run arguments...>
    label=$1
    baseline=$2
    shift 2
    fresh="${TMPDIR:-/tmp}/repro-baseline-$(echo "$label" | tr / -).json"
    PYTHONPATH=src python -m repro run "$@" --json "$fresh" --quiet
    if PYTHONPATH=src python -m repro compare "$fresh" "$baseline"; then
        echo "ok: $label"
    else
        echo "REGRESSION: $label diverges from $baseline" >&2
        status=1
    fi
}
for baseline in benchmarks/baselines/*.json; do
    name=$(basename "$baseline" .json)
    check "$name" "$baseline" "$name"
done
for baseline in benchmarks/baselines/specs/*.json; do
    name=$(basename "$baseline" .json)
    check "specs/$name" "$baseline" --spec "examples/specs/$name.json"
done
exit $status
