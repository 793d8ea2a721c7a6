#!/usr/bin/env sh
# The regression gate: re-run every baselined scenario with default
# parameters — and every baselined spec file under specs/ through
# `run --spec examples/specs/<name>.json` — and compare against the
# checked-in JSON.  CI runs this on every push; a diff means a semantic
# change that must be intentional (regenerate with regen.sh and commit the
# new baseline alongside the code change).
#
# The five monitored baselines (hotspot-shift-monitoring,
# sharded-hotspot-reassignment and the three under specs/) were regenerated
# when the policies' targets became exact shares of W on a grid: only
# weight-valued fields moved, by about 1e-9.  Like quickstart and
# skewed-reassignment, all five regenerate when ROADMAP item 1 (the
# weight-gain refresh) lands.
#
# Every built-in scenario has a file here (tests/test_paper_claims.py holds
# the two listings equal).  The twelve added with the E1-E11 catalogue were
# generated at the commit before it; dynamic-storage-adaptation was
# regenerated when its three arms became specs run through run_spec (a
# seeded read/write mix replaced the loop that wrote every third
# operation); its dynamic arm transfers weight into a storage cluster as
# the spec runs above do.  storage-vs-reconfig runs the same refresh but
# reports liveness booleans only; crash-resilience and the two static
# baselines issue no transfer; epoch-vs-epochless, limitation-vc,
# protocol-costs, example1-semantics, reduction-alg1/2 and wmqs-vs-mqs run
# reassignment servers, oracles or closed forms with no storage register.
#
# compare (rel_tol 1e-9) gives the verdict; each line also says whether the
# fresh output is byte-identical to the file (cmp), and the last line counts
# them, so a change that must move no byte can be read off the gate.
set -e
cd "$(dirname "$0")/../.."
status=0
checked=0
identical=0
check() {  # check <label> <baseline> <run arguments...>
    label=$1
    baseline=$2
    shift 2
    fresh="${TMPDIR:-/tmp}/repro-baseline-$(echo "$label" | tr / -).json"
    PYTHONPATH=src python -m repro run "$@" --json "$fresh" --quiet
    checked=$((checked + 1))
    if cmp -s "$fresh" "$baseline"; then
        bytes=identical
        identical=$((identical + 1))
    else
        bytes=differ
    fi
    if PYTHONPATH=src python -m repro compare "$fresh" "$baseline"; then
        echo "ok: $label (bytes: $bytes)"
    else
        echo "REGRESSION: $label diverges from $baseline (bytes: $bytes)" >&2
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
echo "bytes: $identical of $checked outputs identical to their files"
exit $status
