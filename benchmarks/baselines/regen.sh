#!/usr/bin/env sh
# Regenerate every checked-in baseline from the scenario's default
# parameters (and every baseline under specs/ from its spec file in
# examples/specs/).  Run from anywhere; results are deterministic in
# virtual time, so a regenerated baseline only changes when the code does.
set -e
cd "$(dirname "$0")/../.."
for baseline in benchmarks/baselines/*.json; do
    name=$(basename "$baseline" .json)
    echo "regenerating $name"
    PYTHONPATH=src python -m repro run "$name" --json "$baseline" --quiet
done
for baseline in benchmarks/baselines/specs/*.json; do
    name=$(basename "$baseline" .json)
    echo "regenerating specs/$name"
    PYTHONPATH=src python -m repro run --spec "examples/specs/$name.json" \
        --json "$baseline" --quiet
done
