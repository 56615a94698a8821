#!/usr/bin/env bash
# Second-seed digest gate.
#
# e2ebench compares its digests with e2ebench/expected_digests.txt only at
# its default seed (42). This gate runs every workload listed in
# ci/e2e_digests_seed7919.txt for one second at seed 7919 and compares the
# `digest 0x…` of e2ebench's report line with the committed one, so a change
# that alters simulated results at another seed fails too. It builds
# e2ebench if needed (honouring CARGO_TARGET_DIR) and changes nothing under
# e2ebench/.
#
# Usage:
#   ci/check_e2e_seed.sh
set -euo pipefail

seed=7919
expected_file="ci/e2e_digests_seed${seed}.txt"
failed=0

while read -r workload expected; do
    case "$workload" in
        "" | "#"*) continue ;;
    esac
    report=$(cargo run --release --quiet --offline --locked --manifest-path e2ebench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --seed "$seed" < /dev/null)
    actual=$(printf '%s\n' "$report" | sed -n 's/.*, digest \(0x[0-9a-f]*\)$/\1/p' | head -n 1)
    if [ "$actual" = "$expected" ]; then
        echo "ok: $workload seed $seed digest $actual"
    else
        echo "seed-$seed digest gate: $workload digest ${actual:-none}, committed $expected" >&2
        failed=1
    fi
done < "$expected_file"

if [ "$failed" -ne 0 ]; then
    echo "seed-$seed digest gate FAILED: simulated results changed (see $expected_file)" >&2
    exit 1
fi
echo "seed-$seed digest gate OK"
