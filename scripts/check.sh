#!/bin/sh
# Offline CI gate: build, test, and check formatting.
#
# Runs entirely without network access: every external dependency is
# vendored under vendor/ as a path dependency (see Cargo.toml), and
# crates/bench's criterion harnesses are feature-gated.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> build the benchmark"
# perfbench/ is its own Cargo workspace over the crates' paths, so the
# workspace build above never compiles it. Building it here makes a
# change to an API the benchmark calls fail CI, not the benchmark run.
CARGO_TARGET_DIR=target/perfbench cargo build --release --offline --locked \
    --manifest-path perfbench/Cargo.toml

echo "==> compile the criterion benches"
# crates/bench's criterion harnesses are feature-gated, so neither the
# build nor the test step compiles them. Compiling them here makes a
# change to an API a harness calls fail CI, not the next bench run.
cargo bench --offline -p ace-bench --features bench_harness --no-run

echo "==> cargo test"
cargo test --offline -q

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (incl. clippy::perf, tests and examples too)"
cargo clippy --workspace --all-targets --offline -- -W clippy::perf -D warnings

echo "==> cargo doc (zero warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

echo "==> conformance repro triage gate"
# Any .cif under conformance/repros/ is an un-triaged cross-backend
# divergence (see conformance/repros/README.md). Triage it before
# landing: fix the backend and promote the repro to the corpus, or
# fix the comparison policy.
untriaged=$(find conformance/repros -name '*.cif' 2>/dev/null | sort)
if [ -n "$untriaged" ]; then
    echo "un-triaged conformance repros present:" >&2
    echo "$untriaged" >&2
    exit 1
fi

echo "==> conformance smoke (seed 1983, 64 cases) + corpus replay"
target/release/conformance --seed 1983 --cases 64 --quiet
target/release/conformance --corpus --quiet

echo "==> lint snapshot gate over the corpus"
# Every corpus layout's ERC diagnostics are pinned in
# conformance/corpus/lints.txt; regenerate after an intentional rule
# change with ACE_LINT_RECORD=1 cargo test -p ace_lint --test golden.
# In --snapshot mode acelint exits 0 on agreement (even when pinned
# diagnostics include errors) and 1 on any divergence.
target/release/acelint conformance/corpus/*.cif \
    --snapshot conformance/corpus/lints.txt

echo "==> lint SARIF shape"
# The SARIF emitter must produce parseable 2.1.0 output; the full
# structural validation of every corpus file's SARIF runs in
# crates/lint/tests/golden.rs.
sarif=$(target/release/acelint conformance/corpus/*.cif --format sarif || true)
case "$sarif" in
    '{'*'"version": "2.1.0"'*) ;;
    *) echo "acelint --format sarif produced malformed output" >&2; exit 1 ;;
esac

echo "==> lint agreement fuzz (seed 1983, 64 cases)"
target/release/conformance --seed 1983 --cases 64 --lint-agreement --quiet

echo "==> DRC snapshot gate over the corpus"
# Every corpus layout's design-rule violations are pinned in
# conformance/corpus/drc.txt; regenerate after an intentional deck or
# engine change with ACE_DRC_RECORD=1 cargo test -p ace_drc --test
# golden.
target/release/acedrc conformance/corpus/*.cif \
    --snapshot conformance/corpus/drc.txt

echo "==> DRC SARIF shape"
# acedrc's SARIF must be parseable 2.1.0 with a rules table every
# result's ruleId resolves into; full structural validation of every
# corpus file's SARIF runs in crates/drc/tests/golden.rs.
sarif=$(target/release/acedrc conformance/corpus/*.cif --format sarif || true)
case "$sarif" in
    '{'*'"version": "2.1.0"'*'"rules": ['*) ;;
    *) echo "acedrc --format sarif produced malformed output" >&2; exit 1 ;;
esac

echo "==> DRC oracle fuzz (seed 1983, 64 cases)"
# The sweep checker must match the brute-force coordinate-compression
# oracle exactly, and stay invariant under box splitting and feed
# reversal.
target/release/conformance --seed 1983 --cases 64 --drc --quiet

echo "==> incremental conformance smoke (seed 1983, 64 edit cases)"
target/release/conformance --incremental --seed 1983 --cases 64 --quiet

echo "==> parasitic conformance smoke (seed 1983, 64 cases)"
# All six backends must agree on every net's union area/perimeter and
# cut-area totals, and the flat sweep's accumulator is additionally
# checked against the brute-force coordinate-compression oracle.
target/release/conformance --seed 1983 --cases 64 --parasitics --quiet

# Sends SIGTERM to the aced with pid $1 and waits up to 10 s for it to
# exit 0, so a shutdown that hangs fails CI instead of hanging it.
stop_aced() {
    kill -TERM "$1"
    for _ in $(seq 1 100); do
        kill -0 "$1" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$1" 2>/dev/null; then
        echo "aced still running 10 s after SIGTERM" >&2
        exit 1
    fi
    wait "$1" || { echo "aced did not exit cleanly on SIGTERM" >&2; exit 1; }
}

echo "==> aced service smoke"
# Starts the daemon on a throwaway socket, runs service_load --smoke
# against it (4 concurrent clients; every wire answer must match the
# in-process extractor), then asserts a clean SIGTERM shutdown: exit 0
# and the socket file unlinked. service_load lives in ace-bench, which
# is not a default workspace member, so the build above skips it.
cargo build --release --offline -p ace-bench
aced_sock=$(mktemp -u /tmp/aced-check-XXXXXX.sock)
target/release/aced --socket "$aced_sock" &
aced_pid=$!
trap 'kill "$aced_pid" 2>/dev/null || true' EXIT
# Wait for the socket to appear (the daemon binds before serving).
for _ in $(seq 1 100); do
    [ -S "$aced_sock" ] && break
    sleep 0.05
done
[ -S "$aced_sock" ] || { echo "aced never bound $aced_sock" >&2; exit 1; }
target/release/service_load --smoke --socket "$aced_sock"
stop_aced "$aced_pid"
trap - EXIT
[ ! -e "$aced_sock" ] || { echo "aced left $aced_sock behind" >&2; exit 1; }

echo "==> aced queue-full retry smoke"
# A one-worker daemon with a one-slot queue refuses overflow with
# queue-full + retry_after_ms; aced-client --retries must ride the
# hint to eventual success. Four cold extracts race for one worker.
qf_sock=$(mktemp -u /tmp/aced-check-XXXXXX.sock)
qf_cif=$(mktemp /tmp/aced-check-XXXXXX.cif)
awk 'BEGIN {
    printf "L NM;\n";
    for (i = 0; i < 100; i++)
        for (j = 0; j < 100; j++)
            printf "B 200 200 %d %d;\n", i * 400, j * 400;
    printf "E\n";
}' > "$qf_cif"
target/release/aced --socket "$qf_sock" --workers 1 --queue 1 \
    --timeout-ms 30000 &
qf_pid=$!
trap 'kill "$qf_pid" 2>/dev/null || true; rm -f "$qf_cif"' EXIT
for _ in $(seq 1 100); do
    [ -S "$qf_sock" ] && break
    sleep 0.05
done
[ -S "$qf_sock" ] || { echo "aced never bound $qf_sock" >&2; exit 1; }
for s in q1 q2 q3 q4; do
    target/release/aced-client --socket "$qf_sock" --retries 100 \
        open --session "$s" --cif "$qf_cif" 2>/dev/null
done
qf_pids=""
for s in q1 q2 q3 q4; do
    target/release/aced-client --socket "$qf_sock" --retries 100 \
        extract --session "$s" > /dev/null 2>&1 &
    qf_pids="$qf_pids $!"
done
for pid in $qf_pids; do
    wait "$pid" || { echo "a retried extract never succeeded" >&2; exit 1; }
done
stop_aced "$qf_pid"
trap - EXIT
rm -f "$qf_cif"
[ ! -e "$qf_sock" ] || { echo "aced left $qf_sock behind" >&2; exit 1; }

echo "OK"
