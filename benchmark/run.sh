#!/usr/bin/env bash
# Builds c11netd and the benchmark from this checkout, then runs the
# benchmark from the checkout's root with the arguments given, e.g.
#   bash benchmark/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
# Build output goes to standard error; the result line to standard output.
set -euo pipefail
# Both builds go to one target directory, where the binaries are run from.
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --target-dir "$target" --bin c11netd 1>&2
cargo build --release --quiet --offline --target-dir "$target" \
    --manifest-path benchmark/Cargo.toml 1>&2
status=0
"$target/release/c11-benchmark" --netd "$target/release/c11netd" "$@" || status=$?
# A run that aborted may leave its server behind: stop it and wait.
pidfile=.bench_run/netd.pid
if [ -f "$pidfile" ]; then
    pid=$(cat "$pidfile")
    kill -9 "$pid" 2>/dev/null || true
    while kill -0 "$pid" 2>/dev/null; do sleep 0.05; done
    rm -f "$pidfile"
fi
exit "$status"
