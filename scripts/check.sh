#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests, dependency hygiene. Offline-
# friendly — no network, no extra tools beyond the rust toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

# All dependencies are path deps inside the workspace, so --offline is
# normally free. On a fresh checkout with no cached registry index some
# cargo subcommands still try to touch the index and fail; probe once and
# degrade to networked mode instead of dying.
OFFLINE=(--offline)
if ! cargo metadata --format-version 1 --offline >/dev/null 2>&1; then
    echo "warning: cargo --offline has no usable index here; proceeding without it" >&2
    OFFLINE=()
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets "${OFFLINE[@]}" -- -D warnings

echo "==> cargo clippy: no new unwrap() in simkit/sprintcon"
# The crate roots carry #![cfg_attr(not(test), warn(clippy::unwrap_used))];
# promote it to an error here so new non-test unwraps fail CI.
cargo clippy -p simkit -p sprintcon "${OFFLINE[@]}" -- -D clippy::unwrap-used

echo "==> dependency hygiene: no duplicate dependency versions"
# cargo unifies semver-compatible requirements, so anything `tree -d`
# prints is a semver-incompatible (major-version) split. Keep the graph
# clean: one version of everything.
dups=$(cargo tree "${OFFLINE[@]}" --workspace -d 2>/dev/null || true)
if [ -n "$dups" ]; then
    echo "$dups"
    echo "error: duplicate dependency versions in the workspace graph" >&2
    exit 1
fi

echo "==> cargo doc --no-deps (deny rustdoc warnings)"
# Broken intra-doc links and malformed examples rot silently otherwise.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace "${OFFLINE[@]}" -q

echo "==> cargo check the benchmark package"
# benchmark/ is its own workspace over the library crates; a library
# change that breaks one of its calls must fail here, not in the
# pipeline's benchmark run. Building it rewrites benchmark/Cargo.lock,
# which still lists a deleted shim, so the committed lock is restored.
lock_backup=$(mktemp)
cp benchmark/Cargo.lock "$lock_backup"
trap 'cp "$lock_backup" benchmark/Cargo.lock; rm -f "$lock_backup"' EXIT
cargo check "${OFFLINE[@]}" --manifest-path benchmark/Cargo.toml --all-targets

echo "==> cargo test --doc"
# Doctests don't run under `cargo test --workspace -q` below for the
# crates that restrict test targets, so run them explicitly: README and
# DESIGN snippets are mirrored into rustdoc examples and must compile.
cargo test --doc --workspace "${OFFLINE[@]}" -q

echo "==> cargo test --workspace"
cargo test --workspace "${OFFLINE[@]}" -q

echo "==> robustness & fault-injection suites"
cargo test "${OFFLINE[@]}" -q --test robustness --test faults

echo "OK"
