#!/usr/bin/env bash
# Clippy equivalence check: lint the seeded probe crate with the given
# lint flags and fail unless every expected diagnostic appears.
#
#   crates/xtask/clippy-probe/check.sh -D clippy::unwrap_used -D ...
#
# Pass the same flags as the `cargo clippy --workspace --lib` gate; the
# disallowed lists come from the root clippy.toml by directory lookup.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../../.." && pwd)"

# The probe fails to lint by design; its diagnostics are the output.
out="$(cargo clippy --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$root/target/clippy-probe" --lib --message-format=json \
    -- -D warnings "$@" 2>/dev/null || true)"

fail=0
expect() {
    if grep -qF -- "$1" <<<"$out"; then
        echo "fired    $2"
    else
        echo "MISSING  $2"
        fail=1
    fi
}
for code in clippy::unwrap_used clippy::expect_used clippy::float_cmp \
    clippy::print_stdout clippy::panic clippy::unreachable \
    unfulfilled_lint_expectations; do
    expect "\"code\":\"$code\"" "$code"
done
for path in std::thread::spawn std::thread::scope std::time::Instant::now \
    std::time::SystemTime::now std::sync::mpsc::channel std::panic::catch_unwind; do
    expect "disallowed method \`$path\`" "clippy::disallowed_methods $path"
done
for path in std::time::Instant std::collections::HashMap std::collections::HashSet; do
    expect "disallowed type \`$path\`" "clippy::disallowed_types $path"
done

if [ "$fail" -ne 0 ]; then
    echo "clippy-probe: a rule the workspace hands to clippy no longer fires" >&2
    exit 1
fi
echo "clippy-probe: every expected diagnostic fired"
