#!/usr/bin/env bash
# Kill catalogue: every patch under tests/mutants/ plants one bug that one
# test binary must catch. A patch is a plain `git apply` patch whose header
# (the lines before the diff) names that binary and a time bound:
#
#   Mutant: what the bug is
#   Kills: the tests expected to fail (for the reader)
#   Test: cargo test arguments selecting one binary (-p dejavu-p4ir --lib)
#   Timeout: seconds the binary may run
#
# Usage: scripts/mutants.sh [PATCH...]   (default: every patch)
#
# The patches are applied one at a time to one scratch copy of the working
# tree (target/mutants/tree), reused across runs: a file is copied only
# when its content differs, so cargo rebuilds only the patched crate and
# its dependents. Each mutant's binary is built, then run under
# its bound, and the patch is reverted. A mutant whose binary passes
# survived: a missing test. The script exits 1 if any mutant survives or a
# patch does not apply or build.
set -euo pipefail
cd "$(dirname "$0")/.."
copy=$PWD/target/mutants/tree
mkdir -p "$copy"
# Its own repository, so `git apply` there patches the copy.
[ -d "$copy/.git" ] || git init -q "$copy"

git ls-files -z --cached --others --exclude-standard | while IFS= read -r -d '' f; do
    if [ -f "$f" ] && ! cmp -s "$f" "$copy/$f"; then
        mkdir -p "$copy/$(dirname "$f")"
        cp "$f" "$copy/$f"
    fi
done

if [ $# -eq 0 ]; then
    set -- tests/mutants/*.patch
fi
# The value of header line $1 of the current patch.
field() { sed -n "s/^$1: *//p" "$patch" | head -n 1; }
failed=0
for patch in "$@"; do
    patch=$(realpath "$patch")
    mutant=$(field Mutant)
    read -r -a test_args <<<"$(field Test)"
    bound=$(field Timeout)
    if [ -z "$mutant" ] || [ ${#test_args[@]} -eq 0 ] || [ -z "$bound" ]; then
        echo "MALFORMED $patch: the header needs Mutant:, Test: and Timeout:" >&2
        failed=1
        continue
    fi
    if ! git -C "$copy" apply "$patch"; then
        echo "STALE     $(basename "$patch"): does not apply" >&2
        failed=1
        continue
    fi
    trap 'git -C "$copy" apply -R "$patch"' EXIT
    if ! (cd "$copy" && cargo test --offline -q "${test_args[@]}" --no-run); then
        echo "BROKEN    $(basename "$patch"): does not build" >&2
        failed=1
    else
        status=0
        (cd "$copy" && timeout "$bound" cargo test --offline -q "${test_args[@]}" >/dev/null 2>&1) ||
            status=$?
        case $status in
            0)
                echo "SURVIVED  $(basename "$patch"): ${test_args[*]} passes with: $mutant" >&2
                failed=1
                ;;
            124) echo "killed    $(basename "$patch") (timed out after ${bound}s): $mutant" ;;
            *) echo "killed    $(basename "$patch"): $mutant" ;;
        esac
    fi
    git -C "$copy" apply -R "$patch"
    trap - EXIT
done
exit "$failed"
