#!/usr/bin/env bash
# Check that relative markdown links in the top-level docs resolve to real
# files. External (http/https/mailto) links and pure #anchors are skipped;
# a trailing #section on a relative link is stripped before the check.
#
#   scripts/check_links.sh [FILE ...]
#
# With no arguments, checks the documentation set that CI guards.
set -euo pipefail

cd "$(dirname "$0")/.."

files=("$@")
if [ ${#files[@]} -eq 0 ]; then
    files=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/METRICS.md docs/LINTS.md docs/SOLVERS.md)
fi

status=0
for file in "${files[@]}"; do
    if [ ! -f "$file" ]; then
        echo "MISSING FILE: $file" >&2
        status=1
        continue
    fi
    dir=$(dirname "$file")
    # Inline markdown links: [text](target). One match per line is enough to
    # catch drift; multiline links are not used in this repository.
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:* | '#'*) continue ;;
        esac
        path="${target%%#*}"
        [ -n "$path" ] || continue
        if [ ! -e "$dir/$path" ]; then
            echo "BROKEN LINK: $file -> $target" >&2
            status=1
        fi
    done < <(grep -oE '\]\(([^)]+)\)' "$file" | sed -E 's/^\]\((.*)\)$/\1/')
done

if [ "$status" -ne 0 ]; then
    echo "link check failed" >&2
else
    echo "link check OK (${#files[@]} files)"
fi
exit "$status"
