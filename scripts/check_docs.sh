#!/usr/bin/env bash
# Checks that every relative markdown link in the repo's *.md files
# resolves to an existing file or directory (external URLs, mailto links
# and in-page anchors are skipped), and that every suite count README.md
# states ("N suites", "N gtest suites") equals the number of tests
# registered in tests/CMakeLists.txt. Exit 1 (after listing every
# offender) if either check fails.
set -u
cd "$(dirname "$0")/.."

fail=0
while IFS= read -r file; do
  while IFS= read -r target; do
    case "$target" in
      http://* | https://* | mailto:* | '#'*) continue ;;
    esac
    path="${target%%#*}"   # strip in-page anchor
    path="${path%% *}"     # strip optional markdown link title
    [ -z "$path" ] && continue
    dir=$(dirname "$file")
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "broken link in $file: ($target)"
      fail=1
    fi
  done < <(grep -o ']([^)]*)' "$file" 2>/dev/null | sed 's/^](//; s/)$//')
done < <(find . -name '*.md' -not -path './build/*' -not -path './.git/*')

registered=$(grep -c '^mds_add_test(' tests/CMakeLists.txt)
while IFS= read -r stated; do
  if [ "$stated" -ne "$registered" ]; then
    echo "README.md states $stated suites; tests/CMakeLists.txt registers $registered"
    fail=1
  fi
done < <(grep -oE '[0-9]+ (gtest )?suites' README.md | grep -oE '^[0-9]+')

if [ "$fail" -eq 0 ]; then
  echo "check_docs: all relative markdown links resolve;" \
       "README's suite count matches the $registered registered tests"
fi
exit "$fail"
