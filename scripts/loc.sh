#!/usr/bin/env bash
# Prints the tracked code size: lines in *.cpp, *.hpp, *.sh, *.py and
# CMakeLists.txt files under src, tools, bench, tests and scripts, one
# subtotal per directory and then the total.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

dirs=(src tools bench tests scripts)
count() {
  find "$@" -type f \( -name '*.cpp' -o -name '*.hpp' -o -name '*.sh' \
    -o -name '*.py' -o -name CMakeLists.txt \) -print0 |
    xargs -0 cat | wc -l
}
for d in "${dirs[@]}"; do
  printf '%-8s %6d\n' "$d" "$(count "$d")"
done
printf '%-8s %6d\n' total "$(count "${dirs[@]}")"
