#!/usr/bin/env bash
# Metric-catalog lint, both directions: every metric name registered in
# the sources must be documented in the DESIGN.md §6.2 catalog, and every
# name in that catalog must still be registered by some source.
#
# Collects the string-literal names passed to the PL_COUNT / PL_HIST /
# PL_GAUGE_SET macros and to direct StatsRegistry counter()/histogram()/
# gauge() calls across src/, tools/ and bench/, then requires each to
# appear verbatim in DESIGN.md.  Names composed at runtime are invisible
# to a literal grep: the serve.client.<tag>.* per-client rows are skipped,
# and a <family>.wait_us / <family>.contended row (an obs::TimedMutex lock
# family) counts as registered when "<family>" is a literal in the sources.
#
# Exit 0 when both directions hold, 1 with the offending names otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

names="$(grep -rhoE \
  '(PL_COUNT|PL_HIST|PL_GAUGE_SET|counter|histogram|gauge)\("[a-z0-9_.]+"' \
  src tools bench \
  | grep -oE '"[a-z0-9_.]+"' | tr -d '"' | grep '\.' | sort -u)"

if [[ -z "$names" ]]; then
  echo "check_metric_catalog: found no registered metric names — the"
  echo "extraction grep no longer matches the instrumentation macros"
  exit 1
fi

missing=()
for name in $names; do
  grep -qF "\`$name\`" DESIGN.md || missing+=("$name")
done

if [[ ${#missing[@]} -gt 0 ]]; then
  echo "check_metric_catalog: ${#missing[@]} metric(s) registered in the"
  echo "sources but missing from the DESIGN.md catalog (section 6.2):"
  printf '  %s\n' "${missing[@]}"
  exit 1
fi

# The catalog: backticked names in the first column of the §6.2 table.
catalog="$(awk '/^\| family \| type \| meaning \|/ { t = 1; next }
                 t && !/^\|/ { exit }
                 t { print $2 }' FS='|' DESIGN.md \
  | grep -v '<tag>' | grep -oE '`[a-z0-9_.]+`' | tr -d '`' | sort -u)"

if [[ -z "$catalog" ]]; then
  echo "check_metric_catalog: found no catalog rows in DESIGN.md — the"
  echo "section 6.2 table header no longer matches"
  exit 1
fi

stale=()
for name in $catalog; do
  grep -qxF "$name" <<<"$names" && continue
  family="${name%.wait_us}"
  family="${family%.contended}"
  if [[ "$family" != "$name" ]] &&
     grep -rqF "\"$family\"" src tools bench; then
    continue
  fi
  stale+=("$name")
done

if [[ ${#stale[@]} -gt 0 ]]; then
  echo "check_metric_catalog: ${#stale[@]} catalog name(s) in DESIGN.md"
  echo "(section 6.2) that no source registers:"
  printf '  %s\n' "${stale[@]}"
  exit 1
fi

echo "check_metric_catalog: $(echo "$names" | wc -l) metric names documented," \
  "$(echo "$catalog" | wc -l) catalog names registered"
