#!/usr/bin/env bash
# Metric-name lint (DESIGN.md §9): every fault-injection point declared in
# src/common/fault.h must have a correspondingly named metric row in the
# kFaultPointMetrics table of src/observability/metric_names.h (that table
# is what mirrors the injector's hit/fire counts into the scrape), and the
# table must not carry stale rows for points that no longer exist. The same
# contract holds for the fleet (DESIGN.md §10): every BackendHealth state in
# src/backend/pool.h must have a kHealthStateMetrics row named
# hyperq.backend.health.<state>. And for the tail-tolerance layer
# (DESIGN.md §11), the chaos layer (DESIGN.md §13) and the backend layer
# (DESIGN.md §6, §10): every hyperq.hedge.* / hyperq.retry_budget.* /
# hyperq.chaos.* / hyperq.backend.* / hyperq.governor.* / hyperq.pool.*
# series must be declared as a named constant in metric_names.h (no ad-hoc
# string literals in src/), and every declared constant must actually be
# emitted somewhere. Trace stages (DESIGN.md §9) get the same two-way lint:
# every span src/ opens names a row of the names::Stage table (a string
# literal at a SpanScope/StartSpan site is an error), and every row is
# opened somewhere.
set -euo pipefail
cd "$(dirname "$0")/.."

fault_h=src/common/fault.h
names_h=src/observability/metric_names.h

# Declared points: the string values of the faultpoints:: constants.
declared=$(sed -n '/namespace faultpoints/,/} *\/\/ namespace faultpoints/p' \
               "$fault_h" |
           grep -o 'constexpr const char\* k[A-Za-z0-9]* = "[^"]*"' |
           sed 's/.*= "//; s/"$//' | sort)
# Table rows: the first string of each kFaultPointMetrics entry.
table=$(sed -n '/kFaultPointMetrics\[\]/,/};/p' "$names_h" |
        grep -o '{"[^"]*"' | sed 's/{"//; s/"$//' | sort)

if [[ -z "$declared" ]]; then
  echo "check_metrics: no fault points parsed from $fault_h" >&2
  exit 1
fi

status=0
missing=$(comm -23 <(echo "$declared") <(echo "$table"))
if [[ -n "$missing" ]]; then
  echo "check_metrics: fault points with no kFaultPointMetrics row in $names_h:" >&2
  echo "$missing" | sed 's/^/  /' >&2
  status=1
fi
stale=$(comm -13 <(echo "$declared") <(echo "$table"))
if [[ -n "$stale" ]]; then
  echo "check_metrics: stale kFaultPointMetrics rows (no such fault point):" >&2
  echo "$stale" | sed 's/^/  /' >&2
  status=1
fi

# Each table row's metric name must follow hyperq.faults.<point>.
bad_names=$(sed -n '/kFaultPointMetrics\[\]/,/};/p' "$names_h" |
            grep -o '{"[^"]*", *"[^"]*"' |
            sed 's/{"//; s/", *"/ /; s/"$//' |
            awk '$2 != "hyperq.faults." $1 { print "  " $1 " -> " $2 }')
if [[ -n "$bad_names" ]]; then
  echo "check_metrics: metric names not of the form hyperq.faults.<point>:" >&2
  echo "$bad_names" >&2
  status=1
fi

# --- Fleet health states (DESIGN.md §10) -------------------------------------
pool_h=src/backend/pool.h

# Enumerators of BackendHealth, lower-cased without the k prefix — must
# match the stable strings BackendHealthName() returns.
states=$(sed -n '/enum class BackendHealth/,/};/p' "$pool_h" |
         grep -o 'k[A-Z][A-Za-z]*' |
         sed 's/^k//' | tr '[:upper:]' '[:lower:]' | sort)
health_table=$(sed -n '/kHealthStateMetrics\[\]/,/};/p' "$names_h" |
               grep -o '{"[^"]*"' | sed 's/{"//; s/"$//' | sort)

if [[ -z "$states" ]]; then
  echo "check_metrics: no BackendHealth states parsed from $pool_h" >&2
  exit 1
fi

missing_states=$(comm -23 <(echo "$states") <(echo "$health_table"))
if [[ -n "$missing_states" ]]; then
  echo "check_metrics: health states with no kHealthStateMetrics row in $names_h:" >&2
  echo "$missing_states" | sed 's/^/  /' >&2
  status=1
fi
stale_states=$(comm -13 <(echo "$states") <(echo "$health_table"))
if [[ -n "$stale_states" ]]; then
  echo "check_metrics: stale kHealthStateMetrics rows (no such health state):" >&2
  echo "$stale_states" | sed 's/^/  /' >&2
  status=1
fi

# Each health row's metric name must follow hyperq.backend.health.<state>.
bad_health=$(sed -n '/kHealthStateMetrics\[\]/,/};/p' "$names_h" |
             grep -o '{"[^"]*", *"[^"]*"' |
             sed 's/{"//; s/", *"/ /; s/"$//' |
             awk '$2 != "hyperq.backend.health." $1 { print "  " $1 " -> " $2 }')
if [[ -n "$bad_health" ]]; then
  echo "check_metrics: metric names not of the form hyperq.backend.health.<state>:" >&2
  echo "$bad_health" >&2
  status=1
fi

# --- Family lints (both directions) ------------------------------------------
# A metric family consumed by dashboards as a set breaks silently in either
# direction: a typo'd ad-hoc literal creates a series no dashboard reads,
# and a dead constant leaves a panel permanently empty. lint_family checks
# both: every family literal in src/ must be a declared constant in
# metric_names.h, and every declared constant must be emitted somewhere.
# $1 = family label (messages), $2 = extended-regex series pattern.
lint_family() {
  local label="$1" pat="$2" declared_fam used_fam undeclared dead ident
  declared_fam=$(grep -oE "\"${pat}\"" "$names_h" | sed 's/"//g' | sort -u)
  used_fam=$(grep -rhoE "\"${pat}\"" src --include='*.cc' \
                 --include='*.h' |
             grep -v "hyperq.faults" | sed 's/"//g' | sort -u || true)

  if [[ -z "$declared_fam" ]]; then
    echo "check_metrics: no ${label} series parsed from $names_h" >&2
    return 1
  fi

  # Any literal outside metric_names.h must match a declared constant. The
  # grep above includes metric_names.h itself, so "used minus declared" is
  # exactly the undeclared ad-hoc literals.
  undeclared=$(comm -13 <(echo "$declared_fam") <(echo "$used_fam"))
  if [[ -n "$undeclared" ]]; then
    echo "check_metrics: ${label} series used in src/ but not declared in $names_h:" >&2
    echo "$undeclared" | sed 's/^/  /' >&2
    return 1
  fi

  # Every declared constant must be emitted somewhere (by identifier).
  dead=""
  while IFS= read -r line; do
    ident=$(echo "$line" | sed 's/ .*//')
    if ! grep -rq "names::${ident}\b" src --include='*.cc' \
         --exclude='metric_names.h'; then
      dead="${dead}  ${ident} ($(echo "$line" | sed 's/^[^ ]* //'))"$'\n'
    fi
  done < <(grep -B1 -E "\"${pat}\"" "$names_h" |
           tr '\n' ' ' | tr ';' '\n' |
           grep -oE "k[A-Za-z0-9]+ =[^\"]*\"${pat}\"" |
           sed 's/ =[^"]*"/ /; s/"$//')
  if [[ -n "$dead" ]]; then
    echo "check_metrics: declared ${label} series never emitted from src/:" >&2
    printf '%s' "$dead" >&2
    return 1
  fi
  echo "$declared_fam" | wc -l
}

# Tail tolerance (DESIGN.md §11): the hedge and retry-budget families.
tail_count=$(lint_family "tail" \
    'hyperq\.(hedge|retry_budget)\.[a-z_.]*') || status=1

# Chaos (DESIGN.md §13): scenario/orchestrator progress, per-fault link
# injection counts, and the invariant-audit verdict series.
chaos_count=$(lint_family "chaos" 'hyperq\.chaos\.[a-z_.]*') || status=1

# Result converter (DESIGN.md §15): per-wire-batch size distributions on
# the columnar data plane.
convert_count=$(lint_family "convert" 'hyperq\.convert\.[a-z_.]*') || status=1

# Backend (DESIGN.md §6, §10): connector retries and breaker, the fleet
# pool's routing, health, probes and slot cap, and the governor's mirrored
# budget levels.
backend_count=$(lint_family "backend" \
    'hyperq\.(backend|governor|pool)\.[a-z_.]*') || status=1

# --- Trace stages (DESIGN.md §9) --------------------------------------------
# The compiler ties each Stage enumerator to its kStageNames row; the lint
# keeps span sites on the table and the table free of unused rows.
stages=$(sed -n '/enum class Stage/,/};/p' "$names_h" |
         grep -oE 'k[A-Z][A-Za-z0-9]*' | sort)
if [[ -z "$stages" ]]; then
  echo "check_metrics: no Stage enumerators parsed from $names_h" >&2
  exit 1
fi
literal_spans=$(grep -rnE '(SpanScope [a-z_]+\([^,]+, *"|StartSpan\(")' src \
                    --include='*.cc' --include='*.h' || true)
if [[ -n "$literal_spans" ]]; then
  echo "check_metrics: span sites naming a stage by string literal (use names::Stage):" >&2
  echo "$literal_spans" | sed 's/^/  /' >&2
  status=1
fi
unused_stages=""
for stage in $stages; do
  if ! grep -rqE "Stage::${stage}\b" src --include='*.cc' --include='*.h' \
       --exclude='metric_names.h'; then
    unused_stages="${unused_stages}  ${stage}"$'\n'
  fi
done
if [[ -n "$unused_stages" ]]; then
  echo "check_metrics: stale Stage rows (no span site opens them):" >&2
  printf '%s' "$unused_stages" >&2
  status=1
fi

if [[ $status -eq 0 ]]; then
  count=$(echo "$declared" | wc -l)
  state_count=$(echo "$states" | wc -l)
  stage_count=$(echo "$stages" | wc -l)
  echo "check_metrics: OK ($count fault points, $state_count health states, $tail_count tail series, $chaos_count chaos series, $convert_count convert series, $backend_count backend series all mirrored; $stage_count trace stages)"
fi
exit $status
