#!/usr/bin/env bash
# Documentation checks, run by the `docs` CI job:
#
#   1. Every relative markdown link in the repo's *.md files points at a
#      file (or directory) that exists. External links (http/https/mailto)
#      and pure in-page anchors are skipped; a `path#anchor` link is
#      checked for the path part only.
#   2. Every JSON field documented in EXPERIMENTS.md's "Machine-readable
#      output" section exists in the code that emits it (src/ tools/
#      bench/ scripts/). This keeps the schema reference honest: renaming
#      a field in the writer without updating the docs fails CI, and so
#      does documenting a field nothing emits.
#   3. The reverse direction for schema TAGS: every "ooc.<name>.vN" schema
#      identifier emitted anywhere in the source is documented in
#      EXPERIMENTS.md, so a new writer cannot ship an undocumented schema.
#
#   scripts/docs_check.sh            # exits nonzero on any failure
set -euo pipefail
cd "$(dirname "$0")/.."

failures=0

# --- 1. relative markdown links -------------------------------------------
# Extract [text](target) pairs; keep the target. Multiple links per line
# are handled by grep -o. Image links ![...](...) match the same pattern.
docs=$(find . -maxdepth 2 -name '*.md' -not -path './build/*' \
       -not -path './bench-results/*' | sort)
for doc in $docs; do
  dir=$(dirname "$doc")
  links=$(grep -o '\[[^][]*\]([^()]*)' "$doc" \
          | sed 's/^\[[^][]*\](\([^()]*\))$/\1/') || true
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    target="${link%%#*}"            # strip an in-page anchor, if any
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ]; then
      echo "docs_check: $doc: broken link -> $link" >&2
      failures=$((failures + 1))
    fi
  done
done

# --- 2. schema fields documented vs emitted -------------------------------
# Pull every `"field":` token out of the code fences in the
# "Machine-readable output" section of EXPERIMENTS.md and require each to
# appear as a quoted string somewhere in the emitting code. The section
# ends at the next top-level `## ` heading.
schema_doc=EXPERIMENTS.md
fields=$(awk '/^## Machine-readable output/{on=1; next}
              /^## /{on=0} on' "$schema_doc" \
         | grep -o '"[a-z_][a-z0-9_.-]*":' | tr -d '":' | sort -u)
if [ -z "$fields" ]; then
  echo "docs_check: no schema fields found in $schema_doc (section moved?)" >&2
  failures=$((failures + 1))
fi
for field in $fields; do
  if ! grep -rqF "\"$field\"" src tools bench scripts; then
    echo "docs_check: $schema_doc documents \"$field\" but nothing emits it" >&2
    failures=$((failures + 1))
  fi
done

# --- 3. schema tags emitted vs documented ---------------------------------
# Collect every literal ooc.<name>.vN schema tag the code emits and require
# EXPERIMENTS.md to mention it.
tags=$(grep -rhoE '"ooc\.[a-z0-9_.-]+\.v[0-9]+"' src tools bench scripts \
       | tr -d '"' | sort -u)
for tag in $tags; do
  if ! grep -qF "$tag" "$schema_doc"; then
    echo "docs_check: source emits schema '$tag' but $schema_doc does not document it" >&2
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "FAIL: $failures docs problem(s)" >&2
  exit 1
fi
echo "OK: links resolve; documented schema fields exist in source;" \
     "emitted schema tags are documented"
