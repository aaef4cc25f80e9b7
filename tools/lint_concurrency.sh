#!/usr/bin/env bash
# Concurrency invariant lint (docs/STATIC_ANALYSIS.md).
#
# The repo's lock discipline is carried by the annotated wrappers in
# src/support/thread_annotations.hpp: Mutex/SharedMutex/CondVar instead of
# the raw std:: types, and every lock-protected member declared
# GUARDED_BY(its mutex). Clang's -Wthread-safety enforces the annotations
# themselves, but only where they exist -- a naked `std::mutex` member is
# invisible to the analysis, which is exactly the hole this lint closes.
#
# Rules (headers under src/ only; thread_annotations.hpp itself is the one
# legitimate home of the raw types):
#   1. No std::mutex / std::shared_mutex / std::condition_variable /
#      std::lock_guard / std::unique_lock / std::shared_lock /
#      std::scoped_lock outside the wrapper header. .cpp files may opt a
#      private type out of the analysis with a raw std::mutex, but must
#      say why next to it (see JudgeFuture::State in src/judge/judge.cpp).
#   2. Every header that declares a wrapper Mutex/SharedMutex member must
#      also declare at least one GUARDED_BY / REQUIRES / EXCLUDES /
#      ACQUIRE user -- a mutex nothing is annotated against guards
#      nothing the analysis can see.
#   3. No std::atomic members in src/obs/ headers outside cells.hpp. The
#      metrics registry's whole design is that hot-path writes go through
#      the sharded cell types (CounterCells in obs/cells.hpp),
#      which own contention layout and scrape semantics; an ad-hoc atomic
#      counter member in another obs header bypasses the registry and
#      silently reintroduces the shared-cacheline hot spot the cells
#      exist to avoid.
#   4. No std::atomic members in src/serve/ headers. The serve layer's
#      shared state is all mutex-guarded behind the annotated wrappers
#      (TenantTable, FairScheduler, the server pimpl) so Clang's analysis
#      and the TSan leg see every access; an atomic member in a serve
#      header is state that escaped that discipline. Implementation files
#      may still use atomics with a rationale, same as rule 1's .cpp
#      escape hatch.
#
# Usage:
#   tools/lint_concurrency.sh              lint the tree (exit 1 on finding)
#   tools/lint_concurrency.sh --self-test  prove the lint still detects a
#                                          seeded violation of each rule
set -u

# LLM4VV_LINT_ROOT overrides the tree to lint (the self-test points it at
# a scratch tree seeded with violations); default is the repo root.
SCRIPT_DIR="$(cd "$(dirname "$0")" && pwd)"
cd "${LLM4VV_LINT_ROOT:-$SCRIPT_DIR/..}" || exit 2

ALLOWED_RAW_HEADER="src/support/thread_annotations.hpp"
ALLOWED_ATOMIC_OBS_HEADER="src/obs/cells.hpp"
RAW_TYPES='std::(mutex|shared_mutex|condition_variable(_any)?|lock_guard|unique_lock|shared_lock|scoped_lock)'
failures=0

# Strip // comments so prose mentioning the raw types (rationale comments,
# doc headers) never trips rule 1; string literals are rare enough in
# headers to not special-case.
strip_comments() {
  sed -e 's://.*$::' "$1"
}

lint_header_raw_types() {
  # Rule 1: raw standard concurrency types outside the wrapper header.
  local header="$1"
  [ "$header" = "$ALLOWED_RAW_HEADER" ] && return 0
  local hits
  hits=$(strip_comments "$header" | grep -nE "$RAW_TYPES")
  if [ -n "$hits" ]; then
    echo "LINT: $header declares raw standard concurrency types;" \
         "use the annotated wrappers from support/thread_annotations.hpp:"
    echo "$hits" | sed 's/^/    /'
    return 1
  fi
  return 0
}

lint_header_unguarded_mutex() {
  # Rule 2: a wrapper mutex member with no annotation anywhere in the
  # header means nothing is declared as protected by it.
  local header="$1"
  [ "$header" = "$ALLOWED_RAW_HEADER" ] && return 0
  local stripped
  stripped=$(strip_comments "$header")
  # Member declarations of the wrapper types ("Mutex name_;" with optional
  # mutable/support:: qualifiers), not parameters or locals.
  if ! echo "$stripped" | grep -qE '^\s*(mutable\s+)?(support::)?(Mutex|SharedMutex)\s+\w+\s*;'; then
    return 0
  fi
  if ! echo "$stripped" | grep -qE '\b(GUARDED_BY|PT_GUARDED_BY|REQUIRES|EXCLUDES|ACQUIRE|RELEASE)\s*\('; then
    echo "LINT: $header declares a Mutex/SharedMutex member but uses no" \
         "annotation macro (GUARDED_BY/REQUIRES/...); nothing is declared" \
         "as protected by that lock"
    return 1
  fi
  return 0
}

lint_obs_header_raw_atomics() {
  # Rule 3: std::atomic members in obs headers outside the cell types.
  local header="$1"
  case "$header" in
    src/obs/*.hpp) ;;
    *) return 0 ;;
  esac
  [ "$header" = "$ALLOWED_ATOMIC_OBS_HEADER" ] && return 0
  local hits
  hits=$(strip_comments "$header" | grep -nE 'std::atomic\s*<')
  if [ -n "$hits" ]; then
    echo "LINT: $header declares raw std::atomic members; obs hot-path" \
         "state must use the sharded cell types from obs/cells.hpp" \
         "(CounterCells) so writes keep the registry's" \
         "contention layout and scrape semantics:"
    echo "$hits" | sed 's/^/    /'
    return 1
  fi
  return 0
}

lint_serve_header_raw_atomics() {
  # Rule 4: std::atomic members in serve headers; shared serve state must
  # live behind the annotated mutex wrappers.
  local header="$1"
  case "$header" in
    src/serve/*.hpp) ;;
    *) return 0 ;;
  esac
  local hits
  hits=$(strip_comments "$header" | grep -nE 'std::atomic\s*<')
  if [ -n "$hits" ]; then
    echo "LINT: $header declares raw std::atomic members; serve-layer" \
         "shared state must be mutex-guarded through the annotated" \
         "wrappers (support/thread_annotations.hpp) so the thread-safety" \
         "analysis and the TSan leg see every access:"
    echo "$hits" | sed 's/^/    /'
    return 1
  fi
  return 0
}

lint_tree() {
  local status=0
  local header
  while IFS= read -r header; do
    lint_header_raw_types "$header" || status=1
    lint_header_unguarded_mutex "$header" || status=1
    lint_obs_header_raw_atomics "$header" || status=1
    lint_serve_header_raw_atomics "$header" || status=1
  done < <(find src -name '*.hpp' | sort)
  return $status
}

self_test() {
  self_test_dir=$(mktemp -d) || exit 2
  trap 'rm -rf "$self_test_dir"' EXIT
  local dir="$self_test_dir"
  mkdir -p "$dir/src/bad" "$dir/src/obs" "$dir/src/serve"
  local status=0

  # Seed a rule-1 violation: a naked std::mutex member.
  cat > "$dir/src/bad/naked_mutex.hpp" <<'EOF'
#pragma once
#include <mutex>
class Naked {
 private:
  mutable std::mutex mutex_;
  int counter_ = 0;
};
EOF

  # Seed a rule-2 violation: a wrapper mutex with no annotated peers.
  cat > "$dir/src/bad/unguarded.hpp" <<'EOF'
#pragma once
#include "support/thread_annotations.hpp"
class Unguarded {
 private:
  mutable support::Mutex mutex_;
  int counter_ = 0;
};
EOF

  # Seed a rule-3 violation: an obs header hiding a raw atomic counter
  # that bypasses the registry's sharded cells.
  cat > "$dir/src/obs/rogue_counter.hpp" <<'EOF'
#pragma once
#include <atomic>
// A std::atomic in a comment alone must NOT trip the lint.
class RogueCounter {
 private:
  std::atomic<unsigned long> hits_{0};
};
EOF

  # Seed a rule-4 violation: lock-free state leaking into a serve header.
  cat > "$dir/src/serve/rogue_flag.hpp" <<'EOF'
#pragma once
#include <atomic>
// A std::atomic in a comment alone must NOT trip the lint.
class RogueFlag {
 private:
  std::atomic<bool> draining_{false};
};
EOF

  if LLM4VV_LINT_ROOT="$dir" "$SCRIPT_DIR/lint_concurrency.sh" \
      > /dev/null 2>&1; then
    echo "SELF-TEST FAIL: lint accepted a tree with seeded violations"
    status=1
  else
    echo "self-test: seeded violations detected (lint exits non-zero): OK"
  fi

  # Each rule must fire individually, not just the combination.
  if lint_header_raw_types "$dir/src/bad/naked_mutex.hpp" > /dev/null; then
    echo "SELF-TEST FAIL: rule 1 missed a naked std::mutex member"
    status=1
  else
    echo "self-test: rule 1 catches a naked std::mutex member: OK"
  fi
  if lint_header_unguarded_mutex "$dir/src/bad/unguarded.hpp" > /dev/null; then
    echo "SELF-TEST FAIL: rule 2 missed an unannotated Mutex member"
    status=1
  else
    echo "self-test: rule 2 catches an unannotated Mutex member: OK"
  fi
  if (cd "$dir" && lint_obs_header_raw_atomics "src/obs/rogue_counter.hpp" \
      > /dev/null); then
    echo "SELF-TEST FAIL: rule 3 missed a raw std::atomic obs member"
    status=1
  else
    echo "self-test: rule 3 catches a raw std::atomic member in obs: OK"
  fi
  # The sanctioned cell header itself must stay exempt.
  if ! lint_obs_header_raw_atomics "src/obs/cells.hpp" > /dev/null; then
    echo "SELF-TEST FAIL: rule 3 flagged the sanctioned obs/cells.hpp"
    status=1
  else
    echo "self-test: rule 3 exempts obs/cells.hpp: OK"
  fi

  if (cd "$dir" && lint_serve_header_raw_atomics "src/serve/rogue_flag.hpp" \
      > /dev/null); then
    echo "SELF-TEST FAIL: rule 4 missed a raw std::atomic serve member"
    status=1
  else
    echo "self-test: rule 4 catches a raw std::atomic member in serve: OK"
  fi

  # And the real tree must be clean, or the lint is vacuous red.
  if lint_tree; then
    echo "self-test: the checked-in tree lints clean: OK"
  else
    echo "SELF-TEST FAIL: the checked-in tree does not lint clean"
    status=1
  fi
  return $status
}

case "${1:-}" in
  --self-test)
    self_test
    exit $?
    ;;
  "")
    if lint_tree; then
      echo "lint_concurrency: clean"
      exit 0
    fi
    exit 1
    ;;
  *)
    echo "usage: $0 [--self-test]" >&2
    exit 2
    ;;
esac
