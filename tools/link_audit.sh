#!/usr/bin/env bash
# Link audit: which of the library's functions does any binary still link?
#
# Lists the external functions libllm4vv.a defines (nm type T, namespace
# llm4vv::) and looks each one up in every linked binary. Build both trees
# at -O0 with -ffunction-sections -fdata-sections and link with
# -Wl,--gc-sections (the link-audit CI job does this): at -O0 nothing is
# inlined away, and the linker drops every section no caller reaches, so a
# function missing from a binary really has no caller in it.
#
# Prints the library functions found in no production binary (llm4vv-serve,
# the table/fig/ext_ paper programs, the examples and e2ebench), then the
# ones found in no binary at all, tests and perf_* included. Exits 1 when
# the second list is not empty: code that nothing links should be deleted.
#
# Usage: tools/link_audit.sh <build-dir> <e2ebench-build-dir>
set -euo pipefail
export LC_ALL=C  # one byte order for sort and comm

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <e2ebench-build-dir>" >&2
  exit 2
fi
build_dir="$1"
e2e_dir="$2"
library="${build_dir}/libllm4vv.a"

shopt -s nullglob
production=("${build_dir}/llm4vv-serve" "${build_dir}"/table*
            "${build_dir}"/fig* "${build_dir}"/ext_*
            "${build_dir}"/example_* "${e2e_dir}/e2ebench")
others=("${build_dir}"/*_test "${build_dir}"/perf_* "${e2e_dir}/e2ebench_test")
for file in "${library}" "${production[@]}" "${others[@]}"; do
  if [[ ! -f "${file}" ]]; then
    echo "link_audit: ${file} missing (build every target first)" >&2
    exit 2
  fi
done
# Globs that matched nothing vanish: demand every group of binaries.
for pattern in table fig ext_ example_ perf_; do
  matches=("${build_dir}/${pattern}"*)
  if [[ ${#matches[@]} -eq 0 ]]; then
    echo "link_audit: no ${pattern}* binary in ${build_dir}" >&2
    exit 2
  fi
done

# Demangled names of the llm4vv:: global text symbols of each file given.
llm4vv_functions() {
  for file in "$@"; do
    nm -C --defined-only "${file}" | awk '$2 == "T" {
      sub(/^[^ ]+ T /, "")
      if (index($0, "llm4vv::") == 1) print
    }'
  done | sort -u
}

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
llm4vv_functions "${library}" > "${work}/library"
llm4vv_functions "${production[@]}" > "${work}/production"
llm4vv_functions "${others[@]}" | sort -u -m - "${work}/production" \
  > "${work}/any"
comm -23 "${work}/library" "${work}/production" > "${work}/no_production"
comm -23 "${work}/library" "${work}/any" > "${work}/no_binary"

count() { wc -l < "$1" | tr -d ' '; }
binaries=$(( ${#production[@]} + ${#others[@]} ))
echo "== in no production binary (${#production[@]} binaries):"
cat "${work}/no_production"
echo
echo "== in no binary at all (${binaries} binaries):"
cat "${work}/no_binary"
echo
echo "link_audit: $(count "${work}/library") library functions," \
     "$(count "${work}/no_production") in no production binary," \
     "$(count "${work}/no_binary") in no binary"
[[ ! -s "${work}/no_binary" ]]
