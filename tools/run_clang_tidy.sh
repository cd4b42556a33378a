#!/usr/bin/env bash
# Run clang-tidy over the library sources using the repo .clang-tidy
# profile. Same entry point for CI and local use:
#
#   tools/run_clang_tidy.sh [build-dir]
#
# The build dir must contain compile_commands.json (exported by default;
# see CMAKE_EXPORT_COMPILE_COMMANDS in CMakeLists.txt). For a dedicated
# tidy build dir, configure with the ccache launcher disabled so the
# compile commands start with the compiler itself:
#
#   cmake -B build-tidy -S . -DCMAKE_CXX_COMPILER_LAUNCHER=
#
# Scope: src/**/*.cpp only. Tests and bench harnesses are covered by the
# determinism linter (tools/lint_determinism.py) instead — gtest/benchmark
# macros drown clang-tidy in third-party noise for little signal.
set -u -o pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
if [[ ! -f "${BUILD_DIR}/compile_commands.json" ]]; then
  echo "error: ${BUILD_DIR}/compile_commands.json not found." >&2
  echo "Configure first: cmake -B ${BUILD_DIR} -S . -DCMAKE_CXX_COMPILER_LAUNCHER=" >&2
  exit 2
fi

CLANG_TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "${CLANG_TIDY}" >/dev/null 2>&1; then
  echo "error: ${CLANG_TIDY} not on PATH (set CLANG_TIDY=... to override)." >&2
  exit 2
fi

# src/quant/kernels.cpp is excluded: its target_clones("arch=x86-64-v4",...)
# ISA dispatch is GCC-flavoured and does not parse under clang. The TU is
# pure element loops; its callers and the codec logic around it are linted.
# src/tensor/gemm.cpp stays in: its clone list ("avx2", "default") is
# clang-compatible syntax, and its SKIPTRAIN_GEMM_CLONES guard expands to
# nothing under clang, so tidy checks the same kernels the baseline build
# runs.
mapfile -t FILES < <(find src -name '*.cpp' ! -path 'src/quant/kernels.cpp' | sort)
echo "clang-tidy ($(${CLANG_TIDY} --version | head -n1)) over ${#FILES[@]} TUs"

JOBS="$(nproc 2>/dev/null || echo 2)"
printf '%s\n' "${FILES[@]}" |
  xargs -P "${JOBS}" -n 1 "${CLANG_TIDY}" -p "${BUILD_DIR}" --quiet
STATUS=$?

if [[ ${STATUS} -ne 0 ]]; then
  echo "clang-tidy: findings above (or a TU failed to parse)." >&2
  exit 1
fi
echo "clang-tidy: clean."
