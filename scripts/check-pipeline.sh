#!/usr/bin/env bash
# check-pipeline.sh — gate that every front door maps through the one
# compile pipeline (internal/compile, DESIGN.md §15). It lists each call to
# core.Remap*, sabre.Remap*, sabre.InitialLayout* or placement.Generate* in
# the tracked non-test Go files outside the packages allowed to make them:
# the pipeline itself, the mappers, placement, the root facade, and the
# benchmark of record (perfbench/). The portfolio is a front door too: it
# places and routes every candidate through compile.Place and
# compile.Route. Run from the repository root; CI runs it in the docs job.
# Exits non-zero when it finds a call.
set -u

calls=$(git ls-files '*.go' |
  grep -v '_test\.go$' |
  grep -Ev '^(internal/(compile|core|sabre|placement)/|codar\.go$|perfbench/)' |
  xargs grep -nE '\b(core\.Remap|sabre\.Remap|sabre\.InitialLayout|placement\.Generate)[A-Za-z]*\(' || true)

if [ -n "$calls" ]; then
  echo "$calls"
  n=$(echo "$calls" | wc -l)
  files=$(echo "$calls" | cut -d: -f1 | sort -u | wc -l)
  echo "check-pipeline: $n direct mapper call(s) in $files file(s); route them through internal/compile"
  exit 1
fi
echo "check-pipeline: every front door maps through internal/compile"
