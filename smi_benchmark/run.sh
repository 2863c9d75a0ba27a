#!/usr/bin/env bash
# The one command: builds smi_benchmark (release) and runs it from the
# caller's directory. Every argument goes to the binary; see README.md.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one workload, JSON result line last
#   run.sh [--seed N] [--workload W] [--traced]            every workload, out/results.json
#   run.sh --aa [--runs R]                                 the suite twice, medians vs. bounds
#   run.sh --smoke                                         msgs / 50: a seconds-long check
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
# Trace files, results.json and the split fabric's socket files all land in
# out/ beside this script (relative when the script was called by a relative
# path, which keeps the socket paths short).
export SMI_BENCH_OUT="$here/out"
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- "$@"
