#!/usr/bin/env bash
# The one command of the repo benchmark: builds (release, offline) and
# runs benchmark/'s `pwbench` with the arguments given.
#
#   benchmark/run.sh                       every workload, untraced then traced pass
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; the last line of stdout is its result JSON
#   benchmark/run.sh --aa | --spread N | --bless   (see README.md)
#
# Cargo reads .cargo/config.toml from the working directory, not from
# --manifest-path, so the target directory is passed explicitly: the
# caller's CARGO_TARGET_DIR if set, else the repo's own target/ (no
# second build tree, nothing new for .gitignore).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
# Variables that change what the program does are cleared here for the
# build and again by pwbench for every workload's process.
exec env -u PWDFT_BACKEND -u PWDFT_TUNING_FILE -u PWDFT_NUM_THREADS -u PWOBS \
    cargo run --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" -- "$@"
