#!/usr/bin/env bash
# Prints the line count of every .h and .cc file under src/ — the library
# size ROADMAP.md tracks from change to change.
#
# Usage: scripts/src_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find src -type f \( -name '*.h' -o -name '*.cc' \) -print0 | sort -z |
  xargs -0 cat | wc -l | tr -d ' '
