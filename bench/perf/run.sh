#!/usr/bin/env bash
# Time-to-verdict benchmark; see bench/perf/README.md for options.
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" "$@"
