#!/usr/bin/env bash
# Builds and runs the KOIOS benchmark; see benchmark/README.md for the
# options and benchmark/run.py for the implementation.
exec python3 "$(dirname "$0")/run.py" "$@"
