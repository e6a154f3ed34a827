#!/bin/sh
# Runs a command and passes only if it exits with STATUS and its combined
# stdout and stderr contain TEXT (a fixed string).
#
# Usage: tests/expect_exit.sh STATUS TEXT COMMAND [ARGS...]
status="$1"
text="$2"
shift 2
out=$("$@" 2>&1)
got=$?
printf '%s\n' "$out"
if [ "$got" -ne "$status" ]; then
  echo "expected exit $status, got $got" >&2
  exit 1
fi
case "$out" in
  *"$text"*) ;;
  *) echo "output lacks: $text" >&2; exit 1 ;;
esac
