#!/bin/sh
# The plain-report transcript: every algorithm subcommand of em_repro (and
# its --baseline where offered) at n = 20000, on a machine pinned by flags
# so the EM_BACKEND / EM_DISKS / EM_ASYNC matrix legs print the same bytes.
# These reports print no wall-clock time, so no normalisation is needed.
# The M=512 multipartition line forms 57 runs against a fan-in of 27, so it
# pins the counting route (sample, counting scan, one distribution, sorted
# boundary); at the default machine the input sorts in one merge pass.
#
#   usage: cli.sh EM_REPRO
set -e
em_repro=$1
while read -r args; do
  echo "\$ em_repro $args"
  # shellcheck disable=SC2086 # word-split the argument list on purpose
  "$em_repro" $args --backend sim --disks 1 --async=false
  echo
done <<EOF
splitters -n 20000 -k 16 -a 128
splitters -n 20000 -k 16 -a 128 --baseline
splitters -n 20000 -k 16 -a 200 -b 4000
partition -n 20000 -k 10 -b 4000
partition -n 20000 -k 10 -b 4000 --baseline
partition -n 20000 -k 16 -a 200 -b 4000
multiselect -n 20000 --ranks 1,5000,10000,20000
multiselect -n 20000 --ranks 1,5000,10000,20000 --baseline
multipartition -n 20000 --sizes 5000,5000,10000
multipartition -n 20000 --sizes 5000,5000,10000 --baseline
multipartition -n 20000 --sizes 5000,5000,10000 --mem 512 --block 16
quantiles -n 20000 -k 8
reduce -n 20000 --chunk 2500
EOF
