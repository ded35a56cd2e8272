#!/usr/bin/env bash
# The command-line checks of the tier-1 workflow, run in the current directory, which they fill with outputs.
# Usage: bash -e ci/console.sh PREFIX, where PREFIX is the command that runs the CLI, split at whitespace:
# `tritterlab` for the installed console script, or "python -m tritterlab.cli" with src/ on PYTHONPATH.
set -e
read -r -a tl <<< "$1"
# a warning is an error in every check below: a step that overflows, underflows or divides by zero fails
export PYTHONWARNINGS=error
# the state flag is read as the config reads a state, in any case
"${tl[@]}" generate --state W --shots 500 --resamples 2 --seed 3 --out r.json && "${tl[@]}" report --input r.json --check
"${tl[@]}" tomo --counts r.counts.csv --target w --resamples 2 --out t.json
# without a target the pass gives the purity error bar alone
"${tl[@]}" tomo --counts r.counts.csv --resamples 2 --out p.json
# a size above its bound exits 2 before anything is allocated
rc=0; "${tl[@]}" hom --rate 100 --points 100001 --out big || rc=$?; test "$rc" -eq 2
rc=0; "${tl[@]}" generate --shots 500 --resamples 10001 --out big.json || rc=$?; test "$rc" -eq 2
# a scan with one point inside the dip resolves none: the fit exits 3
rc=0; "${tl[@]}" hom --rate 1e4 --span 1e301 --out wide || rc=$?; test "$rc" -eq 3
# a calibration, and a dip fit at a rate where a sum of squares would overflow
printf '32.01,30.24,29.86,0.356\n33.05,29.18,29.75,0.363\n32.97,27.92,29.94,0.409\n' > table.csv
"${tl[@]}" calibrate --input table.csv --out cal.json
"${tl[@]}" hom --rate 1e200 --no-poisson --out dip
# a dip scan at a coherence scale whose square underflows or overflows
"${tl[@]}" hom --rate 1e4 --coherence 1e-300 --out dip
"${tl[@]}" hom --rate 1e4 --coherence 1e300 --out dip
# the README noisy GHZ' example: the Gram, leaky-polarisation and white-noise path, reproduced by its check
"${tl[@]}" generate --state ghzprime \
  --gram '[[1,1,0.9778],[1,1,0.9778],[0.9778,0.9778,1]]' --white-noise 0.02 --extinction-ratio 335 \
  --out noisy.json
"${tl[@]}" report --input noisy.json --check
