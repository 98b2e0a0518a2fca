#!/bin/sh
# Golden-file test for the vsjoin_estimate CLI.
#
#   run_golden_test.sh <vsjoin_estimate binary> <mode> <cli dir>
#
# Modes:
#   batch       batch estimates over the checked-in VSJD v1 fixture
#   batch-v2    the same batch over the VSJB v2 fixture — output must be
#               IDENTICAL to golden/batch.out (estimates depend on content,
#               not container format)
#   batch-mmap  the same batch, dataset opened zero-copy via --mmap —
#               again diffed against golden/batch.out
#   stream      streaming op-file replay over the v1 fixture
#   snapshot    checkpoint/restore mid-stream over the v2 fixture, then a
#               second process resumes from the saved snapshot via
#               --load-snapshot (both stdouts concatenated)
#   single-trial  a --trials 1 batch (std error column must read "n/a" —
#               one draw has no measurable spread) plus a --trials 6 batch
#               with --max-rel-error 0.5 (any-τ early exit on the interval,
#               at checkpoints 2, 4, 6); both emit --json lines,
#               concatenated after each table, which pin the omitted
#               std_error fields and the trial counts that ran
#   honest-stop  LSH-SS on a generated 4000-vector nyt corpus, asked for
#               --max-rel-error 0.05 within 32 trials, with --exact. Its
#               SampleL misses δ in every trial, so the interval stays wide:
#               all 32 trials run (the --json line's "trials"), and the
#               interval holds exact J = 125
#   exact       a nine-τ --batch-taus sweep with --exact — pins the exact
#               join sizes of the one-pass ground-truth oracle
#   vbucket     the batch over three tables with --estimator
#               "LSH-SS(vbucket)" — pins the virtual-bucket estimator's
#               Algorithm 1 pass
#   reject      invalid flag values (--batch-taus out of range / duplicate /
#               unparsable, negative --max-rel-error, --tau out of range /
#               unparsable / trailing garbage, a negative --trials, zero
#               --trials / --threads / --repeat / --tables / --k, --trials
#               above kMaxTrials (65536), a --k
#               above 4096 hash functions, a --k × --tables product above
#               it, an unknown --estimator) — captures the first stderr diagnostic of
#               each, which must name the offending token; then three
#               hostile files whose headers claim far more bytes than they
#               hold (a VSJB name, a VSJD feature count, a VSJS name), each
#               of which must be a named load error with exit status 1; then
#               --stream op files whose 'estimate' τ is out of range, NaN,
#               zero or unparsable, and op files that insert a live id,
#               re-insert an erased id, remove an id that is not live,
#               erase an id twice or name an id outside the dataset — each
#               a named line error with exit status 1
#   sweep-vs-single  no fixture: the --json lines of one --batch-taus
#               sweep must equal those of one --tau run per τ (a request
#               answers the same alone or in a batch)
#
# Runs the tool on the checked-in tiny dataset (data/tiny.vsjd /
# data/tiny.vsjb, 120 vectors) and diffs stdout against golden/<mode>.out
# (the batch-v2/batch-mmap modes share golden/batch.out). Output is
# deterministic: the Rng is fully specified (xoshiro256**, no std::random
# involvement), every request draws from Rng(seed).Fork(0).Fork(t) whatever
# its batch position, so results are bit-identical at any --threads count
# and in any batch, estimates are bit-identical across storage backings and
# across a checkpoint/restore cycle, and timings go to stderr, which is
# discarded. Regenerate fixtures after an intentional output change with:
#
#   tests/cli/run_golden_test.sh <binary> <mode> <cli dir> --regenerate
set -e

bin="$1"
mode="$2"
cli_dir="$3"
data="$cli_dir/data"

case "$mode" in
  batch|batch-v2|batch-mmap) golden="$cli_dir/golden/batch.out" ;;
  *) golden="$cli_dir/golden/$mode.out" ;;
esac

batch_flags="--k 6 --threads 2 --batch-taus 0.3,0.6,0.9 --trials 2 \
             --seed 7 --repeat 2"

case "$mode" in
  batch)
    run() { "$bin" --dataset "$data/tiny.vsjd" $batch_flags 2>/dev/null; }
    ;;
  batch-v2)
    run() { "$bin" --dataset "$data/tiny.vsjb" $batch_flags 2>/dev/null; }
    ;;
  batch-mmap)
    run() {
      "$bin" --dataset "$data/tiny.vsjb" --mmap $batch_flags 2>/dev/null
    }
    ;;
  stream)
    run() {
      "$bin" --dataset "$data/tiny.vsjd" --k 6 --tables 2 --threads 2 \
             --trials 2 --seed 7 --stream "$data/stream_ops.txt" 2>/dev/null
    }
    ;;
  snapshot)
    run() {
      rm -f cli_stream_snapshot_mid.vsjs cli_stream_snapshot_end.vsjs
      "$bin" --dataset "$data/tiny.vsjb" --k 6 --tables 2 --threads 2 \
             --trials 2 --seed 7 --stream "$data/stream_snapshot_ops.txt" \
             --save-snapshot cli_stream_snapshot_end.vsjs 2>/dev/null
      "$bin" --load-snapshot cli_stream_snapshot_end.vsjs --k 6 --tables 2 \
             --threads 2 --trials 2 --seed 7 \
             --stream "$data/stream_resume_ops.txt" 2>/dev/null
      rm -f cli_stream_snapshot_mid.vsjs cli_stream_snapshot_end.vsjs
    }
    ;;
  single-trial)
    run() {
      rm -f cli_single_trial.json cli_early_exit.json
      "$bin" --dataset "$data/tiny.vsjd" --k 6 --threads 2 \
             --batch-taus 0.3,0.6,0.9 --trials 1 --seed 7 \
             --json cli_single_trial.json 2>/dev/null
      cat cli_single_trial.json
      "$bin" --dataset "$data/tiny.vsjd" --k 6 --threads 2 \
             --batch-taus 0.3,0.6,0.9 --trials 6 --seed 7 \
             --max-rel-error 0.5 --json cli_early_exit.json 2>/dev/null
      cat cli_early_exit.json
      rm -f cli_single_trial.json cli_early_exit.json
    }
    ;;
  honest-stop)
    run() {
      rm -f cli_honest_stop.json
      "$bin" --synthetic nyt --n 4000 --k 20 --tables 1 --trials 32 \
             --seed 1 --tau 0.5 --max-rel-error 0.05 --exact \
             --json cli_honest_stop.json 2>/dev/null
      cat cli_honest_stop.json
      rm -f cli_honest_stop.json
    }
    ;;
  vbucket)
    run() {
      "$bin" --dataset "$data/tiny.vsjd" --estimator "LSH-SS(vbucket)" \
             --tables 3 $batch_flags 2>/dev/null
    }
    ;;
  exact)
    run() {
      "$bin" --dataset "$data/tiny.vsjd" --k 6 --threads 2 \
             --batch-taus 0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9 --trials 2 \
             --seed 7 --exact 2>/dev/null
    }
    ;;
  sweep-vs-single)
    json_of() {
      rm -f cli_sweep.json
      "$bin" --dataset "$data/tiny.vsjd" --k 6 --threads 2 --trials 2 \
             --seed 7 --json cli_sweep.json "$@" >/dev/null 2>&1
      cat cli_sweep.json
      rm -f cli_sweep.json
    }
    json_of --batch-taus 0.3,0.6,0.9 > cli_sweep_batch.json
    for tau in 0.3 0.6 0.9; do json_of --tau "$tau"; done |
      diff -u - cli_sweep_batch.json || {
        rm -f cli_sweep_batch.json
        echo "--batch-taus answers diverged from single --tau runs" >&2
        exit 1
      }
    rm -f cli_sweep_batch.json
    exit 0
    ;;
  reject)
    zeros() { i=0; while [ "$i" -lt "$1" ]; do printf '\000'; i=$((i+1)); done; }
    # Bare 64-byte header (magic, version) whose name length is 2^40 - 1.
    hostile_header() {
      printf '%s' "$1"; printf "$2"; zeros 16
      printf '\377\377\377\377\377\000\000\000'; zeros 32
    }
    # Last stderr line (the diagnostic that stopped the run; a dataset that
    # loads logs its size first); a non-1 exit status is reported on a
    # second line.
    load_row() {
      status=0
      "$bin" "$@" 2>cli_reject_stderr.txt >/dev/null || status=$?
      tail -1 cli_reject_stderr.txt
      [ "$status" -eq 1 ] || echo "exit status $status, expected 1"
    }
    run() {
      for flags in "--batch-taus 0.5,1.5" "--batch-taus 0.5,0.5" \
                   "--batch-taus 0.5,abc" "--max-rel-error -0.5" \
                   "--tau 1.5" "--tau abc" "--tau 0.5x" "--trials -1" \
                   "--trials 0" "--trials 65537" "--threads 0" \
                   "--repeat 0" "--tables 0" "--k 0" "--k 4097" \
                   "--k 64 --tables 65" "--estimator Foo"; do
        "$bin" --synthetic dblp --n 50 $flags 2>&1 >/dev/null | head -1
      done
      # Hostile files: each claims far more bytes than it holds and must
      # get a named load error, not an abort.
      hostile_header VSJB '\002\000\000\000' > cli_hostile_name.vsjb
      { printf 'VSJD\001\000\000\000'; zeros 8; printf '\001'; zeros 7
        printf '\377\377\377\377'; } > cli_hostile_count.vsjd
      hostile_header VSJS '\001\000\000\000' > cli_hostile.vsjs
      load_row --dataset cli_hostile_name.vsjb --k 6 --tau 0.5
      load_row --dataset cli_hostile_count.vsjd --k 6 --tau 0.5
      load_row --load-snapshot cli_hostile.vsjs --k 6 \
               --stream "$data/stream_resume_ops.txt"
      # An op file's τ follows the --tau rule: a named line error, exit 1.
      for tau in 1.5 nan 0 abc; do
        printf 'insert 0 99\nestimate 0.5 %s\n' "$tau" > cli_bad_tau_ops.txt
        load_row --dataset "$data/tiny.vsjd" --k 6 \
                 --stream cli_bad_tau_ops.txt
      done
      # A mutation the live set cannot take is a named line error, exit 1.
      for ops in 'insert 0 9\ninsert 5' 'insert 0 9\nerase 3\ninsert 3' \
                 'insert 0 9\nremove 10' 'erase 3\nerase 3' 'insert 119 120'; do
        printf "$ops\n" > cli_bad_mutation_ops.txt
        load_row --dataset "$data/tiny.vsjd" --k 6 \
                 --stream cli_bad_mutation_ops.txt
      done
      rm -f cli_hostile_name.vsjb cli_hostile_count.vsjd cli_hostile.vsjs \
            cli_bad_tau_ops.txt cli_bad_mutation_ops.txt cli_reject_stderr.txt
    }
    ;;
  *)
    echo "unknown mode: $mode" >&2
    exit 2
    ;;
esac

if [ "$4" = "--regenerate" ]; then
  run > "$golden"
  echo "regenerated $golden"
  exit 0
fi

run | diff -u "$golden" - || {
  echo "vsjoin_estimate $mode output diverged from $golden" >&2
  exit 1
}
