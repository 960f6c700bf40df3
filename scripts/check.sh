#!/bin/sh
# Full local check: build, run the test suite, then smoke the bench
# snapshot (2 replications keep it fast) and verify the JSON artifact
# appears.  Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== traffic smoke =="
# A small fixed-seed workload must serve something, and two identical
# invocations must print byte-identical SLA summaries.
run_a=$(mktemp -t muerp_traffic_a.XXXXXX)
run_b=$(mktemp -t muerp_traffic_b.XXXXXX)
trap 'rm -f "$run_a" "$run_b"' EXIT
dune exec bin/muerp_cli.exe -- traffic --seed 42 -n 40 --switches 40 >"$run_a"
dune exec bin/muerp_cli.exe -- traffic --seed 42 -n 40 --switches 40 >"$run_b"
cmp "$run_a" "$run_b" || { echo "traffic run not reproducible" >&2; exit 1; }
served=$(awk '$2 == "served" { print $4 }' "$run_a")
[ -n "$served" ] && [ "$served" -gt 0 ] ||
  { echo "traffic smoke served nothing (served=$served)" >&2; exit 1; }
echo "traffic reproducible, served=$served"

echo "== chaos smoke =="
# Fault injection must be just as reproducible: the same seeded chaos
# run twice, and at --jobs 1 vs --jobs 2, must print byte-identical
# reports — and must actually interrupt some leases.
chaos_a=$(mktemp -t muerp_chaos_a.XXXXXX)
chaos_b=$(mktemp -t muerp_chaos_b.XXXXXX)
chaos_j2=$(mktemp -t muerp_chaos_j2.XXXXXX)
trap 'rm -f "$run_a" "$run_b" "$chaos_a" "$chaos_b" "$chaos_j2"' EXIT
chaos_flags="--seed 42 -n 40 --switches 40 --fault-mtbf 15 --fault-mttr 4 --recovery repair"
dune exec bin/muerp_cli.exe -- traffic $chaos_flags --jobs 1 >"$chaos_a"
dune exec bin/muerp_cli.exe -- traffic $chaos_flags --jobs 1 >"$chaos_b"
cmp "$chaos_a" "$chaos_b" ||
  { echo "chaos run not reproducible" >&2; exit 1; }
dune exec bin/muerp_cli.exe -- traffic $chaos_flags --jobs 2 >"$chaos_j2"
cmp "$chaos_a" "$chaos_j2" ||
  { echo "chaos run differs between --jobs 1 and --jobs 2" >&2; exit 1; }
faults=$(awk '$2 == "faults_injected" { print $4 }' "$chaos_a")
[ -n "$faults" ] && [ "$faults" -gt 0 ] ||
  { echo "chaos smoke injected no faults (faults=$faults)" >&2; exit 1; }
echo "chaos reproducible at --jobs 1 and 2, faults_injected=$faults"

echo "== overload smoke =="
# A seeded burst far above capacity, served under admission limits and
# a tiered degradation policy, must (a) print byte-identical reports
# twice and at --jobs 1 vs --jobs 2, (b) actually shed and degrade.
over_a=$(mktemp -t muerp_over_a.XXXXXX)
over_b=$(mktemp -t muerp_over_b.XXXXXX)
over_j2=$(mktemp -t muerp_over_j2.XXXXXX)
trap 'rm -f "$run_a" "$run_b" "$over_a" "$over_b" "$over_j2"' EXIT
over_flags="--seed 7 -n 120 --switches 60 --users 12 \
  --arrival pareto:1.5:0.05:2 --group pareto:1.2:2:6 \
  --max-queue 8 --rate 3 --budget 40 --tiers alg3,prim"
dune exec bin/muerp_cli.exe -- traffic $over_flags --jobs 1 >"$over_a"
dune exec bin/muerp_cli.exe -- traffic $over_flags --jobs 1 >"$over_b"
cmp "$over_a" "$over_b" ||
  { echo "overload run not reproducible" >&2; exit 1; }
dune exec bin/muerp_cli.exe -- traffic $over_flags --jobs 2 >"$over_j2"
cmp "$over_a" "$over_j2" ||
  { echo "overload run differs between --jobs 1 and --jobs 2" >&2; exit 1; }
shed=$(awk '$2 == "shed" { print $4 }' "$over_a")
degraded=$(awk '$2 == "degraded" { print $4 }' "$over_a")
[ -n "$shed" ] && [ "$shed" -gt 0 ] ||
  { echo "overload smoke shed nothing (shed=$shed)" >&2; exit 1; }
[ -n "$degraded" ] && [ "$degraded" -gt 0 ] ||
  { echo "overload smoke never degraded (degraded=$degraded)" >&2; exit 1; }
echo "overload reproducible at --jobs 1 and 2, shed=$shed degraded=$degraded"

echo "== batched serving smoke =="
# The sharded serving engine: synchronised arrival batches solved
# concurrently against capacity snapshots must print byte-identical
# reports twice at --jobs 4, and --jobs 1 vs --jobs 4 --slot 2 must
# match the serial baseline exactly (snapshot/solve/commit contract).
batch_j1=$(mktemp -t muerp_batch_j1.XXXXXX)
batch_j4a=$(mktemp -t muerp_batch_j4a.XXXXXX)
batch_j4b=$(mktemp -t muerp_batch_j4b.XXXXXX)
batch_slot=$(mktemp -t muerp_batch_slot.XXXXXX)
trap 'rm -f "$run_a" "$run_b" "$batch_j1" "$batch_j4a" "$batch_j4b" \
  "$batch_slot"' EXIT
batch_flags="--seed 11 -n 80 --switches 50 --batch 8 --batch-period 1.5"
dune exec bin/muerp_cli.exe -- traffic $batch_flags --jobs 1 >"$batch_j1"
dune exec bin/muerp_cli.exe -- traffic $batch_flags --jobs 4 >"$batch_j4a"
dune exec bin/muerp_cli.exe -- traffic $batch_flags --jobs 4 >"$batch_j4b"
cmp "$batch_j4a" "$batch_j4b" ||
  { echo "batched serving run not reproducible at --jobs 4" >&2; exit 1; }
cmp "$batch_j1" "$batch_j4a" ||
  { echo "batched serving differs between --jobs 1 and --jobs 4" >&2
    exit 1; }
dune exec bin/muerp_cli.exe -- traffic $batch_flags --jobs 4 --slot 2 \
  >"$batch_slot"
cmp "$batch_j1" "$batch_slot" ||
  { echo "batched serving differs with --slot 2" >&2; exit 1; }
batch_served=$(awk '$2 == "served" { print $4 }' "$batch_j1")
[ -n "$batch_served" ] && [ "$batch_served" -gt 0 ] ||
  { echo "batched serving served nothing (served=$batch_served)" >&2
    exit 1; }
echo "batched serving identical at --jobs 1/4 and --slot 2, served=$batch_served"

echo "== crash-recovery smoke =="
# Kill a faulty run at a checkpoint, restore it (at a different --jobs
# level), and demand the restored report be byte-identical to the
# uninterrupted run's.  Corrupting the checkpoint must produce a
# friendly error with exit code 2, and the in-process drill must pass.
ckpt=$(mktemp -t muerp_ckpt.XXXXXX)
rec_full=$(mktemp -t muerp_rec_full.XXXXXX)
rec_rest=$(mktemp -t muerp_rec_rest.XXXXXX)
rec_err=$(mktemp -t muerp_rec_err.XXXXXX)
reconf=$(mktemp -t muerp_reconf.XXXXXX)
trap 'rm -f "$run_a" "$run_b" "$ckpt" "$rec_full" "$rec_rest" "$rec_err" \
  "$reconf"' EXIT
rec_flags="--seed 13 -n 60 --switches 40 --fault-mtbf 20 --fault-mttr 5 \
  --max-queue 12 --rate 1.5"
dune exec bin/muerp_cli.exe -- traffic $rec_flags >"$rec_full"
dune exec bin/muerp_cli.exe -- traffic $rec_flags --checkpoint-every 5 \
  --checkpoint "$ckpt" --halt-at 25 >/dev/null
dune exec bin/muerp_cli.exe -- traffic $rec_flags --restore "$ckpt" \
  --jobs 2 >"$rec_rest"
grep '^|' "$rec_full" >"$rec_full.tbl"
grep '^|' "$rec_rest" >"$rec_rest.tbl"
cmp "$rec_full.tbl" "$rec_rest.tbl" ||
  { echo "restored report differs from the uninterrupted run" >&2; exit 1; }
rm -f "$rec_full.tbl" "$rec_rest.tbl"
# Corrupt the checkpoint: the CLI must name the file and exit 2.
printf 'garbage' >>"$ckpt"
status=0
dune exec bin/muerp_cli.exe -- traffic $rec_flags --restore "$ckpt" \
  >/dev/null 2>"$rec_err" || status=$?
[ "$status" -eq 2 ] ||
  { echo "corrupt checkpoint exited $status, want 2" >&2; exit 1; }
grep -q "checkpoint" "$rec_err" ||
  { echo "corrupt-checkpoint error does not name the file" >&2; exit 1; }
# Live reconfiguration: drain a switch mid-run, grow another, rejoin.
cat >"$reconf" <<'EOF'
(muerp-reconfig/1
  (at 10 (switch-leave 20))
  (at 18 (provision 25 8))
  (at 30 (switch-join 20)))
EOF
dune exec bin/muerp_cli.exe -- traffic $rec_flags --reconfig "$reconf" \
  >"$rec_rest"
grep -q "reconfig_applied" "$rec_rest" ||
  { echo "reconfig run reported no reconfig_applied row" >&2; exit 1; }
# The in-process drill restores at every checkpoint instant and diffs.
dune exec bin/muerp_cli.exe -- traffic $rec_flags --reconfig "$reconf" \
  --drill 12 | grep -q "drill passed" ||
  { echo "crash-recovery drill failed" >&2; exit 1; }
echo "crash-recovery: restore byte-identical, corrupt file exits 2, drill passed"

echo "== incremental-chain crash smoke =="
# Incremental mode: the same faulty run cut as a base + delta chain
# with a write-ahead journal, halted mid-run and recovered through the
# chain, must reproduce the uninterrupted report byte-for-byte.
# Poisoning a middle delta must degrade gracefully — a warning, an
# earlier restore point, and STILL the identical final report (the
# determinism contract).  Poisoning the base must exit 2 naming the
# file.  The in-process chain drill crashes into every capture.
chain_dir=$(mktemp -d -t muerp_chain.XXXXXX)
chain="$chain_dir/chain.ckpt"
chain_rest=$(mktemp -t muerp_chain_rest.XXXXXX)
chain_warn=$(mktemp -t muerp_chain_warn.XXXXXX)
trap 'rm -rf "$run_a" "$run_b" "$chain_dir" "$chain_rest" "$chain_warn"' EXIT
incr_flags="--checkpoint-mode incr:4 --journal $chain.journal"
dune exec bin/muerp_cli.exe -- traffic $rec_flags --checkpoint-every 3 \
  --checkpoint "$chain" $incr_flags --halt-at 25 >/dev/null
ls "$chain".d* >/dev/null 2>&1 ||
  { echo "incremental run wrote no delta files" >&2; exit 1; }
dune exec bin/muerp_cli.exe -- traffic $rec_flags --restore "$chain" \
  $incr_flags --jobs 2 >"$chain_rest"
grep '^|' "$rec_full" >"$rec_full.tbl"
grep '^|' "$chain_rest" >"$chain_rest.tbl"
cmp "$rec_full.tbl" "$chain_rest.tbl" ||
  { echo "chain-restored report differs from the uninterrupted run" >&2
    exit 1; }
# Zero one byte mid-delta: the chain walk must skip the poisoned
# suffix with a warning and the completion must still be identical.
dd if=/dev/zero of="$chain.d1" bs=1 seek=40 count=1 conv=notrunc 2>/dev/null
dune exec bin/muerp_cli.exe -- traffic $rec_flags --restore "$chain" \
  $incr_flags >"$chain_rest" 2>"$chain_warn"
grep -q "warning:" "$chain_warn" ||
  { echo "poisoned delta produced no recovery warning" >&2; exit 1; }
grep '^|' "$chain_rest" >"$chain_rest.tbl"
cmp "$rec_full.tbl" "$chain_rest.tbl" ||
  { echo "degraded chain restore diverged from the uninterrupted run" >&2
    exit 1; }
rm -f "$rec_full.tbl" "$chain_rest.tbl"
# Poison the base: no valid restore point remains — exit 2, name the file.
printf 'garbage' >>"$chain"
status=0
dune exec bin/muerp_cli.exe -- traffic $rec_flags --restore "$chain" \
  $incr_flags >/dev/null 2>"$chain_warn" || status=$?
[ "$status" -eq 2 ] ||
  { echo "corrupt chain base exited $status, want 2" >&2; exit 1; }
grep -q "chain.ckpt" "$chain_warn" ||
  { echo "corrupt-base error does not name the file" >&2; exit 1; }
# The in-process chain drill: crash into every capture, verify replay.
dune exec bin/muerp_cli.exe -- traffic $rec_flags --drill 6 \
  --checkpoint-mode incr:3 | grep -q "chain drill passed" ||
  { echo "incremental-chain drill failed" >&2; exit 1; }
echo "incremental chain: restore identical, poison degrades, base exits 2"

echo "== SLA gate smoke =="
# --fail-on-sla must exit nonzero when acceptance lands below the bar
# and zero when it clears it.
if dune exec bin/muerp_cli.exe -- traffic $over_flags --fail-on-sla 99 \
  >/dev/null 2>&1; then
  echo "--fail-on-sla 99 should have failed an overloaded run" >&2
  exit 1
fi
dune exec bin/muerp_cli.exe -- traffic --seed 42 -n 40 --switches 40 \
  --fail-on-sla 50 >/dev/null ||
  { echo "--fail-on-sla 50 failed a healthy run" >&2; exit 1; }
echo "SLA gate trips under overload, passes when healthy"

echo "== hier smoke =="
# Hierarchical routing on a continent topology must be reproducible
# (twice, and at --jobs 1 vs --jobs 2) and must actually serve.
hier_a=$(mktemp -t muerp_hier_a.XXXXXX)
hier_b=$(mktemp -t muerp_hier_b.XXXXXX)
hier_j2=$(mktemp -t muerp_hier_j2.XXXXXX)
hier_ckpt=$(mktemp -t muerp_hier_ckpt.XXXXXX)
trap 'rm -f "$run_a" "$run_b" "$hier_a" "$hier_b" "$hier_j2" "$hier_ckpt" \
  "$hier_a.tbl" "$hier_b.tbl"' EXIT
hier_flags="--topology continent --regions 4 --switches 120 --users 12 \
  --hier --seed 42 -n 40"
dune exec bin/muerp_cli.exe -- traffic $hier_flags --jobs 1 >"$hier_a"
dune exec bin/muerp_cli.exe -- traffic $hier_flags --jobs 1 >"$hier_b"
cmp "$hier_a" "$hier_b" ||
  { echo "hier traffic run not reproducible" >&2; exit 1; }
dune exec bin/muerp_cli.exe -- traffic $hier_flags --jobs 2 >"$hier_j2"
cmp "$hier_a" "$hier_j2" ||
  { echo "hier traffic run differs between --jobs 1 and --jobs 2" >&2; exit 1; }
# Halted at a checkpoint and restored, a hier run must finish with the
# uninterrupted run's report: the skeleton's segment cache rides in the
# snapshot, and a cold cache could pick other corridors.
dune exec bin/muerp_cli.exe -- traffic $hier_flags --checkpoint-every 5 \
  --checkpoint "$hier_ckpt" --halt-at 10 >/dev/null
dune exec bin/muerp_cli.exe -- traffic $hier_flags --restore "$hier_ckpt" \
  >"$hier_b"
grep '^|' "$hier_a" >"$hier_a.tbl"
grep '^|' "$hier_b" >"$hier_b.tbl"
cmp "$hier_a.tbl" "$hier_b.tbl" ||
  { echo "restored hier report differs from the uninterrupted run" >&2
    exit 1; }
hier_served=$(awk '$2 == "served" { print $4 }' "$hier_a")
[ -n "$hier_served" ] && [ "$hier_served" -gt 0 ] ||
  { echo "hier smoke served nothing (served=$hier_served)" >&2; exit 1; }
# The one-shot solver must also route through the hierarchy.
dune exec bin/muerp_cli.exe -- solve --topology continent --regions 4 \
  --switches 120 --users 12 --hier --seed 42 |
  grep -q "^hier-prim:" ||
  { echo "solve --hier printed no hier-prim tree" >&2; exit 1; }
echo "hier reproducible at --jobs 1 and 2 and across a restore, served=$hier_served"

echo "== flow smoke =="
# The flow optimizer must (a) print byte-identical output twice and at
# --jobs 1 vs --jobs 2, (b) report a non-negative optimality gap for
# its rounded tree (a negative gap is an LP bound-soundness bug).
flow_a=$(mktemp -t muerp_flow_a.XXXXXX)
flow_b=$(mktemp -t muerp_flow_b.XXXXXX)
flow_j2=$(mktemp -t muerp_flow_j2.XXXXXX)
trap 'rm -f "$run_a" "$run_b" "$flow_a" "$flow_b" "$flow_j2"' EXIT
flow_flags="--seed 42 --users 6 --switches 30 --policy flow"
dune exec bin/muerp_cli.exe -- solve $flow_flags --jobs 1 >"$flow_a"
dune exec bin/muerp_cli.exe -- solve $flow_flags --jobs 1 >"$flow_b"
cmp "$flow_a" "$flow_b" || { echo "flow solve not reproducible" >&2; exit 1; }
dune exec bin/muerp_cli.exe -- solve $flow_flags --jobs 2 >"$flow_j2"
cmp "$flow_a" "$flow_j2" ||
  { echo "flow solve differs between --jobs 1 and --jobs 2" >&2; exit 1; }
flow_gap=$(awk '$2 == "flow" { print $8 }' "$flow_a")
[ -n "$flow_gap" ] || { echo "flow solve printed no gap row" >&2; exit 1; }
case "$flow_gap" in
  -*) echo "flow gap is negative ($flow_gap): LP bound violated" >&2
      exit 1 ;;
esac
# The full roster's gap report must carry a row per method, all
# non-negative.
gaps=$(dune exec bin/muerp_cli.exe -- solve --seed 42 --users 6 \
  --switches 30 | awk '$1 == "|" && $8 ~ /^-?[0-9]/ { print $8 }')
[ -n "$gaps" ] || { echo "solve printed no gap table" >&2; exit 1; }
for gap in $gaps; do
  case "$gap" in
    -*) echo "negative optimality gap ($gap): LP bound violated" >&2
        exit 1 ;;
  esac
done
echo "flow reproducible at --jobs 1 and 2, rounding gap=$flow_gap"

echo "== jobs determinism smoke =="
# The same fixed-seed sweep must emit byte-identical CSV tables at
# every --jobs level (the parallel runtime's determinism contract).
sweep_j1=$(mktemp -t muerp_sweep_j1.XXXXXX.csv)
sweep_j4=$(mktemp -t muerp_sweep_j4.XXXXXX.csv)
trap 'rm -f "$run_a" "$run_b" "$sweep_j1" "$sweep_j4"' EXIT
dune exec bin/muerp_cli.exe -- sweep users 4,6 --seed 7 -r 3 --jobs 1 \
  --csv "$sweep_j1" >/dev/null
dune exec bin/muerp_cli.exe -- sweep users 4,6 --seed 7 -r 3 --jobs 4 \
  --csv "$sweep_j4" >/dev/null
cmp "$sweep_j1" "$sweep_j4" ||
  { echo "sweep results differ between --jobs 1 and --jobs 4" >&2; exit 1; }
echo "sweep identical at --jobs 1 and --jobs 4"

echo "== bench snapshot smoke =="
snapshot=$(mktemp -t muerp_snapshot.XXXXXX.json)
trap 'rm -f "$run_a" "$run_b" "$sweep_j1" "$sweep_j4" "$snapshot"' EXIT
MUERP_REPLICATIONS=2 dune exec bench/main.exe -- snapshot "$snapshot"
test -s "$snapshot" || { echo "snapshot produced no output" >&2; exit 1; }
grep -q '"traffic"' "$snapshot" ||
  { echo "snapshot is missing the traffic section" >&2; exit 1; }
grep -q '"parallel"' "$snapshot" ||
  { echo "snapshot is missing the parallel section" >&2; exit 1; }
grep -q '"faults"' "$snapshot" ||
  { echo "snapshot is missing the faults section" >&2; exit 1; }
grep -q '"overload"' "$snapshot" ||
  { echo "snapshot is missing the overload section" >&2; exit 1; }
grep -q '"hier"' "$snapshot" ||
  { echo "snapshot is missing the hier section" >&2; exit 1; }
grep -q '"flow"' "$snapshot" ||
  { echo "snapshot is missing the flow section" >&2; exit 1; }
grep -q '"serving"' "$snapshot" ||
  { echo "snapshot is missing the serving section" >&2; exit 1; }
grep -q '"resilience"' "$snapshot" ||
  { echo "snapshot is missing the resilience section" >&2; exit 1; }
grep -q '"restored_reports_equal": true' "$snapshot" ||
  { echo "resilience bench: a restored run diverged" >&2; exit 1; }
if grep -q '"report_equal": false' "$snapshot"; then
  echo "serving bench: batched report diverged from serial baseline" >&2
  exit 1
fi
grep -q '"estimate_equal": true' "$snapshot" ||
  { echo "parallel bench: estimates differ across jobs levels" >&2; exit 1; }
grep -q '"mean_rates_equal": true' "$snapshot" ||
  { echo "parallel bench: sweep rates differ across jobs levels" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$snapshot" >/dev/null
  echo "snapshot JSON parses"
  echo "== bench regression guard =="
  # The fixed-seed sections (traffic, faults, overload, hier counts and
  # rate ratios — never wall times) must match the committed snapshot.
  python3 scripts/bench_guard.py BENCH_muerp.json "$snapshot" ||
    { echo "bench regression guard failed" >&2; exit 1; }
fi

echo "== all checks passed =="
