#!/usr/bin/env bash
# Uniform perf-bench runner: executes the selector-scaling benchmarks —
#   bench/scaling_tenants        (T x K sweep of the shared-prior engine)
#   bench/next_latency           (per-Next() cost: O(T) scan vs candidate
#                                 index. Also emits the REPORT_TP rows:
#                                 the report-throughput sweep — one row
#                                 per device count D in {1,2,4,8} with the
#                                 wall time per completion, burst start to
#                                 last fold; parsed into the JSON's
#                                 report_throughput section, which is
#                                 informational, not a gate. And the
#                                 HYBRID_REPORT rows: HYBRID's Report()
#                                 cost with the scan freeze detector (one
#                                 exact CompareScaled per tenant) vs the
#                                 index-fed one (one exact mean cut plus
#                                 the tenants the index logged as
#                                 changed) at T=1e3/1e4, and the index
#                                 arm alone at T=1e5, parsed into the
#                                 hybrid_report section. The scan arm's
#                                 T=1e4 initialization sweep adds ~11-15 s
#                                 to this bench on a 4-vCPU Xeon.)
#   bench/analytics_interference (obs-plane interference: Next/Report
#                                 means with the observer off, on, and on
#                                 with a continuous full-fleet snapshot
#                                 scanner; the T=1e5 obs-vs-obs+scan
#                                 deltas are a hard gate: the scan must
#                                 not slow either mean by >= 5%. One-sided
#                                 because the scan arm is often slightly
#                                 FASTER — scan-held snapshots absorb
#                                 retired-block destruction the publishing
#                                 thread would otherwise pay. The obs-vs-off
#                                 deltas, what attaching the observer
#                                 costs, are written per T as
#                                 observe_vs_off_delta_pct: informational,
#                                 not a gate.)
#   bench/recovery               (durability: WAL-off vs group-commit vs
#                                 per-ack-write serving cost, and recovery
#                                 time vs log length with and without a
#                                 checkpoint. The T=1e5 RECOVERY_GATE row
#                                 is a hard gate: the group-commit WAL must
#                                 not slow report_us_mean by >= 10%.)
# — sequentially (single-core container: never bench while a build runs),
# captures each binary's stdout under bench-logs/, and emits a machine
# written BENCH json (default BENCH_pr10.json) with the parsed tables.
#
# Failure discipline: a bench binary that exits nonzero (or an output that
# no longer parses, or a failed interference/durability gate) aborts the
# script with a nonzero exit, and the output JSON is written atomically via
# a temp file — a failed run can never leave a partial or stale-looking
# BENCH_*.json for CI to archive. The prior-PR baseline comparison is the
# one soft stage: a fresh clone with no earlier BENCH_pr*.json gets a
# NOTICE and a skip, never a failure.
#
# Usage: scripts/bench.sh [OUTPUT_JSON] [BUILD_DIR]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_pr10.json}"
BUILD_DIR="${2:-build}"

BENCHES=(scaling_tenants next_latency analytics_interference recovery)

for bench in "${BENCHES[@]}"; do
  if [[ ! -x "${BUILD_DIR}/bench/${bench}" ]]; then
    echo "error: ${BUILD_DIR}/bench/${bench} not built (run tier1.sh first)" >&2
    exit 1
  fi
done

mkdir -p bench-logs
for bench in "${BENCHES[@]}"; do
  echo "== ${bench}"
  # Remove the previous log first: if this binary fails, the parser below
  # must not be able to pick up a stale complete-looking log on a rerun.
  rm -f "bench-logs/${bench}.txt"
  if ! "./${BUILD_DIR}/bench/${bench}" | tee "bench-logs/${bench}.txt"; then
    echo "error: bench/${bench} failed; not writing ${OUT}" >&2
    exit 1
  fi
done

python3 - "${OUT}" "${BUILD_DIR}" <<'PYEOF'
import json, re, subprocess, sys, datetime, os

out_path = sys.argv[1]
build_dir = sys.argv[2]

def cmake_build_type():
    try:
        with open(os.path.join(build_dir, 'CMakeCache.txt')) as f:
            for line in f:
                if line.startswith('CMAKE_BUILD_TYPE:'):
                    return line.strip().split('=', 1)[1] or 'unknown'
    except OSError:
        pass
    return 'unknown'

def read(name):
    with open(os.path.join('bench-logs', name + '.txt')) as f:
        return f.read()

def table_rows(text):
    """Numeric rows of the whitespace/pipe tables the sweeps print."""
    rows = []
    for line in text.splitlines():
        if line.startswith('#') or not line.strip():
            continue
        cells = [c for c in re.split(r'[|\s]+', line.strip()) if c]
        try:
            rows.append([float(c.rstrip('x')) for c in cells])
        except ValueError:
            continue  # header line
    return rows

next_latency = read('next_latency')
rows = []
for line in next_latency.splitlines():
    if line.startswith('NEXT_LATENCY,'):
        _, tenants, engine, next_us, report_us = line.split(',')
        rows.append([int(tenants), engine, float(next_us), float(report_us)])
speedups = {}
for t in sorted({r[0] for r in rows}):
    scan = next(r for r in rows if r[0] == t and r[1] == 'scan')
    index = next(r for r in rows if r[0] == t and r[1] == 'index')
    speedups[str(t)] = round(scan[2] / index[2], 2)

tp_rows = []
for line in next_latency.splitlines():
    if line.startswith('REPORT_TP,'):
        _, tenants, devices, reports, wall_us = line.split(',')
        tp_rows.append([int(tenants), int(devices), int(reports),
                        float(wall_us)])

def tp_cell(devices):
    return next(r for r in tp_rows if r[1] == devices)

# HYBRID_REPORT,<tenants>,<engine>,<report_us_mean>,<switched>
hybrid_rows = []
for line in next_latency.splitlines():
    if line.startswith('HYBRID_REPORT,'):
        _, tenants, engine, report_us, switched = line.split(',')
        hybrid_rows.append([int(tenants), engine, float(report_us),
                            bool(int(switched))])

def hybrid_cell(tenants, engine):
    return next(r for r in hybrid_rows if r[0] == tenants and r[1] == engine)

# Observability-plane interference: ANALYTICS_IF,<tenants>,<arm>,
# <next_us_mean>,<report_us_mean>,<scans>,<scan_ms_mean>,<fleet_epoch>.
if_rows = []
for line in read('analytics_interference').splitlines():
    if line.startswith('ANALYTICS_IF,'):
        _, tenants, arm, next_us, report_us, scans, scan_ms, epoch = \
            line.split(',')
        if_rows.append([int(tenants), arm, float(next_us), float(report_us),
                        int(scans), float(scan_ms), int(epoch)])

def if_cell(tenants, arm):
    return next(r for r in if_rows if r[0] == tenants and r[1] == arm)

def arm_deltas(base_arm, arm):
    """Per-T relative change of `arm` against `base_arm`, percent, for the
    next_us_mean and report_us_mean columns."""
    def pct(tenants, col):
        base = if_cell(tenants, base_arm)[col]
        return round(100.0 * (if_cell(tenants, arm)[col] - base) / base, 2)
    return {str(t): {'next_us_pct': pct(t, 2), 'report_us_pct': pct(t, 3)}
            for t in sorted({r[0] for r in if_rows})}

if_deltas = arm_deltas('obs', 'obs+scan')
# What attaching the observer costs the serving path. Informational: it is
# tracked against ROADMAP's +10% target but gates nothing.
observe_deltas = arm_deltas('off', 'obs')

# Hard acceptance gate: at T=1e5 a continuous full-fleet scan must not
# SLOW either serving mean by >= 5% vs the scan-free observer arm.
# One-sided on purpose: the scan arm frequently runs slightly faster,
# because a scanner holding a snapshot keeps the previous blocks alive
# across a publish and their destruction migrates off the publishing
# driver thread onto the scanner — an offload, not interference.
GATE_TENANTS, GATE_PCT = 100000, 5.0
gate = if_deltas[str(GATE_TENANTS)]
gate_failures = [
    '{} slowdown {:+.2f}% exceeds {:.0f}% at T={}'.format(k, v, GATE_PCT,
                                                          GATE_TENANTS)
    for k, v in gate.items() if v >= GATE_PCT
]
if gate_failures:
    for msg in gate_failures:
        print('interference gate FAILED:', msg, file=sys.stderr)
    sys.exit(1)

# Durability bench: RECOVERY_SERVE,<tenants>,<arm>,<next_us>,<report_us>;
# RECOVERY_GATE,<tenants>,<report_delta_pct>,<off_spread_pct>;
# RECOVERY_TIME,<ops>,<tenants>,<ckpt 0/1>,<recover_ms>,<replayed>,<bytes>.
recovery_text = read('recovery')
rec_serve_rows = []
rec_time_rows = []
rec_gate_row = None
for line in recovery_text.splitlines():
    if line.startswith('RECOVERY_SERVE,'):
        _, tenants, arm, next_us, report_us = line.split(',')
        rec_serve_rows.append([int(tenants), arm, float(next_us),
                               float(report_us)])
    elif line.startswith('RECOVERY_TIME,'):
        _, ops, tenants, ckpt, ms, replayed, nbytes = line.split(',')
        rec_time_rows.append([int(ops), int(tenants), int(ckpt), float(ms),
                              int(replayed), int(nbytes)])
    elif line.startswith('RECOVERY_GATE,'):
        _, tenants, delta, spread = line.split(',')
        rec_gate_row = {'tenants': int(tenants),
                        'report_delta_pct': float(delta),
                        'off_spread_pct': float(spread)}

# Hard acceptance gate: the group-commit WAL ("wal" arm) must not slow the
# T=1e5 Report mean by >= 10% vs the WAL-off engine. The bench emits the
# delta itself (avg over duplicated arms of lower-quartile window means, so
# per-allocation layout luck and periodic host contamination are both
# controlled); the script only enforces it.
WAL_GATE_PCT = 10.0
if rec_gate_row is None:
    print('durability gate FAILED: bench/recovery emitted no RECOVERY_GATE '
          'row', file=sys.stderr)
    sys.exit(1)
if rec_gate_row['report_delta_pct'] >= WAL_GATE_PCT:
    print('durability gate FAILED: WAL-on report_us_mean regressed '
          '{:+.2f}% (>= {:.0f}%) at T={}'.format(
              rec_gate_row['report_delta_pct'], WAL_GATE_PCT,
              rec_gate_row['tenants']), file=sys.stderr)
    sys.exit(1)

def rec_time_cell(ops, ckpt):
    return next(r for r in rec_time_rows if r[0] == ops and r[2] == ckpt)

def compiler():
    try:
        return subprocess.run(['g++', '--version'], capture_output=True,
                              text=True).stdout.splitlines()[0]
    except OSError:
        return 'unknown'

doc = {
    'benchmark': 'scripts/bench.sh: bench/scaling_tenants + '
                 'bench/next_latency + bench/analytics_interference + '
                 'bench/recovery',
    'description':
        'PR 10: durable selector (crash-safe WAL + checkpoints + recovery '
        'replay). bench/recovery measures what durability costs the '
        'serving hot path — WAL off vs group-commit (kDeferred: acks are a '
        'slot push into a process buffer, encode+CRC batch at the drain, '
        'the file sees one write per 64 KiB) vs a write() per ack '
        '(kBuffered) vs an fsync per ack — and what recovery costs at '
        'restart (full-log replay vs checkpoint + empty suffix). '
        'Prior-PR context: next_latency drives identical '
        'GREEDY campaigns (bit-identical traces, pinned by the index/scan '
        'conformance suite) through the scan engine and the index-backed '
        'engine, timing Next() and Report() separately with '
        'CLOCK_THREAD_CPUTIME_ID on the driving thread (thread-CPU clocks '
        'are not inflated by host oversubscription; this container has one '
        'core). The index answers Next() from one tournament root '
        'and pays an O(log T) leaf replay per Report instead of an O(T K) '
        'rescan per Next. The report_throughput section times bursts of D '
        'completions on the engine, which folds each one on the calling '
        'thread under its lock; wall_us_mean is the wall time per '
        'completion from burst start to its last fold (informational).',
    'recorded': datetime.date.today().isoformat(),
    'command': './' + ' && ./'.join(
        build_dir + '/bench/' + b
        for b in ('scaling_tenants', 'next_latency',
                  'analytics_interference', 'recovery')),
    'environment': {
        'compiler': compiler(),
        'cmake_build_type': cmake_build_type(),
        'num_cpus': os.cpu_count(),
    },
    'next_latency': {
        'scheduler': 'greedy',
        'models_per_tenant': 6,
        'devices': 1,
        'steady_state_steps': 200,
        'columns': ['tenants', 'engine', 'next_us_mean', 'report_us_mean'],
        'rows': rows,
        'next_speedup_index_vs_scan': speedups,
        'headline':
            'Per-Next() critical path with the candidate index grows '
            'sub-linearly in T ({} us at T=1e3 -> {} us at T=1e5) while the '
            'scan path grows linearly; at T=100k GREEDY the index serves '
            'Next() {}x faster than the scan, and its Report-side leaf '
            'refresh stays cheaper than the scan engine\'s report path.'
            .format(
                next(r[2] for r in rows if r[0] == 1000 and r[1] == 'index'),
                next(r[2] for r in rows if r[0] == 100000 and r[1] == 'index'),
                speedups.get('100000')),
    },
    'report_throughput': {
        'scheduler': 'greedy',
        'use_candidate_index': True,
        'tenants': 240,
        'models_per_tenant': 6,
        'clock': 'wall',
        'columns': ['tenants', 'devices', 'reports', 'wall_us_mean'],
        'rows': tp_rows,
        'headline':
            'Report throughput (informational, not a gate): every fold runs '
            'on the calling thread under the engine\'s lock. With all D '
            'device slots completing in bursts, a completion costs {} us of '
            'wall time from burst start to its last fold at D=1 and {} us '
            'at D=8.'.format(tp_cell(1)[3], tp_cell(8)[3]),
    },
    'hybrid_report': {
        'scheduler': 'hybrid',
        'hybrid_patience': 10,
        'models_per_tenant': 6,
        'devices': 1,
        'steady_state_steps': 200,
        'clock': 'thread-CPU',
        'columns': ['tenants', 'engine', 'report_us_mean', 'switched'],
        'rows': hybrid_rows,
        'headline':
            'HYBRID Report(): the freeze detector tests after every '
            'outcome whether the line-7 candidate set or the summed best '
            'reward changed. At T=1e4 it costs {} us per Report on the scan '
            '(rebuilds the set with one exact CompareScaled per tenant) and '
            '{} us on the index (one exact mean cut, then only the tenants '
            'the index logged as changed and those whose bound lies between '
            'the old and the new cut); the index arm reads {} us at T=1e5, '
            'where the scan arm is not run. switched = the detector had '
            'fired by the last measured step (round-robin phase, detector '
            'off).'.format(
                hybrid_cell(10000, 'scan')[2],
                hybrid_cell(10000, 'index')[2],
                hybrid_cell(100000, 'index')[2]),
    },
    'recovery_durability': {
        'scheduler': 'greedy',
        'use_candidate_index': True,
        'models_per_tenant': 6,
        'estimator': 'lower-quartile over 15 interleaved windows of 200 '
                     'steps (one live campaign per arm; duplicate off/wal '
                     'arms at the gate fleet averaged to control '
                     'per-allocation layout luck)',
        'arms': {'off': 'no WAL', 'wal': 'group-commit (kDeferred)',
                 'wal+write': 'write() per ack (kBuffered)',
                 'wal+fsync': 'fsync per ack (kFsync, small fleet only)'},
        'serve_columns': ['tenants', 'arm', 'next_us_mean',
                          'report_us_mean'],
        'serve_rows': rec_serve_rows,
        'recovery_time_columns': ['ops', 'tenants', 'checkpoint',
                                  'recover_ms', 'replayed_records',
                                  'log_bytes'],
        'recovery_time_rows': rec_time_rows,
        'gate': {'tenants': rec_gate_row['tenants'],
                 'max_report_slowdown_pct': WAL_GATE_PCT,
                 'report_delta_pct': rec_gate_row['report_delta_pct'],
                 'off_vs_off_spread_pct': rec_gate_row['off_spread_pct'],
                 'passed': True},
        'headline':
            'Durability for {:+.2f}% on the T=1e5 Report mean (gate <10%): '
            'a group-commit WAL ack is one spin-locked slot push, with '
            'encode+CRC batched at the 64-slot drain and one write() per '
            '64 KiB. Restart replay of a {}-record log costs {:.0f} ms; '
            'a checkpoint cuts that to {:.0f} ms ({}x).'.format(
                rec_gate_row['report_delta_pct'],
                rec_time_cell(16000, 0)[4],
                rec_time_cell(16000, 0)[3],
                rec_time_cell(16000, 1)[3],
                round(rec_time_cell(16000, 0)[3] /
                      max(rec_time_cell(16000, 1)[3], 1e-9))),
    },
    'scaling_tenants': {'raw_rows': table_rows(read('scaling_tenants'))},
    'analytics_interference': {
        'scheduler': 'greedy',
        'use_candidate_index': True,
        'models_per_tenant': 6,
        'measured_steps_per_window': 'min(5000, T/9)',
        'reps': 9,
        'estimator': 'median over 9 interleaved windows (one live campaign '
                     'per arm) of per-call trimmed means (top 2% dropped)',
        'scan_period_ms': 5,
        'columns': ['tenants', 'arm', 'next_us_mean', 'report_us_mean',
                    'scans', 'scan_ms_mean', 'fleet_epoch'],
        'rows': if_rows,
        'scan_vs_noscan_delta_pct': if_deltas,
        'observe_vs_off_delta_pct': observe_deltas,
        'gate': {'tenants': GATE_TENANTS, 'max_slowdown_pct': GATE_PCT,
                 'one_sided': 'scan-held snapshots absorb retired-block '
                              'destruction, so small speedups are expected',
                 'passed': True},
        'headline':
            'Snapshot-isolated observability: a continuous full-fleet '
            'snapshot scan (every {} ms) against the T=1e5 serving hot '
            'path moves next_us_mean by {:+.2f}% and report_us_mean by '
            '{:+.2f}% — analytics readers share no lock with Next/Report; '
            'they walk immutable COW blocks published at fold '
            'boundaries. Attaching the observer itself costs {:+.2f}% on '
            'next_us_mean and {:+.2f}% on report_us_mean at T=1e5 (obs vs '
            'off; informational).'.format(
                5, gate['next_us_pct'], gate['report_us_pct'],
                observe_deltas[str(GATE_TENANTS)]['next_us_pct'],
                observe_deltas[str(GATE_TENANTS)]['report_us_pct']),
    },
}
# Atomic write: construct fully, dump to a temp file, then rename. An
# exception anywhere above leaves no partial BENCH json behind.
tmp_path = out_path + '.tmp'
with open(tmp_path, 'w') as f:
    json.dump(doc, f, indent=2)
    f.write('\n')
os.replace(tmp_path, out_path)
print('wrote', out_path)

# Prior-PR baseline context (informational): compare shared headline
# metrics against the newest committed BENCH_pr*.json. A fresh clone (or a
# stripped checkout) may carry no baseline at all — that is a NOTICE and a
# skip, never a failure: the hard gates above already ran against this
# run's own control arms.
import glob

def pr_number(path):
    m = re.match(r'BENCH_pr(\d+)\.json$', os.path.basename(path))
    return int(m.group(1)) if m else -1

baselines = sorted((p for p in glob.glob('BENCH_pr*.json')
                    if p != out_path and pr_number(p) >= 0),
                   key=pr_number)
if not baselines:
    print('NOTICE: no prior BENCH_pr*.json baseline in the working tree '
          '(fresh clone?) — skipping the baseline comparison')
else:
    base_path = baselines[-1]
    try:
        with open(base_path) as f:
            base = json.load(f)
        def t1e5_index_next(d):
            for row in d.get('next_latency', {}).get('rows', []):
                if row[0] == 100000 and row[1] == 'index':
                    return row[2]
            return None
        ours, theirs = t1e5_index_next(doc), t1e5_index_next(base)
        if ours is not None and theirs is not None:
            print('baseline {}: T=1e5 index next_us_mean {} -> {} '
                  '({:+.1f}%)'.format(base_path, theirs, ours,
                                      100.0 * (ours - theirs) / theirs))
        else:
            print('NOTICE: baseline', base_path, 'shares no comparable '
                  'next_latency row — skipping the baseline comparison')
    except (OSError, ValueError) as e:
        print('NOTICE: baseline', base_path, 'unreadable (', e, ') — '
              'skipping the baseline comparison')
PYEOF
