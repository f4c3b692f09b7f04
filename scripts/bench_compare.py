#!/usr/bin/env python3
"""Diff BENCH_*.json reports and fail on regression.

Two modes:

Pairwise (the CI gate):
    python3 scripts/bench_compare.py NEW.json BASELINE.json \
        [--max-regress 0.20] [--kind sweep|micro|all] [--allow-missing-rows]

Chain (the trajectory table):
    python3 scripts/bench_compare.py --chain A.json B.json C.json ... \
        [--max-regress 0.20] [--allow-missing-rows]

Row kinds compared:

* ``end_to_end_sweep`` records, matched by (mesh, queue, threads,
  bio_ms), on the ``spikes_per_sec`` metric (higher is better) — noisy
  on shared runners (wall-clock), so usually gated generously or
  advisory.
* ``queue_microbench`` records, matched by case name, on the
  ``calendar_ns_per_op`` metric (lower is better) — a tight kernel
  loop, stable enough to gate on.
* ``phase_breakdown`` records, matched by (threads, bio_ms, metric),
  on the ``ns_per_neuron`` and ``ns_per_synaptic_event`` metrics
  (lower is better) — per-loop costs normalized by simulated work, so
  they gate tighter than wall-clock rows.

Single-report modes check one report in isolation:

    python3 scripts/bench_compare.py --parallel-speedup REPORT.json

fails unless the report's ``phase_breakdown`` rows show the 4-thread
wall-clock strictly beating the 1-thread wall-clock with a 4-thread
barrier-wait share of at most 0.5 — threads must pay, not just cost.
A report measured on a one-core host (whose 4-thread rows collapsed
to serial runs) warns and skips instead of comparing noise.

    python3 scripts/bench_compare.py --resilience REPORT.json

gates a resilience-campaign report (E19): every fault-sweep bucket
meets a per-failure-rate delivery floor, the paired repair arms show
``repair_link`` recovering delivery and ``reroute`` shedding
emergency/drop load, and the campaign's thread-count replays were
bit-exact. ``resil`` rows (bucket delivery ratios keyed by
(failure_rate, policy), higher is better) also join the pairwise and
chain comparisons.

    python3 scripts/bench_compare.py --memory REPORT.json

gates a scaling-study report (E20): the largest ``scaling`` row must
show the full machine (>= 65536 chips, >= 10^6 cores, >= 10^8
synapses) built and run with ``bytes_per_synapse`` reported, and the
paired lazy/eager ``memory`` arms must show the compressed lazy build
resident-smaller. ``memory`` rows (bytes/synapse keyed by (mesh, arm),
lower is better) also join the pairwise and chain comparisons.

    python3 scripts/bench_compare.py --serving REPORT.json

gates a serving report (E21): steady-arm ``serving`` rows at >= 3
client-concurrency levels with positive jobs/sec and sane p50/p99
latency, a warm-hit ratio above 0.8 on every steady row, a churn arm
that actually evicted and rehydrated sessions with a bit-exact spike
verdict, and a deterministic quota-rejection replay. ``serving`` rows
(jobs/sec keyed by (arm, clients), higher is better) also join the
pairwise and chain comparisons.

Chain mode compares each consecutive pair (old -> new) and appends a
markdown trajectory table to ``$GITHUB_STEP_SUMMARY`` when that
variable is set (always also printed to stdout).

Exit codes:

    0  every matched row is within the allowed regression
    1  at least one matched row regressed more than --max-regress
    2  usage error, unreadable/missing input file, no comparable rows,
       or (without --allow-missing-rows) a row present in only one
       report

Only Python's standard library is used (the build environment is
offline). Unit tests: ``python3 scripts/test_bench_compare.py``.
"""

import argparse
import json
import os
import sys


def fail_usage(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    if not os.path.exists(path):
        fail_usage(
            f"benchmark report {path} does not exist — a missing baseline must "
            "fail the gate, not skip it. Committed baselines are regenerated "
            "with `cargo run --release -p spinn-bench --bin run_experiments -- "
            "E14` (or E15/E16)"
        )
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail_usage(f"cannot read {path}: {err}")


def sweep_rows(report):
    """(mesh, queue, threads, bio_ms) -> spikes_per_sec (higher is better)."""
    rows = {}
    for record in report.get("records", []):
        if record.get("name") != "end_to_end_sweep":
            continue
        cfg = record.get("config", {})
        metrics = record.get("metrics", {})
        key = (
            cfg.get("mesh"),
            cfg.get("queue"),
            cfg.get("threads"),
            cfg.get("bio_ms"),
        )
        sps = metrics.get("spikes_per_sec")
        if sps is not None:
            rows[key] = float(sps)
    return rows


def micro_rows(report):
    """case -> calendar_ns_per_op (lower is better)."""
    rows = {}
    for record in report.get("records", []):
        if record.get("name") != "queue_microbench":
            continue
        case = record.get("config", {}).get("case")
        ns = record.get("metrics", {}).get("calendar_ns_per_op")
        if case is not None and ns is not None:
            rows[case] = float(ns)
    return rows


def perf_rows(report):
    """(threads, bio_ms, metric) -> ns (lower is better) for the
    per-loop phase_breakdown costs."""
    rows = {}
    for record in report.get("records", []):
        if record.get("name") != "phase_breakdown":
            continue
        cfg = record.get("config", {})
        metrics = record.get("metrics", {})
        for metric in ("ns_per_neuron", "ns_per_synaptic_event"):
            value = metrics.get(metric)
            if value is not None:
                rows[(cfg.get("threads"), cfg.get("bio_ms"), metric)] = float(value)
    return rows


def memory_rows(report):
    """(mesh, arm) -> bytes_per_synapse (lower is better) for the E20
    loader-footprint rows (``memory`` records; the scaling rows carry
    their own bytes_per_synapse but are keyed to wall-clock cells, so
    only the dedicated footprint arms join the regression gate)."""
    rows = {}
    for record in report.get("records", []):
        if record.get("name") != "memory":
            continue
        cfg = record.get("config", {})
        bps = record.get("metrics", {}).get("bytes_per_synapse")
        if bps is not None:
            rows[(cfg.get("mesh"), cfg.get("arm"))] = float(bps)
    return rows


def resil_rows(report):
    """(failure_rate, policy) -> delivery_ratio_mean (higher is better)
    for the Monte Carlo fault-sweep buckets (curve and repair arms)."""
    rows = {}
    for record in report.get("records", []):
        if record.get("name") not in ("delivery_vs_failure_rate", "live_repair"):
            continue
        cfg = record.get("config", {})
        ratio = record.get("metrics", {}).get("delivery_ratio_mean")
        if ratio is not None:
            rows[(cfg.get("failure_rate"), cfg.get("policy"))] = float(ratio)
    return rows


def serving_rows(report):
    """(arm, clients) -> jobs_per_sec (higher is better) for the E21
    load-generator rows (``serving`` records)."""
    rows = {}
    for record in report.get("records", []):
        if record.get("name") != "serving":
            continue
        cfg = record.get("config", {})
        jps = record.get("metrics", {}).get("jobs_per_sec")
        if jps is not None:
            rows[(cfg.get("arm"), cfg.get("clients"))] = float(jps)
    return rows


# (label, extractor, True when higher is better)
KINDS = {
    "sweep": ("end_to_end_sweep spikes/sec", sweep_rows, True),
    "micro": ("queue_microbench calendar ns/op", micro_rows, False),
    "perf": ("phase_breakdown ns per unit of work", perf_rows, False),
    "resil": ("fault-sweep delivery ratio", resil_rows, True),
    "memory": ("loader footprint bytes/synapse", memory_rows, False),
    "serving": ("serving jobs/sec", serving_rows, True),
}


def check_parallel_speedup(name):
    """Single-report gate: 4-thread wall_ms must be strictly below
    1-thread wall_ms, and the 4-thread barrier-wait share at most 0.5,
    for every bio_ms the report measured both thread counts at.
    Returns the number of failed checks (exits 2 if the report has no
    comparable phase_breakdown pair). On a report measured on a
    one-core host the 4-thread run collapsed to serial execution, so
    there is no speedup to verify — the check warns and skips (0
    failures) instead of comparing two identical serial runs."""
    report = load(name)
    walls = {}
    barrier = {}
    host_cores = []
    for record in report.get("records", []):
        if record.get("name") != "phase_breakdown":
            continue
        cfg = record.get("config", {})
        metrics = record.get("metrics", {})
        key = (cfg.get("threads"), cfg.get("bio_ms"))
        if cfg.get("host_cores") is not None:
            host_cores.append(int(cfg["host_cores"]))
        if metrics.get("wall_ms") is not None:
            walls[key] = float(metrics["wall_ms"])
        if metrics.get("barrier_wait_share") is not None:
            barrier[key] = float(metrics["barrier_wait_share"])
    if host_cores and max(host_cores) <= 1:
        print(
            f"WARN: {name} was measured on a one-core host — its 4-thread "
            "rows collapsed to serial runs, so there is no parallel speedup "
            "to verify; skipping (rows record host_cores/effective_threads "
            "so the collapse is visible, not hidden)"
        )
        return 0
    pairs = sorted(
        bio for (threads, bio) in walls if threads == 1 and (4, bio) in walls
    )
    if not pairs:
        fail_usage(
            f"{name} has no phase_breakdown rows at both 1 and 4 threads — "
            "nothing to check parallel speedup on"
        )
    failures = 0
    print(f"parallel speedup check on {name}:")
    for bio in pairs:
        w1, w4 = walls[(1, bio)], walls[(4, bio)]
        share = barrier.get((4, bio), 0.0)
        ok_wall = w4 < w1
        ok_share = share <= 0.5
        failures += (not ok_wall) + (not ok_share)
        print(
            f"  bio_ms={bio}: wall 1T {w1:.1f} ms vs 4T {w4:.1f} ms "
            f"({w4 / w1 - 1.0:+.1%}) {'ok' if ok_wall else '<< 4T must beat 1T'}; "
            f"4T barrier share {share:.3f} "
            f"{'ok' if ok_share else '<< must be <= 0.5'}"
        )
    return failures


def check_memory(name):
    """Single-report gate on a scaling-study report (E20):

    * at least one ``scaling`` row demonstrates the full-machine build
      and run: >= 65536 chips, >= 10^6 machine cores, >= 10^8 synapses,
      with a finite ``bytes_per_synapse`` actually reported;
    * the paired ``memory`` loader arms show the lazy (compressed
      recipe) build resident-smaller than the eager build on the same
      mesh.

    Returns the number of failed checks (exits 2 if the report has no
    scaling rows)."""
    report = load(name)
    scaling = []
    mem = {}
    for record in report.get("records", []):
        if record.get("name") == "scaling":
            scaling.append(record)
        elif record.get("name") == "memory":
            cfg = record.get("config", {})
            mem[(cfg.get("mesh"), cfg.get("arm"))] = record.get("metrics", {})
    if not scaling:
        fail_usage(
            f"{name} has no scaling rows — not a scaling-study report "
            "(regenerate with `SPINN_FULL=1 cargo run --release -p "
            "spinn-bench --bin run_experiments -- E20`)"
        )
    failures = 0
    print(f"memory/scale check on {name}:")
    best = max(
        scaling,
        key=lambda r: (
            float(r.get("config", {}).get("chips", 0)),
            float(r.get("metrics", {}).get("synapses", 0)),
        ),
    )
    cfg, m = best.get("config", {}), best.get("metrics", {})
    chips = float(cfg.get("chips", 0))
    cores = float(cfg.get("machine_cores", 0))
    synapses = float(m.get("synapses", 0))
    bps = m.get("bytes_per_synapse")
    checks = [
        (chips >= 65536, f"chips {chips:.0f} (need >= 65536)"),
        (cores >= 1_000_000, f"machine cores {cores:.0f} (need >= 1e6)"),
        (synapses >= 100_000_000, f"synapses {synapses:.0f} (need >= 1e8)"),
        (
            bps is not None and float(bps) > 0.0,
            f"bytes/synapse {bps} (must be reported and positive)",
        ),
    ]
    for ok, desc in checks:
        failures += not ok
        print(f"  {desc} {'ok' if ok else '<< FAIL'}")
    lazy_eager = [
        (mesh, mem[(mesh, "lazy")], mem[(mesh, "eager")])
        for (mesh, arm) in mem
        if arm == "lazy" and (mesh, "eager") in mem
    ]
    if not lazy_eager:
        print("  no paired lazy/eager memory arms << FAIL", file=sys.stderr)
        failures += 1
    for mesh, lazy, eager in sorted(lazy_eager):
        lz = float(lazy.get("bytes_per_synapse", float("inf")))
        eg = float(eager.get("bytes_per_synapse", 0.0))
        ok = lz < eg
        failures += not ok
        print(
            f"  {mesh}: lazy {lz:.2f} B/synapse vs eager {eg:.2f} "
            f"{'ok' if ok else '<< lazy must be resident-smaller than eager'}"
        )
    return failures


def resilience_floor(rate):
    """Minimum acceptable mean delivery ratio at a given cable-failure
    rate. Linear in the failure rate with generous slack below the
    measured curve (full mode measures ~1.0, 0.997, 0.974, 0.881,
    0.694, 0.497 at rates 0, 0.05, 0.1, 0.2, 0.35, 0.5): emergency
    routing must keep absorbing sparse death, and heavy death must not
    collapse below what detours + monitor reissue recover."""
    if rate == 0.0:
        return 0.999
    return max(0.15, 0.92 - 1.3 * rate)


def check_resilience(name):
    """Single-report gate on a resilience-campaign report (E19):

    * every ``delivery_vs_failure_rate`` bucket meets the per-rate
      delivery floor (the fault-free bucket must score ~1.0);
    * the paired ``repair_recovery`` record shows live repair actually
      recovering delivery (``repair_link_gain`` positive) and table
      re-routing taking standing emergency/drop load off the fabric
      (``reroute_load_cut`` positive);
    * the campaign's replays were bit-exact across thread counts.

    The campaign is seeded and deterministic, so these are exact
    reproducible numbers, not statistical tests. Returns the number of
    failed checks (exits 2 if the report has no resilience rows)."""
    report = load(name)
    curve = []
    recovery = None
    campaign = None
    for record in report.get("records", []):
        if record.get("name") == "delivery_vs_failure_rate":
            cfg = record.get("config", {})
            m = record.get("metrics", {})
            if m.get("delivery_ratio_mean") is not None:
                curve.append(
                    (float(cfg.get("failure_rate", 0.0)), float(m["delivery_ratio_mean"]))
                )
        elif record.get("name") == "repair_recovery":
            recovery = record.get("metrics", {})
        elif record.get("name") == "campaign":
            campaign = record.get("metrics", {})
    if not curve:
        fail_usage(
            f"{name} has no delivery_vs_failure_rate rows — not a resilience "
            "report (regenerate with `cargo run --release -p spinn-bench "
            "--bin run_experiments -- E19`)"
        )
    failures = 0
    print(f"resilience check on {name}:")
    for rate, ratio in sorted(curve):
        floor = resilience_floor(rate)
        ok = ratio >= floor
        failures += not ok
        print(
            f"  rate {rate:.3f}: delivery {ratio:.3f} "
            f"(floor {floor:.3f}) {'ok' if ok else '<< below floor'}"
        )
    if recovery is None:
        print("  no repair_recovery record << required", file=sys.stderr)
        failures += 1
    else:
        gain = float(recovery.get("repair_link_gain", float("nan")))
        cut = float(recovery.get("reroute_load_cut", float("nan")))
        ok_gain = gain > 0.0
        ok_cut = cut > 0.0
        failures += (not ok_gain) + (not ok_cut)
        print(
            f"  repair_link gain {gain:+.3f} "
            f"{'ok' if ok_gain else '<< repair must recover delivery'}"
        )
        print(
            f"  reroute load cut {cut:+.1%} "
            f"{'ok' if ok_cut else '<< reroute must shed emergency/drop load'}"
        )
    if campaign is None:
        print("  no campaign record << required", file=sys.stderr)
        failures += 1
    else:
        exact = campaign.get("determinism_bit_exact")
        ok = exact is True
        failures += not ok
        print(
            f"  replays bit-exact: {exact} "
            f"{'ok' if ok else '<< thread-count replays must be bit-exact'}"
        )
    return failures


def check_serving(name):
    """Single-report gate on a serving report (E21):

    * ``serving`` rows cover at least 3 distinct client-concurrency
      levels on the steady arm, each with positive jobs/sec and
      finite p50 <= p99 latency actually reported;
    * every steady-arm row holds the warm-hit floor (> 0.8): after
      each model's one cold build, jobs must ride warm sessions;
    * the churn arm really exercised the eviction path (evictions and
      rehydrates both positive) and ``serving_determinism`` confirms
      the evicted runs' spike streams matched the steady arm
      bit-for-bit;
    * the ``serving_quota`` burst rejected at least one job and its
      accept/reject trace replayed identically (``deterministic``).

    The load generator is seeded and the server clock-free in its
    decisions, so these are exact reproducible verdicts. Returns the
    number of failed checks (exits 2 if the report has no serving
    rows)."""
    report = load(name)
    steady = {}
    churn = []
    determinism = None
    quota = None
    for record in report.get("records", []):
        cfg = record.get("config", {})
        m = record.get("metrics", {})
        if record.get("name") == "serving":
            if cfg.get("arm") == "steady":
                steady[cfg.get("clients")] = m
            elif cfg.get("arm") == "churn":
                churn.append(m)
        elif record.get("name") == "serving_determinism":
            determinism = m
        elif record.get("name") == "serving_quota":
            quota = m
    if not steady:
        fail_usage(
            f"{name} has no steady-arm serving rows — not a serving report "
            "(regenerate with `cargo run --release -p spinn-bench "
            "--bin run_experiments -- E21`)"
        )
    failures = 0
    print(f"serving check on {name}:")
    levels = sorted(k for k in steady if k is not None)
    ok_levels = len(levels) >= 3
    failures += not ok_levels
    print(
        f"  steady client levels: {levels} "
        f"{'ok' if ok_levels else '<< need >= 3 concurrency levels'}"
    )
    for clients in levels:
        m = steady[clients]
        jps = float(m.get("jobs_per_sec", 0.0))
        p50 = float(m.get("p50_latency_ms", float("nan")))
        p99 = float(m.get("p99_latency_ms", float("nan")))
        warm = float(m.get("warm_hit_ratio", 0.0))
        ok_thru = jps > 0.0 and p50 <= p99 and p50 > 0.0
        ok_warm = warm > 0.8
        failures += (not ok_thru) + (not ok_warm)
        print(
            f"  clients={clients}: {jps:.1f} jobs/sec, p50 {p50:.2f} ms, "
            f"p99 {p99:.2f} ms {'ok' if ok_thru else '<< need positive jobs/sec and p50 <= p99'}; "
            f"warm-hit {warm:.1%} {'ok' if ok_warm else '<< floor is 80%'}"
        )
    if not churn:
        print("  no churn-arm serving row << required", file=sys.stderr)
        failures += 1
    for m in churn:
        ev = float(m.get("evictions", 0.0))
        rh = float(m.get("rehydrates", 0.0))
        ok = ev > 0.0 and rh > 0.0
        failures += not ok
        print(
            f"  churn: {ev:.0f} evictions, {rh:.0f} rehydrates "
            f"{'ok' if ok else '<< the tight budget must force the eviction path'}"
        )
    if determinism is None:
        print("  no serving_determinism record << required", file=sys.stderr)
        failures += 1
    else:
        exact = determinism.get("eviction_bit_exact")
        ok = exact is True
        failures += not ok
        print(
            f"  eviction bit-exact: {exact} "
            f"{'ok' if ok else '<< evicted spike streams must match the steady arm'}"
        )
    if quota is None:
        print("  no serving_quota record << required", file=sys.stderr)
        failures += 1
    else:
        rejected = float(quota.get("rejected_total", 0.0))
        det = quota.get("deterministic")
        ok_rej = rejected > 0.0
        ok_det = det is True
        failures += (not ok_rej) + (not ok_det)
        print(
            f"  quota burst: {rejected:.0f} rejected "
            f"{'ok' if ok_rej else '<< the burst must trip a quota'}; "
            f"deterministic: {det} "
            f"{'ok' if ok_det else '<< replays must reject identically'}"
        )
    return failures


def compare_kind(kind, new_report, base_report, new_name, base_name, args):
    """Compares one row kind; returns (rows, failures) where rows are
    (key, base, new, delta, regressed) tuples. Exits 2 on missing rows
    unless --allow-missing-rows."""
    label, extract, higher_better = KINDS[kind]
    new_rows = extract(new_report)
    base_rows = extract(base_report)
    shared = sorted(set(new_rows) & set(base_rows), key=str)
    missing = sorted((set(new_rows) | set(base_rows)) - set(shared), key=str)
    if missing and not args.allow_missing_rows:
        for key in missing:
            where = new_name if key in new_rows else base_name
            print(
                f"error: {label} row {key} exists only in {where} — a vanished "
                "row must fail the gate, not be skipped (pass "
                "--allow-missing-rows to compare different sweep grids)",
                file=sys.stderr,
            )
        sys.exit(2)
    rows = []
    failures = 0
    for key in shared:
        base, new = base_rows[key], new_rows[key]
        if higher_better:
            delta = (new - base) / base if base > 0 else 0.0
            regressed = base > 0 and new < base * (1.0 - args.max_regress)
        else:
            delta = (base - new) / base if base > 0 else 0.0  # improvement > 0
            regressed = base > 0 and new > base * (1.0 + args.max_regress)
        failures += regressed
        rows.append((key, base, new, delta, regressed))
    return rows, failures, missing


def print_rows(label, rows):
    print(f"  {label}:")
    print(f"    {'row':<40} {'baseline':>12} {'new':>12} {'delta':>8}")
    for key, base, new, delta, regressed in rows:
        flag = "  << REGRESSION" if regressed else ""
        print(
            f"    {str(key):<40} {base:>12.1f} {new:>12.1f} {delta:>+7.1%}{flag}"
        )


def compare_pair(new_name, base_name, kinds, args):
    """Full pairwise comparison; returns (total failures, markdown rows)."""
    new_report = load(new_name)
    base_report = load(base_name)
    print(
        f"comparing {new_name} (commit {new_report.get('commit', '?')[:12]}) "
        f"against {base_name} (commit {base_report.get('commit', '?')[:12]}); "
        f"allowed regression {args.max_regress:.0%}"
    )
    total_failures = 0
    any_rows = False
    md = []
    for kind in kinds:
        rows, failures, missing = compare_kind(
            kind, new_report, base_report, new_name, base_name, args
        )
        if not rows:
            continue
        any_rows = True
        total_failures += failures
        print_rows(KINDS[kind][0], rows)
        if missing:
            print(f"    ({len(missing)} row(s) present in only one report; skipped)")
        for key, base, new, delta, regressed in rows:
            md.append(
                (base_name, new_name, kind, str(key), base, new, delta, regressed)
            )
    if not any_rows:
        fail_usage(
            f"{new_name} and {base_name} share no comparable rows "
            f"(kinds tried: {', '.join(kinds)})"
        )
    return total_failures, md


def write_summary(md_rows):
    """Appends the trajectory as a markdown table to $GITHUB_STEP_SUMMARY
    (if set) and always prints it to stdout."""
    lines = [
        "### Benchmark trajectory",
        "",
        "| baseline | new | kind | row | baseline value | new value | delta |",
        "|---|---|---|---|---:|---:|---:|",
    ]
    for base_name, new_name, kind, key, base, new, delta, regressed in md_rows:
        mark = " ⚠️" if regressed else ""
        lines.append(
            f"| {base_name} | {new_name} | {kind} | `{key}` "
            f"| {base:.1f} | {new:.1f} | {delta:+.1%}{mark} |"
        )
    text = "\n".join(lines) + "\n"
    print()
    print(text)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as f:
            f.write(text)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("reports", nargs="+", help="NEW BASELINE, or --chain A B C ...")
    ap.add_argument(
        "--chain",
        action="store_true",
        help="treat the reports as a chronological chain (oldest first) and "
        "compare each consecutive pair, emitting a markdown trajectory table",
    )
    ap.add_argument(
        "--max-regress",
        type=float,
        default=0.20,
        help="maximum allowed fractional regression (default 0.20)",
    )
    ap.add_argument(
        "--kind",
        choices=["sweep", "micro", "perf", "resil", "memory", "serving", "all"],
        default="all",
        help="row kinds to compare (default: all kinds present in both reports)",
    )
    ap.add_argument(
        "--parallel-speedup",
        action="store_true",
        help="check a single report's phase_breakdown rows: 4-thread wall_ms "
        "strictly below 1-thread, 4-thread barrier share at most 0.5",
    )
    ap.add_argument(
        "--resilience",
        action="store_true",
        help="check a single resilience-campaign report (E19): per-rate "
        "delivery floors, positive paired repair recovery, bit-exact replays",
    )
    ap.add_argument(
        "--memory",
        action="store_true",
        help="check a single scaling-study report (E20): full-machine scale "
        "floors (chips/cores/synapses), reported bytes/synapse, and the lazy "
        "loader arm resident-smaller than the eager one",
    )
    ap.add_argument(
        "--serving",
        action="store_true",
        help="check a single serving report (E21): >= 3 steady client "
        "levels with jobs/sec and p50/p99 reported, warm-hit ratio above "
        "0.8, a churn arm that evicted and rehydrated bit-exactly, and a "
        "deterministic quota-rejection replay",
    )
    ap.add_argument(
        "--allow-missing-rows",
        action="store_true",
        help="skip rows present in only one report instead of failing "
        "(for comparing quick-mode against full-mode sweep grids)",
    )
    args = ap.parse_args(argv)
    kinds = (
        ["sweep", "micro", "perf", "resil", "memory", "serving"]
        if args.kind == "all"
        else [args.kind]
    )

    single_checks = [
        flag
        for flag, on in [
            ("--parallel-speedup", args.parallel_speedup),
            ("--resilience", args.resilience),
            ("--memory", args.memory),
            ("--serving", args.serving),
        ]
        if on
    ]
    if len(single_checks) > 1:
        fail_usage(f"{' and '.join(single_checks)} are separate checks")
    if args.parallel_speedup:
        if args.chain or len(args.reports) != 1:
            fail_usage("--parallel-speedup takes exactly one report")
        failures = check_parallel_speedup(args.reports[0])
        if failures:
            print(f"FAIL: {failures} parallel-speedup check(s) failed", file=sys.stderr)
            sys.exit(1)
        print("OK: threads pay — 4-thread wall beats 1-thread within barrier bounds")
        return
    if args.resilience:
        if args.chain or len(args.reports) != 1:
            fail_usage("--resilience takes exactly one report")
        failures = check_resilience(args.reports[0])
        if failures:
            print(f"FAIL: {failures} resilience check(s) failed", file=sys.stderr)
            sys.exit(1)
        print(
            "OK: the campaign degrades gracefully, live repair recovers "
            "delivery, replays are bit-exact"
        )
        return
    if args.memory:
        if args.chain or len(args.reports) != 1:
            fail_usage("--memory takes exactly one report")
        failures = check_memory(args.reports[0])
        if failures:
            print(f"FAIL: {failures} memory/scale check(s) failed", file=sys.stderr)
            sys.exit(1)
        print(
            "OK: the full machine builds and runs in host RAM with the lazy "
            "arena resident-smaller than the eager build"
        )
        return
    if args.serving:
        if args.chain or len(args.reports) != 1:
            fail_usage("--serving takes exactly one report")
        failures = check_serving(args.reports[0])
        if failures:
            print(f"FAIL: {failures} serving check(s) failed", file=sys.stderr)
            sys.exit(1)
        print(
            "OK: the pool serves warm across concurrency levels, evicts "
            "bit-exactly, and rejects deterministically"
        )
        return

    failures = 0
    md_rows = []
    if args.chain:
        if len(args.reports) < 2:
            fail_usage("--chain needs at least two reports (oldest first)")
        for old, new in zip(args.reports, args.reports[1:]):
            f, md = compare_pair(new, old, kinds, args)
            failures += f
            md_rows.extend(md)
        write_summary(md_rows)
    else:
        if len(args.reports) != 2:
            fail_usage("pairwise mode takes exactly NEW and BASELINE")
        failures, md_rows = compare_pair(args.reports[0], args.reports[1], kinds, args)

    if failures:
        print(
            f"FAIL: {failures} row(s) regressed more than {args.max_regress:.0%}",
            file=sys.stderr,
        )
        sys.exit(1)
    print("OK: all compared rows within bounds")


if __name__ == "__main__":
    main()
