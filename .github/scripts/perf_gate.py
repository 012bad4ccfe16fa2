#!/usr/bin/env python3
"""Perf-regression gate for the batched sampling engine.

Compares a fresh ``perf_json`` probe against the committed
``BENCH_sampling.json`` baseline and fails when the batched-vs-scalar
sampling speedup (and, when the probe ran a wide backend, the
SIMD-vs-scalar kernel speedup) drops below the committed floor minus a
noise tolerance.  Ratios rather than absolute times are compared so the
gate is robust to runner hardware differences; the tolerance absorbs
runner noise on top of that.

Usage: perf_gate.py <probe.json> <baseline.json> [tolerance]
"""

import json
import os
import sys


def main() -> int:
    probe_path, baseline_path = sys.argv[1], sys.argv[2]
    tolerance = float(sys.argv[3]) if len(sys.argv) > 3 else 0.20

    with open(probe_path) as f:
        probe = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    checks = []
    notes = []
    failed_baseline = False

    # The committed ratios embed the baseline's kernel backend (an AVX2
    # host's batched_speedup is far above a scalar-only host's), so floors
    # only gate when the probe ran the same backend as the baseline.
    # On a runner with a different ISA the gate reports informationally
    # and passes — failing there would flag hardware, not a regression.
    probe_simd = probe.get("simd", {})
    base_simd = baseline.get("simd", {})
    probe_backend = probe_simd.get("backend")
    base_backend = base_simd.get("backend")
    if probe_backend == base_backend:
        base_speedup = baseline["batched_speedup"]
        checks.append(
            (
                "batched_speedup (batched vs polar-scalar)",
                probe["batched_speedup"],
                base_speedup,
                base_speedup * (1.0 - tolerance),
            )
        )
        if probe_backend != "scalar" and "wide_vs_scalar_speedup" in base_simd:
            base_wide = base_simd["wide_vs_scalar_speedup"]
            checks.append(
                (
                    f"wide_vs_scalar_speedup ({probe_backend} kernels)",
                    probe_simd["wide_vs_scalar_speedup"],
                    base_wide,
                    base_wide * (1.0 - tolerance),
                )
            )
        # Cross-chip memoisation floor: a flow whose memo an adjacent
        # target warmed versus a fresh flow at the same target,
        # step1+step2.
        probe_cc = probe.get("cross_chip", {})
        base_cc = baseline.get("cross_chip", {})
        if "warm_step_speedup" in probe_cc and "warm_step_speedup" in base_cc:
            base_step = base_cc["warm_step_speedup"]
            checks.append(
                (
                    "cross_chip warm_step_speedup (warm vs cold step1+step2)",
                    probe_cc["warm_step_speedup"],
                    base_step,
                    base_step * (1.0 - tolerance),
                )
            )
    else:
        notes.append(
            f"probe backend `{probe_backend}` differs from committed baseline "
            f"backend `{base_backend}` — ratios not comparable, floors skipped "
            f"(probe batched_speedup: {probe['batched_speedup']:.3f}x)"
        )

    # Disarmed-observability ceiling: a span+counter site with tracing and
    # metrics off must stay in the low tens of nanoseconds (two relaxed
    # atomic loads).  An absolute bound rather than a ratio — the cost of
    # an uncontended atomic load is essentially hardware-independent, and
    # a ratio against the committed baseline would let a slow creep land
    # one tolerance-width at a time.  100 ns is ~30x the expected cost, so
    # tripping it means a lock, an env read, or an allocation leaked onto
    # the disarmed fast path.
    probe_obs = probe.get("obs", {})
    disarmed_ns = probe_obs.get("disarmed_span_ns")
    if disarmed_ns is not None:
        ok = disarmed_ns <= 100.0
        failed_baseline |= not ok
        notes.append(
            f"disarmed span+counter site: {disarmed_ns:.1f} ns "
            f"(ceiling 100 ns) — {'✅ pass' if ok else '❌ FAIL: the disarmed fast path regressed'}"
        )
    else:
        notes.append(
            "probe has no obs.disarmed_span_ns — disarmed-overhead ceiling skipped"
        )

    # Search-pruning checks (default flow vs the reference mode).  B&B
    # node counts at one worker are a deterministic function of the
    # workload — no hardware, no noise — so the probe must reproduce the
    # committed counts *exactly* (0% tolerance); any drift means the
    # search, its pruning rules or the memo changed and the baseline must
    # be regenerated deliberately.  The committed baseline must also show
    # the pruning rules alive (a nonzero pruned count and a
    # node-reduction ratio above 1).
    probe_sp = probe.get("search_pruning", {})
    base_sp = baseline.get("search_pruning", {})
    if probe_sp and base_sp:
        for field in ("search_nodes", "search_nodes_unpruned"):
            got, committed = probe_sp.get(field), base_sp.get(field)
            ok = got == committed
            failed_baseline |= not ok
            notes.append(
                f"search_pruning.{field}: probe {got} vs committed {committed} "
                f"(exact match required) — "
                f"{'✅ pass' if ok else '❌ FAIL: deterministic node count drifted'}"
            )
    elif probe_sp:
        notes.append(
            "baseline has no search_pruning section — node-count pin skipped "
            f"(probe node_reduction: {probe_sp.get('node_reduction', 0):.3f}x)"
        )
    if base_sp:
        pruned_total = base_sp.get("pruned_bound", 0) + base_sp.get(
            "pruned_symmetry", 0
        )
        if pruned_total <= 0:
            notes.append(
                "baseline search_pruning pruned counters are all 0 — the "
                "committed BENCH must show live pruning rules"
            )
            failed_baseline = True
        if base_sp.get("node_reduction", 0.0) <= 1.0:
            notes.append(
                f"baseline search_pruning.node_reduction is "
                f"{base_sp.get('node_reduction')} — the committed BENCH must "
                "show the pruned search visiting fewer nodes (> 1.0)"
            )
            failed_baseline = True

    # The committed baseline must keep recording live cross-chip memo
    # activity: a regenerated BENCH_sampling.json with a dead memo (zero
    # hits / zero keys) means the dedup path stopped firing and must not
    # land silently.  Hardware-independent, so checked regardless of the
    # probe's backend.
    base_cc = baseline.get("cross_chip")
    if base_cc is not None:
        for field in ("cross_chip_hits", "distinct_keys"):
            if base_cc.get(field, 0) <= 0:
                notes.append(
                    f"baseline cross_chip.{field} is {base_cc.get(field)} — "
                    "the committed BENCH must show a live memo (> 0)"
                )
                failed_baseline = True
        if base_cc.get("hit_rate", 0.0) <= 0.0:
            notes.append(
                "baseline cross_chip.hit_rate is 0 — the committed BENCH "
                "must show a nonzero cross-chip hit rate"
            )
            failed_baseline = True

    lines = [
        "## Sampling perf gate",
        "",
        f"probe backend: `{probe_backend or 'n/a'}`"
        f" (available: {', '.join(probe_simd.get('available', []))})",
        "",
    ]
    for note in notes:
        lines.append(f"> {note}")
        lines.append("")
    if checks:
        lines.append("| metric | probe | committed | floor | delta | status |")
        lines.append("|---|---|---|---|---|---|")
    failed = failed_baseline
    for name, got, committed, floor in checks:
        delta = (got / committed - 1.0) * 100.0
        ok = got >= floor
        failed |= not ok
        lines.append(
            f"| {name} | {got:.3f}x | {committed:.3f}x | {floor:.3f}x "
            f"| {delta:+.1f}% | {'✅ pass' if ok else '❌ FAIL'} |"
        )
    summary = "\n".join(lines) + "\n"
    print(summary)

    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a") as f:
            f.write(summary)

    if failed:
        print(
            f"perf gate FAILED: speedup fell more than {tolerance:.0%} below "
            "the committed floor; if the regression is intentional, re-run "
            "perf_json and commit the refreshed BENCH_sampling.json",
            file=sys.stderr,
        )
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
