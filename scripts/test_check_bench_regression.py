#!/usr/bin/env python3
"""Tests for check_bench_regression.py (run via ctest or `python3 -m
pytest scripts/` or directly).

The checker is the only gate between a bench refactor and silently losing
a measured lane, so it gets its own coverage: matching lanes pass, a
regressed lane warns (and fails under --strict), lost coverage warns, and
ratios are compared only at sizes both runs measured.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def report(section_rows):
    """Builds a bench_core-shaped report: {section: [{results: rows}]}."""
    out = {"bench": "bench_core", "git_rev": "test"}
    for section, rows in section_rows.items():
        out[section] = [{"git_rev": "test", "results": rows}]
    return out


def row(workload, impl, n, speedup=None, protocol="local-feedback", mode=None):
    r = {"workload": workload, "protocol": protocol, "impl": impl, "n": n}
    if speedup is not None:
        r["speedup_vs_scalar"] = speedup
    if mode is not None:
        r["mode"] = mode
    return r


class CheckBenchRegressionTest(unittest.TestCase):
    def run_checker(self, baseline, fresh, *extra_args):
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "baseline.json")
            fresh_path = os.path.join(tmp, "fresh.json")
            with open(base_path, "w", encoding="utf-8") as fh:
                json.dump(baseline, fh)
            with open(fresh_path, "w", encoding="utf-8") as fh:
                json.dump(fresh, fh)
            proc = subprocess.run(
                [sys.executable, SCRIPT, "--baseline", base_path, "--fresh",
                 fresh_path, *extra_args],
                capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def test_matching_lanes_pass(self):
        base = report({"batch": [row("converge", "batched", 1000, 3.0)],
                       "shard": [row("converge", "sharded-k8", 100000, 3.5)]})
        code, out = self.run_checker(base, base, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("ok:", out)

    def test_regressed_lane_warns_without_strict(self):
        base = report({"batch": [row("keepalive-tail", "batched", 10000, 12.0)]})
        fresh = report({"batch": [row("keepalive-tail", "batched", 10000, 1.1)]})
        code, out = self.run_checker(base, fresh)
        self.assertEqual(code, 0, out)  # warn-only by default
        self.assertIn("possible regression", out)

    def test_regressed_lane_fails_under_strict(self):
        base = report({"shard": [row("converge", "sharded-k8", 1000000, 4.0)]})
        fresh = report({"shard": [row("converge", "sharded-k8", 1000000, 0.5)]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("possible regression", out)
        self.assertIn("--strict", out)

    def test_lost_coverage_warns(self):
        base = report({"batch": [row("converge", "batched", 1000, 3.0),
                                 row("lossy-tail", "batched", 1000, 2.0)]})
        fresh = report({"batch": [row("converge", "batched", 1000, 3.0)]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("coverage lost", out)
        self.assertIn("lossy-tail", out)

    def test_disjoint_sizes_are_noted_not_compared(self):
        # Smoke n=256 vs committed 10k/100k: no size matches, so the ratio
        # is not compared; the lane is noted and still counts for coverage.
        base = report({"batch": [row("converge", "batched", 10000, 3.0),
                                 row("converge", "batched", 100000, 4.0)]})
        fresh = report({"batch": [row("converge", "batched", 256, 2.5)]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("share no n with the baseline", out)
        self.assertIn("ok:", out)

    def test_disjoint_sizes_do_not_flag_a_size_effect(self):
        # The smoke shard row at n=20000 runs far below the committed
        # n=100000 speedup because the batch is smaller, not because the
        # code regressed: comparing the two would warn on a size effect.
        # A lane lost from the same run still warns.
        base = report({"shard": [
            row("keepalive-tail", "sharded-k8-batched", 100000, 24.2,
                mode="statistical"),
            row("keepalive-tail", "sharded-k8-batched", 1000000, 30.0,
                mode="statistical"),
            row("converge", "sharded-k8", 100000, 3.0)]})
        fresh = report({"shard": [
            row("keepalive-tail", "sharded-k8-batched", 20000, 3.7,
                mode="statistical")]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertNotIn("possible regression", out)
        self.assertIn("share no n with the baseline", out)
        self.assertIn("coverage lost: shard/converge", out)

    def test_new_lane_is_noted_not_fatal(self):
        base = report({"batch": [row("converge", "batched", 1000, 3.0)]})
        fresh = report({"batch": [row("converge", "batched", 1000, 3.0)],
                        "shard": [row("converge", "sharded-k8", 256, 1.0)]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("new lane not in baseline yet", out)

    def test_per_size_comparison_catches_large_n_regression(self):
        # A healthy small-n row must not hide a large-n regression when the
        # sweeps overlap.
        base = report({"frontier": [row("tail", "frontier", 1000, 100.0),
                                    row("tail", "frontier", 100000, 400.0)]})
        fresh = report({"frontier": [row("tail", "frontier", 1000, 100.0),
                                     row("tail", "frontier", 100000, 30.0)]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("n=100000", out)

    def test_modes_are_distinct_lanes(self):
        # A scalar-order and a statistical row of the same (workload,
        # protocol, impl) must not collide: a healthy scalar-order row may
        # not mask a regressed statistical row.
        base = report({"batch": [
            row("converge", "batched", 10000, 3.0, mode="scalar-order"),
            row("converge", "batched", 10000, 6.0, mode="statistical")]})
        fresh = report({"batch": [
            row("converge", "batched", 10000, 3.0, mode="scalar-order"),
            row("converge", "batched", 10000, 1.0, mode="statistical")]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("statistical", out)
        self.assertIn("possible regression", out)
        # The healthy scalar-order lane itself is not flagged.
        self.assertNotIn("scalar-order fresh speedup", out)

    def test_shard_section_statistical_lanes_are_distinct(self):
        # bench_shard now emits sharded-kK-batched statistical rows next to
        # the scalar-order sharded-kK rows.  They key on (impl, mode), so a
        # regression in the 64-lane statistical row fires even while the
        # scalar-order row of the same shard count stays healthy.
        def batched_row(speedup):
            r = row("converge", "sharded-k2-batched", 100000, speedup,
                    mode="statistical")
            r["lanes"] = 64
            return r
        base = report({"shard": [
            row("converge", "sharded-k2", 100000, 1.8, mode="scalar-order"),
            batched_row(6.0)]})
        fresh = report({"shard": [
            row("converge", "sharded-k2", 100000, 1.8, mode="scalar-order"),
            batched_row(1.0)]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("sharded-k2-batched", out)
        self.assertIn("possible regression", out)
        # The healthy scalar-order lane itself is not flagged.
        self.assertNotIn("sharded-k2/scalar-order", out.split("regression", 1)[1].split("\n")[0])

    def test_phase_ns_field_is_tolerated(self):
        # BEEPMIS_PHASE_TIMERS builds append a phase_ns object to every
        # row.  The checker must ignore it: no keying change, no mistaking
        # the nanosecond totals for speedup ratios, and a timers-on fresh
        # run still matches a timers-off baseline (and vice versa).
        plain = row("converge", "batched", 10000, 3.0, mode="statistical")
        timed = dict(plain)
        timed["lanes"] = 64
        timed["phase_ns"] = {"batch/emit": 4587731, "batch/deliver": 1329197,
                             "batch/react": 1296073}
        code, out = self.run_checker(report({"batch": [plain]}),
                                     report({"batch": [timed]}), "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("ok:", out)
        code, out = self.run_checker(report({"batch": [timed]}),
                                     report({"batch": [plain]}), "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("ok:", out)

    def test_verify_ms_field_is_report_only(self):
        # bench_shard's statistical rows carry verify_ms, the plane
        # verifier's wall time on the row's planes.  It is recorded, never
        # gated: a fresh row with it compares clean against a baseline row
        # without it (and back), however large it gets, and it does not
        # mask a real speedup regression on the same row.
        def shard_row(speedup, **extra):
            r = row("converge", "sharded-k2-batched", 100000, speedup,
                    mode="statistical")
            r["lanes"] = 64
            r.update(extra)
            return r
        plain = report({"shard": [shard_row(6.0)]})
        timed = report({"shard": [shard_row(6.0, verify_ms=13.1)]})
        slow = report({"shard": [shard_row(6.0, verify_ms=1.0e9)]})
        for base, fresh in ((plain, timed), (timed, plain), (timed, slow)):
            code, out = self.run_checker(base, fresh, "--strict")
            self.assertEqual(code, 0, out)
            self.assertIn("ok:", out)
            self.assertNotIn("verify_ms", out)
        regressed = report({"shard": [shard_row(1.0, verify_ms=13.1)]})
        code, out = self.run_checker(plain, regressed, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("possible regression", out)

    def test_missing_mode_defaults_to_scalar_order(self):
        # Pre-statistical baselines have no "mode" field; their rows must
        # compare against the fresh scalar-order rows, not vanish as lost
        # coverage (and not collide with the new statistical lanes).
        base = report({"batch": [row("converge", "batched", 1000, 3.0)]})
        fresh = report({"batch": [
            row("converge", "batched", 1000, 3.0, mode="scalar-order"),
            row("converge", "batched", 1000, 6.0, mode="statistical")]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("new lane not in baseline yet", out)
        self.assertIn("statistical", out)

    def test_hardware_mismatch_skips_ratios_keeps_coverage(self):
        # Shard speedups depend on the core count: a baseline recorded on a
        # 16-core box must not flag "regressions" on a 4-core runner.  The
        # ratio comparison is skipped on mismatch, but lost coverage still
        # fails --strict.
        base = {"bench": "bench_core",
                "shard": [{"hardware_threads": 16,
                           "results": [row("converge", "sharded-k8", 100000, 4.0),
                                       row("tail", "sharded-k8", 100000, 3.0)]}]}
        fresh_ok = {"bench": "bench_core",
                    "shard": [{"hardware_threads": 4,
                               "results": [row("converge", "sharded-k8", 100000, 0.5),
                                           row("tail", "sharded-k8", 100000, 0.4)]}]}
        code, out = self.run_checker(base, fresh_ok, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("skipping speedup comparison", out)

        fresh_lost = {"bench": "bench_core",
                      "shard": [{"hardware_threads": 4,
                                 "results": [row("converge", "sharded-k8", 100000, 0.5)]}]}
        code, out = self.run_checker(base, fresh_lost, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("coverage lost", out)

    def test_matching_hardware_still_compares(self):
        base = {"bench": "bench_core",
                "shard": [{"hardware_threads": 4,
                           "results": [row("converge", "sharded-k8", 100000, 4.0)]}]}
        fresh = {"bench": "bench_core",
                 "shard": [{"hardware_threads": 4,
                            "results": [row("converge", "sharded-k8", 100000, 0.5)]}]}
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("possible regression", out)

    def test_faults_section_coverage_is_gated(self):
        # The recovery-SLA lanes (bench_scenarios) are part of the coverage
        # contract: dropping one fails --strict like any other section.
        base = report({"faults": [
            row("sla", "uniform-crash", 1000, protocol="self-healing"),
            row("sla", "target-mis", 1000, protocol="self-healing")]})
        fresh = report({"faults": [
            row("sla", "uniform-crash", 1000, protocol="self-healing")]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("coverage lost", out)
        self.assertIn("faults/sla/self-healing/target-mis", out)

    def test_optional_recovery_fields_are_tolerated(self):
        # Rows may carry fields the checker does not know (recovery
        # quantiles, disruption counts); they must neither break keying nor
        # be mistaken for speedup ratios.
        def sla_row(impl, **extra):
            r = row("sla", impl, 1000, protocol="self-healing")
            r.update(extra)
            return r
        base = report({"faults": [sla_row("target-mis")]})
        fresh = report({"faults": [sla_row(
            "target-mis", recovery_p50=13.5, recovery_p95=21.5,
            recovery_p99=22.7, disruptions=16, unrecovered=0)]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("ok:", out)
        # And symmetrically: a baseline *with* the fields against a fresh
        # run without them still matches the same lane.
        code, out = self.run_checker(fresh, base, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("ok:", out)

    def test_truncated_rows_are_excluded_from_ratio_comparison(self):
        # A budget-truncated fresh row aggregates fewer samples: an apparent
        # "regression" from a partial measurement must not fire, even under
        # --strict — but the lane still counts as covered.
        base = report({"batch": [row("converge", "batched", 10000, 8.0)]})
        degraded = row("converge", "batched", 10000, 1.1)
        degraded["truncated"] = True
        fresh = report({"batch": [degraded]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("ignoring truncated/quarantined", out)
        self.assertNotIn("possible regression", out)
        self.assertNotIn("coverage lost", out)

    def test_quarantined_rows_are_excluded_from_ratio_comparison(self):
        base = report({"batch": [row("converge", "batched", 10000, 8.0)]})
        degraded = row("converge", "batched", 10000, 1.1)
        degraded["quarantined"] = 3
        fresh = report({"batch": [degraded]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("ignoring truncated/quarantined", out)
        self.assertNotIn("possible regression", out)

    def test_clean_sweep_fields_do_not_mask_regressions(self):
        # truncated=false / quarantined=0 mark a *complete* sweep: the row
        # stays fully comparable and a real regression still fires.
        base = report({"batch": [row("converge", "batched", 10000, 8.0)]})
        clean = row("converge", "batched", 10000, 1.1)
        clean["truncated"] = False
        clean["quarantined"] = 0
        fresh = report({"batch": [clean]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("possible regression", out)

    def test_degraded_size_skipped_but_healthy_sizes_still_compared(self):
        # Only the truncated n drops out of the comparison; a regression at
        # another (complete) size of the same lane still fires.
        base = report({"batch": [row("converge", "batched", 1000, 8.0),
                                 row("converge", "batched", 10000, 8.0)]})
        degraded = row("converge", "batched", 1000, 0.5)
        degraded["truncated"] = True
        fresh = report({"batch": [degraded,
                                  row("converge", "batched", 10000, 0.5)]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("n=10000", out)
        self.assertNotIn("n=1000 ", out.replace("n=10000", ""))

    def test_graph_tier_section_coverage_is_gated(self):
        # The storage-tier lanes (bench_graph_tier) are part of the coverage
        # contract like every other section.
        base = report({"graph_tier": [
            row("converge", "scalar-mmap", 100000, 1.0),
            row("converge", "sharded-mmap-local", 100000, 1.1)]})
        fresh = report({"graph_tier": [
            row("converge", "scalar-mmap", 100000, 1.0)]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("coverage lost", out)
        self.assertIn("sharded-mmap-local", out)

    def test_paper_section_coverage_is_gated(self):
        # bench_paper's series rows carry the engine plan_sweep routed them
        # to as their impl: a series that disappears, or that a routing
        # change moves to another engine, is lost coverage.
        base = report({"paper": [
            row("theorem1", "planes-k1", 133120, protocol="global-sweep"),
            row("figure3", "scalar", 1000, protocol="local-feedback")]})
        fresh = report({"paper": [
            row("theorem1", "scalar", 133120, protocol="global-sweep"),
            row("figure3", "scalar", 1000, protocol="local-feedback")]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("coverage lost", out)
        self.assertIn("paper/theorem1/global-sweep/planes-k1", out)

    @staticmethod
    def phased_row(deliver, emit, speedup=2.0, n=10000):
        r = row("converge", "scalar-mmap", n, speedup)
        r["phase_ns"] = {"scalar/emit": emit, "scalar/deliver": deliver,
                         "scalar/react": 100}
        return r

    def test_phase_drift_fires_even_when_speedup_is_healthy(self):
        # deliver/emit moves 1.0 -> 8.0 (an 8x shift, beyond the default
        # 4x tolerance) while the speedup column stays identical: the drift
        # must be flagged on its own.
        base = report({"graph_tier": [self.phased_row(1000, 1000)]})
        fresh = report({"graph_tier": [self.phased_row(8000, 1000)]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("phase drift", out)
        self.assertNotIn("possible regression", out)

    def test_phase_drift_is_symmetric(self):
        # A collapse of the ratio (deliver suddenly near-free) is as
        # suspicious as a blow-up: the timer may have been disconnected.
        base = report({"graph_tier": [self.phased_row(8000, 1000)]})
        fresh = report({"graph_tier": [self.phased_row(1000, 1000)]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("phase drift", out)

    def test_phase_drift_within_tolerance_passes(self):
        base = report({"graph_tier": [self.phased_row(2000, 1000)]})
        fresh = report({"graph_tier": [self.phased_row(3000, 1000)]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("ok:", out)

    def test_phase_drift_tolerance_is_configurable(self):
        base = report({"graph_tier": [self.phased_row(2000, 1000)]})
        fresh = report({"graph_tier": [self.phased_row(3000, 1000)]})
        code, out = self.run_checker(base, fresh, "--strict",
                                     "--phase-tolerance", "1.2")
        self.assertEqual(code, 1, out)
        self.assertIn("phase drift", out)

    def test_phase_drift_skipped_when_either_side_lacks_timers(self):
        # A timers-off baseline (no phase_ns) against a timers-on fresh run
        # compares speedups only — no drift check, no crash.
        base = report({"graph_tier": [row("converge", "scalar-mmap", 10000, 2.0)]})
        fresh = report({"graph_tier": [self.phased_row(8000, 1000)]})
        code, out = self.run_checker(base, fresh, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("ok:", out)

    def test_min_hardware_threads_gate_passes(self):
        base = {"bench": "bench_core",
                "shard": [{"hardware_threads": 4,
                           "results": [row("converge", "sharded-k4", 1000, 2.0)]}]}
        code, out = self.run_checker(base, base, "--min-hardware-threads", "2")
        self.assertEqual(code, 0, out)
        self.assertIn("hardware_threads", out)

    def test_min_hardware_threads_gate_fails_hard_without_strict(self):
        # The gate is a runner assertion: it fails even in warn-only mode.
        base = {"bench": "bench_core",
                "shard": [{"hardware_threads": 1,
                           "results": [row("converge", "sharded-k4", 1000, 2.0)]}]}
        code, out = self.run_checker(base, base, "--min-hardware-threads", "2")
        self.assertEqual(code, 1, out)
        self.assertIn("below the required minimum", out)

    def test_min_hardware_threads_requires_a_stamp(self):
        # A report that never records hardware_threads cannot satisfy the
        # assertion — silence is failure, not a pass.
        base = report({"batch": [row("converge", "batched", 1000, 3.0)]})
        code, out = self.run_checker(base, base, "--min-hardware-threads", "2")
        self.assertEqual(code, 1, out)
        self.assertIn("records no hardware_threads", out)

    def test_unreadable_baseline_is_an_error(self):
        fresh = report({"batch": [row("converge", "batched", 1000, 3.0)]})
        with tempfile.TemporaryDirectory() as tmp:
            fresh_path = os.path.join(tmp, "fresh.json")
            with open(fresh_path, "w", encoding="utf-8") as fh:
                json.dump(fresh, fh)
            proc = subprocess.run(
                [sys.executable, SCRIPT, "--baseline",
                 os.path.join(tmp, "missing.json"), "--fresh", fresh_path],
                capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("cannot read baseline", proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
