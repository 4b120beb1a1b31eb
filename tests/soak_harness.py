#!/usr/bin/env python3
"""Soak harness for the mot3d_experiments CLI.

Drives the release binary the way a user (or CI) does and checks the
externally visible contract: exit codes, shape-check lines, golden
baselines, and — the robustness PR's point — that a hung simulation is
converted into a structured error instead of wedging the job.  Every
subprocess runs under a hard wall timeout so a simulator deadlock fails
this harness loudly rather than hanging the pipeline.

Usage:
    python3 tests/soak_harness.py [--binary PATH] [--full] [--bench] [--obs]

  --binary   path to mot3d_experiments (default: ./mot3d_experiments,
             i.e. run from the build directory)
  --full     also re-verify every golden baseline (slower; the smoke
             subset is sized for per-commit CI)
  --bench    also exercise the `bench` perf-guardrail contract: JSON
             report shape and every baseline-comparison exit code
             (0 ok / 1 regression / 2 usage / 3 bad baseline), using
             self-generated and doctored baselines so the checks are
             machine-independent
  --obs      also exercise the observability contract: run a traced
             scenario, parse the Chrome-trace and interval-metrics
             documents, and check track names, required keys, and
             per-track timestamp monotonicity
  --serve    also exercise the sweep-service contract: cold/warm batch
             determinism over a pipe, an interactive serve session with
             request/response round trips (the watchdog converting a
             wedged job into a structured error), cache entries with
             a corrupt payload length, a FIFO and an oversized sparse
             file recomputed, and the unwritable-cache-dir error path
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile
import threading

TIMEOUT = 300  # seconds per subprocess: generous, but deadlocks must die


class TestResult:
    def __init__(self, name, success, details=""):
        self.name = name
        self.success = success
        self.details = details


def run_cmd(binary, args, input_text=None):
    cmd = [binary] + args
    print(f"  command: {' '.join(cmd)}")
    return subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT,
                          input=input_text)


def run_test(binary, name, args, expect_exit=0, expect_patterns=(),
             forbid_patterns=(), input_text=None):
    """Run one CLI invocation and grade exit code + output regexes.

    `expect_exit` is an exact code, or "nonzero" for any failure exit.
    """
    print(f"Running: {name}...")
    try:
        result = run_cmd(binary, args, input_text)
    except subprocess.TimeoutExpired:
        return TestResult(name, False,
                          f"timeout after {TIMEOUT}s (possible deadlock)")
    except OSError as e:
        return TestResult(name, False, f"failed to launch: {e}")

    output = result.stdout + result.stderr
    bad_exit = (result.returncode == 0 if expect_exit == "nonzero"
                else result.returncode != expect_exit)
    if bad_exit:
        return TestResult(
            name, False,
            f"exit code {result.returncode}, expected {expect_exit}\n"
            f"stderr: {result.stderr.strip()[:500]}")
    for pattern in expect_patterns:
        if not re.search(pattern, output):
            return TestResult(name, False, f"missing /{pattern}/ in output")
    for pattern in forbid_patterns:
        if re.search(pattern, output):
            return TestResult(name, False, f"forbidden /{pattern}/ in output")
    return TestResult(name, True, f"exit {result.returncode}")


def smoke_tests(binary):
    return [
        run_test(
            binary, "scenario registry lists the fault scenario",
            ["list"],
            expect_patterns=[r"fault_resilience"]),
        run_test(
            binary, "fault resilience at golden scale",
            ["run", "fault_resilience", "--golden"],
            expect_patterns=[
                r"shape check: MoT \(Full\) absorbs every hard fault: PASS",
                r"shape check: packet mesh fails on hard faults: PASS",
                r"shape check: fault-triggered bank gating occurred on the "
                r"MoT: PASS",
            ],
            forbid_patterns=[r"error: run"]),
        # A micro wall deadline must abort the run as a structured one-line
        # error with a non-zero exit — never a hang, never a wedge.
        run_test(
            binary, "watchdog --timeout converts a long run into an error",
            ["grid", "--apps=fft", "--scale=0.01", "--timeout=0.000001"],
            expect_exit=1,
            expect_patterns=[
                r"error: run fft/\S+/\S+ failed: "
                r"watchdog: wall-clock deadline",
            ]),
        run_test(
            binary, "bad --timeout is rejected",
            ["grid", "--apps=fft", "--timeout=-1"],
            expect_exit="nonzero",
            expect_patterns=[r"error:"]),
        # One cheap analytic scenario keeps the golden path honest without
        # re-running the whole baseline set on every commit.
        run_test(
            binary, "golden baseline spot check",
            ["check-golden", "fig5_wire_lengths"],
            expect_patterns=[r"ok: fig5_wire_lengths matches"]),
        run_test(
            binary, "unknown scenario exits non-zero",
            ["run", "no_such_scenario"],
            expect_exit="nonzero",
            expect_patterns=[r"error:"]),
        run_test(
            binary, "describe shows the dram_backend axis",
            ["describe", "stacked_dram"],
            expect_patterns=[r"axis dram_backend \(3\):.*constant.*stacked"
                             r".*stacked_remap"]),
    ] + stacked_dram_tests(binary)


# Stacked cells must carry the full dram3d_* block; constant-backend cells
# must carry none of it (the field set of legacy runs is golden-pinned).
REQUIRED_DRAM3D_KEYS = (
    "dram3d_vaults", "dram3d_alive_vaults", "dram3d_row_hits",
    "dram3d_row_misses", "dram3d_refreshes", "dram3d_remaps",
    "dram3d_vault_faults", "dram3d_remap_enabled", "dram3d_peak_vault_c",
    "dram3d_peak_vault")


def check_dram3d_shape(name, path):
    """Grade the stacked_dram --json report: conditional dram3d_* fields."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return TestResult(name, False, f"unreadable report: {e}")
    runs = doc.get("metrics", {}).get("runs")
    if not isinstance(runs, list) or not runs:
        return TestResult(name, False, "missing or empty metrics.runs")
    stacked = 0
    for run in runs:
        backend = run.get("dram_backend")
        if backend is None:
            leaked = [k for k in run if k.startswith("dram3d_")]
            if leaked:
                return TestResult(
                    name, False,
                    f"constant-backend run leaked {leaked} (field-set drift)")
            continue
        stacked += 1
        for key in REQUIRED_DRAM3D_KEYS:
            if key not in run:
                return TestResult(name, False,
                                  f"{backend} run missing '{key}'")
        if run["dram3d_row_hits"] + run["dram3d_row_misses"] <= 0:
            return TestResult(name, False,
                              f"{backend} run tracked no row activity")
        if run["dram3d_refreshes"] <= 0:
            return TestResult(name, False, f"{backend} run never refreshed")
    if stacked == 0:
        return TestResult(name, False, "no stacked cells in the report")
    return TestResult(name, True, f"{stacked} stacked cells ok")


def stacked_dram_tests(binary):
    """Stacked-DRAM scenario contract: shape checks + dram3d_* JSON block."""
    results = []
    with tempfile.TemporaryDirectory(prefix="mot3d_dram3d_soak.") as tmp:
        report = os.path.join(tmp, "stacked.json")
        results.append(run_test(
            binary, "stacked DRAM at golden scale",
            ["run", "stacked_dram", "--golden", f"--json={report}"],
            expect_patterns=[
                r"shape check: stacked runs exploit open-row locality: PASS",
                r"shape check: refresh interference occurred in every "
                r"stacked run: PASS",
                r"shape check: vault remap never raises the peak vault "
                r"temperature: PASS",
            ],
            forbid_patterns=[r"error: run"]))
        if results[-1].success:
            results.append(check_dram3d_shape(
                "dram3d_* JSON report shape", report))
    return results


def full_tests(binary):
    # Re-verify every committed baseline byte-for-byte.
    return [
        run_test(
            binary, "all golden baselines match",
            ["check-golden"],
            expect_patterns=[r"ok: fault_resilience matches"],
            forbid_patterns=[r"error: golden mismatch",
                             r"error: missing golden baseline"]),
    ]


REQUIRED_REPORT_KEYS = ("bench", "scheduler", "scale", "seed", "cells",
                        "total_wall_seconds", "total_simulated_cycles",
                        "cycles_per_second", "peak_rss_mb")
REQUIRED_CELL_KEYS = ("app", "cores", "banks", "state", "cycles",
                      "instructions", "core_ticks", "output_visits",
                      "wall_seconds", "cycles_per_second")

# A deliberately tiny grid: the soak harness checks the *contract* of
# `bench` (report shape, exit codes), not its throughput numbers.
BENCH_GRID = ["bench", "--apps=all_to_all", "--states=Full,Full64x128",
              "--scale=0.005"]


def check_report_shape(name, path):
    """Grade the --json report: parseable, required keys, full grid."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return TestResult(name, False, f"unreadable report: {e}")
    for key in REQUIRED_REPORT_KEYS:
        if key not in doc:
            return TestResult(name, False, f"report missing key '{key}'")
    cells = doc["cells"]
    if not isinstance(cells, list) or len(cells) != 2:
        return TestResult(name, False,
                          f"expected 2 cells for {BENCH_GRID}, got {cells!r}")
    for cell in cells:
        for key in REQUIRED_CELL_KEYS:
            if key not in cell:
                return TestResult(name, False, f"cell missing key '{key}'")
        if cell["cycles"] <= 0:
            return TestResult(name, False, f"non-positive cycles in {cell!r}")
    return TestResult(name, True, "report shape ok")


def bench_tests(binary):
    """`bench` contract checks, all against doctored local baselines."""
    results = []
    with tempfile.TemporaryDirectory(prefix="mot3d_bench_soak.") as tmp:
        baseline = os.path.join(tmp, "baseline.json")

        # The --json report is the baseline document.
        results.append(run_test(
            binary, "bench emits a report (the baseline)",
            BENCH_GRID + [f"--json={baseline}"],
            expect_patterns=[r"report written to"]))
        if results[-1].success:
            results.append(check_report_shape("bench JSON report shape",
                                              baseline))

        # Exit 0: a fresh run against its own baseline is within tolerance
        # (modeled metrics are deterministic; throughput compares to itself).
        results.append(run_test(
            binary, "bench baseline comparison passes (exit 0)",
            BENCH_GRID + [f"--baseline={baseline}"],
            expect_patterns=[r"baseline OK"]))

        # Exit 1: a doctored baseline claiming 1e12 cycles/s makes every
        # real machine look like a throughput regression.
        fast = os.path.join(tmp, "impossibly_fast.json")
        try:
            with open(baseline, encoding="utf-8") as f:
                doc = json.load(f)
            for cell in doc["cells"]:
                cell["cycles_per_second"] = 1.0e12
            with open(fast, "w", encoding="utf-8") as f:
                json.dump(doc, f)
        except (OSError, ValueError, KeyError) as e:
            results.append(TestResult("doctor throughput baseline", False,
                                      str(e)))
        else:
            results.append(run_test(
                binary, "throughput regression exits 1",
                BENCH_GRID + [f"--baseline={fast}"],
                expect_exit=1,
                expect_patterns=[r"REGRESSION .*throughput"]))

        # Exit 1: doctored modeled cycles = simulator behaviour drift.
        drift = os.path.join(tmp, "drifted.json")
        try:
            with open(baseline, encoding="utf-8") as f:
                doc = json.load(f)
            doc["cells"][0]["cycles"] += 1
            with open(drift, "w", encoding="utf-8") as f:
                json.dump(doc, f)
        except (OSError, ValueError, KeyError, IndexError) as e:
            results.append(TestResult("doctor modeled baseline", False, str(e)))
        else:
            results.append(run_test(
                binary, "modeled drift exits 1",
                BENCH_GRID + [f"--baseline={drift}"],
                expect_exit=1,
                expect_patterns=[r"REGRESSION .*modeled drift"]))

        # Exit 1: a doctored work counter = the scheduler ticks a different
        # number of cores, even where throughput would hide it.
        work = os.path.join(tmp, "work_drift.json")
        try:
            with open(baseline, encoding="utf-8") as f:
                doc = json.load(f)
            doc["cells"][0]["core_ticks"] -= 1
            with open(work, "w", encoding="utf-8") as f:
                json.dump(doc, f)
        except (OSError, ValueError, KeyError, IndexError) as e:
            results.append(TestResult("doctor work-counter baseline", False,
                                      str(e)))
        else:
            results.append(run_test(
                binary, "work-counter drift exits 1",
                BENCH_GRID + [f"--baseline={work}"],
                expect_exit=1,
                expect_patterns=[r"REGRESSION .*work drift"]))

        # Exit 3: missing and malformed baselines.
        results.append(run_test(
            binary, "missing baseline exits 3",
            BENCH_GRID + [f"--baseline={os.path.join(tmp, 'nope.json')}"],
            expect_exit=3,
            expect_patterns=[r"baseline error"]))
        broken = os.path.join(tmp, "broken.json")
        with open(broken, "w", encoding="utf-8") as f:
            f.write('{"bench": truncated')
        results.append(run_test(
            binary, "malformed baseline exits 3",
            BENCH_GRID + [f"--baseline={broken}"],
            expect_exit=3,
            expect_patterns=[r"baseline error"]))

        # Exit 3: a baseline recorded with different knobs is unusable.
        results.append(run_test(
            binary, "knob-mismatched baseline exits 3",
            BENCH_GRID + [f"--baseline={baseline}", "--scheduler=dense"],
            expect_exit=3,
            expect_patterns=[r"baseline error: baseline was recorded with"]))

        # Exit 2: usage errors.
        results.append(run_test(
            binary, "unknown flag exits 2",
            ["bench", "--no-such-flag"],
            expect_exit=2,
            expect_patterns=[r"error: unknown option"]))
        # One baseline cell may vouch for one run only: Full and PC4-MB8
        # are both all_to_all@16.
        results.append(run_test(
            binary, "duplicate cell key exits 2",
            ["bench", "--apps=all_to_all", "--states=Full,PC4-MB8"],
            expect_exit=2,
            expect_patterns=[r"share the key 'all_to_all@16'"]))
        # Packet-fabric cells are keyed app@cores@fabric: drift in the
        # bustree cell must be reported against that cell, not the MoT one.
        noc_grid = ["bench", "--apps=all_to_all", "--scale=0.005",
                    "--fabrics=mot,bustree"]
        noc_base = os.path.join(tmp, "noc_baseline.json")
        results.append(run_test(
            binary, "bench records a MoT + bustree baseline",
            noc_grid + [f"--json={noc_base}"],
            expect_patterns=[r"report written to"]))
        noc_drift = os.path.join(tmp, "noc_drifted.json")
        try:
            with open(noc_base, encoding="utf-8") as f:
                doc = json.load(f)
            for cell in doc["cells"]:
                if cell.get("fabric") == "bustree":
                    cell["cycles"] += 1
            with open(noc_drift, "w", encoding="utf-8") as f:
                json.dump(doc, f)
        except (OSError, ValueError, KeyError) as e:
            results.append(TestResult("doctor bustree baseline", False, str(e)))
        else:
            results.append(run_test(
                binary, "bustree drift is reported by its fabric key",
                noc_grid + [f"--baseline={noc_drift}"],
                expect_exit=1,
                expect_patterns=[r"REGRESSION all_to_all@16@bustree: modeled"],
                forbid_patterns=[r"REGRESSION all_to_all@16:"]))

        # The switch allocator's work counter (router-output visits) must
        # match exactly, and a baseline cell must record it.
        for label, doctor, rc, pattern in (
                ("output_visits drift exits 1",
                 lambda cell: cell.__setitem__("output_visits",
                                               cell["output_visits"] - 1),
                 1, r"REGRESSION all_to_all@16@bustree: work drift "
                    r".*output_visits"),
                ("baseline without output_visits exits 3",
                 lambda cell: cell.pop("output_visits"),
                 3, r"baseline error: malformed cell")):
            doctored = os.path.join(tmp, "noc_visits.json")
            try:
                with open(noc_base, encoding="utf-8") as f:
                    doc = json.load(f)
                for cell in doc["cells"]:
                    if cell.get("fabric") == "bustree":
                        doctor(cell)
                with open(doctored, "w", encoding="utf-8") as f:
                    json.dump(doc, f)
            except (OSError, ValueError, KeyError) as e:
                results.append(TestResult(f"doctor for: {label}", False,
                                          str(e)))
                continue
            results.append(run_test(
                binary, label, noc_grid + [f"--baseline={doctored}"],
                expect_exit=rc, expect_patterns=[pattern]))

        results.append(run_test(
            binary, "unknown fabric exits 2",
            BENCH_GRID + ["--fabrics=mot,ring"],
            expect_exit=2,
            expect_patterns=[r"unknown fabric 'ring'"]))
        # The packet-switched builders wire only the paper's 16x32 shape:
        # a scale-out packet cell fails like any other failed run.
        results.append(run_test(
            binary, "packet fabric at 64 cores exits 1",
            ["bench", "--fabrics=mesh3d", "--states=Full64x128",
             "--apps=all_to_all", "--scale=0.005"],
            expect_exit=1,
            expect_patterns=[r"16-core/32-bank"]))
    return results


REQUIRED_TRACK_NAMES = ("governor", "fabric", "faults")
REQUIRED_METRIC_COUNTERS = ("cluster.instructions", "l2.hits", "l2.misses",
                            "fabric.requests_delivered", "energy.l2_pj")


def check_trace_document(name, path):
    """Grade a Chrome-trace file: shape, track names, monotone timestamps."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return TestResult(name, False, f"unreadable trace: {e}")
    if doc.get("displayTimeUnit") != "ns":
        return TestResult(name, False, "missing displayTimeUnit")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return TestResult(name, False, "empty traceEvents array")

    # Collect the track (thread) names declared by metadata events.
    tracks = set()
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            tracks.add(ev["args"]["name"])
    for want in REQUIRED_TRACK_NAMES:
        if want not in tracks:
            return TestResult(name, False, f"missing track '{want}'")
    if not any(t.startswith("core ") for t in tracks):
        return TestResult(name, False, "no per-core tracks")
    if not any(t.startswith("l2 bank ") for t in tracks):
        return TestResult(name, False, "no per-bank tracks")

    # Determinism contract: events are recorded at the moment they end, so
    # per-track end timestamps are monotone nondecreasing in file order.
    last_end = {}
    payload = 0
    for ev in events:
        if ev.get("ph") not in ("X", "i"):
            continue
        payload += 1
        if ev["ts"] < 0 or ev.get("dur", 0) < 0:
            return TestResult(name, False, f"negative time in {ev!r}")
        key = (ev["pid"], ev["tid"])
        end = ev["ts"] + ev.get("dur", 0)
        if end < last_end.get(key, 0):
            return TestResult(
                name, False,
                f"timestamps went backwards on track {key}: {ev!r}")
        last_end[key] = end
    if payload == 0:
        return TestResult(name, False, "no payload events, only metadata")
    return TestResult(name, True, f"{payload} events on {len(tracks)} tracks")


def check_metrics_document(name, path):
    """Grade the interval-metrics file: runs, counters, epoch cycles."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return TestResult(name, False, f"unreadable metrics: {e}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        return TestResult(name, False, "missing or empty 'runs'")
    for run in runs:
        for key in ("run", "epoch_cycles", "series"):
            if key not in run:
                return TestResult(name, False, f"run missing key '{key}'")
        cycles = run["series"].get("cycles")
        counters = run["series"].get("counters")
        if not cycles or not counters:
            return TestResult(name, False,
                              f"empty series in run '{run['run']}'")
        if any(b <= a for a, b in zip(cycles, cycles[1:])):
            return TestResult(name, False,
                              f"non-increasing cycles in '{run['run']}'")
        for want in REQUIRED_METRIC_COUNTERS:
            if want not in counters:
                return TestResult(name, False, f"missing counter '{want}'")
        for cname, series in counters.items():
            if len(series) != len(cycles):
                return TestResult(
                    name, False,
                    f"counter '{cname}' has {len(series)} samples for "
                    f"{len(cycles)} epochs")
    return TestResult(name, True, f"{len(runs)} runs ok")


def obs_tests(binary):
    """Observability contract: trace + metrics files of a real traced run."""
    results = []
    with tempfile.TemporaryDirectory(prefix="mot3d_obs_soak.") as tmp:
        trace = os.path.join(tmp, "out.trace.json")
        metrics = os.path.join(tmp, "out.metrics.json")
        results.append(run_test(
            binary, "trace subcommand writes both documents",
            ["trace", "coherence_sharing", "--golden",
             f"--trace={trace}", f"--metrics={metrics}"],
            expect_patterns=[r"\[obs\] trace written to ",
                             r"\[obs\] metrics written to "]))
        if not results[-1].success:
            return results
        results.append(check_trace_document("Chrome-trace document shape",
                                            trace))
        results.append(check_metrics_document("interval-metrics document shape",
                                              metrics))
        # Unwritable destination: one structured line, non-zero exit.
        results.append(run_test(
            binary, "unwritable trace path fails loudly",
            ["trace", "coherence_sharing", "--golden",
             "--trace=/nonexistent/dir/out.trace.json",
             f"--metrics={metrics}"],
            expect_exit=1,
            expect_patterns=[r"error: cannot write trace file "]))
    return results



def serve_session(binary, cache_dir):
    """One interactive serve session: ready line, request/response round
    trips, a wedged job converted to a structured error by the watchdog,
    counter cross-check, clean shutdown — all under a hard kill timer so a
    wedged server fails the harness instead of hanging it."""
    name = "serve session round-trips requests and shuts down cleanly"
    print(f"Running: {name}...")
    proc = subprocess.Popen(
        [binary, "serve", f"--cache-dir={cache_dir}"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, bufsize=1)
    killer = threading.Timer(TIMEOUT, proc.kill)
    killer.start()

    def readline():
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("server closed stdout early")
        return json.loads(line)

    def send(doc):
        proc.stdin.write(json.dumps(doc) + "\n")
        proc.stdin.flush()

    try:
        ready = readline()
        if not ready.get("ready"):
            return TestResult(name, False, f"no ready line: {ready!r}")

        send({"id": 1, "cmd": "ping"})
        if not readline().get("pong"):
            return TestResult(name, False, "ping was not answered with pong")

        # Cold request computes; the identical warm request must hit and
        # return a bit-identical result document.
        request = {"id": 2, "apps": ["fft"], "scale": 0.01, "seed": 7}
        send(request)
        cold = readline()
        cold_done = readline()
        if cold.get("cache_hit") is not False or "result" not in cold:
            return TestResult(name, False, f"bad cold response: {cold!r}")
        if cold_done.get("cache_misses") != 1:
            return TestResult(name, False, f"bad cold summary: {cold_done!r}")
        send(request)
        warm = readline()
        warm_done = readline()
        if warm.get("cache_hit") is not True:
            return TestResult(name, False, f"warm request missed: {warm!r}")
        if warm["result"] != cold["result"]:
            return TestResult(name, False,
                              "warm result differs from cold result")
        if warm_done.get("cache_misses") != 0:
            return TestResult(name, False, f"bad warm summary: {warm_done!r}")

        # A wedged job (micro watchdog budget) must come back as a
        # structured error — and the server must keep serving afterwards.
        send({"id": 3, "apps": ["fft"], "scale": 0.01, "seed": 8,
              "timeout_seconds": 1e-6})
        wedged = readline()
        wedged_done = readline()
        if "watchdog" not in wedged.get("error", ""):
            return TestResult(name, False, f"no watchdog error: {wedged!r}")
        if wedged_done.get("errors") != 1:
            return TestResult(name, False,
                              f"bad wedged summary: {wedged_done!r}")

        # service.* probes must agree with the provenance seen above:
        # 2 misses (cold + wedged), 1 hit (warm), 1 job error.
        send({"id": 4, "cmd": "stats"})
        stats = readline().get("stats", {})
        expected = {"service.misses": 2, "service.hits": 1,
                    "service.computed": 2, "service.job_errors": 1,
                    "service.queue_depth": 0}
        for key, want in expected.items():
            if stats.get(key) != want:
                return TestResult(
                    name, False,
                    f"{key}={stats.get(key)!r}, want {want} ({stats!r})")

        send({"id": 5, "cmd": "shutdown"})
        if not readline().get("bye"):
            return TestResult(name, False, "shutdown was not acknowledged")
        rc = proc.wait(timeout=TIMEOUT)
        if rc != 0:
            return TestResult(name, False, f"server exited {rc}")
        return TestResult(name, True, "ready/ping/run/warm/wedge/stats/bye ok")
    except (RuntimeError, ValueError, OSError,
            subprocess.TimeoutExpired) as e:
        return TestResult(name, False, f"{e} (stderr: "
                          f"{proc.stderr.read()[:300] if proc.stderr else ''})")
    finally:
        killer.cancel()
        proc.kill()


def oversized_length_batch(binary, cache, requests):
    """An entry whose header claims 2^64 - 1 payload bytes (what "-1"
    parses to) is corrupt: the next batch counts it, recomputes the same
    result and exits 0 instead of dying on the allocation."""
    name = "batch: an entry claiming 2^64 - 1 payload bytes is recomputed"
    print(f"Running: {name}...")
    args = ["batch", f"--cache-dir={cache}"]
    try:
        warm = run_cmd(binary, args, requests)
        entries = sorted(glob.glob(os.path.join(cache, "*.entry")))
        if warm.returncode != 0 or not entries:
            return TestResult(name, False, f"warm batch exit {warm.returncode}"
                              f" with {len(entries)} entries")
        with open(entries[0], "rb") as f:
            text = f.read()
        text = re.sub(rb"(?m)^payload_bytes \d+$",
                      b"payload_bytes 18446744073709551615", text, count=1)
        with open(entries[0], "wb") as f:
            f.write(text)
        again = run_cmd(binary, args, requests)
    except (subprocess.TimeoutExpired, OSError) as e:
        return TestResult(name, False, str(e))
    if again.returncode != 0:
        return TestResult(name, False,
                          f"exit code {again.returncode}, expected 0\n"
                          f"stderr: {again.stderr.strip()[:500]}")
    summary = json.loads(again.stdout.splitlines()[-1])
    if summary.get("corrupt_entries") != 1 or summary.get("errors") != 0:
        return TestResult(name, False, f"bad summary: {summary!r}")

    def results(out):
        docs = [json.loads(line) for line in out.splitlines()]
        return [(d["id"], d["result"]) for d in docs if "result" in d]

    if results(again.stdout) != results(warm.stdout):
        return TestResult(name, False, "recomputed results differ from warm")
    return TestResult(name, True, "corrupt_entries 1, errors 0, same results")


def bad_file_batch(binary, cache, requests):
    """Entries that are no valid file to read: a FIFO, which a blocking
    open would wait on for a writer forever, and a sparse file one byte
    past the 1 MiB bound.  The next batch must finish within the
    subprocess timeout, count both as corrupt, recompute the same
    results and exit 0."""
    name = "batch: a FIFO entry and an oversized sparse entry are recomputed"
    print(f"Running: {name}...")
    args = ["batch", f"--cache-dir={cache}"]
    try:
        warm = run_cmd(binary, args, requests)
        entries = sorted(glob.glob(os.path.join(cache, "*.entry")))
        if warm.returncode != 0 or len(entries) < 2:
            return TestResult(name, False, f"warm batch exit {warm.returncode}"
                              f" with {len(entries)} entries")
        os.remove(entries[0])
        os.mkfifo(entries[0])
        os.truncate(entries[1], 2**20 + 1)
        again = run_cmd(binary, args, requests)
    except (subprocess.TimeoutExpired, OSError) as e:
        return TestResult(name, False, str(e))
    if again.returncode != 0:
        return TestResult(name, False,
                          f"exit code {again.returncode}, expected 0\n"
                          f"stderr: {again.stderr.strip()[:500]}")
    summary = json.loads(again.stdout.splitlines()[-1])
    if summary.get("corrupt_entries") != 2 or summary.get("errors") != 0:
        return TestResult(name, False, f"bad summary: {summary!r}")

    def results(out):
        docs = [json.loads(line) for line in out.splitlines()]
        return [(d["id"], d["result"]) for d in docs if "result" in d]

    if results(again.stdout) != results(warm.stdout):
        return TestResult(name, False, "recomputed results differ from warm")
    return TestResult(name, True, "corrupt_entries 2, errors 0, same results")


def serve_tests(binary):
    """Sweep-service contract: batch cold/warm determinism over a pipe, a
    corrupt payload length, a FIFO and an oversized entry recomputed, an
    interactive serve session, and the unwritable-cache-dir error path."""
    results = []
    requests = ('{"id":1,"apps":["fft"],"scale":0.01,"seed":7}\n'
                '{"id":2,"apps":["radix"],"scale":0.01,"seed":7}\n')
    with tempfile.TemporaryDirectory(prefix="mot3d_serve_soak.") as tmp:
        cache = os.path.join(tmp, "cache")
        cold = run_test(
            binary, "batch over a pipe: cold run computes everything",
            ["batch", f"--cache-dir={cache}"],
            input_text=requests,
            expect_patterns=[r'"cache_misses": 2, "computed": 2, "errors": 0'],
            forbid_patterns=[r'"cache_hit": true'])
        results.append(cold)
        warm = run_test(
            binary, "batch over a pipe: warm run recomputes nothing",
            ["batch", f"--cache-dir={cache}"],
            input_text=requests,
            expect_patterns=[r'"cache_misses": 0, "computed": 0, "errors": 0'],
            forbid_patterns=[r'"cache_hit": false'])
        results.append(warm)
        results.append(oversized_length_batch(binary, cache, requests))
        results.append(bad_file_batch(binary, cache, requests))
        # A fresh cache dir: the session's cold/warm expectations must not
        # be satisfied by entries the batch tests above already stored.
        results.append(serve_session(binary, os.path.join(tmp, "serve_cache")))
    results.append(run_test(
        binary, "unwritable cache dir is one clean error",
        ["batch", "--cache-dir=/dev/null/sub"],
        input_text="",
        expect_exit="nonzero",
        expect_patterns=[
            r"error: cache directory '/dev/null/sub' is not writable"]))
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", default="./mot3d_experiments")
    parser.add_argument("--full", action="store_true",
                        help="also re-verify every golden baseline")
    parser.add_argument("--bench", action="store_true",
                        help="also exercise the bench guardrail contract")
    parser.add_argument("--obs", action="store_true",
                        help="also exercise the observability contract")
    parser.add_argument("--serve", action="store_true",
                        help="also exercise the sweep-service serve/batch "
                             "contract")
    opts = parser.parse_args()

    results = smoke_tests(opts.binary)
    if opts.full:
        results += full_tests(opts.binary)
    if opts.bench:
        results += bench_tests(opts.binary)
    if opts.obs:
        results += obs_tests(opts.binary)
    if opts.serve:
        results += serve_tests(opts.binary)

    print("\n==== soak harness summary ====")
    failures = 0
    for r in results:
        status = "PASS" if r.success else "FAIL"
        print(f"  [{status}] {r.name}: {r.details}")
        failures += 0 if r.success else 1
    print(f"{len(results) - failures}/{len(results)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
