"""Campaign-throughput benchmark for the cross-level SFI engine.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload regfile-xlevel --seed 0 \\
        --seconds 40 --trace 0

Workloads are the three grids of ``workloads.py``.  A run repeats the
workload's campaign grid in fresh processes (``rep.py``) for
``--seconds`` seconds -- a single client in a closed loop, one grid at a
time -- checks every repetition's per-fault records against the
reference committed under ``reference/``, and prints, as its last
line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``faults_per_s`` (median
over repetitions of faults sampled per second of campaign phase),
``setup_s`` (median time from process start to every front-end built)
and ``peak_rss_mb`` (median high-water RSS).  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
``tracing.py``, medians over the traced repetitions, plus the tracing
overhead.  ``attempted`` counts faults sampled, ``failed`` the faults
quarantined or differing from the reference (and resume or trace
differences); any failure makes ``correct`` false.

The lines before the JSON give the host fingerprint, the per-repetition
figures and, on the two cross-level workloads, the uarch-vs-rtl
accuracy next to the paper's.  Without ``src/repro`` beside it the
benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import harness
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Variables that would change what a campaign does: CI's sample
#: budget, the static-prune sanitizer (capture shape), chaos injection
#: (crashes) and the worker start method.
ISOLATED = ("REPRO_SFI_SAMPLES", "REPRO_STATIC_XCHECK", "REPRO_CHAOS",
            "REPRO_MP_START")

SETUP_PROBES = 10
MIN_REPS = 3
REP_TIMEOUT_S = 150

#: The paper's mean |uarch - rtl| unsafeness gap per structure, in pp.
PAPER_GAP_PP = {"regfile-xlevel": 0.7, "l1d-pinout": 3.0}

END_TO_END_UNITS = {"faults_per_s": "faults/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ISOLATED}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def repetition(name, fault_seed, index, traced=False, setup_only=False):
    """Run ``rep.py`` once; returns ``(setup_s, result or None)``."""
    store = WORK / f"rep{index}"
    shutil.rmtree(store, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "rep.py"), name, str(fault_seed),
           str(store)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    # A session of its own, so a kill also reaches its children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(store, ignore_errors=True)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"repetition of {name} failed "
                           f"(exit {proc.returncode})")
    return setup_s, (json.loads(rest.splitlines()[-1])
                     if not setup_only else None)


def failures(rep, reference):
    """Failed faults of one repetition against the reference."""
    failed = 0
    for cell in rep["cells"]:
        failed += harness.count_failures(reference.get(cell["key"], []),
                                         cell["records"],
                                         cell["incidents"])
    missing = set(reference) - {c["key"] for c in rep["cells"]}
    failed += sum(len(reference[key]) for key in missing)
    return (failed + rep.get("resume_rerun", 0)
            + rep.get("resume_changed", 0))


def loop_ms():
    """Median time of a fixed pure-Python loop.  On a shared host the
    speed drifts with other tenants' load by tens of percent within
    minutes, so every result carries the speed it was measured at."""
    def once():
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        return (time.perf_counter() - started) * 1000
    return statistics.median(once() for _ in range(9))


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        describe = git.stdout.strip() if git.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        describe = "none"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "none"
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "git": describe, "loop_ms": round(loop_ms(), 2)}


def accuracy_lines(name, rep):
    """Mean |uarch - rtl| unsafeness at the pinout, with the Wilson
    half-widths of both series at this run's sample count."""
    if name not in PAPER_GAP_PP:
        return []
    by_key = {(c["level"], c["workload"]): c for c in rep["cells"]
              if c["mode"] == "pinout"}
    gaps, margins = [], []
    for (level, workload), uarch in sorted(by_key.items()):
        rtl = by_key.get(("rtl", workload))
        if level != "uarch" or rtl is None:
            continue
        gaps.append(abs(uarch["unsafeness"] - rtl["unsafeness"]) * 100)
        margins.append(sum((c["ci"][1] - c["ci"][0]) * 50
                           for c in (uarch, rtl)))
    return [
        f"# accuracy: mean |uarch - rtl| unsafeness {statistics.mean(gaps):.1f}"
        f" pp +/- {statistics.mean(margins):.1f} pp (95% Wilson, "
        f"{workloads.BUDGETS[name]} faults/cell); paper: "
        f"{PAPER_GAP_PP[name]} pp",
        "# accuracy: rtl is the reference tier; the model is not "
        "validated against hardware",
    ]


def measure(name, fault_seed, seconds, trace):
    """All repetitions of one run: ``(untraced, traced, setup_s
    samples)``."""
    setups = [] if trace else [
        repetition(name, fault_seed, i, setup_only=True)[0]
        for i in range(SETUP_PROBES)]
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        tracing_now = trace and len(traced) < len(plain)
        rep_started = time.perf_counter()
        setup_s, rep = repetition(name, fault_seed,
                                  len(plain) + len(traced),
                                  traced=tracing_now)
        rep["wall_s"] = time.perf_counter() - rep_started
        (traced if tracing_now else plain).append(rep)
        if not tracing_now:
            setups.append(setup_s)
        done = len(plain) + len(traced)
        typical = statistics.median(r["wall_s"] for r in plain + traced)
        left = seconds - (time.perf_counter() - started)
        enough = (min(len(plain), len(traced)) if trace else done) \
            >= MIN_REPS
        if enough and left < typical:
            return plain, traced, setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    name = args.workload
    fault_seed = workloads.input_seed(args.seed)
    reference = json.loads(
        (HERE / "reference" / f"{name}.json").read_text())[str(fault_seed)]
    WORK.mkdir(exist_ok=True)
    plain, traced, setups = measure(name, fault_seed, args.seconds,
                                    bool(args.trace))

    reps = plain + traced
    attempted = sum(r["faults"] for r in reps)
    failed = sum(failures(r, reference) for r in reps)
    # Traced classes must equal untraced ones record for record.
    first = {c["key"]: c["records"] for c in plain[0]["cells"]}
    for rep in traced:
        failed += sum(harness.count_failures(first.get(c["key"], []),
                                             c["records"])
                      for c in rep["cells"])
    rates = [r["faults"] / r["phase_s"] for r in plain]

    print(f"# host: {json.dumps(fingerprint(), sort_keys=True)}")
    print(f"# workload {name}, --seed {args.seed} -> fault seed "
          f"{fault_seed}, {len(plain)} untraced + {len(traced)} traced "
          f"repetitions of {plain[0]['faults']} faults")
    for rep in reps:
        print(f"#   phase {rep['phase_s']:.3f} s, "
              f"{rep['faults'] / rep['phase_s']:.2f} faults/s, "
              f"rss {rep['rss_kb'] / 1024:.1f} MB"
              + (" (traced)" if "layers" in rep else ""))
    for line in accuracy_lines(name, plain[0]):
        print(line)
    print(f"# fail_frac {harness.fail_frac(failed, attempted):.4f} "
          f"({failed} of {attempted} faults)")

    if args.trace:
        layer_names = list(traced[0]["layers"])
        metrics = {key: {"value": statistics.median(
            r["layers"][key] for r in traced), "unit": unit(key)}
            for key in layer_names}
        traced_rate = statistics.median(
            r["faults"] / r["phase_s"] for r in traced)
        metrics["campaign.phase_s"] = {"value": statistics.median(
            r["phase_s"] for r in traced), "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": (statistics.median(rates) / traced_rate - 1) * 100,
            "unit": "%"}
        metrics["fail_frac"] = {
            "value": harness.fail_frac(failed, attempted),
            "unit": "ratio"}
        zero = sorted(k for k in layer_names if not metrics[k]["value"])
        print(f"# zero on {name}: layer bypassed: {', '.join(zero)}")
        print("# not measured: the worker pool (injection.executor, "
              "injection.supervisor); every workload runs at jobs=1, as a "
              "2-worker pool on a 2-CPU shared host was too noisy to bound")
    else:
        metrics = {
            "faults_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in plain)
            / 1024,
        }
        metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]}
                   for key, value in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit(key):
    """Unit of a per-layer metric, from its name."""
    if key.endswith("cycles_per_s"):
        return "cycles/s"
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_s") or key == "seek.s":
        return "s"
    if key.endswith(("ratio", "utilization")):
        return "ratio"
    if key == "fault.tail_pct":
        return "percentile"
    if key == "store.bytes":
        return "bytes"
    if key.endswith("cycles"):
        return "cycles"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
