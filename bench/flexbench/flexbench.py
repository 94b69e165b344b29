#!/usr/bin/env python3
"""flexbench: build and run the flexsnoop end-to-end benchmark.

    python3 bench/flexbench/flexbench.py run --workload NAME [--seed S]
        [--seconds T] [--scale X] [--traced | --trace 0|1]
        [--record-golden]
    python3 bench/flexbench/flexbench.py run --all [--seed S] ...
    python3 bench/flexbench/flexbench.py noise [--repeats 5]
    python3 bench/flexbench/flexbench.py compare PARENT_DIR CHANGE_DIR
    python3 bench/flexbench/flexbench.py selftest

Run from the root of a checkout. The first call builds the C++ program
(bench/flexbench/CMakeLists.txt) into .bench_build/flexbench. `run`
prints every metric by name and unit and, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. README.md
documents the workloads, metrics and bounds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
GOLDEN = os.path.join(HERE, "golden.json")
BASELINE = os.path.join(HERE, "baseline.json")

WORKLOADS = ["splash", "commercial", "scale64", "observed"]
# Trace length relative to the full-size workloads (README.md): one
# pass over all four takes ~25 s at this scale on one core.
DEFAULT_SCALE = 0.25
DEFAULT_SECONDS = 20
# Modeled-machine results: deterministic for a given seed, so two
# builds must agree exactly; BENCHMARK.json's bound for them only
# covers the spread across seeds.
EXACT_METRICS = {"exec_cycles_vs_lazy", "energy_vs_lazy",
                 "read_lat_mean_cyc", "read_lat_p95_cyc"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def declared():
    """BENCHMARK.json at the checkout root, or None outside a checkout."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def default_seconds():
    spec = declared()
    return spec["run_seconds"] if spec else DEFAULT_SECONDS


def build(build_dir=os.path.join(BUILD_ROOT, "flexbench"), src=None):
    """Configure (once) and build the C++ program against @p src (default:
    this checkout's src/); returns the binary. Raises on failure."""
    # A failed configure leaves a cache but no build file: configure again.
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if src:
            cmd.append(f"-DFLEXSNOOP_SRC={src}")
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "flexbench")


# --------------------------------------------------------------------- #
# Golden RunResults

def golden_key(workload, seed, scale):
    return f"{workload} seed={seed} scale={float(scale)!r}"


def load_golden(path):
    if not os.path.exists(path):
        return {"format": "flexbench-golden-v1", "entries": {}}
    with open(path) as f:
        return json.load(f)


def golden_check(report, golden):
    """Compare every cell's RunResult with the golden entry.

    Returns (status, failures) where status is "match", "absent" or
    "mismatch" and failures maps cell id -> reason.
    """
    key = golden_key(report["workload"], report["seed"], report["scale"])
    entry = golden["entries"].get(key)
    failures = {c["id"]: c["error"] for c in report["cells"] if not c["ok"]}
    if entry is None:
        return "absent", failures
    mismatches = {}
    for cell in report["cells"]:
        if not cell["ok"]:
            continue
        want = entry.get(cell["id"])
        if want is None:
            mismatches[cell["id"]] = "cell has no golden entry"
            continue
        got = cell["result"]
        for field in list(got) + [f for f in want if f not in got]:
            if got.get(field) != want.get(field):
                mismatches[cell["id"]] = (
                    f"golden mismatch at {field}: {got.get(field)} "
                    f"(golden {want.get(field)})")
                break
    for cell_id in sorted(set(entry) - {c["id"] for c in report["cells"]}):
        mismatches[cell_id] = "golden cell not run"
    failures.update(mismatches)
    return ("mismatch" if mismatches else "match"), failures


def record_golden(report, path):
    golden = load_golden(path)
    key = golden_key(report["workload"], report["seed"], report["scale"])
    golden["entries"][key] = {c["id"]: c["result"]
                              for c in report["cells"]}
    golden["entries"] = dict(sorted(golden["entries"].items()))
    with open(path, "w") as f:
        json.dump(golden, f, indent=1)
        f.write("\n")


# --------------------------------------------------------------------- #
# One run

def run_binary(binary, workload, seed, seconds, scale, traced, env=None,
               stdout=None):
    """Run the C++ program for one workload in a fresh process; returns
    (returncode, report)."""
    out = os.path.join(os.path.dirname(binary), "runs",
                       f"{workload}-seed{seed}{'-traced' if traced else ''}")
    shutil.rmtree(out, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scale", str(scale), "--out", out]
    if traced:
        cmd.append("--traced")
    rc = subprocess.run(cmd, env=env, stdout=stdout).returncode
    report_path = os.path.join(out, "report.json")
    if rc != 0 or not os.path.exists(report_path):
        return rc or 1, None
    with open(report_path) as f:
        return 0, json.load(f)


def evaluate(report, record=False, show=True):
    """Golden check plus the program's own checks -> result object."""
    failed_checks = [c for c in report["checks"] if not c["ok"]]
    if record:
        if failed_checks or not all(c["ok"] for c in report["cells"]):
            raise SystemExit("refusing to record a golden from a failed run")
        record_golden(report, GOLDEN)
        log(f"recorded golden for {report['workload']} "
            f"seed={report['seed']} in {GOLDEN}")
    status, failures = golden_check(report, load_golden(GOLDEN))

    spec = declared()
    names = list(report["metrics"])
    if spec:
        names = [m["name"] for m in
                 spec["per_layer" if report["traced"] else "end_to_end"]]
        missing = [n for n in names if n not in report["metrics"]]
        if missing:
            raise SystemExit(f"flexbench did not report {missing}")

    cells = len(report["cells"])
    if show:
        print(f"  {'fail_frac':<22}{len(failures) / cells:>18.8g} ratio "
              f"({len(failures)}/{cells} cells)")
        print(f"golden: {status}"
              + (f" ({cells} cells)" if status == "match" else ""))
        for cell_id, reason in failures.items():
            print(f"FAILED cell {cell_id}: {reason}")
        print(f"checks: {len(report['checks']) - len(failed_checks)}/"
              f"{len(report['checks'])} ok")
        for c in failed_checks:
            print(f"FAILED check {c['name']}: {c['detail']}")
    return {
        "correct": not failures and not failed_checks,
        "attempted": cells,
        "failed": len(failures),
        "metrics": {n: report["metrics"][n] for n in names},
    }


def cmd_run(args):
    traced = args.traced or args.trace == 1
    seconds = args.seconds if args.seconds is not None else default_seconds()
    if not args.all and args.workload not in WORKLOADS:
        raise SystemExit(f"--workload must be one of {WORKLOADS} or --all")
    binary = build()
    results = {}
    for w in (WORKLOADS if args.all else [args.workload]):
        rc, report = run_binary(binary, w, args.seed, seconds, args.scale,
                                traced)
        if report is None:
            log(f"flexbench: program exited with status {rc} on {w}")
            return 1
        results[w] = evaluate(report, args.record_golden)
    print(json.dumps(results if args.all else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


# --------------------------------------------------------------------- #
# Noise and comparison

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def metric_specs():
    spec = declared()
    if not spec:
        raise SystemExit("BENCHMARK.json not found at the checkout root")
    return {m["name"]: m for m in spec["end_to_end"]}


def measure(binary, workload, seed, seconds, scale):
    """One untraced, checked run; exits on a failed or incorrect run."""
    _, report = run_binary(binary, workload, seed, seconds, scale, False,
                           stdout=sys.stderr)
    if report is None:
        raise SystemExit(f"{binary} failed on {workload} seed {seed}")
    result = evaluate(report, show=False)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result


def git_commit():
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "src"],
                               cwd=ROOT, capture_output=True, text=True)
        return head.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def cmd_noise(args):
    specs = metric_specs()
    seconds = args.seconds if args.seconds is not None else default_seconds()
    workloads = args.workloads or WORKLOADS
    binary = build()
    values = {w: {m: [] for m in specs} for w in workloads}
    seeds = [args.seed_base + r for r in range(args.repeats)]
    for r, seed in enumerate(seeds):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            log(f"noise: repeat {r + 1}/{args.repeats} {w} seed {seed}")
            result = measure(binary, w, seed, seconds, args.scale)
            for m in specs:
                values[w][m].append(result["metrics"][m]["value"])

    commit, dirty = git_commit()
    out = {"commit": commit, "src_dirty": dirty,
           "host_cores": os.cpu_count(), "repeats": args.repeats,
           "seeds": seeds, "seconds": seconds, "scale": args.scale,
           "workloads": {}}
    too_tight = []
    print(f"{'workload':<11} {'metric':<20} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'iqr/med':>8} {'bound':>6}")
    for w in workloads:
        rows = {}
        for m, spec in specs.items():
            q1, med, q3 = quartiles(values[w][m])
            spread = (q3 - q1) / med
            rows[m] = {"unit": spec["unit"], "median": med, "q1": q1,
                       "q3": q3, "iqr_frac": spread, "bound": spec["bound"],
                       "values": values[w][m]}
            flag = ""
            # setup_s's bound guards its median only (README.md).
            if spread > spec["bound"] and m != "setup_s":
                too_tight.append(f"{w}/{m}")
                flag = "  bound tighter than spread"
            print(f"{w:<11} {m:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {spec['bound']:>6}{flag}")
        out["workloads"][w] = rows
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    log(f"wrote {args.out}")
    if too_tight:
        print("FAIL: bounds tighter than the measured spread: "
              + ", ".join(too_tight))
        return 1
    return 0


def verdict(name, spec, parent, change):
    """Verdict for one metric on one workload (README.md, "compare")."""
    pairs = len(parent)
    if name in EXACT_METRICS:
        return "identical" if parent == change else "DIFFERS"
    lower = spec["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cmed = statistics.median(change)
    gain = (pmed - cmed) if lower else (cmed - pmed)
    all_better = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    if wins >= 0.9 * pairs and gain > pq3 - pq1:
        return f"gain ({wins}/{pairs} pairs, {gain / pmed:+.1%})"
    if (pq3 - pq1) / pmed > spec["bound"] and not all_better:
        return "unresolved (parent spread > bound)"
    if -gain / pmed > spec["bound"]:
        return f"REGRESSION ({-gain / pmed:+.1%} worse)"
    return "no change"


def cmd_compare(args):
    specs = metric_specs()
    seconds = args.seconds if args.seconds is not None else default_seconds()
    workloads = args.workloads or WORKLOADS
    # Both sides are measured by this checkout's program, built against
    # each side's src/.
    binaries = {}
    for side, root in (("parent", args.parent), ("change", args.change)):
        src = os.path.join(os.path.abspath(root), "src")
        binaries[side] = build(
            os.path.join(BUILD_ROOT, "flexbench-compare", side), src)
    data = {w: {side: {m: [] for m in specs} for side in binaries}
            for w in workloads}
    failed = {w: {side: 0 for side in binaries} for w in workloads}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                log(f"compare: pair {i + 1}/{args.pairs} {w} {side}")
                _, report = run_binary(binaries[side], w, seed, seconds,
                                       args.scale, False, stdout=sys.stderr)
                if report is None:
                    raise SystemExit(f"{side} program failed on {w}")
                result = evaluate(report, show=False)
                failed[w][side] += result["failed"]
                for m in specs:
                    data[w][side][m].append(result["metrics"][m]["value"])

    bad = False
    for w in workloads:
        print(f"\n{w}: {args.pairs} alternating pairs, failed cells "
              f"parent {failed[w]['parent']} / change {failed[w]['change']}")
        print(f"  {'metric':<20} {'parent median [q1, q3]':>36} "
              f"{'change median [q1, q3]':>36}  verdict")
        for m, spec in specs.items():
            p, c = data[w]["parent"][m], data[w]["change"][m]
            v = verdict(m, spec, p, c)
            if v.startswith("gain") and \
                    failed[w]["change"] > failed[w]["parent"]:
                v = "no gain (more failed cells than parent)"
            bad |= v.startswith(("REGRESSION", "DIFFERS"))
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {m:<20} {pq[1]:>12.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                  f"{'':>4} {cq[1]:>12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                  f"  {v}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"pairs": args.pairs, "data": data, "failed": failed},
                      f, indent=1)
    return 1 if bad else 0


# --------------------------------------------------------------------- #
# Self-test

def cmd_selftest(args):
    binary = build()
    _, report = run_binary(binary, "observed", 0, 0, 0.05, False,
                           stdout=sys.stderr)
    if report is None:
        raise SystemExit("selftest: smoke run failed")
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "golden.json")
        record_golden(report, path)
        status, failures = golden_check(report, load_golden(path))
        if status != "match" or failures:
            problems.append(f"fresh golden does not match: {failures}")

        # Flip one field in a copy of the golden: the check must catch it
        # and name the field.
        golden = load_golden(path)
        entry = golden["entries"][golden_key("observed", 0, 0.05)]
        cell = next(iter(entry))
        entry[cell]["p95ReadLatency"] = "-1"
        status, failures = golden_check(report, golden)
        if status != "mismatch" or "p95ReadLatency" not in \
                failures.get(cell, ""):
            problems.append(f"flipped field not caught: {failures}")

        status, _ = golden_check(dict(report, seed=99), golden)
        if status != "absent":
            problems.append("seed without a golden entry not 'absent'")

    env = dict(os.environ, FLEXSNOOP_HEAP_QUEUE="1")
    rc, _ = run_binary(binary, "observed", 0, 0, 0.05, False, env=env,
                       stdout=sys.stderr)
    if rc == 0:
        problems.append("flexbench ran with FLEXSNOOP_HEAP_QUEUE set")

    for p in problems:
        print(f"selftest FAILED: {p}")
    if not problems:
        print("selftest ok: golden match, flipped field caught, "
              "absent seed reported, env switch refused")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="measure one workload (or --all)")
    run.add_argument("--workload")
    run.add_argument("--all", action="store_true")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float)
    run.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    run.add_argument("--traced", action="store_true")
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run.add_argument("--record-golden", action="store_true")
    run.set_defaults(fn=cmd_run)

    noise = sub.add_parser("noise", help="repeat runs, report spreads")
    noise.add_argument("--repeats", type=int, default=5)
    noise.add_argument("--seed-base", type=int, default=0)
    noise.add_argument("--seconds", type=float)
    noise.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    noise.add_argument("--workloads", nargs="+", choices=WORKLOADS)
    noise.add_argument("--out", default=BASELINE)
    noise.set_defaults(fn=cmd_noise)

    cmp_ = sub.add_parser("compare", help="parent vs change, paired runs")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    cmp_.add_argument("--pairs", type=int, default=10)
    cmp_.add_argument("--seed-base", type=int, default=100)
    cmp_.add_argument("--seconds", type=float)
    cmp_.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    cmp_.add_argument("--workloads", nargs="+", choices=WORKLOADS)
    cmp_.add_argument("--out")
    cmp_.set_defaults(fn=cmd_compare)

    st = sub.add_parser("selftest", help="golden-check and guard smoke")
    st.set_defaults(fn=cmd_selftest)

    args = ap.parse_args()
    if args.cmd == "compare" and args.pairs < 10:
        ap.error("compare needs at least 10 pairs")
    try:
        return args.fn(args)
    except subprocess.CalledProcessError as e:
        log(f"flexbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
