#!/usr/bin/env python3
"""iocov end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trace-large --seed 1 --seconds 10 --trace 0

builds the library and the harness from the sources in the checkout
(Release, under .bench_build/), generates the workload's inputs from the
seed (cached under .bench_cache/, keyed by seed and generator digest),
runs the workload, checks its outputs, and prints one JSON object as the
last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a separate traced run.

Other modes:

    --steady RUNS [--sets K]   run RUNS seeds (K times) and print each
                               metric's median, quartiles and spread
                               against its bound in BENCHMARK.json
    --selftest                 build and run the benchmark's own tests

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE = os.path.join(ROOT, ".bench_cache")
WORK = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD, "iocov_perfbench")
WORKLOADS = ["trace-large", "trace-text", "fleet-dir", "serve-live"]
# Bump when the input composition changes in a way the source digest
# cannot see (it covers src/ and the generator sources already).
GEN_VERSION = 1
# Input caches kept per workload (oldest are removed).
KEEP_INPUTS = 4
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def tree_digest(paths, extra=""):
    """sha256 over the names and contents of every file under `paths`."""
    h = hashlib.sha256(extra.encode())
    for top in paths:
        files = []
        if os.path.isfile(top):
            files = [top]
        else:
            for d, dirs, names in os.walk(top):
                dirs[:] = sorted(x for x in dirs if not x.startswith("."))
                files += [os.path.join(d, n) for n in names]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def ensure_built(target="iocov_perfbench"):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail(f"no iocov sources next to {HERE}; run from a full checkout")
    digest = tree_digest([os.path.join(ROOT, "CMakeLists.txt"),
                          os.path.join(ROOT, "src"),
                          os.path.join(HERE, "CMakeLists.txt"),
                          os.path.join(HERE, "src"),
                          os.path.join(HERE, "tests")])
    stamp = os.path.join(BUILD, f"stamp-{target}")
    out = os.path.join(BUILD, target)
    if os.path.isfile(out) and os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read() == digest:
                return out
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, nproc()))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target", target]):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    with open(stamp, "w") as f:
        f.write(digest)
    return out


def binary_info():
    r = subprocess.run([BINARY, "info"], capture_output=True, text=True)
    info = dict(line.split(" ", 1) for line in r.stdout.splitlines() if " " in line)
    if r.returncode != 0 or info.get("build_type") != "release":
        fail(f"the harness is not a Release build ({info.get('build_type')}); "
             "refusing to measure it")
    return info


def gen_digest():
    return tree_digest([os.path.join(ROOT, "src"),
                        os.path.join(HERE, "src", "gen.cpp"),
                        os.path.join(HERE, "src", "bench.hpp")],
                       extra=f"gen-v{GEN_VERSION}")[:16]


def sha_manifest(d):
    out = {}
    for sub, _, names in os.walk(d):
        for n in names:
            if n == "checksums.json":
                continue
            p = os.path.join(sub, n)
            h = hashlib.sha256()
            with open(p, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    h.update(block)
            out[os.path.relpath(p, d)] = h.hexdigest()
    return out


def cache_valid(d):
    """A cache entry is reused only if every file still has the checksum
    recorded when it was made; anything else is regenerated."""
    try:
        with open(os.path.join(d, "checksums.json")) as f:
            want = json.load(f)
    except (OSError, ValueError):
        return False
    return bool(want) and sha_manifest(d) == want


def make_cached(d, argv, what):
    if cache_valid(d):
        return d
    if os.path.isdir(d):
        print(f"# stale or damaged cache {os.path.relpath(d, ROOT)}: regenerating")
        shutil.rmtree(d)
    tmp = f"{d}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.monotonic()
    r = subprocess.run(argv + ["--out", tmp], stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail(f"generating {what} failed")
    with open(os.path.join(tmp, "checksums.json"), "w") as f:
        json.dump(sha_manifest(tmp), f, indent=0, sort_keys=True)
    os.replace(tmp, d)
    print(f"# generated {what} in {time.monotonic() - t0:.1f} s (not measured)")
    return d


def prune_inputs(workload, gd, keep):
    """Drops inputs of other generator versions (never reusable) and all
    but the KEEP_INPUTS most recently used of this one."""
    entries = [os.path.join(CACHE, e) for e in os.listdir(CACHE)
               if e.startswith(workload + "-s")]
    current = [e for e in entries if e.endswith("-" + gd)]
    current.sort(key=os.path.getmtime, reverse=True)
    for old in entries:
        if old != keep and (old not in current[:KEEP_INPUTS]):
            shutil.rmtree(old, ignore_errors=True)


def inputs_for(workload, seed, seconds):
    gd = gen_digest()
    os.makedirs(CACHE, exist_ok=True)
    threads = str(min(4, nproc()))
    for e in os.listdir(CACHE):
        if e.startswith("pool-") and e != f"pool-{gd}":
            shutil.rmtree(os.path.join(CACHE, e), ignore_errors=True)
    pool = make_cached(os.path.join(CACHE, f"pool-{gd}"),
                       [BINARY, "pool", "--threads", threads], "the simulator pool")
    # Only serve-live sizes its inputs by run length.
    span = f"-t{seconds}" if workload == "serve-live" else ""
    d = os.path.join(CACHE, f"{workload}-s{seed}{span}-{gd}")
    make_cached(d, [BINARY, "gen", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--pool", pool],
                f"{workload} inputs for seed {seed}")
    os.utime(d)
    prune_inputs(workload, gd, d)
    return d


def manifest(d):
    with open(os.path.join(d, "manifest.txt")) as f:
        return dict(line.rstrip("\n").split(" ", 1) for line in f if " " in line)


def expected_digest(workload, seed, seconds):
    """The report digest pinned for the default seed, if any."""
    path = os.path.join(HERE, "expected_digests.txt")
    with open(path) as f:
        for line in f:
            parts = line.split()
            if (not line.startswith("#") and len(parts) == 4 and parts[0] == workload and parts[1] == str(seed)
                    and parts[2] == str(seconds)):
                return parts[3]
    return None


def run_once(workload, seed, seconds, trace):
    ensure_built()
    info = binary_info()
    inputs = inputs_for(workload, seed, seconds)
    man = manifest(inputs)
    threads = min(4, nproc())
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argv = [BINARY, "run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--threads", str(threads), "--inputs", inputs, "--work", work]
    try:
        r = subprocess.run(argv, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{workload} run failed (exit {r.returncode})", 1)
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])
    want = {m["name"] for m in load_benchmark()["per_layer" if trace else "end_to_end"]}
    if set(res["metrics"]) != want:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"the harness's metrics differ from BENCHMARK.json: "
             f"{sorted(set(res['metrics']) ^ want)}", 1)
    spans = os.path.join(work, f"spans-{workload}.tsv")
    if os.path.isfile(spans):
        shutil.move(spans, os.path.join(WORK, f"spans-{workload}-s{seed}.tsv"))
    shutil.rmtree(work, ignore_errors=True)

    correct = bool(res["correct"])
    pinned = expected_digest(workload, seed, seconds)
    if pinned is not None and pinned != man.get("report_digest"):
        print(f"# CHECK FAILED: reference report digest {man.get('report_digest')} "
              f"differs from the pinned {pinned} for seed {seed}")
        correct = False
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": nproc(), "threads": threads, "cpu": cpu_model(),
        "build_type": info.get("build_type"), "decode_isa": res.get("decode_isa"),
        "input_events": int(man.get("events", 0)),
        "input_bytes": int(man.get("bytes", 0)),
        "report_digest": man.get("report_digest"),
        "generator_late_p99_ms": None,
    }
    for line in lines:
        if line.startswith("# gen_late_p99_ms") or line.startswith("# bench.gen_late_p99_ms"):
            provenance["generator_late_p99_ms"] = float(line.split()[2])
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    return {"correct": correct, "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": res["metrics"]}, provenance


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(args):
    """Runs each workload `--steady` times per set, one seed per run, and
    prints each end-to-end metric's median, quartiles and spread (the
    interquartile distance as a share of the median) against its bound;
    with several sets, also how far each later set's median moved in the
    worse direction."""
    bounds = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    workloads = [args.workload] if args.workload else WORKLOADS
    ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            values, prov = {}, None
            for i in range(args.steady):
                seed = args.seed + i
                r = subprocess.run([sys.executable, os.path.abspath(__file__),
                                    "--workload", w, "--seed", str(seed),
                                    "--seconds", str(args.seconds), "--trace", "0"],
                                   capture_output=True, text=True)
                lines = r.stdout.strip().splitlines()
                if r.returncode != 0 or not lines:
                    fail(f"{w} seed {seed} failed:\n{r.stderr}", 1)
                res = json.loads(lines[-1])
                p = next(json.loads(x.split(" ", 2)[2]) for x in lines
                         if x.startswith("# provenance "))
                host = (p["nproc"], p["cpu"], p["build_type"], p["decode_isa"])
                if prov is None:
                    prov = host
                elif host != prov:
                    fail(f"provenance changed between runs: {prov} vs {host}")
                if not res["correct"] or res["failed"]:
                    print(f"{w} seed {seed}: incorrect or failed operations")
                    ok = False
                for k, v in res["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
            sets.append(values)
        print(f"== {w}: {args.steady} runs x {args.sets} sets, {args.seconds} s each")
        print(f"{'metric':16} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, spec in bounds.items():
            first = None
            for si, values in enumerate(sets):
                v = values.get(name, [])
                if len(v) < 2:
                    print(f"{name:16} {si:>3} missing")
                    ok = False
                    continue
                med = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                bound = spec["bound"]
                verdict = "ok"
                if name != "setup_s" and spread > bound:
                    verdict, ok = "SPREAD OVER BOUND", False
                elif name != "setup_s" and spread > bound / 3:
                    verdict = "spread above a third of the bound"
                if first is None:
                    first = med
                else:
                    worse = ((med - first) / first if spec["better"] == "lower"
                             else (first - med) / first)
                    verdict += f"; drift {worse:+.3f}"
                    if worse > bound:
                        verdict, ok = verdict + " OVER BOUND", False
                print(f"{name:16} {si:>3} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{spread:8.3f} {bound:6.2f}  {verdict}")
    return 0 if ok else 1


def selftest():
    exe = ensure_built("perfbench_tests")
    return subprocess.run([exe]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.steady:
        return steady(args)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    result, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
