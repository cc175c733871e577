#!/usr/bin/env python3
"""The repository benchmark: four whole `lr_cli` workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The first run builds `lr_cli` and the
layer tracer `layer_trace` from source into `.bench_build/`.  With
`--trace 0`, it first sets the workload up three times. Each set-up writes
the inputs and makes one untimed (cold) invocation. It then times repeated
invocations of the workload's command for `--seconds` and reports medians.
With `--trace 1`, it runs `lr_cli` once for the counters the program prints,
then runs `layer_trace`, which calls each layer of the `lr` library itself.
Before it reports the per-layer numbers, it checks that both produce the
same outputs.  Every invocation's output is checked; see README.md.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The full result, with the host block and every sample, goes to
`.bench_build/results/`.
"""

import argparse
import csv
import glob
import hashlib
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
LR_CLI = BUILD / "repo" / "examples" / "lr_cli"
LAYER_TRACE = BUILD / "layer_trace"
EXPECTED = HERE / "expected.json"

SETUPS = 3          # set-ups per run; setup_s is their median
MIN_TIMED = 3       # timed invocations per run, even past --seconds
INVOKE_TIMEOUT = 120.0

# Workload seed n selects the instance seeds (n-1)*k+1 .. n*k, k = `seeds`,
# so distinct workload seeds give disjoint inputs.  A sweep spec's seed axis
# holds all k; `serve` takes one per invocation and cycles through them.
WORKLOADS = {
    "paper-sweep": {
        "kind": "sweep",
        "axes": "topology = chain, layered, grid, random\n"
                "size = 384, 1536\n"
                "algorithm = fr, pr, newpr, sim-rprime\n"
                "scheduler = lowest, random\n",
        "seeds": 3,
        "flags": ["--threads", "4"],
        "threads": 4,
    },
    "scale-reload": {
        "kind": "sweep",
        "axes": "topology = widerandom\n"
                "size = 50000, 100000\n"
                "algorithm = fr, pr, newpr\n",
        "seeds": 8,
        "flags": ["--threads", "4"],
        "threads": 4,
        "snapshots": True,
    },
    "serve-churn": {
        "kind": "serve",
        "seeds": 4,
        "topology": "unitdisk",
        "size": 512,
        "flags": ["--workload", "mixed", "--clients", "32", "--duration", "16384"],
        "clients": 32,
        "duration": 16384,
    },
    "sharded-sweep": {
        "kind": "sweep",
        "axes": "topology = random, unitdisk, grid\n"
                "size = 128, 256\n"
                "algorithm = dist-fr, dist-pr, tora, pr\n",
        "seeds": 80,
        "flags": ["--processes", "4", "--threads", "1"],
        "threads": 4,
        "sharded": True,
    },
}

END_TO_END = {
    "wall_s": "s", "runs_per_s": "1/s", "requests_per_s": "1/s",
    "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}

PER_LAYER = {
    "graph.generate_s": "s", "graph.freeze_s": "s", "graph.instances": "count",
    "graph.snapshot_save_s": "s", "graph.snapshot_load_s": "s",
    "graph.snapshot_load_gbps": "GB/s", "graph.patch_us": "us",
    "graph.patches": "count",
    "core.run_s": "s", "core.steps": "count", "core.steps_per_s": "1/s",
    "core.random_policy_s": "s", "core.rounds_s": "s", "core.rounds": "count",
    "automata.relation_s": "s",
    "sim.dist_s": "s", "sim.messages": "count", "sim.msgs_per_s": "1/s",
    "routing.tora_s": "s", "routing.route_us": "us", "routing.lock_us": "us",
    "routing.leader_us": "us", "routing.churn_us": "us",
    "service.run_s": "s", "service.requests": "count", "service.self_s": "s",
    "runner.run_ms_p50": "ms", "runner.run_ms_p99": "ms", "runner.run_ms_max": "ms",
    "runner.pool_busy_ratio": "ratio", "runner.cache.hits": "count",
    "runner.cache.misses": "count", "runner.cache.duplicate_builds": "count",
    "runner.snapshot.duplicate_loads": "count",
    "runner.shard.attempt_ms_max": "ms", "runner.shard.imbalance": "ratio",
    "runner.shard.retries": "count", "runner.shard.overhead_s": "s",
    "trace.aggregate_s": "s", "trace.span_coverage": "ratio",
}


class BenchError(Exception):
    """A build failure: there is nothing to measure."""


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build():
    """Configures once, then brings lr_cli and layer_trace up to date."""
    log = ROOT / ".bench_build" / "build.log"
    log.parent.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4",
                  "--target", "lr_cli", "layer_trace"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT).returncode:
                shutil.rmtree(BUILD, ignore_errors=True)  # never reuse a failed configure
                raise BenchError("build failed: " + " ".join(step) + "\n" + log.read_text()[-3000:])


def host_block():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler, build_type = "unknown", "unknown"
    for path in glob.glob(str(BUILD / "CMakeFiles" / "*" / "CMakeCXXCompiler.cmake")):
        text = Path(path).read_text()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            compiler = f"{ident.group(1)} {version.group(1)}"
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.M)
        if match:
            build_type = match.group(1)
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": build_type, "os": platform.platform()}


def invoke(cmd, out_path, err_path):
    """Runs one command to completion; wall, CPU (children included) and peak RSS."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(INVOKE_TIMEOUT, lambda: os.killpg(proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # wait4 reports the child plus every descendant it reaped (its workers).
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def read_csv(path):
    return list(csv.DictReader(io.StringIO(Path(path).read_text())))


class Workload:
    def __init__(self, name, seed, work):
        self.name, self.seed, self.work = name, seed, work
        self.cfg = WORKLOADS[name]
        k = self.cfg["seeds"]
        self.seeds = list(range((seed - 1) * k + 1, seed * k + 1))
        # The distinct invocations: one sweep over every seed, or one serve per seed.
        self.variants = len(self.seeds) if self.cfg["kind"] == "serve" else 1
        self.snapshot_dir = work / "snapshots"
        self.reference = [None] * self.variants  # output digests of each variant's first run
        self.problems = []
        self.attempted = 0
        self.failed = 0

    # -- inputs ----------------------------------------------------------
    def write_inputs(self):
        if self.cfg["kind"] == "sweep":
            text = self.cfg["axes"] + f"seed = {self.seeds[0]}..{self.seeds[-1]}\n"
            (self.work / "workload.sweep").write_text(text)

    def command(self, tag, flags=None, variant=0):
        if self.cfg["kind"] == "serve":
            return [str(LR_CLI), "serve", self.cfg["topology"], str(self.cfg["size"]),
                    *self.cfg["flags"], "--seed", str(self.seeds[variant])]
        cmd = [str(LR_CLI), "sweep", str(self.work / "workload.sweep"),
               *(self.cfg["flags"] if flags is None else flags),
               "--records", str(self.work / f"{tag}.records.csv")]
        if self.cfg.get("snapshots"):
            cmd += ["--snapshot-dir", str(self.snapshot_dir)]
        if self.cfg.get("sharded") and flags is None:
            cmd += ["--shard-log", str(self.work / f"{tag}.shards.csv")]
        return cmd

    # -- one checked invocation -------------------------------------------
    def run_checked(self, tag, flags=None, variant=0):
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        sample = invoke(self.command(tag, flags, variant), out, err)
        sample["variant"] = variant
        sample["ok"] = self.check(tag, variant, sample, out, err)
        self.attempted += 1
        self.failed += not sample["ok"]
        sample["stderr"] = err.read_text(errors="replace")
        if self.cfg["kind"] == "serve":
            rows = {row["kind"]: row for row in read_csv(out)} if sample["ok"] else {}
            sample["units"] = int(rows["all"]["issued"]) if rows else 0
        else:
            sample["units"] = len(read_csv(self.work / f"{tag}.records.csv")) if sample["ok"] else 0
        return sample

    def fail(self, tag, why):
        self.problems.append(f"{tag}: {why}")
        return False

    def check(self, tag, variant, sample, out, err):
        if sample["rc"] != 0:
            return self.fail(tag, f"exit code {sample['rc']}: {err.read_text(errors='replace')[-500:]}")
        digests = {"stdout": sha256(out)}
        if self.cfg["kind"] == "sweep":
            records = self.work / f"{tag}.records.csv"
            if not re.search(r" 0 error\(s\)", err.read_text()):
                return self.fail(tag, "sweep reported errors")
            for row in read_csv(records):
                if row["converged"] != "yes" or row["relation"] not in ("ok", "-") or row["status"] != "ok":
                    return self.fail(tag, f"bad record {row}")
            digests["records"] = sha256(records)
        else:
            rows = read_csv(out)
            if not rows or rows[-1]["kind"] != "all" or int(rows[-1]["issued"]) == 0:
                return self.fail(tag, "serve table lacks a nonempty 'all' row")
            for row in rows:
                if int(row["issued"]) != int(row["completed"]) + int(row["failed"]):
                    return self.fail(tag, f"request accounting broken: {row}")
        if self.reference[variant] is None:
            self.reference[variant] = digests
        if self.seed == 1 and digests != json.loads(EXPECTED.read_text())[self.name][variant]:
            return self.fail(tag, f"seed-1 output digests {digests} differ from expected.json")
        if digests != self.reference[variant]:
            return self.fail(tag, "output differs from the first invocation of this run")
        return True

    def setup(self, tag, variant=0):
        start = time.perf_counter()
        self.write_inputs()
        if self.cfg.get("snapshots"):
            shutil.rmtree(self.snapshot_dir, ignore_errors=True)
        sample = self.run_checked(tag, variant=variant)
        sample["setup_s"] = time.perf_counter() - start
        return sample


def cache_counters(stderr):
    """(hits, misses) from lr_cli sweep's `cache:` stderr line."""
    match = re.search(r"cache: \d+ workload\(s\) resident, (\d+) hit\(s\), (\d+) miss\(es\)", stderr)
    return tuple(int(g) for g in match.groups()) if match else (0, 0)


def snapshot_loads(stderr):
    match = re.search(r"snapshots: (\d+) mmap reload\(s\)", stderr)
    return int(match.group(1)) if match else 0


def measure(wl, seconds):
    """Set-ups, then timed invocations cycling over the variants in whole passes."""
    setups = [wl.setup(f"setup{i}", i % wl.variants) for i in range(SETUPS)]
    timed = []
    start = time.perf_counter()
    while len(timed) < MIN_TIMED or len(timed) % wl.variants or \
            time.perf_counter() - start < seconds:
        timed.append(wl.run_checked(f"timed{len(timed)}", variant=len(timed) % wl.variants))
    samples = setups + timed

    def med(value):
        """Median over each variant's invocations, averaged over the variants."""
        return statistics.mean(statistics.median(value(s) for s in timed if s["variant"] == v)
                               for v in range(wl.variants))

    sweep = wl.cfg["kind"] == "sweep"
    metrics = {
        "wall_s": med(lambda s: s["wall_s"]),
        "runs_per_s": med(lambda s: (s["units"] if sweep else 1) / s["wall_s"]),
        "requests_per_s": med(lambda s: s["units"] / s["wall_s"]),
        "cpu_s": med(lambda s: s["cpu_s"]),
        "peak_rss_mb": med(lambda s: s["peak_rss_mb"]),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    detail = [{k: s[k] for k in ("variant", "wall_s", "cpu_s", "peak_rss_mb", "units", "ok")}
              for s in samples]
    return metrics, {"samples": detail}


def shard_metrics(log_path):
    rows = read_csv(log_path)
    elapsed = {}
    for row in rows:
        if row["shard_completed"] == "yes" and row["outcome"] == "ok":
            elapsed[row["shard"]] = float(row["elapsed_ms"])
    mean = statistics.mean(elapsed.values()) if elapsed else 0.0
    return {
        "runner.shard.attempt_ms_max": max(float(r["elapsed_ms"]) for r in rows) if rows else 0.0,
        "runner.shard.imbalance": max(elapsed.values()) / mean if mean else 0.0,
        "runner.shard.retries": float(sum(int(r["attempt"]) > 0 for r in rows)),
    }


def distinct_instances(wl):
    """(topology, size, seed) of every instance the sweep spec generates."""
    axes = {}
    for line in wl.cfg["axes"].splitlines():
        key, value = line.split("=", 1)
        axes[key.strip()] = [v.strip() for v in value.split(",")]
    return [(t, int(n), s) for t in axes["topology"] for n in axes["size"] for s in wl.seeds]


def trace_run(wl):
    """lr_cli once for its own counters, then layer_trace, cross-checked."""
    wl.setup("cli")
    metrics = {name: 0.0 for name in PER_LAYER}
    fingerprints = {}
    tracer = [str(LAYER_TRACE)]
    if wl.cfg["kind"] == "serve":
        tracer += ["serve", wl.cfg["topology"], str(wl.cfg["size"]),
                   "--clients", str(wl.cfg["clients"]), "--duration", str(wl.cfg["duration"]),
                   "--seed", str(wl.seeds[0]), "--table", str(wl.work / "tracer.out")]
        instances = [(wl.cfg["topology"], wl.cfg["size"], wl.seeds[0])]
    else:
        tracer += ["sweep", str(wl.work / "workload.sweep"), "--threads", str(wl.cfg["threads"]),
                   "--records", str(wl.work / "tracer.records.csv"),
                   "--aggregate", str(wl.work / "tracer.out")]
        instances = distinct_instances(wl)
        hits, misses = cache_counters(Path(wl.work / "cli.err").read_text())
        metrics["runner.cache.duplicate_builds"] = float(misses - len(instances))
        if wl.cfg.get("snapshots"):
            save_dir = wl.snapshot_dir / "tracer"
            save_dir.mkdir()
            tracer += ["--snapshot-dir", str(wl.snapshot_dir), "--save-dir", str(save_dir)]
            warm = wl.run_checked("cli-warm")
            hits, misses = cache_counters(warm["stderr"])
            loads = snapshot_loads(warm["stderr"])
            metrics["runner.snapshot.duplicate_loads"] = float(loads - len(instances))
        metrics["runner.cache.hits"] = float(hits)
        metrics["runner.cache.misses"] = float(misses)
        if wl.cfg.get("sharded"):
            metrics.update(shard_metrics(wl.work / "cli.shards.csv"))
            sharded = [wl.run_checked(f"sharded{i}")["wall_s"] for i in range(3)]
            local = [wl.run_checked(f"local{i}", ["--threads", str(wl.cfg["threads"])])["wall_s"]
                     for i in range(3)]
            metrics["runner.shard.overhead_s"] = statistics.median(sharded) - statistics.median(local)
    wl.attempted += 1
    problems = len(wl.problems)
    check_tracer(wl, tracer, instances, metrics, fingerprints)
    wl.failed += len(wl.problems) > problems
    return metrics, fingerprints


def check_tracer(wl, tracer, instances, metrics, fingerprints):
    sample = invoke(tracer, wl.work / "tracer.json", wl.work / "tracer.err")
    if sample["rc"] != 0:
        error = (wl.work / "tracer.err").read_text(errors="replace")[-1000:]
        if not error:
            mismatches = json.loads((wl.work / "tracer.json").read_text())["mismatches"]
            error = f"{mismatches} kernel counter(s) or snapshot(s) disagree with the runner"
        wl.fail("layer_trace", f"exit code {sample['rc']}: {error}")
        return
    report = json.loads((wl.work / "tracer.json").read_text())
    for name, value in report["metrics"].items():
        if name in metrics:
            metrics[name] = value
    metrics["trace.span_coverage"] = report["span_coverage"]
    fingerprints.update(report["fingerprints"])
    # The tracer must reproduce the real program's outputs exactly.
    if sha256(wl.work / "tracer.out") != sha256(wl.work / "cli.out"):
        wl.fail("layer_trace", "tracer table differs from lr_cli stdout")
    if wl.cfg["kind"] == "sweep" and \
            sha256(wl.work / "tracer.records.csv") != sha256(wl.work / "cli.records.csv"):
        wl.fail("layer_trace", "tracer records differ from lr_cli --records")
    # layer_trace already matched every snapshot file lr_cli wrote; elsewhere
    # lr_cli freezes and fingerprints a few instances itself.
    for topology, size, seed in [] if wl.cfg.get("snapshots") else instances[:4]:
        name = f"{topology}-{size}-s{seed}.lrsnap"
        out = subprocess.run([str(LR_CLI), "snapshot", "save", topology, str(size), str(seed),
                              str(wl.work / "check.lrsnap")], cwd=ROOT, capture_output=True, text=True)
        match = re.search(r"fingerprint ([0-9a-f]{16})", out.stdout)
        if not match or fingerprints.get("csr." + name) != match.group(1):
            wl.fail("layer_trace", f"CSR fingerprint of {name} differs from lr_cli snapshot save")
    (wl.work / "check.lrsnap").unlink(missing_ok=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 1:
        parser.error("--seed must be >= 1")

    try:
        build()
    except BenchError as error:
        print(error, file=sys.stderr)
        return 1
    work = ROOT / ".bench_build" / "work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = Workload(args.workload, args.seed, work)
    host = host_block()
    print("host " + json.dumps(host))

    if args.trace:
        values, fingerprints = trace_run(wl)
        units, extra = PER_LAYER, {"fingerprints": fingerprints}
    else:
        values, extra = measure(wl, args.seconds)
        units = END_TO_END
    shutil.rmtree(wl.snapshot_dir, ignore_errors=True)
    for problem in wl.problems:
        print("check failed: " + problem, file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not wl.problems, "attempted": wl.attempted, "failed": wl.failed,
              "metrics": metrics}
    results = ROOT / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host,
            "output_digests": wl.reference, "problems": wl.problems, **result, **extra}
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
