#!/usr/bin/env python3
"""The MITHRA benchmark: mithra-serve under bulk, small and compile-mix
traffic. See perfbench/README.md.

    python3 perfbench/run.py --workload serve-bulk --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. It builds tools/mithra-serve and the
benchmark's load tool (Release) under .bench_build/, starts the server as
its own process, sets the workload up several times, drives the
measured phase, checks every output, and prints each metric with its
unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The metrics are the
end-to-end ones of BENCHMARK.json, or with --trace 1 its per-layer
ones. Exits nonzero, without that line, when anything cannot run, and
nonzero, with correct=false, when an output check fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
REPO_BUILD = os.path.join(BUILD, "repo")
TOOL_BUILD = os.path.join(BUILD, "perfbench")
SERVE = os.path.join(REPO_BUILD, "tools", "mithra-serve", "mithra-serve")
TOOL = os.path.join(TOOL_BUILD, "mithra-perfbench")
WORKLOADS = ("serve-bulk", "serve-small", "compile-mix")
# Set-up runs per run; setup_s is their median.
SETUPS = 3
# Every run ends within this many seconds of its start.
DEADLINE_S = 170.0


class BenchError(Exception):
    """Something the benchmark cannot run past."""


def log_path():
    os.makedirs(TOOL_BUILD, exist_ok=True)
    return os.path.join(TOOL_BUILD, "run.log")


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (once) and build mithra-serve and the load tool."""
    with open(log_path(), "a") as log:
        def step(cmd):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build step failed: %s (see %s)"
                                 % (" ".join(cmd), log_path()))
        jobs = str(nproc())
        if not os.path.exists(os.path.join(REPO_BUILD, "CMakeCache.txt")):
            step(["cmake", "-S", ROOT, "-B", REPO_BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"])
        step(["cmake", "--build", REPO_BUILD, "--target", "mithra-serve",
              "-j", jobs])
        if not os.path.exists(os.path.join(TOOL_BUILD, "CMakeCache.txt")):
            step(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                  TOOL_BUILD, "-DCMAKE_BUILD_TYPE=Release",
                  "-DMITHRA_BUILD_DIR=" + REPO_BUILD])
        step(["cmake", "--build", TOOL_BUILD, "-j", jobs])


def build_type():
    with open(os.path.join(REPO_BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip() or "(none)"
    return "(none)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def clean_env(**settings):
    """The environment minus every MITHRA_* knob, plus `settings`."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MITHRA_")}
    env.update({k: str(v) for k, v in settings.items()})
    return env


def tool(args, deadline, env, check=True):
    """Run the load tool; returns its last stdout line as JSON."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before: " + " ".join(args))
    try:
        done = subprocess.run([TOOL] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=left, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: mithra-perfbench " + " ".join(args))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("mithra-perfbench %s printed nothing: %s"
                         % (args[0], done.stderr.strip()[-2000:]))
    result = json.loads(lines[-1])
    if check and done.returncode != 0:
        raise BenchError("mithra-perfbench %s failed: %s %s"
                         % (args[0], result.get("failures"),
                            done.stderr.strip()[-2000:]))
    return result


class Server:
    """One mithra-serve process on an ephemeral loopback port."""

    def __init__(self, plan):
        env = clean_env(MITHRA_SERVE_PORT=0,
                        MITHRA_SERVE_WORKERS=plan["workers"],
                        MITHRA_THREADS=plan["threads"],
                        MITHRA_SERVE_TIMEOUT_MS=600000)
        with open(log_path(), "a") as log:
            self.proc = subprocess.Popen([SERVE], env=env, cwd=ROOT,
                                         stdout=subprocess.PIPE,
                                         stderr=log, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "listening":
            self.stop()
            raise BenchError("mithra-serve did not start (see %s)"
                             % log_path())
        self.port = line[1]

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run(args, spec):
    deadline = time.monotonic() + DEADLINE_S
    build()
    plan = tool(["plan", "--workload", args.workload], deadline,
                clean_env())
    # The replay runs at the server's pool width.
    env = clean_env(MITHRA_THREADS=plan["threads"])
    fingerprint = {
        "cpu": cpu_model(),
        "nproc": nproc(),
        "build_type": build_type(),
        "MITHRA_THREADS": plan["threads"],
        "MITHRA_SERVE_WORKERS": plan["workers"],
        "connections": plan["connections"],
        "model_shards": plan["shards"],
    }
    if plan["one_cpu"]:
        # Inherited by the server and the load tool.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    fingerprint["cpus"] = sorted(os.sched_getaffinity(0))

    servers = []
    try:
        setup_s = []
        job_runs = []
        for k in range(SETUPS):
            began = time.perf_counter()
            server = Server(plan)
            servers.append(server)
            done = tool(["setup", "--workload", args.workload,
                         "--port", server.port], deadline, env)
            setup_s.append(time.perf_counter() - began)
            job_runs += done["job_run_s"]
            if k + 1 < SETUPS:
                server.stop()

        spans = os.path.join(TOOL_BUILD, "spans-%s-seed%d.json"
                             % (args.workload, args.seed))
        drive = ["drive", "--workload", args.workload,
                 "--port", server.port, "--seed", str(args.seed),
                 "--seconds", str(args.seconds),
                 "--trace", "1" if args.trace else "0", "--spans", spans]
        if args.corrupt_expected:
            drive.append("--corrupt-expected")
        result = tool(drive, deadline, env, check=False)
    finally:
        for server in servers:
            server.stop()

    fingerprint["kernels.backend"] = result["backend"]
    e2e = dict(result["e2e"], setup_s=statistics.median(setup_s))
    layers = dict(result["layers"])
    layers.setdefault("service.job_run_s",
                      sum(job_runs) / max(len(job_runs), 1))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise BenchError("metrics not produced: " + ", ".join(missing))
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print("perfbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    if fingerprint["build_type"] != "Release":
        print("WARNING: %s build; these figures are not a baseline"
              % fingerprint["build_type"])
    print("setup_s samples " + " ".join("%.4f" % s for s in setup_s))
    for line in result["notes"]:
        print("  " + line)
    for name, metric in metrics.items():
        print("%-34s %16.6g %s" % (name, metric["value"], metric["unit"]))
    for failure in result["failures"]:
        print("CHECK FAILED: " + failure)

    if args.baseline:
        if fingerprint["build_type"] != "Release":
            raise BenchError("refusing to write a %s build as a baseline"
                             % fingerprint["build_type"])
        report = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "fingerprint": fingerprint, "setup_s_samples": setup_s,
            "report": result["report"], "metrics": metrics,
            "correct": result["correct"], "failures": result["failures"],
        }
        with open(args.baseline, "w") as out:
            json.dump(report, out, indent=1, sort_keys=True)

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", metavar="FILE",
                        help="also write the full result here (Release "
                             "builds only)")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="self-test: flip one expected decision "
                             "digest, which must fail the run")
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
        return run(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
