"""twistfuse benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement runs in a fresh
interpreter (child.py), because every CLI user pays for cold caches.
The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones, from untraced runs;
with --trace 1 they are the per-layer ones, from one traced run of the whole
job, plus an untraced one when it fits before the deadline, to measure the
tracing overhead.  A readable report goes to stderr.  Exits non-zero,
printing no result, when the package or the benchmark cannot run at all.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_REPEATS = 8          # set-up-only interpreters before the first job
RUN_DEADLINE_S = 175       # every child is killed past this point of the run
SPANS_DIR = ".perfbench"

END_TO_END_UNITS = {"setup_s": "s", "job_cpu_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: <module>.<function>.<stat> from the traced run.
FUNCTION_STATS = [
    ("cartan.build_cartan", ["self_s"]),
    ("fold.build_folding", ["self_s"]),
    ("weyl.generate_weyl", ["calls", "distinct", "self_s"]),
    ("weyl.alcove_fold", ["calls", "self_s"]),
    ("weyl.to_dominant", ["calls", "self_s"]),
    ("rep.freudenthal", ["calls", "distinct", "self_s"]),
    ("rep.dim", ["calls", "self_s"]),
    ("rep.tensor_decompose", ["calls", "self_s"]),
    ("rep.branch", ["calls", "self_s"]),
    ("smatrix.untwisted_S", ["calls", "distinct", "useful_ratio", "self_s"]),
    ("smatrix.twisted_a", ["calls", "self_s"]),
    ("fusion.kac_walton_row", ["self_s"]),
    ("fusion.twisted_kac_walton_row", ["self_s"]),
    ("fusion.fusion_table", ["self_s"]),
    ("fusion.twisted_verlinde", ["calls", "self_s"]),
    ("cli.main", ["self_s"]),
]
STAT_UNITS = {"calls": "count", "distinct": "count", "self_s": "s",
              "useful_ratio": "ratio"}
# The duplicate cold build of untwisted_S(E6) by the CLI's pool threads.
E6_KEY = "E6^(1)|"

# What the traced runs should show at the commit that added the benchmark.
# Reported, not enforced: an optimisation is expected to move them.
EXPECTED_TOP = {"twisted-e6": ("function", "weyl.generate_weyl"),
                "kw-grid": ("layer", "rep")}


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_child(spec, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py")],
                              input=json.dumps(spec), capture_output=True,
                              text=True, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['mode']} child exceeded the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"{spec['mode']} child exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{spec['mode']} child printed no result:\n"
                         f"{proc.stdout[-500:]}{proc.stderr[-2000:]}")


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy}


class Run:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.ops = wl.grid_ops(workload)
        self.targets = wl.setup_targets(self.ops)

    def job(self, trace=False):
        spec = {"mode": "job", "trace": trace,
                "targets": self.targets, "ops": self.ops,
                "run_id": f"{self.workload}/seed{self.seed}/{os.getpid()}",
                "spans_file": f"{SPANS_DIR}/spans-{self.workload}-seed{self.seed}.jsonl"}
        result = run_child(spec, self.deadline)
        for failure in result["failures"]:
            log("FAILED", failure)
        return result

    def setup(self):
        return run_child({"mode": "setup", "targets": self.targets},
                         self.deadline)["setup_s"]

    def end_to_end(self):
        start = time.monotonic()
        setups = [self.setup() for _ in range(SETUP_REPEATS)]
        jobs = []
        slowest = 0.0
        # Jobs run back to back.  Another one starts only if it should end
        # within --seconds, so that a run is not longer than --seconds
        # unless its first job is.
        while not jobs or time.monotonic() - start + slowest <= self.seconds:
            t0 = time.monotonic()
            jobs.append(self.job())
            # A set-up-only interpreter after each job spreads the set-up
            # samples over the whole run.
            setups.append(self.setup())
            slowest = max(slowest, time.monotonic() - t0)
        setups += [j["setup_s"] for j in jobs]
        # The host's speed drifts over tens of seconds and more, so the
        # fastest repetition moves between runs as much as any one does:
        # every metric is a median over the run's jobs or set-ups.  The job
        # is timed in CPU seconds of its process (all threads), not wall
        # time: the CLI pool's threads hand the GIL to each other, and on a
        # shared host each hand-off can wait for a virtual CPU, which moved
        # wall time by 20% between identical jobs and CPU time by 8%.
        metrics = {
            "setup_s": statistics.median(setups),
            "job_cpu_s": statistics.median(j["job_cpu_s"] for j in jobs),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
        }
        attempted = sum(j["attempted"] for j in jobs)
        failed = sum(j["failed"] for j in jobs)
        log("job wall s of each job:", " ".join(f"{j['job_s']:.3f}" for j in jobs),
            f"(median {statistics.median(j['job_s'] for j in jobs):.6g})")
        log("job CPU s of each job: ",
            " ".join(f"{j['job_cpu_s']:.3f}" for j in jobs))
        log(f"{len(jobs)} job runs of {len(self.ops)} CLI calls each, "
            f"{len(setups)} set-up samples")
        log(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} "
            f"operations failed)")
        for name, value in metrics.items():
            log(f"{name:>14} {value:.6g} {END_TO_END_UNITS[name]}")
        return ({n: {"value": v, "unit": END_TO_END_UNITS[n]}
                 for n, v in metrics.items()}, attempted, failed, True)

    def per_layer(self):
        t0 = time.monotonic()
        traced = self.job(trace=True)
        traced_wall = time.monotonic() - t0
        selftest = run_child({"mode": "selftest"},
                             self.deadline)
        # trace.overhead_s is the traced job_s minus an untraced one.  The
        # untraced job runs only if it should end well before the deadline
        # (the E6 job alone can take over a minute); otherwise the tracer's
        # own estimate, span count times the cost of one span, stands in.
        plain = None
        if time.monotonic() + 1.5 * traced_wall + 10 < self.deadline:
            plain = self.job()
        tr = traced["trace"]
        funcs = tr["functions"]
        correct = True
        for problem in selftest["problems"]:
            log("SELFTEST", problem)
        if tr["unpatched"]:
            log("untraced alias sites:", tr["unpatched"])
            correct = False
        if tr["missing"]:
            # A renamed or split function would otherwise read as 0 s, which
            # looks like a gain: re-point TRACED in tracer.py instead.
            log("traced functions absent from the package:", tr["missing"])
            correct = False
        job_s = traced["job_s"]
        if plain is None:
            log("untraced job skipped: it might not end before the deadline")
            overhead_s = tr["span_overhead_s"]
        else:
            overhead_s = job_s - plain["job_s"]

        metrics = {}

        def put(name, value, unit):
            metrics[name] = {"value": value, "unit": unit}

        for fname, stats in FUNCTION_STATS:
            f = funcs.get(fname, {"calls": 0, "keys": {}, "self_s": 0.0})
            values = {"calls": f["calls"], "distinct": len(f["keys"]),
                      "self_s": f["self_s"]}
            values["useful_ratio"] = (values["distinct"] / f["calls"]
                                      if f["calls"] else 1.0)
            for stat in stats:
                put(f"{fname}.{stat}", values[stat], STAT_UNITS[stat])
        s_keys = funcs.get("smatrix.untwisted_S", {"keys": {}})["keys"]
        e6 = {k: n for k, n in s_keys.items() if k.startswith(E6_KEY)}
        put("smatrix.untwisted_S.E6.calls", sum(e6.values()), "count")
        put("smatrix.untwisted_S.E6.distinct", len(e6), "count")
        for layer, value in tr["layers"].items():
            put(f"layer.{layer}.self_s", value, "s")
        put("trace.job_s", job_s, "s")
        put("trace.overhead_s", overhead_s, "s")
        put("trace.span_overhead_s", tr["span_overhead_s"], "s")
        put("trace.unattributed_s", tr["unattributed_s"], "s")
        put("trace.unattributed_share", tr["unattributed_s"] / job_s, "ratio")
        put("trace.threads", tr["threads"], "count")

        self.report_layers(tr, job_s, plain, e6)
        jobs = [traced] + ([plain] if plain else [])
        attempted = sum(j["attempted"] for j in jobs) + selftest["attempted"]
        failed = sum(j["failed"] for j in jobs) + len(selftest["problems"])
        return metrics, attempted, failed, correct

    def report_layers(self, tr, job_s, plain, e6):
        funcs = tr["functions"]
        untraced = f"{plain['job_s']:.3f} s" if plain else "skipped"
        log(f"traced job {job_s:.3f} s, untraced {untraced}; self times "
            f"{tr['attributed_job_s']:.3f} s + unattributed "
            f"{tr['unattributed_s']:.3f} s ({tr['unattributed_s'] / job_s:.1%}); "
            f"{tr['spans']} spans cost about {tr['span_overhead_s']:.3f} s; "
            f"{tr['threads']} threads")
        log(f"{'function':<32}{'calls':>9}{'distinct':>9}{'self_s':>11}{'share':>8}")
        for name, f in sorted(funcs.items(), key=lambda x: -x[1]["self_s"]):
            log(f"{name:<32}{f['calls']:>9}{len(f['keys']) or '':>9}"
                f"{f['self_s']:>11.4f}{f['self_s'] / job_s:>8.1%}")
        for layer, value in sorted(tr["layers"].items(), key=lambda x: -x[1]):
            log(f"layer {layer:<26}{value:>29.4f}{value / job_s:>8.1%}")
        top = {"function": max(funcs, key=lambda n: funcs[n]["self_s"]),
               "layer": max(tr["layers"], key=tr["layers"].get)}
        if self.workload in EXPECTED_TOP:
            kind, want = EXPECTED_TOP[self.workload]
            verdict = "as expected" if top[kind] == want else "NOT as expected"
            log(f"top {kind}: {top[kind]} (expected {want}: {verdict})")
        else:
            log(f"top function: {top['function']}, top layer: {top['layer']}")
        if e6:
            log(f"untwisted_S(E6): {sum(e6.values())} calls, "
                f"{len(e6)} distinct argument keys")


def declared_metrics(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twistfuse" / "__init__.py").is_file():
        log(f"no twistfuse sources under {ROOT / 'src'}")
        return 2
    env = environment()
    log(f"{args.workload} seed {args.seed}: nproc {env['nproc']}, {env['cpu']}, "
        f"Python {env['python']}, numpy {env['numpy']}; closed loop, one client")
    run = Run(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            metrics, attempted, failed, ok = run.per_layer()
        else:
            metrics, attempted, failed, ok = run.end_to_end()
    except BenchError as exc:
        log(f"benchmark failed: {exc}")
        return 1
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        log(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
        return 1
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
