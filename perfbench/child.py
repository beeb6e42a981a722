"""One measurement in a fresh interpreter.

Reads a JSON spec on stdin and prints one JSON result line on stdout.
Modes:
  setup     time `import twistfuse` plus the set-up builds, nothing else;
  job       set-up, then the workload's CLI calls with every output checked;
  selftest  traced call counts on tiny inputs (see SELFTEST).

The package is imported from `src/` of the checkout this file lives in, and
from nowhere else.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

# Tiny inputs with the call counts they must give when every alias site is
# traced: the table reaches untwisted_S only through fusion's alias, the
# single query reaches kac_walton and untwisted_S through cli's aliases.
SELFTEST = [
    (["fusion", "A1", "--level", "1"],
     {"cli.main": 1, "fusion.fusion_table": 1, "smatrix.untwisted_S": 1}),
    (["fusion", "A3", "--level", "1", "--twist", "diagram", "--pattern",
      "1,s,s", "--parallelism", "1"],
     {"fusion.fusion_table": 1, "smatrix.untwisted_S": 1,
      "smatrix.twisted_a": 1}),
    (["fusion", "A1", "--level", "1", "1", "1", "0"],
     {"cli.main": 1, "fusion.fusion_table": 0, "smatrix.untwisted_S": 1,
      "fusion.kac_walton_row": 1}),
]


def setup(targets):
    """Import the package and build the root and folding data of every
    algebra in the workload.  Returns the set-up time in seconds."""
    t0 = time.perf_counter()
    import twistfuse
    from twistfuse.cartan import AFFINE_R1
    if not str(Path(twistfuse.__file__).resolve()).startswith(str(ROOT / "src")):
        raise SystemExit(f"twistfuse imported from {twistfuse.__file__}")
    for name, order in targets:
        type_ = twistfuse.parse_type(name, AFFINE_R1)
        if order is None:
            twistfuse.build_cartan(type_)
        else:
            twistfuse.build_folding(type_, order or None)
    return time.perf_counter() - t0


def call_cli(argv):
    """Run one CLI call in-process; returns (exit code, stdout, stderr)."""
    from twistfuse import cli
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:         # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:          # counted as a failed operation
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def run_job(spec):
    from checks import Checker

    tracer = None
    if spec["trace"]:
        # Installed before set-up so the root-data builds are traced too.
        from tracer import Tracer
        tracer = Tracer().install()
    setup_s = setup(spec["targets"])
    checker = Checker()
    failures = []
    ops = spec["ops"]
    t0, c0 = time.perf_counter(), time.process_time()
    for argv in ops:
        rc, out, err = call_cli(argv)
        try:
            problem = checker.check(argv, rc, out, err)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"malformed output: {exc!r}"
        if problem:
            failures.append(f"{' '.join(argv)}: {problem}")
    t1, c1 = time.perf_counter(), time.process_time()
    result = {"setup_s": setup_s, "job_s": t1 - t0, "job_cpu_s": c1 - c0,
              "attempted": len(ops), "failed": len(failures),
              "failures": failures[:5],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        from tracer import span_cost, summarize, write_spans
        spans = tracer.drain()
        result["trace"] = summarize(spans, (t0, t1))
        result["trace"]["spans"] = len(spans)
        result["trace"]["span_overhead_s"] = span_cost(tracer) * len(spans)
        result["trace"]["unpatched"] = tracer.unpatched_sites()
        result["trace"]["missing"] = tracer.missing
        write_spans(ROOT / spec["spans_file"], spec["run_id"], spans)
    return result


def run_selftest():
    from tracer import Tracer
    tracer = Tracer().install()
    problems = []
    for argv, expected in SELFTEST:
        rc, _out, err = call_cli(argv)
        if rc != 0:
            problems.append(f"{' '.join(argv)}: exit {rc} {err.strip()}")
        counts = {}
        for _tid, span in tracer.drain():
            if span[6]:
                counts[span[1]] = counts.get(span[1], 0) + 1
        for name, want in expected.items():
            if counts.get(name, 0) != want:
                problems.append(f"{' '.join(argv)}: {name} called "
                                f"{counts.get(name, 0)} times, expected {want}")
    return {"attempted": len(SELFTEST), "problems": problems}


def main():
    spec = json.load(sys.stdin)
    if spec["mode"] == "setup":
        result = {"setup_s": setup(spec["targets"])}
    elif spec["mode"] == "job":
        result = run_job(spec)
    else:
        result = run_selftest()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
