"""Span tracer that wraps twistfuse's public functions from outside.

Nothing in the package is edited: `install` replaces each traced function
at every module attribute that holds it, so a call through an alias made by
`from .x import f` is traced as well.  Spans are kept in memory, one list per
thread, and written out when the run ends.

Self time is wall-clock time shared among the innermost open spans.  At
every instant, the open spans with no open child (the leaves) split the
instant equally, so the self times of all spans add up to the time during
which any span was open, even when the CLI's pool runs spans on several
threads at once.  Time with no open span is unattributed.
"""

import functools
import itertools
import json
import sys
import threading
from time import perf_counter

LAYERS = ("cartan", "fold", "weyl", "rep", "smatrix", "fusion", "cli")


def _finite_key(datum):
    return repr(getattr(datum, "finite", datum))


def _coords(lam):
    return tuple(int(c) for c in getattr(lam, "coords", lam))


# module -> {function: key function, or None when distinct keys are not needed}
TRACED = {
    "cartan": {"build_cartan": lambda t: str(t)},
    "fold": {"build_folding": lambda t, order=None: f"{t}/{order}"},
    "weyl": {"generate_weyl": _finite_key, "alcove_fold": None,
             "to_dominant": None},
    "rep": {"freudenthal": lambda d, lam, *a, **kw: f"{_finite_key(d)}|{_coords(lam)}",
            "dim": None, "tensor_decompose": None, "branch": None},
    "smatrix": {"untwisted_S": lambda d, k, bits=53: f"{d.type}|{k}|{bits}",
                "twisted_a": lambda f, k, bits=53: f"{f.base.type}/{f.r}|{k}|{bits}",
                "twisted_sector_S": None},
    "fusion": {"fusion_table": None, "kac_walton_row": None,
               "twisted_kac_walton_row": None, "twisted_verlinde": None,
               "verlinde": None, "kac_walton": None,
               "twisted_kac_walton": None},
    "cli": {"main": None},
}

# Pool tasks of fusion._run_pairs run as continuation spans of the table that
# submitted them, so contraction and cross-check time on pool threads is
# fusion_table time.  The name is matched only if the private helper exists.
POOL_HELPER = ("fusion", "_run_pairs", "fusion.fusion_table")


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._threads = []          # (thread id, span list)
        self.missing = []           # traced names absent from the package

    # -- recording ---------------------------------------------------------

    def _spans_of_thread(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.spans = []
            with self._lock:
                self._threads.append((threading.get_ident(), loc.spans))
        return loc

    def current(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, key=None, counted=True, parent=None):
        loc = self._spans_of_thread()
        sid = next(self._ids)
        stack = loc.stack
        par = stack[-1] if stack else parent
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            loc.spans.append((sid, name, t0, t1, par, key, counted))

    def wrap(self, name, fn, keyfn):
        def traced(*args, **kwargs):
            key = None
            if keyfn is not None:
                try:
                    key = keyfn(*args, **kwargs)
                except Exception:  # a key is a label; never fail the call
                    key = "?"
            return self.call(name, fn, args, kwargs, key)
        functools.update_wrapper(traced, fn)
        return traced

    def wrap_pool_helper(self, fn, span_name):
        def run_pairs(task, pairs, parallelism):
            parent = self.current()

            def traced_task(*ij):
                return self.call(span_name, task, ij, {}, counted=False,
                                 parent=parent)
            return fn(traced_task, pairs, parallelism)
        functools.update_wrapper(run_pairs, fn)
        return run_pairs

    def drain(self):
        """Return every span recorded so far, as (thread id, span) pairs,
        and forget them.  Call only while no traced call is running."""
        out = []
        with self._lock:
            for tid, spans in self._threads:
                out.extend((tid, s) for s in spans)
                spans.clear()
        return out

    # -- patching ----------------------------------------------------------

    def install(self):
        import twistfuse.cli  # noqa: F401  (loads every submodule)
        wrappers = {}             # id(original) -> (original, wrapper)
        for mod_name, funcs in TRACED.items():
            mod = sys.modules[f"twistfuse.{mod_name}"]
            for fname, keyfn in funcs.items():
                orig = getattr(mod, fname, None)
                if orig is None:
                    self.missing.append(f"{mod_name}.{fname}")
                    continue
                wrappers[id(orig)] = (orig, self.wrap(f"{mod_name}.{fname}",
                                                      orig, keyfn))
        mod_name, fname, span_name = POOL_HELPER
        helper = getattr(sys.modules[f"twistfuse.{mod_name}"], fname, None)
        if helper is not None:
            wrappers[id(helper)] = (helper,
                                    self.wrap_pool_helper(helper, span_name))
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        self._originals = {i: orig for i, (orig, _w) in wrappers.items()}
        return self

    def unpatched_sites(self):
        """Module attributes still bound to an original traced function."""
        return [f"{mod.__name__}.{attr}" for mod in _package_modules()
                for attr, value in vars(mod).items()
                if self._originals.get(id(value)) is value]


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "twistfuse" or n.startswith("twistfuse.")]


def self_times(spans, window):
    """Share wall-clock time among the innermost open spans.

    spans: (thread id, (sid, name, start, end, parent, key, counted)) pairs.
    window: (start, end) of the interval whose unattributed time is wanted.
    Returns ({sid: self seconds}, unattributed seconds inside the window).
    """
    w0, w1 = window
    events = [(w0, 2, None, None), (w1, 2, None, None)]
    for _, (sid, _n, t0, t1, par, _k, _c) in spans:
        events.append((t0, 1, sid, par))
        events.append((t1, 0, sid, par))
    events.sort(key=lambda e: (e[0], e[1]))
    active = set()
    open_children = {}
    leaves = set()
    self_s = dict.fromkeys((s[0] for _, s in spans), 0.0)
    unattributed = 0.0
    prev = events[0][0]
    for t, kind, sid, par in events:
        if t > prev:
            if leaves:
                share = (t - prev) / len(leaves)
                for leaf in leaves:
                    self_s[leaf] += share
            elif w0 <= prev and t <= w1:
                unattributed += t - prev
        prev = t
        if kind == 1:
            active.add(sid)
            open_children[sid] = 0
            leaves.add(sid)
            if par in active:
                open_children[par] += 1
                leaves.discard(par)
        elif kind == 0:
            active.discard(sid)
            leaves.discard(sid)
            if par in active:
                open_children[par] -= 1
                if open_children[par] == 0:
                    leaves.add(par)
    return self_s, unattributed


def summarize(spans, window):
    """Per-function and per-layer statistics of one traced job."""
    self_s, unattributed = self_times(spans, window)
    funcs = {}
    threads = set()
    in_window = 0.0
    for tid, (sid, name, t0, t1, _par, key, counted) in spans:
        threads.add(tid)
        f = funcs.setdefault(name, {"calls": 0, "keys": {}, "self_s": 0.0})
        f["self_s"] += self_s[sid]
        if t0 >= window[0]:
            in_window += self_s[sid]
        if counted:
            f["calls"] += 1
            if key is not None:
                f["keys"][key] = f["keys"].get(key, 0) + 1
    layers = dict.fromkeys(LAYERS, 0.0)
    for name, f in funcs.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + f["self_s"]
    return {"functions": funcs, "layers": layers,
            "attributed_job_s": in_window, "unattributed_s": unattributed,
            "threads": len(threads)}


def span_cost(tracer, calls=20000):
    """Seconds that tracing adds to one call, measured on a no-op function.

    The cost of computing argument keys is not included.  Drains the
    tracer: call it after the job's spans have been taken.
    """
    def noop():
        return None
    traced = tracer.wrap("trace.calibration", noop, None)
    elapsed = []
    for fn in (noop, traced):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(perf_counter() - t0)
    tracer.drain()
    return max(0.0, (elapsed[1] - elapsed[0]) / calls)


def write_spans(path, run_id, spans):
    """One JSON line per span: name, start, end, parent, thread, run id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for tid, (sid, name, t0, t1, par, key, _c) in sorted(
                spans, key=lambda s: s[1][2]):
            fh.write(json.dumps([sid, name, t0, t1, par, tid, run_id, key],
                                separators=(",", ":")))
            fh.write("\n")
