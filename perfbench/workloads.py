"""The benchmark's workloads: which CLI calls each one makes.

Every workload is a closed loop with one client: one process issues
`twistfuse.cli.main(argv)` calls one after another, each after the previous
one returned and its output was checked.  The CLI's own thread pool
(`--parallelism`, default `os.cpu_count()`) is the only concurrency, and it is
left at its default because that is what a CLI user gets.

Both workloads are fixed grids of CLI calls, so the seed does not change
them.  Why each workload exists is in BENCHMARK.json and README.md.
"""

NAMES = ("kw-grid", "twisted-e6")

# Criterion-03 grid of the acceptance suite, plus B3 at level 3.
KW_GRID = [("A1", 3), ("A2", 3), ("A3", 3), ("B2", 3), ("C2", 3), ("G2", 3),
           ("D4", 3)]

# Twisted tables: (type, level, pattern, twist order or 0 for the type's
# default).  The E6 table takes 40 s or more, so it fits one repetition in a
# run.  The small tables check the table output of every twisted route and
# pattern; they take under half a second together, so they ride along with
# kw-grid, where a run repeats its calls, instead of being timed once beside
# E6.
TWISTED_E6 = [("E6", 1, "1,s,s", 0)]
TWISTED_SMALL = [
    ("A3", 1, "1,s,s", 0), ("A3", 2, "1,s,s", 0),
    ("A3", 1, "s,s,1", 0), ("A3", 2, "s,s,1", 0),
    ("D4", 1, "s,1,s", 2),
    ("D4", 1, "1,s,s", 3),
]

# S-matrices at low rank and high level, so that every kind of S-matrix
# output (untwisted; twisted columns and sector) is checked: (type, level,
# twist order: None untwisted, 0 default twist, else the order).
SMATRICES = [("B2", 16, None), ("A3", 8, 0)]


def fusion_argv(type_, level, pattern="1,1,1", order=None):
    argv = ["fusion", type_, "--level", str(level)]
    if order is not None:
        argv += ["--twist", "diagram", "--pattern", pattern]
        if order:
            argv += ["--twist-order", str(order)]
    return argv


def smatrix_argv(type_, level, order=None):
    argv = ["smatrix", type_, "--level", str(level)]
    if order is not None:
        argv += ["--twist", "diagram"]
        if order:
            argv += ["--twist-order", str(order)]
    return argv


def grid_ops(name):
    """The fixed CLI calls of a workload, in order."""
    if name == "kw-grid":
        return ([fusion_argv(t, k) for t, kmax in KW_GRID
                 for k in range(1, kmax + 1)]
                + [fusion_argv("B3", 3)]
                + [fusion_argv(t, k, p, o) for t, k, p, o in TWISTED_SMALL]
                + [smatrix_argv(t, k, o) for t, k, o in SMATRICES])
    if name == "twisted-e6":
        return [fusion_argv(t, k, p, o) for t, k, p, o in TWISTED_E6]
    raise KeyError(name)


def setup_targets(ops):
    """The algebras a list of CLI calls touches, as (type, twist order or None).

    Set-up builds the root data (`build_cartan`) of every type and the folding
    data (`build_folding`) of every twisted one, as the CLI would.
    """
    targets = []
    for argv in ops:
        order = None
        if "--twist" in argv and argv[argv.index("--twist") + 1] == "diagram":
            order = (int(argv[argv.index("--twist-order") + 1])
                     if "--twist-order" in argv else 0)
        for target in ((argv[1], None), (argv[1], order)):
            if target not in targets:
                targets.append(target)
    return targets

