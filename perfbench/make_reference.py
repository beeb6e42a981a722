"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every CLI call of every workload once, in one process, and writes
`reference/outputs.json` (sha256 of each fusion output, S-matrix metadata
digests) and `reference/smatrix.npz` (S-matrix entries).  Rerun it only when
an output is meant to change, and say so in the change that does it.
"""

import json
import sys

import child  # puts src/ on sys.path
import workloads as wl
from checks import (OUTPUTS, SMATRIX, array_name, op_key, sha256,
                    smatrix_blocks, smatrix_meta)


def run_ok(argv):
    rc, out, err = child.call_cli(argv)
    if rc != 0:
        sys.exit(f"{op_key(argv)}: exit {rc} {err}")
    return out


def main():
    import numpy as np

    ref = {"fusion": {}, "smatrix": {}}
    arrays = {}
    for name in wl.NAMES:
        for argv in wl.grid_ops(name):
            out = run_ok(argv)
            key = op_key(argv)
            if argv[0] == "fusion":
                ref["fusion"][key] = sha256(out)
                continue
            payload = json.loads(out)
            ref["smatrix"][key] = {"meta_sha256": sha256(smatrix_meta(payload))}
            for block, s in smatrix_blocks(payload).items():
                arrays[array_name(key, block)] = s
            print(key, file=sys.stderr)
    OUTPUTS.parent.mkdir(exist_ok=True)
    with open(OUTPUTS, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.savez_compressed(SMATRIX, **arrays)


if __name__ == "__main__":
    main()
