"""Output checks.  Any failed check counts as a failed operation.

Fusion tables must match the sha256 of the JSON recorded in
`reference/outputs.json`, byte for byte.  S-matrix
outputs may drift by rounding, so they are checked instead by:
  * the payload's own `unitarity_defect` and, recomputed here from the
    payload's entries, its unitarity and symmetry defects, all below the
    CLI's 1e-9 gate;
  * every entry within 1e-12 of `reference/smatrix.npz`;
  * everything but the numbers (labels, provenance, precision) matching a
    recorded sha256.
"""

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
OUTPUTS = REFERENCE / "outputs.json"
SMATRIX = REFERENCE / "smatrix.npz"

UNITARITY_GATE = 1e-9      # the CLI's default --unitarity-tolerance
ENTRY_TOLERANCE = 1e-12

# S-matrix blocks in a payload, and whether each is a full square S-matrix
# (unitary and symmetric) or a block of columns of one (orthonormal columns).
BLOCKS = {"S": "square", "S_symmetric_columns": "columns",
          "S_twisted_sector": "unitary"}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def op_key(argv):
    return " ".join(argv)


def smatrix_meta(payload):
    """The payload without its numbers, as canonical JSON."""
    meta = {k: v for k, v in payload.items() if k != "unitarity_defect"}
    for name in BLOCKS:
        if name in meta:
            meta[name] = {k: v for k, v in meta[name].items()
                          if k not in ("re", "im")}
    return json.dumps(meta, sort_keys=True, separators=(",", ":"))


def smatrix_blocks(payload):
    import numpy as np
    return {name: np.array(payload[name]["re"]) + 1j * np.array(payload[name]["im"])
            for name in BLOCKS if name in payload}


def block_defects(kind, s):
    import numpy as np
    if kind == "columns":
        return [float(np.abs(s.conj().T @ s - np.eye(s.shape[1])).max())]
    unitarity = float(np.abs(s @ s.conj().T - np.eye(s.shape[0])).max())
    if kind == "unitary":
        return [unitarity]
    return [unitarity, float(np.abs(s - s.T).max())]


def array_name(key, block):
    return f"{key}|{block}"


class Checker:
    def __init__(self):
        with open(OUTPUTS) as fh:
            ref = json.load(fh)
        self.fusion = ref["fusion"]
        self.smatrix = ref["smatrix"]
        self.arrays = None

    def check(self, argv, rc, out, err):
        """Return None when the output is right, else what is wrong."""
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        key = op_key(argv)
        if argv[0] == "smatrix":
            return self._check_smatrix(key, out)
        want = self.fusion.get(key)
        if want is None:
            return "no reference output"
        if sha256(out) != want:
            return "output differs from the reference"
        return None

    def _check_smatrix(self, key, out):
        ref = self.smatrix.get(key)
        if ref is None:
            return "no reference output"
        if self.arrays is None:
            import numpy as np
            with np.load(SMATRIX) as npz:
                self.arrays = {name: npz[name] for name in npz.files}
        payload = json.loads(out)
        if not payload["unitarity_defect"] < UNITARITY_GATE:
            return f"reported unitarity defect {payload['unitarity_defect']}"
        if sha256(smatrix_meta(payload)) != ref["meta_sha256"]:
            return "labels or metadata differ from the reference"
        for name, s in smatrix_blocks(payload).items():
            worst = max(block_defects(BLOCKS[name], s))
            if not worst < UNITARITY_GATE:
                return f"{name}: recomputed defect {worst:.3e}"
            want = self.arrays[array_name(key, name)]
            if s.shape != want.shape:
                return f"{name}: shape {s.shape} != {want.shape}"
            drift = float(abs(s - want).max())
            if not drift <= ENTRY_TOLERANCE:
                return f"{name}: entry drift {drift:.3e} > {ENTRY_TOLERANCE}"
        return None
