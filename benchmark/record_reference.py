#!/usr/bin/env python3
"""Rewrite benchmark/reference.json: the outputs every workload is checked
against at the reference seed.

    python3 benchmark/record_reference.py

Run it only when a change is meant to alter those outputs, and say why in
the change: a reference recorded from a broken program hides the breakage.
"""

from __future__ import annotations

import json
import sys

from run import HERE, REFERENCE_SEED, SRC, pin_blas


def main() -> int:
    pin_blas()
    sys.path[:0] = [str(SRC)]
    from workloads import WORKLOADS

    ref = {"seed": REFERENCE_SEED}
    for name, cls in WORKLOADS.items():
        wl = cls(REFERENCE_SEED, None)
        wl.setup()
        outs = {}
        for k in range(wl.distinct_rounds):
            for op in wl.round_ops(k):
                out, _ = op.run()
                problems = wl.check(op, out)
                if problems:
                    print(f"{name} {op.key}: {problems}", file=sys.stderr)
                    return 1
                outs[op.key] = out
        ref[name] = wl.reference_record(outs)
        print(f"recorded {name}", flush=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
