"""Run the canonical verification suite and print one line per instance.

The full tier gets the whole geometry battery; deeper instances get the
tree-side checks only.  Finishes with the cross-instance scale-sum survey
at kappa = 20.  Writes the combined JSON report when --out is given.
"""

import argparse
import json
import time

from treeplane.clusters import KAPPA
from treeplane.suite import (CANONICAL, clear_geometry_cache,
                             scale_sum_survey, verify_instance)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", help="write the combined JSON report here")
    ap.add_argument("--kappa", type=float, default=KAPPA)
    ap.add_argument("--skip-survey", action="store_true")
    args = ap.parse_args()

    reports = {}
    all_ok = True
    for inst in CANONICAL:
        t0 = time.perf_counter()
        rep = verify_instance(inst, kappa=args.kappa)
        dt = time.perf_counter() - t0
        reports[inst.name] = rep
        name = inst.name
        n_checks = len(rep["checks"])
        skipped = ",".join(rep["skipped"]) or "-"
        print(f"{name:14s} {'ok' if rep['ok'] else 'FAIL':4s} "
              f"checks={n_checks:2d} skipped={skipped:14s} "
              f"K={rep['constants']['K_embedding']:.3g} {dt:6.1f}s")
        all_ok = all_ok and rep["ok"]
        if inst.full:
            clear_geometry_cache()  # depth-2 geometries are hundreds of MB

    doc = {"instances": reports, "ok": all_ok}
    if not args.skip_survey:
        survey = scale_sum_survey()
        doc["scale_sum_survey"] = survey
        print(f"scale-sum survey at kappa=20: measured {survey['n_measured']} "
              f"instances, spread per p {survey['spread']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
        print(f"wrote {args.out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
