"""Median seminorm ratios across the depth-1 epsilon range.

One summary row per (instance, p): the reportable quantity is how stable the
rho_plane median stays as epsilon moves, at fixed N and p.
"""

import argparse
import csv
import sys

from treeplane.operators import norm_ratio_experiment
from treeplane.suite import CANONICAL, instance_geometry


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="sweep_epsilon.csv")
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--N", type=int, action="append", dest="Ns")
    ap.add_argument("--p", type=float, action="append", dest="ps")
    args = ap.parse_args()
    Ns = args.Ns or [2, 3]
    ps = args.ps or [1.25, 1.5, 1.75]
    depth1 = [inst for inst in CANONICAL if inst.depth == 1]
    available = sorted({inst.N for inst in depth1})
    missing = [N for N in Ns if N not in available]
    if missing:
        print(f"no depth-1 instance with N = {missing}; available N: "
              f"{available}", file=sys.stderr)
        return 2

    rows = []
    for N in Ns:
        for inst in (i for i in depth1 if i.N == N):
            name = inst.name
            tree, pset, wd, ct = instance_geometry(inst)
            for p in ps:
                rep = norm_ratio_experiment(
                    tree, p=p, n_trials=args.trials,
                    seed=args.seed, geometry=(pset, wd, ct))
                rows.append({
                    "instance": name, "N": N, "epsilon": inst.epsilon, "p": p,
                    "trials": args.trials, "seed": args.seed,
                    "rho_plane_median": rep["rho_plane"]["median"],
                    "rho_plane_max": rep["rho_plane"]["max"],
                    "rho_tree_max": rep["rho_tree"]["max"],
                })
                r = rows[-1]
                print(f"{name} p={p}: median {r['rho_plane_median']:.1f}, "
                      f"rho_tree max {r['rho_tree_max']:.12f}")

    with open(args.out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
