"""Ratio experiments over the canonical depth-2 instances, all three epsilons.

The tight depth-2 decompositions overflow the default square cap, so this
script builds the geometry itself with a raised cap and hands it to the
experiment runner.
"""

import argparse
import os
import time

from treeplane.operators import (build_geometry, norm_ratio_experiment,
                                 write_experiment_csv)
from treeplane.suite import CANONICAL, instance_tree


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="experiments")
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--p", type=float, default=1.5)
    ap.add_argument("--N", type=int, default=2)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--cap", type=int, default=40 * 10 ** 6)
    ap.add_argument("--instance", action="append",
                    help="run only the named instances")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    chosen = [inst for inst in CANONICAL
              if inst.N == args.N and inst.depth == 2]
    if args.instance:
        chosen = [inst for inst in CANONICAL if inst.name in args.instance]
    for inst in chosen:
        name = inst.name
        tree = instance_tree(inst)
        t0 = time.perf_counter()
        ps, wd, ct = build_geometry(tree, cap=args.cap)
        t_geom = time.perf_counter() - t0
        print(f"{name}: {wd.n} squares ({t_geom:.1f}s geometry)")
        t0 = time.perf_counter()
        report = norm_ratio_experiment(
            tree, p=args.p, n_trials=args.trials, seed=args.seed,
            geometry=(ps, wd, ct))
        dt = time.perf_counter() - t0
        path = os.path.join(args.out_dir, f"{name}-p{args.p:g}.csv")
        write_experiment_csv(report, path)
        rp = report["rho_plane"]
        print(f"  rho_plane {rp['min']:.1f}/{rp['median']:.1f}/{rp['max']:.1f} "
              f"(min/med/max), {dt / args.trials:.1f}s per trial -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
