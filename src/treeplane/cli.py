"""Command line front end.

Subcommands cover the pipeline end to end: gen-tree writes instances,
build/verify construct and check the geometry, extend-plane and extend-tree
run the two directions, experiment produces the ratio CSV.  The former
bench subcommand is retired: `benchmark/run.py` is the one timing harness.
Flags override config-file entries, which override the defaults below; every
report echoes the effective values.  Exit codes: 0 success,
1 verification failure, 2 invalid input, 3 numerical-tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .clusters import ClusterBallError, assign_clusters, build_clusters
from .embedding import PlanarGeometryError, build_planar_set
from .operators import (PlanarData, norm_ratio_experiment, planar_extend,
                        tree_extend_from_planar, write_experiment_csv)
from .suite import verify_tree
from .tree_core import (LeafFunction, TreeStructureError, WeightedTree,
                        random_tree, validate)
from .tree_extension import ExtensionSolveError
from .whitney import WhitneyCapError, decompose

EXIT_OK, EXIT_VERIFY, EXIT_INVALID, EXIT_TOLERANCE = 0, 1, 2, 3

DEFAULTS = {
    "p": 1.5,
    "epsilon": 0.01,
    "kappa": 10.25,
    "k0": 0.05,
    "K0": 50.0,
    "quad_order": 12,
    "trials": 10,
    "seed": 0,
    "backend": "optimal",
    "samples": 101,
    "depth": 1,
    "N": 2,
}


def _load_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(cfg) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    return cfg


def _coerce(key: str, val):
    want = type(DEFAULTS[key])
    try:
        return want(val)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key}: {exc}") from exc


def _effective(args, cfg: dict, keys) -> dict:
    """flags > config file > defaults, for the listed keys."""
    out = {}
    for k in keys:
        flag = getattr(args, k, None)
        out[k] = DEFAULTS[k] if flag is None else flag
        if flag is None and k in cfg:
            out[k] = _coerce(k, cfg[k])
    return out


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(doc: dict, out_path) -> None:
    text = json.dumps(doc, indent=1, default=_json_default) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(f"wrote {out_path}")
    else:
        sys.stdout.write(text)


def _load_tree(path) -> WeightedTree:
    tree = WeightedTree.from_file(path)
    problems = validate(tree)
    if problems:
        raise TreeStructureError(f"tree file fails validation: {problems[:3]}")
    return tree


def _leaf_data(tree: WeightedTree, args, seed: int) -> LeafFunction:
    if getattr(args, "data", None):
        with open(args.data) as fh:
            vals = json.load(fh)
        return LeafFunction({str(k): float(v) for k, v in vals.items()}).check(tree)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(tree.n_leaves)
    return LeafFunction.from_array(tree, v - v.mean())


def cmd_gen_tree(args, cfg) -> int:
    eff = _effective(args, cfg, ("N", "depth", "epsilon", "seed", "k0"))
    if eff["N"] < 2:
        print(f"N = {eff['N']} must be at least 2", file=sys.stderr)
        return EXIT_INVALID
    if eff["depth"] < 0:
        print("depth must be nonnegative", file=sys.stderr)
        return EXIT_INVALID
    limit = eff["k0"] / eff["N"]
    if not 0.0 < eff["epsilon"] <= limit:
        print(f"epsilon = {eff['epsilon']} outside (0, k0/N] = (0, {limit}]",
              file=sys.stderr)
        return EXIT_INVALID
    tree = random_tree(N=eff["N"], depth=eff["depth"], epsilon=eff["epsilon"],
                       seed=eff["seed"])
    delta = float(tree.weights.min())
    if args.out:
        tree.save(args.out)
        print(f"wrote {args.out} (N={eff['N']} depth={eff['depth']} "
              f"epsilon={eff['epsilon']:g} seed={eff['seed']} k0={eff['k0']:g}; "
              f"{tree.n_nodes} nodes, min weight {delta:.3e})")
    else:
        _emit(tree.to_json_dict(), None)
    return EXIT_OK


def cmd_build(args, cfg) -> int:
    eff = _effective(args, cfg, ("kappa",))
    tree = _load_tree(args.tree)
    ps = build_planar_set(tree)
    doc = {"params": eff, "tree": {"nodes": tree.n_nodes,
                                   "leaves": tree.n_leaves,
                                   "N": tree.N, "epsilon": tree.epsilon},
           "planar_set": ps.to_json_dict()}
    try:
        wd = decompose(ps)
        types = np.bincount(wd.type_codes, minlength=4)
        doc["decomposition"] = {
            "squares": int(wd.n), "max_level": int(wd.max_level),
            "type_counts": {"I": int(types[1]), "II": int(types[2]),
                            "III": int(types[3])},
            "frame_squares": int(wd.boundary.sum()),
        }
    except WhitneyCapError as exc:
        wd = None
        doc["decomposition"] = {"skipped": str(exc)}
    try:
        ct = build_clusters(tree, ps, kappa=eff["kappa"])
        if wd is not None:
            assign_clusters(ct, wd)
        doc["clusters"] = ct.to_json_dict()
        doc["clusters"]["report"] = ct.report
    except ClusterBallError as exc:
        doc["clusters"] = {"violations": list(exc.violations)}
        _emit(doc, args.out)
        return EXIT_VERIFY
    _emit(doc, args.out)
    return EXIT_OK


def _p_list(args) -> tuple[float, ...]:
    if getattr(args, "p", None) is None:
        return (1.25, 1.5, 1.75)
    return tuple(float(t) for t in str(args.p).split(","))


def cmd_verify(args, cfg) -> int:
    eff = _effective(args, cfg, ("kappa", "K0", "quad_order", "seed"))
    tree = _load_tree(args.tree)
    rep = verify_tree(tree, kappa=eff["kappa"], K0=eff["K0"],
                      p_values=_p_list(args), seed=eff["seed"],
                      quad_order=eff["quad_order"])
    _emit(rep, args.out)
    if not rep["ok"]:
        return EXIT_VERIFY
    consts = rep["constants"]
    confidence = []
    if consts["K_embedding"] > 10.0:
        confidence.append(f"embedding constant {consts['K_embedding']:.3g} > 10")
    patching = rep["checks"].get("patching")
    if patching is not None and patching["spread"] >= 3.0:
        confidence.append(f"patching spread {patching['spread']:.3g} >= 3")
    if confidence:
        print("confidence thresholds exceeded: " + "; ".join(confidence),
              file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def _pipeline_geometry(tree, kappa):
    ps = build_planar_set(tree)
    wd = decompose(ps)
    ct = build_clusters(tree, ps, kappa=kappa)
    assign_clusters(ct, wd)
    return ps, wd, ct


def cmd_extend_plane(args, cfg) -> int:
    eff = _effective(args, cfg, ("p", "kappa", "seed", "backend", "samples"))
    tree = _load_tree(args.tree)
    phi = _leaf_data(tree, args, eff["seed"])
    ps, wd, ct = _pipeline_geometry(tree, eff["kappa"])
    f = PlanarData.from_leaf_function(tree, ps, phi)
    F = planar_extend(tree, ps, wd, ct, f, eff["p"], backend=eff["backend"])
    if args.out:
        F.sample_csv(args.out, nx=eff["samples"], ny=eff["samples"])
    doc = {"params": eff, "squares": int(wd.n),
           "tail": {"a": F.tail.a, "b": F.tail.b, "c": F.tail.c},
           "sampled_to": args.out}
    _emit(doc, None)
    return EXIT_OK


def cmd_extend_tree(args, cfg) -> int:
    eff = _effective(args, cfg, ("p", "kappa", "seed", "backend"))
    tree = _load_tree(args.tree)
    phi = _leaf_data(tree, args, eff["seed"])
    ps, wd, ct = _pipeline_geometry(tree, eff["kappa"])
    Phi = tree_extend_from_planar(tree, ps, wd, ct, phi, eff["p"],
                                  tree_backend=eff["backend"])
    doc = {"params": eff,
           "leaf_data": {v: phi[v] for v in tree.leaf_ids},
           "values": {v: Phi[v] for v in tree.ids}}
    _emit(doc, args.out)
    return EXIT_OK


def cmd_experiment(args, cfg) -> int:
    eff = _effective(args, cfg, ("p", "kappa", "quad_order", "trials", "seed",
                                 "backend"))
    tree = _load_tree(args.tree)
    report = norm_ratio_experiment(
        tree, p=eff["p"], n_trials=eff["trials"], seed=eff["seed"],
        backend=eff["backend"], kappa=eff["kappa"],
        quad_order=eff["quad_order"])
    if args.out:
        write_experiment_csv(report, args.out)
        print(f"wrote {args.out} ({len(report['rows'])} trials)")
    else:
        write_experiment_csv(report, sys.stdout)
    bad_quad = [r for r in report["rows"] if r["quad_rel"] > 0.01]
    bad_ratio = [r for r in report["rows"]
                 if not (np.isfinite(r["rho_plane"]) and np.isfinite(r["rho_tree"]))]
    if bad_quad or bad_ratio:
        print(f"tolerance failure: {len(bad_quad)} trials above 1% quadrature "
              f"error, {len(bad_ratio)} with non-finite ratios", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="treeplane", description=__doc__)
    top.add_argument("--config", help="JSON file of default overrides")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, **flags):
        p = sub.add_parser(name)
        for flag, kw in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kw)
        p.set_defaults(func=func)
        return p

    num = {"type": float}
    integer = {"type": int}
    add("gen-tree", cmd_gen_tree, N=integer, depth=integer, epsilon=num,
        seed=integer, k0=num, out={})
    add("build", cmd_build, tree={"required": True}, kappa=num, out={})
    add("verify", cmd_verify, tree={"required": True}, kappa=num, K0=num,
        p={}, quad_order=integer, seed=integer, out={})
    add("extend-plane", cmd_extend_plane, tree={"required": True}, data={},
        p=num, kappa=num, seed=integer, samples=integer,
        backend={"choices": ["optimal", "averaging"]}, out={})
    add("extend-tree", cmd_extend_tree, tree={"required": True}, data={},
        p=num, kappa=num, seed=integer,
        backend={"choices": ["optimal", "averaging"]}, out={})
    add("experiment", cmd_experiment, tree={"required": True}, p=num,
        kappa=num, quad_order=integer, trials=integer, seed=integer,
        backend={"choices": ["optimal", "averaging"]}, out={})
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        return args.func(args, cfg)
    except (TreeStructureError, PlanarGeometryError, FileNotFoundError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (WhitneyCapError, ClusterBallError, ExtensionSolveError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
