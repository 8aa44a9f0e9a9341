#!/usr/bin/env python3
"""treeplane benchmark: one workload per process, metrics as JSON.

Run from the root of a checkout:

    python3 benchmark/run.py --workload ratio-trials --seed 101 \
        --seconds 30 --trace 0

`--trace 0` times the workload with nothing patched and reports the
end-to-end metrics listed in BENCHMARK.json; `--trace 1` alternates
untraced rounds with rounds whose treeplane calls are wrapped in spans and
reports the per-layer metrics.  Either way every operation's output is
checked, and the last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the line before it carries
host facts, failures and the named throughput.  The program is imported from
`src/` of the checkout and nowhere else; without it the run exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# OpenBLAS threads, fixed so runs compare; never above the cores we may use.
BLAS_THREADS = 1
REFERENCE_SEED = 101


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas() -> int:
    n = max(1, min(BLAS_THREADS, _nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _l3_bytes():
    """Last-level cache size from the C library's sysconf, if it knows."""
    try:
        import ctypes
        size = ctypes.CDLL(None).sysconf(194)  # _SC_LEVEL3_CACHE_SIZE (glibc)
        return int(size) if size > 0 else None
    except (OSError, AttributeError):
        return None


def host_facts(np, blas_threads: int, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": _nproc(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": blas_threads,
            "l3_bytes": _l3_bytes(), "machine": platform.machine(),
            "seed": seed}


def _layer_of(exc: BaseException) -> str:
    """Module of the deepest treeplane frame the exception passed through."""
    layer = "benchmark"
    for fr in traceback.extract_tb(exc.__traceback__):
        p = Path(fr.filename)
        if p.parent.name == "treeplane":
            layer = p.stem
    return layer


def run_workload(wl, seconds: float, trace: bool):
    """Set up `wl.setup_reps` times, then run whole rounds until `seconds`
    have passed.

    In a traced run odd rounds are traced and even rounds are not; both
    rounds of a pair get the same inputs, so the tracing overhead is
    measured on the same work under the same conditions as the spans.
    """
    from tracing import Patches, Recorder, find_wrapped

    rec = Recorder() if trace else None
    patches = Patches(rec) if trace else None
    setup_s = []
    for _ in range(wl.setup_reps):
        if trace:
            patches.install()
            idx = rec.open("bench.setup")
        t0 = time.perf_counter()
        try:
            wl.setup()
        finally:
            t1 = time.perf_counter()
            if trace:
                rec.close(idx)
                patches.restore()
        setup_s.append(t1 - t0)
    if find_wrapped():
        raise RuntimeError(f"wrappers left behind: {find_wrapped()}")

    rounds, failures, n_warn = [], [], 0
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        data = k // 2 if trace else k
        r = {"traced": traced, "seconds": 0.0, "items": 0, "ops": 0,
             "data": data % wl.distinct_rounds,
             "first_span": len(rec.spans) if trace else 0}
        for op in wl.round_ops(data):
            attempted += 1
            r["ops"] += 1
            out, problems = None, []
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if traced:
                    patches.install()
                    idx = rec.open("bench.op")
                t0 = time.perf_counter()
                try:
                    out, items = op.run()
                except Exception as exc:
                    problems = [f"{type(exc).__name__} in {_layer_of(exc)}: "
                                f"{exc}"]
                    if traced:
                        rec.error("bench.op", exc)
                finally:
                    dt = time.perf_counter() - t0
                    if traced:
                        rec.close(idx)
                        patches.restore()
            n_warn += sum(issubclass(w.category, UserWarning) for w in caught)
            if out is not None:
                problems = wl.check(op, out)
                r["seconds"] += dt
                r["items"] += items
            del out
            if problems:
                failed += 1
                failures.append({"round": k, "op": op.key,
                                 "problems": problems[:5]})
        r["end_span"] = len(rec.spans) if trace else 0
        rounds.append(r)
        k += 1
        if time.perf_counter() - start >= seconds and (not trace or k % 2 == 0):
            break
    if find_wrapped():
        raise RuntimeError(f"wrappers left behind: {find_wrapped()}")
    return {"setup_s": setup_s, "rounds": rounds, "attempted": attempted,
            "failed": failed, "failures": failures, "warnings": n_warn,
            "recorder": rec}


def _rate(rounds):
    done = [r for r in rounds if r["seconds"] > 0]
    return statistics.median(r["items"] / r["seconds"] for r in done) \
        if done else 0.0


def layer_metrics(wl, res) -> tuple[dict, dict]:
    """Per-layer numbers from the traced rounds and the set-ups.

    A layer's `.s`, `.calls` and `.points` are its self seconds, calls and
    points per set-up (for calls made in set-up) plus per operation (for
    calls made in traced rounds); `.errors` are totals over the run.
    """
    from tracing import self_times

    rec = res["recorder"]
    spans = rec.spans
    own = self_times(spans)
    section = []
    for s in spans:           # a parent always precedes its children
        section.append(s[0] if s[3] < 0 else section[s[3]])
    n_setup = len(res["setup_s"])
    traced = [r for r in res["rounds"] if r["traced"]]
    n_ops = sum(r["ops"] for r in traced)
    tot: dict = {}
    for i, s in enumerate(spans):
        if s[0].startswith("bench."):
            continue
        where = "setup" if section[i] == "bench.setup" else "op"
        t = tot.setdefault(s[0], {"setup": [0.0, 0, 0], "op": [0.0, 0, 0]})
        t[where][0] += own[i]
        t[where][1] += 1
        t[where][2] += s[4]
    m = {}
    for name, t in tot.items():
        for j, key in enumerate(("s", "calls", "points")):
            m[f"{name}.{key}"] = (t["setup"][j] / n_setup +
                                  (t["op"][j] / n_ops if n_ops else 0.0))
    verifiers = ("verify_partition", "verify_cz", "verify_boundary",
                 "verify_dist_bd", "verify_basepoints")
    m["whitney.verify.s"] = sum(m.get(f"whitney.{v}.s", 0.0)
                                for v in verifiers)
    for name, per in rec.errors.items():
        m[f"{name}.errors"] = float(sum(per.values()))

    op_spans = [i for i, s in enumerate(spans) if s[0] == "bench.op"]
    m["bench.op.s"] = sum(own[i] for i in op_spans) / n_ops if n_ops else 0.0

    # geometry sizes, computed from the decomposition arrays
    g = wl.geometry_counts().values()
    squares = sum(c["squares"] for c in g)
    m["whitney.squares"] = float(squares)
    m["whitney.max_level"] = float(max(c["max_level"] for c in g))
    m["whitney.touching_pairs"] = float(sum(c["touching_pairs"] for c in g))
    m["whitney.bytes_per_square"] = sum(c["bytes"] for c in g) / squares
    m["clusters.n_clusters"] = float(sum(c["n_clusters"] for c in g))

    # quadrature work, computed from the captured fields
    from workloads import active_rows, quad_nodes_per_row
    rows = sq = 0
    for name, F in rec.captured:
        if name == "analysis.planar_seminorm":
            rows += active_rows(F)
            sq += F.wd.n
    per_row = quad_nodes_per_row(12)
    m["analysis.active_rows"] = rows / n_ops if n_ops else 0.0
    m["analysis.active_fraction"] = rows / sq if sq else 0.0
    m["analysis.quad_nodes"] = rows * per_row / n_ops if n_ops else 0.0
    m["analysis.quad_warnings"] = res["warnings"] / res["attempted"]
    quad = [r["quad_rel"] for r in getattr(wl, "rows", [])]
    m["analysis.quad_rel_max"] = max(quad) if quad else 0.0

    # overhead: traced against untraced rounds of the same run
    plain = [r for r in res["rounds"] if not r["traced"] and r["seconds"] > 0]
    t_plain = statistics.fmean(r["seconds"] for r in plain)
    t_traced = statistics.fmean(r["seconds"] for r in traced)
    top = sum(spans[i][2] - spans[i][1] for i, s in enumerate(spans)
              if s[3] >= 0 and spans[s[3]][0] == "bench.op")
    m["trace.overhead_frac"] = t_traced / t_plain - 1.0
    m["trace.coverage"] = (top / len(traced)) / t_plain

    # exact counts must repeat between traced rounds on the same inputs
    sigs: dict = {}
    repeat = True
    for r in traced:
        sig: dict = {}
        for s in spans[r["first_span"]:r["end_span"]]:
            calls, items = sig.get(s[0], (0, 0))
            sig[s[0]] = (calls + 1, items + s[4])
        repeat &= sigs.setdefault(r["data"], sig) == sig
    info = {"computed": ["whitney.squares", "whitney.max_level",
                         "whitney.touching_pairs", "whitney.bytes_per_square",
                         "clusters.n_clusters", "analysis.active_rows",
                         "analysis.active_fraction", "analysis.quad_nodes"],
            "counts_repeat": repeat,
            "traced_rounds": len(traced), "traced_ops": n_ops,
            "spans": len(spans), "errors": rec.errors}
    return m, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "treeplane" / "__init__.py").is_file():
        print(f"no treeplane sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"unknown workload {args.workload!r}; have {sorted(whys)}",
              file=sys.stderr)
        return 2

    blas_threads = pin_blas()
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import treeplane
    if Path(treeplane.__file__).resolve().parent != (SRC / "treeplane").resolve():
        print(f"treeplane imported from {treeplane.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    reference = None
    if args.seed == REFERENCE_SEED or cls.reference_any_seed:
        reference = json.loads((HERE / "reference.json").read_text())
        reference = reference[args.workload]
    wl = cls(args.seed, reference)
    res = run_workload(wl, args.seconds, bool(args.trace))
    plain = [r for r in res["rounds"] if not r["traced"]]

    info = {"workload": args.workload, "why": whys[args.workload],
            "host": host_facts(np, blas_threads, args.seed),
            "setup_s": res["setup_s"],
            f"{wl.item}_per_s": _rate(plain),
            "rounds": [{k: r[k] for k in ("traced", "seconds", "items", "ops")}
                       for r in res["rounds"]],
            "fail_frac": res["failed"] / res["attempted"],
            "failures": res["failures"], "quad_warnings": res["warnings"],
            "reference_checked": reference is not None}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = res["failed"] == 0
    if args.trace:
        import selftest
        info["selftest_ok"] = selftest.run_quietly()
        correct &= info["selftest_ok"]
        values, extra = layer_metrics(wl, res)
        info.update(extra)
        info["predictions"] = json.loads(
            (HERE / "predictions.json").read_text())
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        res["recorder"].dump(out_dir / f"spans-{args.workload}-{args.seed}.json")
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(res["setup_s"]),
                  "work_per_s": _rate(plain), "peak_rss_mb": rss_mb}
        wanted = spec["end_to_end"]
    info["peak_rss_mb"] = rss_mb
    metrics = {w["name"]: {"value": float(values.get(w["name"], 0.0)),
                           "unit": w["unit"]} for w in wanted}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
