"""Span recorder and call wrappers for the traced benchmark run.

The traced run swaps each public treeplane function named in `TARGETS` for a
wrapper at every module attribute (and class attribute, for methods) through
which callers reach it, records one span per call, and puts every original
back afterwards.  Spans live in memory as (name, start, end, parent, items)
and are written out once the run ends; `self_times` turns them into per-layer
self time.  The untraced run uses only `find_wrapped`, which proves no
wrapper is left behind.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (module, qualified name, items counted per call or None)
TARGETS = (
    ("tree_core", "random_tree", None),
    ("tree_core", "seminorm_tree", None),
    ("tree_extension", "optimal_extension", None),
    ("tree_extension", "trace_seminorm", None),
    ("embedding", "build_planar_set", None),
    ("whitney", "decompose", None),
    ("whitney", "verify_partition", None),
    ("whitney", "verify_cz", None),
    ("whitney", "verify_boundary", None),
    ("whitney", "verify_dist_bd", None),
    ("whitney", "verify_basepoints", None),
    ("whitney", "pou_table", "points"),
    ("whitney", "WhitneyDecomposition.locate", "points"),
    ("clusters", "build_clusters", None),
    ("clusters", "assign_clusters", None),
    ("interpolant", "PatchedInterpolant.evaluate", "points"),
    ("analysis", "planar_seminorm", None),
    ("analysis", "ball_average", "disk"),
    ("operators", "planar_extend", None),
    ("operators", "tree_extend_from_planar", None),
    ("operators", "norm_ratio_experiment", None),
    ("suite", "verify_tree", None),
)

PACKAGE = "treeplane"
MARK = "__benchmark_span__"
# spans whose first argument (the interpolant) is kept for computed counts
CAPTURE = ("analysis.planar_seminorm",)


class Recorder:
    """In-memory spans for one process; no I/O until `dump`."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, items]
        self._stack: list[int] = []
        self.errors: dict[str, dict[str, int]] = {}
        self._counted: list[BaseException] = []
        self.captured: list = []          # first arguments kept by `capture`

    def open(self, name: str, items: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, items])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def error(self, name: str, exc: BaseException) -> None:
        """Count an exception once, at the innermost span it escaped from,
        and not again when it is re-raised wrapped by an outer layer."""
        chain, e = [], exc
        while e is not None:
            chain.append(e)
            e = e.__cause__ or e.__context__
        if any(c is seen for c in chain for seen in self._counted):
            return
        self._counted.append(exc)
        per = self.errors.setdefault(name, {})
        per[type(exc).__name__] = per.get(type(exc).__name__, 0) + 1

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "items"],
                       "spans": self.spans, "errors": self.errors}, fh)
            fh.write("\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children of one span may overlap each other (they never do in a
    single-threaded run, but the arithmetic does not rely on it); their
    union, clipped to the parent, is what gets subtracted.
    """
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            kids.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[1], s[2]
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted(kids.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def _count_points(args, kwargs) -> int:
    pts = args[1] if len(args) > 1 else kwargs.get("pts")
    shape = getattr(pts, "shape", None)
    if shape is None:
        return len(pts)
    return 1 if len(shape) == 1 else int(shape[0])


def _count_disk(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs) -> int:
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return int(b.arguments["rings"]) * int(b.arguments["angles"])
    return count


def _wrap(fn, name: str, rec: Recorder, count, capture: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if capture:
            rec.captured.append((name, args[0]))
        idx = rec.open(name, count(args, kwargs) if count else 0)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            rec.error(name, exc)
            raise
        finally:
            rec.close(idx)
    setattr(wrapper, MARK, name)
    return wrapper


def _package_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]


class Patches:
    """Installs the wrappers; `restore` puts back every original."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("wrappers already installed")
        mods = _package_modules()
        by_name = {m.__name__: m for m in mods}
        for module, qualname, kind in TARGETS:
            home = by_name[f"{PACKAGE}.{module}"]
            name = f"{module}.{qualname.rsplit('.', 1)[-1]}"
            owner = home
            if "." in qualname:
                cls_name, qualname = qualname.split(".")
                owner = getattr(home, cls_name)
            orig = vars(owner)[qualname]
            count = {"points": _count_points,
                     "disk": _count_disk(orig) if kind == "disk" else None,
                     None: None}[kind]
            wrapper = _wrap(orig, name, self.rec, count, name in CAPTURE)
            if owner is not home:       # a method: its class is the only alias
                self._set(owner, qualname, orig, wrapper)
                continue
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, orig, wrapper)

    def _set(self, obj, attr: str, orig, wrapper) -> None:
        self.saved.append((obj, attr, orig))
        setattr(obj, attr, wrapper)

    def restore(self) -> None:
        for obj, attr, orig in reversed(self.saved):
            setattr(obj, attr, orig)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self.saved
                if getattr(o, a) is not orig]
        self.saved = []
        if left:
            raise RuntimeError(f"attributes not restored: {left}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, et, exc, tb):
        self.restore()
        return False


def find_wrapped() -> list[str]:
    """Every attribute of the package's modules and their classes that still
    holds a benchmark wrapper; empty means untraced timings are clean."""
    found = []
    for m in _package_modules():
        for attr, val in vars(m).items():
            if hasattr(val, MARK):
                found.append(f"{m.__name__}.{attr}")
            if isinstance(val, type) and val.__module__ == m.__name__:
                for a, v in vars(val).items():
                    if hasattr(v, MARK):
                        found.append(f"{m.__name__}.{attr}.{a}")
    return found
