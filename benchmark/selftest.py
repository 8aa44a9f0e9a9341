#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery: self-time arithmetic on
synthetic spans, error attribution, and that the traced run's wrappers cover
every alias and leave nothing behind.

    python3 benchmark/selftest.py

Traced benchmark runs execute the same tests first and count a failure
against correctness.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracing import (MARK, TARGETS, Patches, Recorder,  # noqa: E402
                     find_wrapped, self_times)


class SelfTime(unittest.TestCase):
    def test_nested(self):
        # root [0,10] > a [1,4], b [5,9] > c [6,7]
        spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
                 ["b", 5.0, 9.0, 0, 0], ["c", 6.0, 7.0, 2, 0]]
        self.assertEqual(self_times(spans), [3.0, 3.0, 3.0, 1.0])

    def test_self_times_sum_to_root(self):
        spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
                 ["b", 5.0, 9.0, 0, 0], ["c", 6.0, 7.0, 2, 0],
                 ["d", 7.5, 8.5, 2, 0]]
        self.assertAlmostEqual(sum(self_times(spans)), 10.0, places=12)

    def test_overlapping_children_count_once(self):
        spans = [["p", 0.0, 10.0, -1, 0], ["x", 1.0, 5.0, 0, 0],
                 ["y", 3.0, 7.0, 0, 0]]
        self.assertEqual(self_times(spans)[0], 4.0)

    def test_child_clipped_to_parent(self):
        spans = [["p", 2.0, 6.0, -1, 0], ["x", 0.0, 3.0, 0, 0],
                 ["y", 5.0, 9.0, 0, 0]]
        self.assertEqual(self_times(spans)[0], 2.0)

    def test_recorder_parents(self):
        rec = Recorder()
        outer = rec.open("outer")
        rec.close(rec.open("inner"))
        rec.close(outer)
        rec.close(rec.open("next"))
        self.assertEqual([s[3] for s in rec.spans], [-1, 0, -1])
        for s in rec.spans:
            self.assertLessEqual(s[1], s[2])
        own = self_times(rec.spans)
        self.assertTrue(all(t >= 0.0 for t in own))


class Errors(unittest.TestCase):
    def test_counted_once_at_innermost(self):
        rec = Recorder()
        try:
            try:
                raise ValueError("deep")
            except ValueError as exc:
                rec.error("inner", exc)
                raise RuntimeError("wrapped") from exc
        except RuntimeError as exc:
            rec.error("outer", exc)
            rec.error("outer", exc)
        self.assertEqual(rec.errors, {"inner": {"ValueError": 1}})


@unittest.skipUnless((SRC / "treeplane" / "__init__.py").is_file(),
                     "treeplane sources not found")
class Wrappers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import treeplane  # noqa: F401
        import treeplane.suite  # noqa: F401  (imports every module)
        cls.tp = treeplane

    def _snapshot(self):
        mods = {k: m for k, m in sys.modules.items()
                if k == "treeplane" or k.startswith("treeplane.")}
        snap = {}
        for k, m in mods.items():
            for a, v in vars(m).items():
                snap[(k, a)] = v
                if isinstance(v, type) and v.__module__ == k:
                    for ca, cv in vars(v).items():
                        snap[(k, a, ca)] = cv
        return snap

    def _current(self, key):
        obj = sys.modules[key[0]]
        for part in key[1:]:
            obj = vars(obj)[part]
        return obj

    def test_every_alias_wrapped_and_restored(self):
        before = self._snapshot()
        originals = []
        for module, qualname, _ in TARGETS:
            obj = sys.modules[f"treeplane.{module}"]
            for part in qualname.split("."):
                obj = vars(obj)[part]
            originals.append(obj)
        aliases = [k for k, v in before.items()
                   if any(v is o for o in originals)]
        rec = Recorder()
        with Patches(rec):
            # every attribute that held a target now holds its wrapper
            for key in aliases:
                self.assertTrue(hasattr(self._current(key), MARK), key)
            ops, an = self.tp.operators, self.tp.analysis
            self.assertIs(ops.planar_seminorm, an.planar_seminorm)
            self.assertIs(ops.optimal_extension,
                          self.tp.tree_extension.optimal_extension)
            self.tp.tree_core.random_tree(2, 1, 0.01, 0)
            self.assertEqual(rec.spans[-1][0], "tree_core.random_tree")
        self.assertGreater(len(aliases), len(TARGETS))
        self.assertEqual(find_wrapped(), [])
        after = self._snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

    def test_restore_after_exception(self):
        rec = Recorder()
        with self.assertRaises(ValueError):
            with Patches(rec):
                self.tp.tree_core.random_tree(2, -1, 0.01, 0)
        self.assertEqual(find_wrapped(), [])
        self.assertEqual(rec.errors,
                         {"tree_core.random_tree": {"ValueError": 1}})


def run_quietly() -> bool:
    """The whole self-test, output to stderr; True when it passed."""
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


if __name__ == "__main__":
    unittest.main()
