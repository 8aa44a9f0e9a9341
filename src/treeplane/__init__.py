"""Weighted trees, their planar boundary sets, and Whitney-based smooth
extension: numerics for the equivalence between the p-energy extension problem
on a finite tree and the Sobolev extension problem in the plane."""

from .analysis import (EdgeWeights, GaussianBumpField, ball_average,
                       ball_estimate_sums, disk_seminorm, edge_weights,
                       planar_seminorm)
from .clusters import (ClusterBallError, ClusterTree, assign_clusters,
                       build_clusters, pair_sets)
from .embedding import (PlanarGeometryError, PlanarSet, build_planar_set,
                        psi_all, verify_lemma_psi, verify_lemma_sep)
from .interpolant import AffinePolynomial, PatchedInterpolant
from .operators import (PlanarData, norm_ratio_experiment, planar_extend,
                        tree_extend_from_planar, verify_restriction,
                        write_experiment_csv)
from .tree_core import (LeafFunction, NodeFunction, TreeStructureError,
                        WeightedTree, edge_energy, lca, random_tree,
                        seminorm_tree, validate)
from .tree_extension import (ExtensionSolveError, averaging_extension,
                             harmonic_extension_p2,
                             optimal_extension, trace_seminorm)
from .whitney import WhitneyCapError, WhitneyDecomposition, decompose

__all__ = [
    "WeightedTree", "NodeFunction", "LeafFunction", "TreeStructureError",
    "edge_energy", "seminorm_tree", "lca", "random_tree", "validate",
    "optimal_extension", "harmonic_extension_p2", "averaging_extension",
    "trace_seminorm",
    "ExtensionSolveError",
    "PlanarSet", "build_planar_set", "psi_all",
    "verify_lemma_psi", "verify_lemma_sep", "PlanarGeometryError",
    "WhitneyDecomposition", "decompose", "WhitneyCapError",
    "ClusterTree", "build_clusters", "assign_clusters", "pair_sets",
    "ClusterBallError",
    "AffinePolynomial", "PatchedInterpolant",
    "planar_seminorm", "disk_seminorm", "ball_average", "ball_estimate_sums",
    "GaussianBumpField", "edge_weights", "EdgeWeights",
    "PlanarData", "planar_extend", "tree_extend_from_planar",
    "verify_restriction", "norm_ratio_experiment", "write_experiment_csv",
]

__version__ = "0.1.0"
