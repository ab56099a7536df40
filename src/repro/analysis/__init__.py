"""Program analyses: dependences, code DAGs, aliasing, liveness.

The analyses here are the substrate shared by both schedulers: the
code DAG (:func:`build_dag`), transitive closures
(:mod:`repro.analysis.reachability`), connected components and
load-path counting (:mod:`repro.analysis.components`), and live
intervals for the register allocator (:mod:`repro.analysis.liveness`).
"""

from .alias import AliasModel, may_alias
from .components import (
    component_loads,
    connected_components,
    longest_load_path,
    longest_path_unionfind,
)
from .critical_path import priorities
from .dag import CodeDAG, DepKind, Edge
from .dependence import build_dag, ordered_pairs
from .liveness import LiveInterval, live_intervals, max_pressure, pressure_profile
from .reachability import (
    bits,
    closures,
    independent_mask,
    predecessor_closure,
    reachable,
    successor_closure,
)
from .unionfind import DisjointSets, LevelUnionFind

__all__ = [
    "AliasModel",
    "may_alias",
    "component_loads",
    "connected_components",
    "longest_load_path",
    "longest_path_unionfind",
    "priorities",
    "CodeDAG",
    "DepKind",
    "Edge",
    "build_dag",
    "ordered_pairs",
    "LiveInterval",
    "live_intervals",
    "max_pressure",
    "pressure_profile",
    "bits",
    "closures",
    "independent_mask",
    "predecessor_closure",
    "reachable",
    "successor_closure",
    "DisjointSets",
    "LevelUnionFind",
]
