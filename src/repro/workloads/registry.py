"""Workload registry and evaluation suites.

``DESKTOP_SUITE`` holds all twelve paper benchmarks; ``TABLET_SUITE``
the seven that build on the 32-bit tablet toolchain (the paper's
footnote 2: the rest fail to compile under 32-bit mingw/CLANG).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Type

from repro.errors import UnknownNameError, closest_names
from repro.workloads.base import Workload


@lru_cache(maxsize=None)
def _workload_classes() -> Dict[str, Type[Workload]]:
    """The twelve benchmark classes by lower-case abbreviation, in the
    paper's Table 1 order."""
    # Imported here to keep module import light and cycle-free.
    from repro.workloads.barneshut import BarnesHut
    from repro.workloads.bfs import BreadthFirstSearch
    from repro.workloads.blackscholes import BlackScholes
    from repro.workloads.connected_components import ConnectedComponents
    from repro.workloads.facedetect import FaceDetect
    from repro.workloads.mandelbrot import Mandelbrot
    from repro.workloads.matmul import MatrixMultiply
    from repro.workloads.nbody import NBody
    from repro.workloads.raytracer import RayTracer
    from repro.workloads.seismic import Seismic
    from repro.workloads.skiplist import SkipList
    from repro.workloads.shortest_path import ShortestPath

    classes = (
        BarnesHut,
        BreadthFirstSearch,
        ConnectedComponents,
        FaceDetect,
        Mandelbrot,
        SkipList,
        ShortestPath,
        BlackScholes,
        MatrixMultiply,
        NBody,
        RayTracer,
        Seismic,
    )
    return {cls.abbrev.lower(): cls for cls in classes}


def all_workloads() -> List[Workload]:
    """Fresh instances of the full twelve-benchmark suite, in the
    paper's Table 1 order."""
    return [cls() for cls in _workload_classes().values()]


def workload_by_abbrev(abbrev: str) -> Workload:
    """Look up a suite workload by its Table-1 abbreviation.

    Returns a fresh instance, constructing only the one that matches.
    Raises :class:`~repro.errors.UnknownNameError` (which is also a
    :class:`~repro.errors.WorkloadError`) with did-you-mean
    suggestions on a miss.
    """
    cls = (_workload_classes().get(abbrev.lower())
           if isinstance(abbrev, str) else None)
    if cls is None:
        known = [c.abbrev for c in _workload_classes().values()]
        raise UnknownNameError(
            f"unknown workload abbreviation {abbrev!r}; "
            f"expected one of {known}",
            suggestions=closest_names(str(abbrev), known))
    return cls()


#: Abbreviations of the desktop (full) suite, Table 1 order.
DESKTOP_SUITE: List[str] = [
    "BH", "BFS", "CC", "FD", "MB", "SL", "SP", "BS", "MM", "NB", "RT", "SM",
]

#: The seven workloads the 32-bit tablet runs (Table 1, column 4).
TABLET_SUITE: List[str] = ["MB", "SL", "BS", "MM", "NB", "RT", "SM"]


def suite_workloads(tablet: bool = False) -> List[Workload]:
    """Instantiate the evaluation suite for one platform."""
    names = TABLET_SUITE if tablet else DESKTOP_SUITE
    by_abbrev: Dict[str, Workload] = {w.abbrev: w for w in all_workloads()}
    return [by_abbrev[name] for name in names]
