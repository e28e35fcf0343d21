"""Registry of the cardinality estimation techniques studied in the paper."""

from __future__ import annotations

from typing import Dict, List, Type

from ..graph.digraph import Graph
from .framework import Estimator

#: techniques registered at runtime via :func:`register_estimator`
#: (extensions, test doubles); merged over the built-ins by name
_RUNTIME_TECHNIQUES: Dict[str, Type[Estimator]] = {}


def _builtin_techniques() -> Dict[str, Type[Estimator]]:
    # imported lazily to avoid import cycles
    from ..estimators.bernoulli import BernoulliSampling
    from ..estimators.boundsketch import BoundSketch
    from ..estimators.correlated import CorrelatedSampling
    from ..estimators.cset import CharacteristicSets
    from ..estimators.hybrid import CSetWanderJoinHybrid
    from ..estimators.impr import Impr
    from ..estimators.jsub import Jsub
    from ..estimators.sumrdf import SumRDF
    from ..estimators.truecard import TrueCardinality
    from ..estimators.wanderjoin import WanderJoin

    return {
        cls.name: cls
        for cls in (
            CharacteristicSets,
            Impr,
            SumRDF,
            CorrelatedSampling,
            WanderJoin,
            Jsub,
            BoundSketch,
            # extension (not in the paper): the conclusion's open question
            # (a) — WanderJoin integrated with a graph-based summary
            CSetWanderJoinHybrid,
            # baseline: the "independent sampling" Section 4.1 contrasts
            # CorrelatedSampling against
            BernoulliSampling,
            # ground truth wrapped as a technique (the TC rows of Fig. 11)
            TrueCardinality,
        )
    }


def _techniques() -> Dict[str, Type[Estimator]]:
    merged = _builtin_techniques()
    merged.update(_RUNTIME_TECHNIQUES)
    return merged


def register_estimator(
    cls: Type[Estimator], replace: bool = False
) -> Type[Estimator]:
    """Register a technique class under its ``name`` at runtime.

    Lets extensions and test doubles participate in everything keyed by
    technique name (runners, CLI, regression snapshots).  Note for
    parallel sweeps: worker processes see runtime registrations through
    ``fork`` inheritance; under the ``spawn`` start method only importable
    (built-in) techniques are available in workers.

    Usable as a class decorator; returns ``cls``.
    """
    name = cls.name
    if not replace and name in _techniques():
        raise ValueError(f"technique {name!r} is already registered")
    _RUNTIME_TECHNIQUES[name] = cls
    return cls


def unregister_estimator(name: str) -> None:
    """Remove a runtime registration (built-ins cannot be removed)."""
    _RUNTIME_TECHNIQUES.pop(name, None)


#: names of the graph-based techniques (paper, Section 3)
GRAPH_BASED = ("cset", "impr", "sumrdf")
#: names of the relational-based techniques (paper, Section 4)
RELATIONAL_BASED = ("cs", "wj", "jsub", "bs")
#: all technique names in the paper's presentation order
ALL_TECHNIQUES = GRAPH_BASED + RELATIONAL_BASED
#: extension techniques beyond the paper's seven
EXTENSIONS = ("cswj", "bernoulli", "tc")


def available_techniques() -> List[str]:
    """Names of the techniques sweeps/CLI default to, in the paper's
    order: a fresh copy of :data:`ALL_TECHNIQUES`."""
    return list(ALL_TECHNIQUES)


def create_estimator(name: str, graph: Graph, **kwargs) -> Estimator:
    """Instantiate a technique by name (e.g. ``"wj"``, ``"cset"``)."""
    techniques = _techniques()
    if name not in techniques:
        raise KeyError(
            f"unknown technique {name!r}; available: {sorted(techniques)}"
        )
    return techniques[name](graph, **kwargs)


def estimator_class(name: str) -> Type[Estimator]:
    """The class registered under ``name``."""
    return _techniques()[name]
