"""repro — a simulation-based reproduction of "Restricted Slow-Start for TCP".

Paper: W. Allcock, S. Hegde, R. Kettimuthu, *Restricted Slow-Start for TCP*,
IEEE Cluster 2005.

The package is organised as substrates (discrete-event engine, network,
hosts, TCP) plus the paper's contribution (:mod:`repro.core`) and the
experiment harness that regenerates the paper's figure and headline numbers
(:mod:`repro.experiments`).  The README maps every experiment to its spec
and benchmark.

Quickstart::

    from repro.spec import RunSpec, execute

    standard = execute(RunSpec(cc="reno", duration=25.0))
    restricted = execute(RunSpec(cc="restricted", duration=25.0))
    print(standard.goodput_bps, restricted.goodput_bps)

Every run is described by a declarative, JSON-round-trippable spec
(:mod:`repro.spec`) run on one of two backends ("packet" — event-driven
ground truth — or "fluid" — the per-RTT fast path).
``repro.spec.execute(spec)`` runs one spec and
``repro.experiments.map_specs(specs)`` fans a batch out across processes;
these are the only entry points.  The README's "Spec API" section maps
the removed keyword functions to their specs.
"""

from __future__ import annotations

__version__ = "1.0.0"

__all__ = ["__version__"]
