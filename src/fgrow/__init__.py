"""Growth, folding, and mapping-torus toolkit for free-group maps.

The pieces, bottom up: reduced words and cyclic words (``words``),
folded subgroup graphs (``folding``), endomorphisms and certified
automorphisms (``automorphisms``), certified and heuristic growth
classification (``growth``), the free-by-cyclic mapping torus and its
fiber intersections (``mapping_torus``), graphs of groups fixed by a
map and the induced torus splittings (``splittings``), Cayley balls
and a divergence probe (``geometry``), plus a CLI (``cli``).

Names are imported from the submodules; the root holds only ``__version__``.
"""

__version__ = "0.1.0"
