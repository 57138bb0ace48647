"""Simulation and verification tools for particle systems on infinite grids.

Particles are anonymous, occupy grid cells, label their ports clockwise
in a private frame, and act only on local information.  The package
covers three grids (square, triangular, king), leader election by
candidate elimination, spanning tree construction, port relabeling to a
common frame, identifier assignment that stays locally unique out to a
chosen distance, and the periodic colorings the identifiers come from.
Import each name from its module; the package binds none.
"""
