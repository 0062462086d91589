"""steinkit: exact calculus for Legendrian fronts and Stein-fillable 3-manifolds.

The package is organised in layers:

  numerics      exact rationals, Moebius maps, Smith forms, symmetric congruence, GF(2)
  front         Legendrian front diagrams in standard form and their moves
  presentation  rational surgery presentations and the surgery calculus
  invariants    plane-field invariants of surgered handlebody boundaries
  families      Seifert fibered and three-component-link realizability
  cli           the steinkit command line tool

Three of them are split along what the light command line verbs run.
rational (the scalars), diagram (fronts without the moves) and surgery
(presentations without the rewrites) define that half; numerics, front
and presentation define the rest and bind every name of their half too,
so a library import is complete while a verb compiles only its half.
"""

__version__ = "0.1.0"
