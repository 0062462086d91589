"""steinkit: exact calculus for Legendrian fronts and Stein-fillable 3-manifolds.

The package is organised in layers:

  numerics      exact rationals, Moebius maps, Smith forms, symmetric congruence, GF(2)
  front         Legendrian front diagrams in standard form and their moves
  presentation  rational surgery presentations and the surgery calculus
  invariants    plane-field invariants of surgered handlebody boundaries
  families      Seifert fibered and three-component-link realizability
  cli           the steinkit command line tool
"""

__version__ = "0.1.0"
