"""Finite presheaf semantics for a necessity modality.

The package builds everything from explicit tables: finite categories,
presheaves with numbered fibers, comonads induced by restriction and
right Kan extension along a functor, their coalgebras, and the
dependent-type structure those coalgebras carry.  On top sits a small
two-zone modal kernel with a checker, a definitional equality
decision, and an interpretation that lands every judgment in a chosen
comonad model and tests the expected equations as data.

The package root re-exports nothing: import each name from the module
that defines it, so that a process compiles only the modules it uses.
"""
