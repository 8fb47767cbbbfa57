"""Stochastic kinetics of an energy-carrying reaction mixture.

Modules: ``model`` (configuration), ``kinetics`` (event-driven particle
engine), ``meanfield`` (kinetic-equation and reduced-ODE integrators),
``thermo`` (ideal-mixture thermodynamics), ``oracle`` (pair-interaction
combinatorics and exact small-system checks), ``stats`` (test statistics),
``scenarios`` (named verification pipelines), ``cli`` (command line).
Import each one directly, as in ``from kinchem import thermo``; the package
itself loads none of them.
"""
