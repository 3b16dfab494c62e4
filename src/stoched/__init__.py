"""Stochastic schedule forecasting.

Activity durations on a precedence network are modeled as lognormal
random variables; Monte Carlo propagation turns them into completion-time
forecasts with criticality probabilities, and noisy progress observations
tighten the per-activity distributions through recursive MAP updates.

The package re-exports nothing: import each name from the module that
defines it, e.g. ``from stoched.simulate import simulate``.
"""

__version__ = "0.1.0"
