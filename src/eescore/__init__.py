"""Deterministic evaluation toolkit for event extraction.

Makes preprocessing variants explicit and auditable, standardizes
heterogeneous model outputs onto a single candidate-based output space,
and computes ED/EAE metrics under both gold-trigger and pipeline
protocols.
"""

__version__ = "0.1.0"
