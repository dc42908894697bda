"""Few-shot episodic classification under domain shift, desk scale.

The package implements a small metric-based few-shot stack end to end:
a reverse-mode autodiff core, stochastic feature-wise modulation layers
with hyper-parameters trained by a second-order simulation of domain
shift, a synthetic multi-domain testbed, and an evaluation harness with
a command line interface.
"""

__version__ = "0.1.0"
