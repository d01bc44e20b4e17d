"""Label-noise gradient descent laboratory for the two-patch signal-noise model."""

__version__ = "0.1.0"
