"""Balanced-homodyne noise spectra of a driven optomechanical cavity.

Forward model (closed-form spectra over frequency and a batched drive,
technical-noise stack, instrument shaping), two independent numerical
oracles, and the inverse problems used to characterize the device.
"""

__version__ = "0.1.0"
