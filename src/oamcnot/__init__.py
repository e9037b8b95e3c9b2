"""Simulation of a linear-optical CNOT acting on a photon's polarization
(control) and OAM sign (target), with a triangular-aperture readout.

Layers:

* :mod:`oamcnot.hybrid` -- exact 4-dim gate algebra of the hybrid qubit pair.
* :mod:`oamcnot.interferometer` -- path-resolved element model whose
  composition must reduce to the CNOT matrix.
* :mod:`oamcnot.wavefield` -- scalar wave optics: vortex modes, apertures,
  far-field propagation.
* :mod:`oamcnot.readout` -- the camera path: far-field image, spot-lattice
  detection and charge classification.
* :mod:`oamcnot.circuit` -- text format for circuits plus interpreters for
  both layers.
* :mod:`oamcnot.cli` -- command-line reproductions and reports.
"""

__version__ = "0.1.0"
