"""Excitation spectra, skin-effect diagnostics and SSH topology of bosonic Kitaev-type chains."""

__version__ = "0.1.0"
