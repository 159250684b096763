"""latticekit: ring-cavity optical lattice modeling and fitting toolkit.

Each name is imported from the module that defines it, e.g.
`from latticekit.cavity import finesse_from_losses`; importing the package
itself loads no submodule, so every command but fit and tof runs without
numpy.
"""

__version__ = "0.1.0"
