"""latticekit: ring-cavity optical lattice modeling and fitting toolkit.

Each name is imported from the module that defines it, e.g.
`from latticekit.cavity import finesse_from_losses`; importing the package
itself loads no submodule, so the scalar command-line paths never load numpy.
"""

__version__ = "0.1.0"
