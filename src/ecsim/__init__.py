"""ecsim: exact simulation of entangled-coherent-state qubit channels."""

__version__ = "0.1.0"
