"""megsim: a desk-scale simulator for edge-assisted text-to-image
generation, where a server sends compressed latent seeds over a noisy
fading link and the receiving device finishes the generation.
"""

from . import (channel, config, corpus, experiments, genmodel, metrics, nn,
               power_rl, protocol, seedcodec)
from .config import ExperimentConfig, config_hash, load_config
from .protocol import ModelBundle, RunSpec, run_end_to_end, serve_cells

__version__ = "0.1.0"

__all__ = [
    "channel", "config", "corpus", "experiments", "genmodel", "metrics",
    "nn", "power_rl", "protocol", "seedcodec",
    "ExperimentConfig", "config_hash", "load_config",
    "ModelBundle", "RunSpec", "run_end_to_end", "serve_cells", "__version__",
]
