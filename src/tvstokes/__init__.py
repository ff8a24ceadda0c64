"""Two-step gradient-field denoising for d-dimensional volumes.

The model first smooths the gradient field of a noisy image under the
constraint that it stays a gradient field, then rebuilds the image by
matching its gradient direction to the smoothed field.  Both steps run one
projected dual step, ``p <- unit_clip(p - tau*A(p))``; a classical isotropic
TV baseline shares the iteration kernel for comparison.

Each module's ``__all__`` is the one declaration of its public names.
"""

from . import errors, fields, metrics, noise, pipeline, reconstruction, rof, smoothing
from . import spectral, volume_io
from .errors import *
from .fields import *
from .spectral import *
from .smoothing import *
from .reconstruction import *
from .rof import *
from .volume_io import *
from .noise import *
from .metrics import *
from .pipeline import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, fields, spectral, smoothing, reconstruction, rof, volume_io, noise,
                   metrics, pipeline)
    for name in module.__all__
]
