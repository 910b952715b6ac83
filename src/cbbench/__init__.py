"""cbbench: benchmarking toolkit for keyed biometric template protection.

Six cancelable transforms (biohash, mlp-hash, bloom, iom-grp, iom-urp,
rand-hash) plus the standard evaluation battery: recognition performance
(DET/EER/FNMR@FMR), unlinkability of score distributions under
sample-specific keys, and irreversibility as Gaussian-approximated mutual
information between unprotected and protected template sets.
"""

__version__ = "0.1.0"

from . import core, errors, io, metrics, numerics, protocol, schemes, synthdata
from .core import *
from .errors import *
from .io import *
from .metrics import *
from .numerics import *
from .protocol import *
from .schemes import *
from .synthdata import *

# cli stays out: it is the command line, and importing it loads argparse
__all__ = ["__version__"] + [
    name for module in (core, errors, io, metrics, numerics, protocol, schemes, synthdata)
    for name in module.__all__
]
