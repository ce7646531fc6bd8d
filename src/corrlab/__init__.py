"""corrlab: a numerical laboratory for correlation matrices in the elliptope.

Subpackages cover elliptope validation and projection (:mod:`corrlab.core`),
Fisher-Rao geometry and means (:mod:`corrlab.geometry`), random-matrix
samplers (:mod:`corrlab.samplers`), stylized facts (:mod:`corrlab.facts`),
labeled corpora (:mod:`corrlab.corpus`), a minimal neural engine
(:mod:`corrlab.neural`), a conditional GAN (:mod:`corrlab.gan`),
distribution-fidelity evaluation (:mod:`corrlab.evaluation`), risk-based
allocation (:mod:`corrlab.portfolio`) and the Monte Carlo harness
(:mod:`corrlab.mc`).
"""

__version__ = "0.3.0"

from .core import (  # noqa: F401
    cholesky,
    eigh,
    is_correlation,
    nearest_correlation,
    validate,
)
from .geometry import MeanMethod, airm_distance, geodesic, mean  # noqa: F401
from .samplers import (  # noqa: F401
    RegimeLabel,
    RegimeParams,
    sample_cvine,
    sample_one_factor,
    sample_onion,
    sample_regime,
    sample_with_spectrum,
)
from .facts import feature_vector, mst, stylized_report  # noqa: F401
