"""Voyage energy-efficiency analytics for short-sea fleets.

Subpackages cover the pipeline end to end: geographic primitives and voyage
segmentation (geo), onboard/weather ingestion (ingestion), efficiency
scoring and percentile clustering (efficiency), speed-profile optimization
(speed_opt, hmm), vessel path identification (path_id), synthetic fleet
generation (synth), and a CLI (cli) orchestrating everything. Import names
from the submodules (``from voyagekit.path_id import annd``): the package loads none.
"""

__version__ = "0.1.0"
