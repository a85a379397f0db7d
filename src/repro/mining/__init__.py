"""Cross-layer data mining tool (Section 3.4 of the paper).

The tool joins three kinds of data into one analysis store and mines it
for relationships between software symptoms and soft-error outcomes:

1. fault-injection classification results (from the campaign database),
2. microarchitectural statistics (the "gem5 statistics"),
3. functional profiling information (the "OVPsim" data: function usage,
   line coverage, vulnerability windows).

The three analysis steps of the paper map to:

* step 1/2 — :class:`~repro.mining.dataset.Dataset` and
  :func:`~repro.mining.eda.build_analysis_dataset` (acquisition,
  transformation, initial statistics);
* step 3 — :mod:`repro.mining.correlation` (relationship mining).
  The derived indices of the paper's tables (the function-calls x
  branches index of Table 2, the MPI-vs-OpenMP mismatch and masking
  comparison, memory share versus UT) are computed by the tables in
  :mod:`repro.analysis`, straight from the campaign database.
"""

from repro.mining.dataset import Dataset
from repro.mining.eda import build_analysis_dataset
from repro.mining.correlation import correlation_matrix, rank_correlations

__all__ = [
    "Dataset",
    "build_analysis_dataset",
    "correlation_matrix",
    "rank_correlations",
]
