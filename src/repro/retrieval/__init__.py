"""``repro.retrieval`` — the two-stage retrieval cascade (sublinear serving).

Scoring every catalog item with the full AW-MoE is linear in catalog size,
which caps the fleet far below the "millions of items" the paper's
deployment (§III-F, Fig. 6) serves.  This package makes the pipeline around
the model sublinear::

    query ──► ItemIndex (IVF-flat ANN over the model's item embeddings)
                  │  retrieve_n ids, nprobe cells probed
                  ▼
              Prefilter (linear: bias-corrected dot + popularity/sales prior)
                  │  prune → K survivors
                  ▼
              compiled AW-MoE (repro.infer) ranks only the survivors

* :mod:`~repro.retrieval.index` — category-partitioned IVF-flat index:
  k-means coarse cells, contiguous float32 slabs, ``np.argpartition`` top-N;
* :mod:`~repro.retrieval.prefilter` — the cheap stage-1 scorer, compiled as
  a tiny :class:`~repro.infer.plan.InferencePlan` in a ``BufferArena``;
* :mod:`~repro.retrieval.cascade` — the cascade and its config, the
  exhaustive-parity oracle mode, and the canary :class:`RetrievalProbe`.

Cascades are weight snapshots: the serving engine rebuilds them from the
new model on every hot swap, atomically with the inference plan.
"""

from repro.retrieval.cascade import CascadeConfig, RetrievalCascade, RetrievalProbe
from repro.retrieval.index import ItemIndex, kmeans
from repro.retrieval.prefilter import Prefilter

__all__ = [
    "CascadeConfig",
    "RetrievalCascade",
    "RetrievalProbe",
    "ItemIndex",
    "kmeans",
    "Prefilter",
]
