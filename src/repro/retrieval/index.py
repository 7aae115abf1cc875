"""IVF-flat ANN index over the serving model's item-embedding table.

Production candidate generators do not scan the catalog: they keep an
inverted-file (IVF) index whose coarse quantizer maps a query vector onto a
few k-means partitions, scan only those partitions' item vectors, and return
the best matches.  This module is that structure in vectorized NumPy:

* items are first partitioned **by category** (search retrieval is
  category-constrained, exactly like the production candidate generator the
  paper's Fig. 6 sits behind), then each category is split into
  ``ceil(sqrt(members))`` k-means cells over the item vectors;
* every category stores one **contiguous float32 slab** of its item vectors,
  ordered by cell, so probing a cell is a contiguous-slice GEMV — no gather,
  no per-item Python work;
* ``search`` scores the probed cells' rows in one shot and selects the top-N
  via ``np.argpartition`` (O(rows) instead of a full sort);
* ``nprobe`` trades recall for speed: probe few cells for sublinear scans,
  or pass ``"all"`` to scan the whole category — the **exact** brute-force
  result, which is the parity/oracle mode of the retrieval cascade
  (:mod:`repro.retrieval.cascade`).

The index is a *weight snapshot*, exactly like an
:class:`~repro.infer.plan.InferencePlan`: it copies the item vectors at
build time and is rebuilt from the new snapshot on every model hot-swap
(:meth:`repro.serving.engine.SearchEngine.set_model`), so retrieval can
never serve embeddings of a model that is no longer scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

__all__ = ["ItemIndex", "kmeans"]


def kmeans(
    vectors: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator,
    iterations: int = 8,
) -> Tuple[np.ndarray, np.ndarray]:
    """Plain vectorized Lloyd's k-means: ``(centroids, assignments)``.

    Deterministic given ``rng``.  Each iteration is one GEMM over the
    partition (the nearest centroid minimizes ``||c||^2 - 2 x.c``; ``||x||^2``
    shifts every candidate alike) and one sorted segment sum for all
    centroids.  An emptied cell takes the point farthest from its centroid.
    """
    n = vectors.shape[0]
    num_clusters = int(min(max(num_clusters, 1), n))
    centroids = vectors[rng.choice(n, size=num_clusters, replace=False)].copy()
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        dists = vectors @ (-2.0 * centroids).T
        dists += (centroids**2).sum(axis=1)
        assignments = dists.argmin(axis=1)
        counts = np.bincount(assignments, minlength=num_clusters)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            own_dist = (vectors**2).sum(axis=1) + dists[np.arange(n), assignments]
            for k in empty:
                # Only a cell with a point to spare gives one up: no reseed
                # empties its donor or takes what another empty cell just took.
                own_dist[counts[assignments] < 2] = -np.inf
                farthest = int(own_dist.argmax())
                counts[assignments[farthest]] -= 1
                assignments[farthest], counts[k] = k, 1
        # Cell-ordered rows: every centroid is one segment of one reduceat.
        order = np.argsort(assignments, kind="stable")
        sums = np.add.reduceat(vectors[order], np.cumsum(counts) - counts, axis=0)
        centroids = sums / counts[:, None].astype(vectors.dtype)
    return centroids, assignments


@dataclass
class _Partition:
    """One category's inverted file: cell-ordered slab + coarse centroids."""

    slab: np.ndarray  # (members, D) float32, C-contiguous, ordered by cell
    ids: np.ndarray  # (members,) 0-based item ids, same order as slab rows
    centroids: np.ndarray  # (cells, D) float32
    offsets: np.ndarray  # (cells + 1,) row ranges of each cell in the slab

    @property
    def size(self) -> int:
        return int(self.ids.size)

    @property
    def num_cells(self) -> int:
        return int(self.centroids.shape[0])


class ItemIndex:
    """Category-partitioned IVF-flat index over item vectors.

    Parameters
    ----------
    vectors:
        ``(num_items, D)`` item vectors (any float dtype; stored float32).
        Any additive per-item prior belongs *in* the vectors (the cascade
        carries its popularity prior as a vector column scored by the
        session weights).
    item_category:
        ``(num_items,)`` 0-based category of every item.
    num_categories:
        Total category count (empty categories get empty partitions).
    seed:
        Seeds the k-means of every partition; two builds from the same
        snapshot are bitwise identical.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        item_category: np.ndarray,
        num_categories: int,
        seed: int = 0,
    ) -> None:
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be (num_items, D), got {vectors.shape}")
        if item_category.shape[0] != vectors.shape[0]:
            raise ValueError("item_category length must match vectors")
        self.dim = int(vectors.shape[1])
        self.num_items = int(vectors.shape[0])
        self._partitions: List[_Partition] = []
        for cat in range(int(num_categories)):
            members = np.flatnonzero(item_category == cat)
            self._partitions.append(self._build_partition(vectors, members, seed, cat))

    @staticmethod
    def _build_partition(
        vectors: np.ndarray,
        members: np.ndarray,
        seed: int,
        cat: int,
    ) -> _Partition:
        if members.size == 0:
            empty = np.empty((0, vectors.shape[1]), dtype=np.float32)
            return _Partition(
                slab=empty,
                ids=members.astype(np.int64),
                centroids=empty.copy(),
                offsets=np.zeros(1, dtype=np.int64),
            )
        # The classic IVF sizing that balances coarse and fine scan costs.
        cells = int(np.ceil(np.sqrt(members.size)))
        member_vectors = vectors[members]
        rng = np.random.default_rng(np.random.SeedSequence([seed, cat]))
        centroids, assignments = kmeans(member_vectors, cells, rng)
        # Cell-order the slab (stable so equal assignments keep id order,
        # making builds reproducible and ties deterministic downstream).
        order = np.argsort(assignments, kind="stable")
        counts = np.bincount(assignments, minlength=centroids.shape[0])
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return _Partition(
            slab=np.ascontiguousarray(member_vectors[order]),
            ids=members[order].astype(np.int64),
            centroids=np.ascontiguousarray(centroids),
            offsets=offsets,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def partition_size(self, category: int) -> int:
        return self._partitions[category].size

    def partition_ids(self, category: int) -> np.ndarray:
        """All item ids of one category (index order, copy)."""
        return self._partitions[category].ids.copy()

    @property
    def nbytes(self) -> int:
        """Bytes held by slabs + centroids (the index's resident set)."""
        return sum(p.slab.nbytes + p.centroids.nbytes for p in self._partitions)

    def stats(self) -> dict:
        sizes = [p.size for p in self._partitions]
        return {
            "num_items": self.num_items,
            "dim": self.dim,
            "partitions": len(self._partitions),
            "cells": sum(p.num_cells for p in self._partitions),
            "largest_partition": max(sizes) if sizes else 0,
            "nbytes": self.nbytes,
        }

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(
        self,
        query: np.ndarray,
        category: int,
        topn: int,
        nprobe: Union[int, str] = 8,
        scores_out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Top-``topn`` item ids of ``category`` by ``<query, x>``.

        ``nprobe`` cells are scanned (``"all"`` scans the whole partition —
        exact brute force).  Returns 0-based ids in **ascending id order**:
        the caller re-ranks with a real scorer, and a canonical order makes
        candidate sets reproducible and tie-breaks deterministic.

        ``scores_out`` (float32, at least ``topn`` long) receives the
        returned ids' scores in the same order, for a caller whose next
        stage starts from the same inner product.
        """
        part = self._partitions[category]
        if part.size == 0:
            return np.empty(0, dtype=np.int64)
        query = np.asarray(query, dtype=np.float32)
        probe_all = nprobe == "all" or int(nprobe) >= part.num_cells
        if probe_all:
            scores = part.slab @ query
            ids = part.ids
        else:
            nprobe = int(nprobe)
            if nprobe < 1:
                raise ValueError(f"nprobe must be >= 1 or 'all', got {nprobe}")
            coarse = part.centroids @ query
            probed = np.argpartition(-coarse, nprobe - 1)[:nprobe]
            spans = [
                (int(part.offsets[cell]), int(part.offsets[cell + 1])) for cell in probed
            ]
            rows = sum(stop - start for start, stop in spans)
            scores = np.empty(rows, dtype=np.float32)
            ids = np.empty(rows, dtype=np.int64)
            cursor = 0
            for start, stop in spans:
                width = stop - start
                # Contiguous-slice GEMV: the slab is cell-ordered, so each
                # probed cell is one BLAS call over its rows.
                np.matmul(part.slab[start:stop], query, out=scores[cursor : cursor + width])
                ids[cursor : cursor + width] = part.ids[start:stop]
                cursor += width
        if topn < ids.size:
            keep = np.argpartition(-scores, topn - 1)[:topn]
            ids, scores = ids[keep], scores[keep]
        if scores_out is None:
            return np.sort(ids)
        order = np.argsort(ids)
        scores.take(order, out=scores_out[: order.size])
        return ids[order]
