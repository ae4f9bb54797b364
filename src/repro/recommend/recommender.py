"""Threshold recommender over any generative model.

Section 4.3: "If for a product p_i the probability of the generative model
M ... exceeds a threshold phi we assume that the product p_i should be
recommended to a given company."  Products the company already owns are
never recommended.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_probability
from repro.models.base import GenerativeModel

__all__ = ["ThresholdRecommender", "rank_scores"]


def rank_scores(
    scores: np.ndarray,
    history: list[int],
    *,
    threshold: float | None = None,
    k: int | None = None,
) -> list[tuple[int, float]]:
    """Rank one precomputed score row into ``(token, score)`` pairs.

    The one ranking rule of the recommender: products in ``history`` are
    never eligible, ``threshold`` (when given) keeps only scores ``>=`` it,
    and the survivors are sorted by descending score, ties broken by
    ascending token id.  ``k`` keeps the best ``k``.
    """
    eligible = np.ones(len(scores), dtype=bool)
    if history:
        eligible[np.asarray(history, dtype=np.intp)] = False
    if threshold is not None:
        eligible &= scores >= threshold
    candidates = np.flatnonzero(eligible)
    # Stable argsort of the negated scores keeps ascending-token order
    # within each tied score group.
    ranked = candidates[np.argsort(-scores[candidates], kind="stable")][:k]
    return [(int(t), float(scores[t])) for t in ranked]


class ThresholdRecommender:
    """Wraps a fitted model into a phi-thresholded recommender."""

    def __init__(self, model: GenerativeModel, *, threshold: float = 0.1) -> None:
        if not isinstance(model, GenerativeModel):
            raise TypeError(
                f"model must be a GenerativeModel, got {type(model).__name__}"
            )
        if not model.is_fitted:
            raise ValueError("model must be fitted before building a recommender")
        self.model = model
        self.threshold = check_probability(threshold, "threshold")

    def scores(self, history: list[int]) -> np.ndarray:
        """Raw conditional product probabilities for a company history.

        The history is validated against the model vocabulary up front, so
        out-of-range token ids raise a clear :class:`ValueError` here
        rather than an ``IndexError`` inside a numpy kernel.
        """
        return self.model.next_product_proba(self.model.validate_history(history))

    def recommend_scored(
        self, history: list[int], *, threshold: float | None = None
    ) -> list[tuple[int, float]]:
        """``(token, score)`` pairs above the threshold, excluding owned.

        Sorted by descending score, ties broken by ascending token id.
        """
        phi = self.threshold if threshold is None else check_probability(threshold, "threshold")
        clean = self.model.validate_history(history)
        return rank_scores(self.model.next_product_proba(clean), clean, threshold=phi)

    def recommend(
        self, history: list[int], *, threshold: float | None = None
    ) -> list[int]:
        """Products scoring above the threshold, excluding those owned.

        Returns token ids sorted by descending score.
        """
        return [token for token, __ in self.recommend_scored(history, threshold=threshold)]

    def top_k(self, history: list[int], k: int) -> list[int]:
        """The k highest-scoring unowned products regardless of threshold."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        clean = self.model.validate_history(history)
        ranked = rank_scores(self.model.next_product_proba(clean), clean, k=k)
        return [token for token, __ in ranked]
