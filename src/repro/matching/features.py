"""Pair feature extraction for the supervised matcher.

The supervised mode of SparkER (Magellan-style) trains a classifier on labeled
pairs.  A feature vector for a candidate pair is built by applying a set of
similarity functions either to the whole profile text (schema-agnostic) or to
aligned attribute clusters (when a loose-schema partitioning is available).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile
from repro.looseschema.attribute_partitioning import AttributePartitioning
from repro.matching.similarity import get_similarity_function


class PairFeatureExtractor:
    """Builds numeric feature vectors for candidate profile pairs.

    Parameters
    ----------
    similarity_functions:
        Names of the similarity functions to apply (one feature per function
        per text source).
    partitioning:
        Optional loose-schema attribute partitioning; when given, one set of
        features is computed per non-blob attribute cluster (comparing the
        concatenated values each profile has in that cluster) in addition to
        the whole-profile features.
    """

    def __init__(
        self,
        similarity_functions: Sequence[str] = ("jaccard", "cosine", "levenshtein"),
        partitioning: AttributePartitioning | None = None,
    ) -> None:
        self.similarity_names = list(similarity_functions)
        self.similarity_functions = [get_similarity_function(n) for n in similarity_functions]
        self.partitioning = partitioning

    # ------------------------------------------------------------------ public
    def feature_names(self) -> list[str]:
        """Names of the produced features, in vector order."""
        names = [f"profile_{n}" for n in self.similarity_names]
        if self.partitioning is not None:
            for cluster_id in sorted(self.partitioning.non_blob_clusters()):
                names.extend(
                    f"cluster{cluster_id}_{n}" for n in self.similarity_names
                )
        return names

    def features(self, left: EntityProfile, right: EntityProfile) -> np.ndarray:
        """Feature vector of one pair."""
        values = [
            function(left.text(), right.text()) for function in self.similarity_functions
        ]
        if self.partitioning is not None:
            for cluster_id, members in sorted(self.partitioning.non_blob_clusters().items()):
                attributes = {attribute for _source, attribute in members}
                left_text = self._cluster_text(left, attributes)
                right_text = self._cluster_text(right, attributes)
                values.extend(
                    function(left_text, right_text) for function in self.similarity_functions
                )
        return np.array(values, dtype=float)

    def feature_matrix(
        self,
        profiles: ProfileCollection,
        pairs: Sequence[tuple[int, int]],
    ) -> np.ndarray:
        """Feature matrix (len(pairs) × num_features) for a pair list."""
        if not pairs:
            return np.zeros((0, len(self.feature_names())))
        rows = [
            self.features(profiles[a], profiles[b]) for a, b in pairs
        ]
        return np.vstack(rows)

    # -------------------------------------------------------------- internals
    @staticmethod
    def _cluster_text(profile: EntityProfile, attributes: set[str]) -> str:
        return " ".join(
            value for attribute, value in profile.items() if attribute in attributes
        )
