"""Condensed-group statistics (§2 of the paper).

A condensed group ``G`` never stores its member records.  It stores only:

* ``Fs(G)`` — the vector of first-order sums, one per attribute;
* ``Sc(G)`` — the matrix of second-order product sums, one per attribute
  pair;
* ``n(G)`` — the number of records condensed into the group.

From these the group mean (Observation 1) and covariance (Observation 2)
are derivable, and from the covariance's eigendecomposition the group's
orthonormal axis system used for anonymized-data generation and for the
dynamic split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.linalg.symmetric import (
    covariance_from_sums,
    sorted_eigh,
    sums_from_covariance,
)


@dataclass
class GroupStatistics:
    """Aggregate statistics of one condensed group.

    Attributes
    ----------
    first_order:
        ``Fs(G)``, shape ``(d,)``.
    second_order:
        ``Sc(G)``, shape ``(d, d)``.
    count:
        ``n(G)``, the number of condensed records.
    """

    first_order: np.ndarray
    second_order: np.ndarray
    count: int

    def __post_init__(self):
        self.first_order = np.asarray(self.first_order, dtype=float)
        self.second_order = np.asarray(self.second_order, dtype=float)
        if self.first_order.ndim != 1:
            raise ValueError("first_order must be a vector")
        d = self.first_order.shape[0]
        if self.second_order.shape != (d, d):
            raise ValueError(
                f"second_order must have shape {(d, d)}, "
                f"got {self.second_order.shape}"
            )
        if self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")
        self.count = int(self.count)
        # Advisory covariance eigensystem hint ``(eigenvalues,
        # eigenvectors)`` for the batch split fast path.  It is never
        # serialized and never consulted by :meth:`eigen_system`; any
        # mutation of the sums drops it, so a present hint always
        # matches the current sums.
        self._eigen_hint = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, n_features: int) -> "GroupStatistics":
        """A zero-record group of the given dimensionality."""
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features}")
        return cls(
            first_order=np.zeros(n_features),
            second_order=np.zeros((n_features, n_features)),
            count=0,
        )

    @classmethod
    def from_records(cls, records: np.ndarray) -> "GroupStatistics":
        """Condense a record array of shape ``(m, d)`` into statistics."""
        records = np.asarray(records, dtype=float)
        if records.ndim != 2 or records.shape[0] == 0:
            raise ValueError(
                f"records must be a non-empty 2-D array, got {records.shape}"
            )
        return cls(
            first_order=records.sum(axis=0),
            second_order=records.T @ records,
            count=records.shape[0],
        )

    @classmethod
    def from_moments(
        cls, mean: np.ndarray, covariance: np.ndarray, count: int
    ) -> "GroupStatistics":
        """Build statistics from a mean / covariance / count triple.

        This is Equation 3 of the paper, used by the dynamic split to
        reassemble child sums from derived moments.
        """
        first_order, second_order = sums_from_covariance(
            mean, covariance, count
        )
        return cls(
            first_order=first_order, second_order=second_order, count=count
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add(self, record: np.ndarray) -> None:
        """Fold one record into the group sums (dynamic ingestion)."""
        record = self._validate_record(record)
        self.first_order += record
        self.second_order += np.outer(record, record)
        self.count += 1
        self._eigen_hint = None

    def add_batch(self, records: np.ndarray) -> None:
        """Fold a batch of records into the group sums."""
        records = np.asarray(records, dtype=float)
        if records.ndim != 2 or records.shape[1] != self.n_features:
            raise ValueError(
                f"expected shape (m, {self.n_features}), got {records.shape}"
            )
        if records.shape[0] == 0:
            return
        self.first_order += records.sum(axis=0)
        self.second_order += records.T @ records
        self.count += records.shape[0]
        self._eigen_hint = None

    def merge(self, other: "GroupStatistics") -> None:
        """Fold another group's sums into this group (used for leftovers)."""
        if other.n_features != self.n_features:
            raise ValueError(
                "cannot merge groups of different dimensionality: "
                f"{self.n_features} vs {other.n_features}"
            )
        self.first_order += other.first_order
        self.second_order += other.second_order
        self.count += other.count
        self._eigen_hint = None

    def remove(self, record: np.ndarray) -> None:
        """Subtract one record from the group sums (deletion downdate).

        The record need not be one that was literally added — in the
        statistics-only world of condensation a deletion request can
        only be honoured against the group whose locality the record
        belongs to.  Removing the last record leaves a valid empty
        group.
        """
        record = self._validate_record(record)
        if self.count <= 0:
            raise ValueError("cannot remove from an empty group")
        self.first_order -= record
        self.second_order -= np.outer(record, record)
        self.count -= 1
        self._eigen_hint = None

    def ensure_psd(self) -> None:
        """Repair the second-order sums if the covariance went indefinite.

        Statistical deletion subtracts a record that may never have been
        a literal member of this group, which can push the implied
        covariance matrix outside the PSD cone.  This projects the
        covariance back onto it and rebuilds ``Sc`` accordingly; a no-op
        for already-valid groups.
        """
        if self.count == 0:
            return
        from repro.linalg.symmetric import nearest_psd

        covariance = covariance_from_sums(
            self.first_order, self.second_order, self.count
        )
        eigenvalues = np.linalg.eigvalsh(covariance)
        scale = max(abs(float(eigenvalues[-1])), 1.0)
        if eigenvalues[0] >= -1e-10 * scale:
            return
        repaired = nearest_psd(covariance)
        __, self.second_order = sums_from_covariance(
            self.centroid, repaired, self.count
        )
        self._eigen_hint = None

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def n_features(self) -> int:
        """Dimensionality ``d`` of the condensed records."""
        return self.first_order.shape[0]

    @property
    def centroid(self) -> np.ndarray:
        """Group mean ``Fs(G) / n(G)`` (Observation 1)."""
        if self.count == 0:
            raise ValueError("centroid of an empty group is undefined")
        return self.first_order / self.count

    @property
    def covariance(self) -> np.ndarray:
        """Group population covariance (Observation 2)."""
        return covariance_from_sums(
            self.first_order, self.second_order, self.count
        )

    def eigen_system(self):
        """Orthonormal axis system of the group (Equation 1).

        Returns
        -------
        eigenvalues : numpy.ndarray, shape (d,)
            Variances along the eigenvectors, decreasing and clipped to be
            non-negative.
        eigenvectors : numpy.ndarray, shape (d, d)
            Columns are the eigenvectors; column 0 is the most elongated
            direction (the dynamic split axis).

        Notes
        -----
        The mathematical group covariance is PSD by construction, so any
        negative eigenvalue here is floating-point cancellation in the
        raw-sum representation (severe when ``|mean| >> stddev``).  All
        negatives are therefore clipped to zero unconditionally rather
        than raising — the decomposition stays usable, at the cost of
        treating the cancellation noise as zero variance.
        """
        eigenvalues, eigenvectors = sorted_eigh(
            self.covariance, clip=False
        )
        return np.clip(eigenvalues, 0.0, None), eigenvectors

    def copy(self) -> "GroupStatistics":
        """Deep copy of the group statistics."""
        return GroupStatistics(
            first_order=self.first_order.copy(),
            second_order=self.second_order.copy(),
            count=self.count,
        )

    # ------------------------------------------------------------------
    # Serialization — group statistics are exactly what a server may
    # persist (the paper's relaxed trust model), so round-tripping them
    # is a first-class operation.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-python representation for JSON-style persistence."""
        return {
            "first_order": self.first_order.tolist(),
            "second_order": self.second_order.tolist(),
            "count": self.count,
        }

    def to_state(self) -> dict:
        """Exact-array representation for durable journals.

        Like :meth:`to_dict`, but ``Fs`` and ``Sc`` stay numpy arrays,
        which the durability codec stores bit-exactly.  They are
        copies, so a journaled post-state cannot change when this group
        is updated again before the journal is written.
        """
        return {
            "first_order": self.first_order.copy(),
            "second_order": self.second_order.copy(),
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GroupStatistics":
        """Inverse of :meth:`to_dict` and of :meth:`to_state`."""
        return cls(
            first_order=np.asarray(payload["first_order"], dtype=float),
            second_order=np.asarray(payload["second_order"], dtype=float),
            count=int(payload["count"]),
        )

    def _validate_record(self, record: np.ndarray) -> np.ndarray:
        record = np.asarray(record, dtype=float)
        if record.shape != (self.n_features,):
            raise ValueError(
                f"expected shape ({self.n_features},), got {record.shape}"
            )
        if not np.isfinite(record).all():
            raise ValueError(
                "record contains NaN or infinite values"
            )
        return record

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"GroupStatistics(n_features={self.n_features}, "
            f"count={self.count})"
        )


@dataclass
class CondensedModel:
    """The full output of condensation: the set ``H`` of group statistics.

    This is what the paper's server retains — aggregate statistics only,
    never records.  The model knows how to report privacy levels and to
    expose centroids for routing and generation.

    Attributes
    ----------
    groups:
        The condensed groups.
    k:
        The indistinguishability level the model was built with.
    """

    groups: list[GroupStatistics]
    k: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not self.groups:
            raise ValueError("a condensed model needs at least one group")
        dims = {group.n_features for group in self.groups}
        if len(dims) != 1:
            raise ValueError(
                f"groups disagree on dimensionality: {sorted(dims)}"
            )

    @property
    def n_features(self) -> int:
        """Dimensionality of the condensed records."""
        return self.groups[0].n_features

    @property
    def n_groups(self) -> int:
        """Number of condensed groups."""
        return len(self.groups)

    @property
    def total_count(self) -> int:
        """Total number of condensed records across groups."""
        return sum(group.count for group in self.groups)

    @property
    def group_sizes(self) -> np.ndarray:
        """Per-group record counts."""
        return np.array([group.count for group in self.groups])

    @property
    def average_group_size(self) -> float:
        """Mean group size — the paper's sweep variable (X axis)."""
        return float(self.group_sizes.mean())

    @property
    def minimum_group_size(self) -> int:
        """The achieved indistinguishability level."""
        return int(self.group_sizes.min())

    def centroids(self) -> np.ndarray:
        """Stacked group centroids, shape ``(n_groups, d)``."""
        return np.vstack([group.centroid for group in self.groups])

    def to_dict(self) -> dict:
        """Plain-python representation for persistence."""
        return {
            "k": self.k,
            "metadata": dict(self.metadata),
            "groups": [group.to_dict() for group in self.groups],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CondensedModel":
        """Inverse of :meth:`to_dict`."""
        return cls(
            groups=[
                GroupStatistics.from_dict(entry)
                for entry in payload["groups"]
            ],
            k=int(payload["k"]),
            metadata=dict(payload.get("metadata", {})),
        )

    def __repr__(self) -> str:
        return (
            f"CondensedModel(n_groups={self.n_groups}, k={self.k}, "
            f"total_count={self.total_count})"
        )
