"""Dynamic condensation (§3 of the paper).

``DynamicGroupMaintenance`` (Fig. 2) relaxes the fixed group size to the
band ``[k, 2k)``: each arriving stream point joins the group with the
nearest centroid, and the moment a group reaches ``2k`` points its
*statistics* are split into two size-``k`` children — the member records
were never retained, so the split must work purely on ``(Fs, Sc, n)``.

``SplitGroupStatistics`` (Fig. 3) does this under the locally-uniform
assumption.  Writing ``C = P Λ Pᵀ`` with leading eigenpair ``(λ₁, e₁)``:

* a uniform distribution with variance ``λ₁`` spans a range
  ``a = sqrt(12 λ₁)`` along ``e₁``;
* splitting that range at its midpoint yields two uniforms of half the
  range, centred at ``± a/4`` from the parent centroid, each with
  variance ``(a/2)²/12 = λ₁/4``;
* all other eigenpairs are unchanged — the zero-correlation directions
  survive the split.

Each child's sums are then reassembled from its centroid and covariance
via Equation 3.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.condensation import create_condensed_groups
from repro.core.statistics import CondensedModel, GroupStatistics
from repro.linalg.rng import check_random_state, rng_from_state, rng_state
from repro.linalg.updates import EigenUpdateError, absorbed_record_eigh_update
from repro.neighbors.brute import pairwise_distances
from repro.neighbors.centroids import CentroidIndex
from repro.telemetry import DEFAULT_SIZE_BUCKETS

#: Dimensionality floor for the rank-one eigen-update fast path: below
#: it a dense ``sorted_eigh`` is cheaper than the secular solve chain,
#: so the shortcut only engages on wide data.
EIGEN_UPDATE_MIN_DIM = 16

#: Relative tolerance on the trace drift accumulated by a chain of
#: rank-one eigen updates before the split falls back to the exact path.
EIGEN_UPDATE_TRACE_RTOL = 1e-6


def split_group_statistics(
    group: GroupStatistics, k: int | None = None, eigen=None
) -> tuple[GroupStatistics, GroupStatistics]:
    """Split one group's statistics into two children (Fig. 3).

    Parameters
    ----------
    group:
        The group to split.  The paper splits exactly at ``n = 2k``; this
        function accepts any group of at least two records and gives each
        child half the parent's count (the extra record of an odd parent
        goes to the first child).
    k:
        When given, asserts the paper's invariant ``n(M) == 2k`` and
        produces two children of exactly ``k`` records.
    eigen:
        Optional precomputed ``(eigenvalues, eigenvectors)`` of the
        group covariance (decreasing order, eigenvalues non-negative),
        e.g. advanced through
        :func:`repro.linalg.updates.absorbed_record_eigh_update` by the
        batch ingest path.  When omitted the exact
        :meth:`~repro.core.statistics.GroupStatistics.eigen_system` is
        computed.

    Returns
    -------
    (GroupStatistics, GroupStatistics)
        Children with identical covariance matrices (leading eigenvalue
        divided by 4) and centroids displaced by ``± sqrt(12 λ₁)/4``
        along the leading eigenvector.  Both children carry an eigen
        hint (their covariance differs from the parent's only in the
        quartered leading eigenvalue), which the batch ingest path can
        advance across later absorbs instead of redecomposing.
    """
    if group.count < 2:
        raise ValueError(
            f"cannot split a group of {group.count} record(s)"
        )
    if k is not None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if group.count != 2 * k:
            raise ValueError(
                f"the paper splits at n = 2k; got n={group.count}, k={k}"
            )
        first_count, second_count = k, k
    else:
        first_count = (group.count + 1) // 2
        second_count = group.count - first_count

    if eigen is None:
        eigenvalues, eigenvectors = group.eigen_system()
    else:
        eigenvalues, eigenvectors = eigen
    leading_eigenvalue = float(eigenvalues[0])
    leading_vector = eigenvectors[:, 0]

    # Child centroids: the parent's ± a/4 along e1 with a = sqrt(12 λ1).
    offset = np.sqrt(12.0 * leading_eigenvalue) / 4.0
    centroid = group.centroid
    first_centroid = centroid + offset * leading_vector
    second_centroid = centroid - offset * leading_vector

    # Child covariance: same eigensystem, leading eigenvalue quartered.
    child_eigenvalues = eigenvalues.copy()
    child_eigenvalues[0] = leading_eigenvalue / 4.0
    child_covariance = (
        eigenvectors * child_eigenvalues
    ) @ eigenvectors.T

    first = GroupStatistics.from_moments(
        first_centroid, child_covariance, first_count
    )
    second = GroupStatistics.from_moments(
        second_centroid, child_covariance, second_count
    )
    # The children's eigensystem is known in closed form: the parent's
    # vectors with the leading eigenvalue quartered (re-sorted, since
    # λ₁/4 may drop below later eigenvalues).
    order = np.argsort(child_eigenvalues, kind="stable")[::-1]
    hint = (child_eigenvalues[order], eigenvectors[:, order])
    first._eigen_hint = hint
    second._eigen_hint = hint
    return first, second


class DynamicGroupMaintainer:
    """Streaming condensation — ``DynamicGroupMaintenance`` (Fig. 2).

    Parameters
    ----------
    k:
        Indistinguishability level.  Groups hold between ``k`` and
        ``2k − 1`` records; reaching ``2k`` triggers a statistics split.
    initial_data:
        Optional static database to bootstrap from; condensed with
        :func:`repro.core.condensation.create_condensed_groups` exactly
        as the paper prescribes.  When omitted the maintainer starts
        from the first ``k`` stream points (buffered and condensed into
        the founding group once ``k`` have arrived — before that no
        statistics exist, preserving k-indistinguishability even during
        warm-up).
    strategy, random_state:
        Passed through to the static bootstrap.

    Notes
    -----
    The maintainer never stores stream records once they are absorbed
    into a group — only the warm-up buffer (capped at ``k`` records,
    which by definition are not yet published) and group statistics.

    **Journaling.**  When :attr:`journal` is set to a callable, every
    completed mutation emits one sub-operation dict describing its
    *post-state* — the updated group aggregates, never the triggering
    record.  The batch path adds an ``absorb`` sub-operation (one per
    touched group, carrying the absorbed count) and annotates batch
    splits with theirs.  The durable condensers collect these into WAL
    entries;
    :meth:`apply_op` replays them, and because each sub-operation
    carries exact float aggregates (array copies taken at emission,
    stored bit-exactly by the durability codec), replay reconstructs
    the maintainer bit for bit.  Warm-up buffering emits
    nothing: raw records are not durable, which is exactly the
    at-least-once recovery contract (lost warm-up records are re-fed
    by the upstream source).
    """

    def __init__(
        self,
        k: int,
        initial_data: np.ndarray | None = None,
        strategy="random",
        random_state=None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self._rng = check_random_state(random_state)
        self._groups: list[GroupStatistics] = []
        self._centroids: np.ndarray | None = None
        self._index = CentroidIndex()
        #: Dimensionality floor for the batch split's rank-one eigen
        #: shortcut; raise or lower to tune when the secular chain is
        #: attempted before falling back to ``sorted_eigh``.
        self.eigen_update_min_dim = EIGEN_UPDATE_MIN_DIM
        self._warmup: list[np.ndarray] = []
        self.n_splits = 0
        self.n_merges = 0
        self.n_absorbed = 0
        #: Optional journal callback receiving post-state sub-operation
        #: dicts (see the class docstring); set by durable condensers.
        self.journal = None
        if initial_data is not None:
            initial_data = np.asarray(initial_data, dtype=float)
            model = create_condensed_groups(
                initial_data, self.k, strategy=strategy,
                random_state=self._rng,
            )
            self._groups = [group.copy() for group in model.groups]
            self.n_absorbed = model.total_count
            self._refresh_centroids()
            telemetry.counter_inc("dynamic.absorbed", model.total_count)
            telemetry.gauge_set("dynamic.groups", len(self._groups))

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def add(self, record: np.ndarray) -> None:
        """Route one stream record into the nearest group (Fig. 2).

        Splits the receiving group if it reaches ``2k`` records.
        """
        record = np.asarray(record, dtype=float)
        if record.ndim != 1:
            raise ValueError(
                f"record must be a vector, got shape {record.shape}"
            )
        if not self._groups:
            # Trusted-side warm-up: the first k records are buffered
            # only until the founding group's (Fs, Sc, n) exist, then
            # cleared below.
            # repro-lint: disable-next=PRIV-001 -- transient warm-up
            self._warmup.append(record.copy())
            if len(self._warmup) == self.k:
                founding = GroupStatistics.from_records(
                    np.vstack(self._warmup)
                )
                self._groups.append(founding)
                self._warmup.clear()
                self.n_absorbed += self.k
                self._refresh_centroids()
                telemetry.counter_inc("dynamic.absorbed", self.k)
                telemetry.gauge_set("dynamic.groups", 1)
                self._emit({"op": "founding",
                            "group": founding.to_state()})
            return
        if record.shape[0] != self._groups[0].n_features:
            raise ValueError(
                f"expected {self._groups[0].n_features} attributes, "
                f"got {record.shape[0]}"
            )
        target = self._index.nearest(record, self._centroids)
        group = self._groups[target]
        group.add(record)
        self.n_absorbed += 1
        telemetry.counter_inc("dynamic.absorbed")
        if group.count >= 2 * self.k:
            with telemetry.span("dynamic.split") as split_span:
                split_span.set_attribute("group_size", group.count)
                first, second = split_group_statistics(group, k=self.k)
                self._groups[target] = first
                self._groups.append(second)
                self.n_splits += 1
                self._refresh_centroids()
                self._index.mark_dirty(target)
                split_span.set_attribute("n_groups", len(self._groups))
            telemetry.counter_inc("dynamic.splits")
            telemetry.gauge_set("dynamic.groups", len(self._groups))
            self._emit({"op": "split", "target": target,
                        "first": first.to_state(),
                        "second": second.to_state()})
        else:
            self._centroids[target] = group.centroid
            self._index.mark_dirty(target)
            self._emit({"op": "ingest", "target": target,
                        "group": group.to_state()})

    def add_stream(self, records) -> None:
        """Ingest an iterable of records in arrival order."""
        with telemetry.span("dynamic.ingest") as ingest_span:
            ingested = 0
            for record in records:
                self.add(record)
                ingested += 1
            ingest_span.set_attribute("n_records", ingested)
            ingest_span.set_attribute("n_groups", len(self._groups))

    def ingest_many(self, records, batch_size: int = 256) -> None:
        """Ingest a record array through the vectorized batch path.

        Records are processed in blocks of ``batch_size`` via
        :meth:`ingest_block`.  ``batch_size=1`` is contractually
        *bit-identical* to the sequential :meth:`add` loop — groups,
        centroids, generator position, and journal output all match
        byte for byte (mirroring the ``n_shards=1`` determinism
        contract of ``repro.parallel``).  Any fixed ``batch_size`` is
        deterministic across runs and conserves the absorbed moment
        mass exactly (per-group sums are single
        :meth:`~repro.core.statistics.GroupStatistics.add_batch`
        reductions).

        Parameters
        ----------
        records:
            Record array of shape ``(m, d)``.
        batch_size:
            Block size for the vectorized assignment; ``1`` delegates
            to the sequential loop.
        """
        records = np.asarray(records, dtype=float)
        if records.ndim != 2:
            raise ValueError(
                f"records must be 2-D, got shape {records.shape}"
            )
        if batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        if batch_size == 1:
            self.add_stream(records)
            return
        with telemetry.span("dynamic.ingest_many") as ingest_span:
            for start in range(0, records.shape[0], batch_size):
                self.ingest_block(records[start:start + batch_size])
            ingest_span.set_attribute("n_records", records.shape[0])
            ingest_span.set_attribute("n_groups", len(self._groups))

    def ingest_block(self, block) -> None:
        """Absorb one block of records with a single distance matrix.

        The block is assigned to nearest groups against a *frozen*
        centroid snapshot, each targeted group absorbs its rows with
        one batch-sum update (capped at the ``2k`` band ceiling), and
        groups that reach ``2k`` split.  Rows beyond a group's capacity
        are re-dispatched in a further round against the refreshed
        centroids — every round absorbs at least one record per
        targeted group (the ``[k, 2k)`` invariant guarantees capacity),
        so the loop terminates.  Within a round, rows are grouped by
        target in arrival order; assignment is deterministic (ties
        break toward the lower group id).

        Journaling emits one ``absorb`` sub-operation per touched group
        (carrying the post-state aggregates and the absorbed count) and
        the usual ``split`` sub-operations, so durable condensers can
        log a whole block as one WAL entry.
        """
        block = np.asarray(block, dtype=float)
        if block.ndim != 2:
            raise ValueError(
                f"block must be 2-D, got shape {block.shape}"
            )
        if block.shape[0] == 0:
            return
        if not np.isfinite(block).all():
            raise ValueError("records contain NaN or infinite values")
        consumed = 0
        # Warm-up routes record-at-a-time until a founding group exists.
        while consumed < block.shape[0] and not self._groups:
            self.add(block[consumed])
            consumed += 1
        pending = block[consumed:]
        if not pending.shape[0]:
            return
        if pending.shape[1] != self._groups[0].n_features:
            raise ValueError(
                f"expected {self._groups[0].n_features} attributes, "
                f"got {pending.shape[1]}"
            )
        telemetry.counter_inc("ingest.batches")
        telemetry.counter_inc("ingest.batch_records", pending.shape[0])
        rounds = 0
        while pending.shape[0]:
            rounds += 1
            if rounds > 1:
                telemetry.counter_inc(
                    "ingest.redispatched", pending.shape[0]
                )
            distances = pairwise_distances(
                pending, self._centroids, squared=True
            )
            targets = np.argmin(distances, axis=1)
            order = np.argsort(targets, kind="stable")
            rows = pending[order]
            targets = targets[order]
            cuts = np.flatnonzero(np.diff(targets)) + 1
            starts = np.concatenate(([0], cuts))
            ends = np.concatenate((cuts, [targets.shape[0]]))
            leftover: list[np.ndarray] = []
            appended: list[np.ndarray] = []
            for lo, hi in zip(starts, ends):
                target = int(targets[lo])
                group = self._groups[target]
                capacity = 2 * self.k - group.count
                take = rows[lo:lo + min(hi - lo, capacity)]
                if hi - lo > capacity:
                    leftover.append(rows[lo + capacity:hi])
                hint = group._eigen_hint
                pre_first = (
                    group.first_order.copy() if hint is not None else None
                )
                pre_count = group.count
                group.add_batch(take)
                self.n_absorbed += take.shape[0]
                if group.count >= 2 * self.k:
                    eigen = self._advance_eigen_hint(
                        hint, pre_first, pre_count, take, group
                    )
                    first, second = split_group_statistics(
                        group, k=self.k, eigen=eigen
                    )
                    self._groups[target] = first
                    self._groups.append(second)
                    self.n_splits += 1
                    self._centroids[target] = first.centroid
                    appended.append(second.centroid)
                    self._index.mark_dirty(target)
                    telemetry.counter_inc("dynamic.splits")
                    self._emit({"op": "split", "target": target,
                                "first": first.to_state(),
                                "second": second.to_state(),
                                "absorbed": int(take.shape[0])})
                else:
                    # Keep the eigen hint alive across absorbs so the
                    # eventual split can take the rank-one fast path.
                    advanced = self._advance_eigen_hint(
                        hint, pre_first, pre_count, take, group
                    )
                    if advanced is not None:
                        group._eigen_hint = advanced
                    self._centroids[target] = group.centroid
                    self._index.mark_dirty(target)
                    self._emit({"op": "absorb", "target": target,
                                "group": group.to_state(),
                                "n": int(take.shape[0])})
            if appended:
                self._centroids = np.vstack([self._centroids] + appended)
            remainder = (
                np.vstack(leftover) if leftover else pending[:0]
            )
            telemetry.counter_inc(
                "dynamic.absorbed",
                pending.shape[0] - remainder.shape[0],
            )
            pending = remainder
        telemetry.gauge_set("dynamic.groups", len(self._groups))
        telemetry.histogram_observe(
            "ingest.rounds", rounds, buckets=DEFAULT_SIZE_BUCKETS
        )

    def _advance_eigen_hint(self, hint, pre_first, pre_count, take,
                            group):
        """Advance a pre-absorb eigen hint across absorbed rows.

        Returns the post-absorb covariance eigensystem when the
        rank-one chain is worthwhile (wide data, update rank below the
        dimension) and stays within tolerance — otherwise ``None``, and
        the caller's :func:`split_group_statistics` takes the exact
        ``sorted_eigh`` path.
        """
        if hint is None:
            return None
        d = int(pre_first.shape[0])
        if d < self.eigen_update_min_dim or take.shape[0] >= d:
            return None
        eigenvalues, eigenvectors = hint
        mean = pre_first / pre_count
        count = pre_count
        try:
            for row in take:
                eigenvalues, eigenvectors = absorbed_record_eigh_update(
                    eigenvalues, eigenvectors, mean, count, row
                )
                mean = (mean * count + row) / (count + 1)
                count += 1
        except EigenUpdateError:
            telemetry.counter_inc("ingest.eigen_fallbacks")
            return None
        trace = float(np.trace(group.covariance))
        drift = abs(float(eigenvalues.sum()) - trace)
        if drift > EIGEN_UPDATE_TRACE_RTOL * max(abs(trace), 1.0):
            telemetry.counter_inc("ingest.eigen_fallbacks")
            return None
        telemetry.counter_inc("ingest.eigen_updates")
        return np.clip(eigenvalues, 0.0, None), eigenvectors

    def remove(self, record: np.ndarray) -> None:
        """Process a deletion request (an extension of the paper's §3).

        The maintainer holds no records, so a deletion can only be
        honoured statistically: the record is subtracted from the sums
        of the group whose centroid is nearest.  If that group falls
        below ``k`` records it no longer meets the indistinguishability
        level, so it is *merged* into its nearest surviving neighbour —
        the dual of the splitting operation — and if the merged group
        reaches ``2k`` it is immediately re-split.

        Raises
        ------
        ValueError
            If no groups exist yet, or the only remaining group would
            be emptied.
        """
        record = np.asarray(record, dtype=float)
        if record.ndim != 1:
            raise ValueError(
                f"record must be a vector, got shape {record.shape}"
            )
        if not self._groups:
            raise ValueError("no groups yet; nothing to remove from")
        if record.shape[0] != self._groups[0].n_features:
            raise ValueError(
                f"expected {self._groups[0].n_features} attributes, "
                f"got {record.shape[0]}"
            )
        target = self._index.nearest(record, self._centroids)
        group = self._groups[target]
        if len(self._groups) == 1 and group.count <= 1:
            raise ValueError(
                "cannot remove the last record of the last group"
            )
        group.remove(record)
        # The removed record may not have been a literal member of this
        # group; repair the implied covariance if it left the PSD cone.
        group.ensure_psd()
        self.n_absorbed -= 1
        telemetry.counter_inc("dynamic.removed")
        if group.count >= self.k or len(self._groups) == 1:
            if group.count > 0:
                self._centroids[target] = group.centroid
                self._index.mark_dirty(target)
                self._emit({"op": "remove", "target": target,
                            "group": group.to_state()})
                return
        self._merge_undersized(target)

    def _merge_undersized(self, target: int) -> None:
        """Merge group ``target`` into its nearest neighbour group."""
        group = self._groups.pop(target)
        self._refresh_centroids()
        # Popping renumbers every later group id; the snapshot cannot
        # be patched, so the centroid index starts over.
        self._index.invalidate()
        if group.count == 0:
            self.n_merges += 1
            telemetry.counter_inc("dynamic.merges")
            telemetry.gauge_set("dynamic.groups", len(self._groups))
            self._emit({"op": "merge", "target": target,
                        "neighbour": None, "merged": None,
                        "resplit": None})
            return
        distances = pairwise_distances(
            group.centroid[None, :], self._centroids, squared=True
        )[0]
        neighbour = int(np.argmin(distances))
        merged = self._groups[neighbour]
        merged.merge(group)
        self.n_merges += 1
        telemetry.counter_inc("dynamic.merges")
        resplit = None
        if merged.count >= 2 * self.k:
            first, second = split_group_statistics(merged)
            self._groups[neighbour] = first
            self._groups.append(second)
            self.n_splits += 1
            telemetry.counter_inc("dynamic.splits")
            resplit = [first.to_state(), second.to_state()]
        self._refresh_centroids()
        telemetry.gauge_set("dynamic.groups", len(self._groups))
        self._emit({"op": "merge", "target": target,
                    "neighbour": neighbour,
                    "merged": None if resplit else merged.to_state(),
                    "resplit": resplit})

    # ------------------------------------------------------------------
    # Journaling and durable state
    # ------------------------------------------------------------------

    def _emit(self, sub: dict) -> None:
        """Hand one post-state sub-operation to the journal, if bound."""
        if self.journal is not None:
            self.journal(sub)

    def apply_op(self, sub: dict) -> None:
        """Replay one journaled sub-operation (WAL recovery path).

        Each sub-operation stores the *post-state* aggregates of the
        group(s) it touched, so applying it sets state rather than
        re-deriving it — replay is therefore bit-identical to the
        original run regardless of floating-point evaluation order.

        Parameters
        ----------
        sub:
            A sub-operation dict as emitted through :attr:`journal`.

        Raises
        ------
        ValueError
            If the operation kind is unknown.
        """
        op = sub.get("op")
        if op == "founding":
            founding = GroupStatistics.from_dict(sub["group"])
            self._groups.append(founding)
            self._warmup.clear()
            self.n_absorbed += founding.count
        elif op == "ingest":
            self._groups[sub["target"]] = GroupStatistics.from_dict(
                sub["group"]
            )
            self.n_absorbed += 1
        elif op == "absorb":
            self._groups[sub["target"]] = GroupStatistics.from_dict(
                sub["group"]
            )
            self.n_absorbed += int(sub["n"])
        elif op == "split":
            self._groups[sub["target"]] = GroupStatistics.from_dict(
                sub["first"]
            )
            self._groups.append(GroupStatistics.from_dict(sub["second"]))
            # Sequential splits fold the triggering record's absorb into
            # the split op; batch splits carry their own absorbed count
            # (possibly zero when the batch absorb was journaled apart).
            self.n_absorbed += int(sub.get("absorbed", 1))
            self.n_splits += 1
        elif op == "remove":
            self._groups[sub["target"]] = GroupStatistics.from_dict(
                sub["group"]
            )
            self.n_absorbed -= 1
        elif op == "merge":
            self._groups.pop(sub["target"])
            self.n_absorbed -= 1
            self.n_merges += 1
            if sub.get("resplit") is not None:
                first_state, second_state = sub["resplit"]
                self._groups[sub["neighbour"]] = (
                    GroupStatistics.from_dict(first_state)
                )
                self._groups.append(
                    GroupStatistics.from_dict(second_state)
                )
                self.n_splits += 1
            elif sub.get("merged") is not None:
                self._groups[sub["neighbour"]] = (
                    GroupStatistics.from_dict(sub["merged"])
                )
        else:
            raise ValueError(f"unknown journal operation {op!r}")
        if self._groups:
            self._refresh_centroids()
        # Replay is not a hot path: rebuild the lookup index lazily on
        # the next query rather than tracking per-op dirtiness.
        self._index.invalidate()

    def state_dict(self) -> dict:
        """Full durable state as a document for the durability codec.

        The document holds group aggregates, operation counters, and
        the generator position — never the warm-up buffer, whose raw
        records are deliberately not durable (the upstream source
        re-feeds them after recovery).

        Returns
        -------
        dict
        """
        return {
            "k": self.k,
            "groups": [group.to_state() for group in self._groups],
            "n_splits": self.n_splits,
            "n_merges": self.n_merges,
            "n_absorbed": self.n_absorbed,
            "rng": rng_state(self._rng),
        }

    @classmethod
    def from_state(cls, state: dict) -> "DynamicGroupMaintainer":
        """Rebuild a maintainer from a :meth:`state_dict` document.

        Parameters
        ----------
        state:
            A state document (possibly after a durable round trip;
            group sums may be arrays or, from older files, lists).

        Returns
        -------
        DynamicGroupMaintainer
            Maintainer whose groups, counters, and generator position
            are bit-identical to the captured instance.
        """
        maintainer = cls(
            int(state["k"]), random_state=rng_from_state(state["rng"])
        )
        maintainer._groups = [
            GroupStatistics.from_dict(entry) for entry in state["groups"]
        ]
        maintainer.n_splits = int(state["n_splits"])
        maintainer.n_merges = int(state["n_merges"])
        maintainer.n_absorbed = int(state["n_absorbed"])
        if maintainer._groups:
            maintainer._refresh_centroids()
        return maintainer

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def n_groups(self) -> int:
        """Number of maintained groups."""
        return len(self._groups)

    @property
    def n_pending(self) -> int:
        """Records buffered during warm-up (before the first group)."""
        return len(self._warmup)

    def group_sizes(self) -> np.ndarray:
        """Per-group record counts."""
        return np.array([group.count for group in self._groups])

    def to_model(self) -> CondensedModel:
        """Snapshot the maintained statistics as a condensed model.

        The snapshot deep-copies the group statistics, so continued
        streaming does not mutate it.
        """
        if not self._groups:
            raise ValueError(
                "no groups yet: fewer than k records have arrived"
            )
        model = CondensedModel(
            groups=[group.copy() for group in self._groups], k=self.k
        )
        model.metadata["n_splits"] = self.n_splits
        model.metadata["n_merges"] = self.n_merges
        model.metadata["n_absorbed"] = self.n_absorbed
        for group in self._groups:
            telemetry.histogram_observe(
                "dynamic.group_size", group.count,
                buckets=DEFAULT_SIZE_BUCKETS,
            )
        return model

    def _refresh_centroids(self) -> None:
        self._centroids = np.vstack(
            [group.centroid for group in self._groups]
        )

    def __repr__(self) -> str:
        return (
            f"DynamicGroupMaintainer(k={self.k}, n_groups={self.n_groups}, "
            f"n_absorbed={self.n_absorbed}, n_splits={self.n_splits})"
        )
