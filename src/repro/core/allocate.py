"""Algorithm *Allocate* — online allocation of small streams (paper §5).

Every budget — the ``m`` server budgets and each user's capacity
measures, treated as *virtual budgets* — carries an exponential cost
``C_A(i) = B_i·(µ^{L_A(i)} - 1)`` in its normalized load ``L_A(i)``.
A stream ``S_j`` is assigned to a maximal set of users ``U_j`` whose
total utility covers the marginal exponential cost::

    Σ_{i ∈ M ∪ U_j} (c_i(S_j)/B_i) · C_{A_{j-1}}(i)  ≤  Σ_{u ∈ U_j} w_u(S_j)

Decisions are never revoked, so the algorithm is online.  When every
stream is *small* — ``c_i(S) ≤ B_i / log₂ µ`` in every measure — no
budget is ever violated (Lemma 5.1) and the solution is
``(1 + 2·log₂ µ)``-competitive (Theorem 5.4), where
``µ = 2γ·(m + |U|·m_c) + 2`` and ``γ`` is the instance's global skew.

The paper presents ``m_c = 1`` and notes the extension to ``m_c > 1`` is
straightforward; this implementation is the general version: each
``(user, capacity measure)`` pair is one virtual budget.

Normalization (paper eq. (1)) is applied internally: each cost measure is
scaled (cost and budget together, which leaves the problem unchanged) so
that a unit of any cost is worth at least ``m + Σ_u m_c`` of the smallest
per-user utility; ``γ`` is then the smallest valid upper bound of eq. (1).

Engineering extensions, both off the paper's path but needed by the
simulation substrate (and the paper's own footnote about streams of
finite duration):

- ``enforce_budgets=True`` adds a hard admission guard so the allocator
  is safe on instances that violate the small-streams precondition (the
  guard provably never fires when the precondition holds);
- :meth:`OnlineAllocator.release` returns a departed stream's load, for
  finite-duration sessions;
- the exponential charges are maintained *incrementally*: ``µ^{L(i)}``
  is cached per budget and refreshed (exactly) for just the budgets a
  commit or release touches, so an offer never recomputes ``mu **
  load`` over the whole interested row — with
  :meth:`OnlineAllocator.resync_charges` as the periodic float-drift
  guard (a bit-wise no-op for the exact writes, asserted in tests) —
  and rejections are tracked as :attr:`OnlineAllocator.rejected_count`
  plus a deduplicated id list, so million-event simulations neither
  re-exponentiate nor leak memory.

One decision is a fixed handful of numpy calls over the stream's
contiguous CSR row, with no per-user Python loop:

- the per-pair inputs of the Line-4 charges and of the guard — the
  charged mask, the finite-cap mask, the normalized load ``k/K``, the
  scaled capacity and the flat ``(user, measure)`` budget index — are
  static columns built once at construction, one contiguous row per
  capacity measure, so an offer slices them by ``lo:hi``;
- the drop walk (:func:`drop_walk`) replays the scalar "drop the
  largest charge/utility ratio until Line 4 holds" loop with one
  ``np.subtract.accumulate``, which subtracts in the loop's exact float
  order, so decisions stay bit-identical to it;
- the dynamic state is the load arrays, their charge caches and the
  receiver pairs of each active stream.
  :attr:`OnlineAllocator.assignment` is a view derived from those pairs
  on demand; offers and releases keep no string-keyed mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import DEFAULT_CHARGE_RESYNC, resolve_charge_resync
from repro.core.assignment import Assignment
from repro.core.indexed import index_instance, small_streams_indexed
from repro.core.instance import FEASIBILITY_RTOL, MMDInstance
from repro.exceptions import ValidationError

#: Default commits/releases between defensive full recomputes of the
#: cached exponential charges (the float-drift guard).  The per-entry
#: cache writes are themselves exact recomputes of ``µ^L``, so the
#: periodic resync is a bit-wise no-op by construction — it exists to
#: pin that invariant at runtime, cheaply, for the 10⁶-event
#: simulations.  Configurable per allocator via the ``charge_resync``
#: constructor argument, or globally via ``$REPRO_CHARGE_RESYNC``
#: (resolved by :func:`repro.config.resolve_charge_resync`; this
#: constant re-exports :data:`repro.config.DEFAULT_CHARGE_RESYNC`).
CHARGE_RESYNC_INTERVAL = DEFAULT_CHARGE_RESYNC

#: A normalized load above this exceeds its budget (the guard's test).
_LOAD_LIMIT = 1.0 + FEASIBILITY_RTOL

#: The answer to a rejected offer (shared, read-only).
_NO_USERS = np.empty(0, dtype=np.int64)
_NO_USERS.flags.writeable = False


def drop_walk(walk: np.ndarray, server_charge) -> np.ndarray:
    """Replay Line 4's drop loop; return how many users each offer drops.

    ``walk`` has shape ``(2, ..., width + 1)``: plane 0 holds user
    charges and plane 1 utilities.  For each offer, columns ``1..n``
    hold its ``n`` interested users in drop order (largest
    charge/utility ratio first) and columns past ``n`` hold zeros.
    Column 0 is overwritten with the offer's totals: ``server_charge``
    plus the charges, and the utilities, each summed one term at a time
    in ascending ratio order.

    The scalar loop subtracts the next user's terms from both totals
    while ``charge > utility``.  ``np.subtract.accumulate`` along the
    columns performs exactly those subtractions in that order, so
    column ``s`` holds the loop's totals after ``s`` drops.  The walk
    stops at the first column where ``charge > utility`` is false (NaN
    included, as in the loop) or at the last column.  An offer whose
    count comes out at least ``n`` drops everyone.
    """
    with np.errstate(invalid="ignore"):
        totals = walk[..., :0:-1].cumsum(axis=-1)[..., -1]
        walk[0, ..., 0] = server_charge + totals[0]
        walk[1, ..., 0] = totals[1]
        running = np.subtract.accumulate(walk, axis=-1)
        going = running[0] > running[1]
    going[..., -1] = False
    return going.argmin(axis=-1)


def global_skew_parameters(instance: MMDInstance) -> "tuple[float, float, int]":
    """Return ``(gamma, mu, D)`` for an instance.

    ``D = m_finite + Σ_u m_c_finite(u)`` counts the budgets with finite
    caps; ``gamma`` is the global skew of eq. (1) computed on the
    normalized instance, and ``mu = 2·gamma·D + 2`` (the constant that
    makes Lemma 5.1 go through; Theorem 1.2 states ``+1``, which does
    not satisfy the lemma's final inequality — we use ``+2`` from §5).
    """
    idx = index_instance(instance)
    d = sum(1 for b in instance.budgets if not math.isinf(b))
    d += int(np.isfinite(idx.capacities).sum())
    d = max(d, 1)
    gamma = instance.global_skew()
    mu = 2.0 * gamma * d + 2.0
    return gamma, mu, d


def small_streams_condition(instance: MMDInstance, mu: "float | None" = None) -> bool:
    """Check the Theorem 1.2 precondition: every stream costs at most a
    ``1/log₂ µ`` fraction of every finite budget and capacity."""
    if mu is None:
        _gamma, mu, _d = global_skew_parameters(instance)
    return small_streams_indexed(index_instance(instance), mu)


class OnlineAllocator:
    """Stateful online allocator (Algorithm 2).

    The stream *catalog* (and hence the normalization and ``µ``) is
    fixed at construction; the arrival **order** is unknown and streams
    are offered one at a time via :meth:`offer`.  Decisions are never
    revoked (except through the explicit :meth:`release` extension).

    Parameters
    ----------
    instance:
        The full instance (catalog, users, budgets).
    mu:
        Optional override of the exponential base (for experiments);
        defaults to ``2γD + 2``.
    enforce_budgets:
        Hard admission guard (see module docstring).
    charge_resync:
        Commits/releases between drift-guard
        :meth:`resync_charges` runs.  ``None`` resolves through
        :func:`repro.config.resolve_charge_resync`
        (``$REPRO_CHARGE_RESYNC`` override, default
        :data:`CHARGE_RESYNC_INTERVAL`); bad values raise
        :class:`~repro.exceptions.ValidationError` loudly.
    """

    def __init__(
        self,
        instance: MMDInstance,
        mu: "float | None" = None,
        enforce_budgets: bool = True,
        charge_resync: "int | None" = None,
    ) -> None:
        self.instance = instance
        self.enforce_budgets = enforce_budgets
        self.charge_resync = resolve_charge_resync(charge_resync)
        self.gamma, default_mu, self.d = global_skew_parameters(instance)
        self.mu = default_mu if mu is None else float(mu)
        if self.mu <= 1.0:
            raise ValidationError(f"mu must exceed 1, got {self.mu}")
        self.log_mu = math.log2(self.mu)

        idx = index_instance(instance)
        self._idx = idx
        min_w = idx.min_support_utilities()  # w_min(S); inf for empty support

        # Per-measure normalization scales λ (cost and budget together):
        # λ_i = min over streams with c_i(S) > 0 of w_min(S) / (D · c_i(S)).
        self._server_measures: "list[int]" = [
            i for i, b in enumerate(instance.budgets) if not math.isinf(b)
        ]
        self._server_scale: dict[int, float] = {}
        for i in self._server_measures:
            cost = idx.stream_costs[:, i]
            mask = np.isfinite(min_w) & (cost > 0)
            scale = float((min_w[mask] / (self.d * cost[mask])).min()) if mask.any() else math.inf
            self._server_scale[i] = 1.0 if math.isinf(scale) else scale

        # Per-(user, measure) scales over the user-major pair arrays;
        # entries for infinite-cap measures exist but are never charged.
        num_users, mc = idx.num_users, idx.mc
        self._finite_caps = np.isfinite(idx.capacities)  # (U, mc)
        self._user_scale_arr = np.ones((num_users, mc))
        pair_min_w = min_w[idx.u_stream] if idx.nnz else np.empty(0)
        for j in range(mc):
            load = idx.u_loads[:, j]
            mask = load > 0
            if mask.any():
                scale = np.full(num_users, math.inf)
                with np.errstate(over="ignore"):
                    ratios = pair_min_w[mask] / (self.d * load[mask])
                np.minimum.at(scale, idx.u_pair_user[mask], ratios)
                self._user_scale_arr[:, j] = np.where(np.isfinite(scale), scale, 1.0)

        # Server terms per stream, as Python floats: (measure, c_i(S)/B_i,
        # scaled B_i) for every positive cost (charged, committed and
        # released), and (measure, c_i(S)/B_i) for every finite budget
        # (the guard's test).
        measures = self._server_measures
        costs = idx.stream_costs[:, measures]
        shares = (costs / idx.budgets[measures]).tolist()
        scaled_budgets = [self._server_scale[i] * instance.budgets[i] for i in measures]
        self._server_shares: "list[list[tuple[int, float]]]" = [
            list(zip(measures, row)) for row in shares
        ]
        self._server_terms: "list[list[tuple[int, float, float]]]" = [
            [
                (i, share, scaled)
                for i, share, scaled, positive in zip(measures, row, scaled_budgets, charged)
                if positive
            ]
            for row, charged in zip(shares, (costs > 0).tolist())
        ]

        # Static per-pair columns over the stream-major pairs, one
        # contiguous row per capacity measure, so an offer slices its CSR
        # row ``lo:hi`` instead of gathering from ``(U, m_c)`` arrays.
        # Each entry is the float the scalar path computed per offer.
        pair_caps = np.ascontiguousarray(idx.capacities[idx.s_user].T)
        pair_loads = np.ascontiguousarray(idx.s_loads.T)
        #: Finite cap: the pair counts in the guard.
        self._pair_finite = np.isfinite(pair_caps)
        #: Finite cap and positive load: the pair is charged in Line 4,
        #: and commits and releases move its budget.
        self._pair_charged = self._pair_finite & (pair_loads > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            #: Normalized load ``k^u_j(S) / K^u_j``.
            self._pair_ratio = pair_loads / pair_caps
        #: Scaled capacity ``λ_{u,j} K^u_j``; zero where uncharged, so
        #: the masked-out charge terms stay finite.
        self._pair_scaled_cap = np.zeros_like(pair_caps)
        np.multiply(
            self._user_scale_arr[idx.s_user].T, pair_caps,
            out=self._pair_scaled_cap, where=self._pair_charged,
        )
        #: Flat index ``u·m_c + j`` of the pair's budget in the load arrays.
        self._pair_budget = idx.s_user * mc + np.arange(mc, dtype=np.int64)[:, None]
        self._pair_rank = idx.user_rank[idx.s_user]
        self._indptr = idx.s_indptr.tolist()

        # Normalized loads L(i) ∈ [0, 1] per budget (scale-invariant).
        self._server_load_arr = np.zeros(idx.m)
        self._user_load_arr = np.zeros((num_users, mc))
        # Incremental exponential charges: the caches hold µ^{L(i)} per
        # budget (µ^0 = 1 at rest) and are updated on commit/release for
        # the budgets whose load changed, so an offer reads one gather
        # instead of recomputing ``mu ** load`` over every interested
        # row.  Each cache write is the *exact* ``µ^L`` of the new load
        # (one pow per changed budget — the same cost a multiplicative
        # update would pay — with zero float drift, keeping decisions
        # bit-identical to the uncached path).
        self._exp_server = np.ones(idx.m)
        self._exp_user = np.ones((num_users, mc))
        # Flat views of the user arrays, indexed by ``_pair_budget``
        # (every write to the arrays is in place, so the views stay live).
        self._user_load_flat = self._user_load_arr.reshape(-1)
        self._exp_user_flat = self._exp_user.reshape(-1)
        self._ops_since_resync = 0
        self._offered: set[str] = set()
        self._active_pairs: "dict[int, np.ndarray]" = {}
        #: Deduplicated rejected stream ids, in first-rejection order
        #: (bounded by the catalog size; re-offered rejections bump
        #: :attr:`rejected_count` without growing this list, so
        #: million-event simulation runs do not leak memory).
        self.rejected: "list[str]" = []
        #: Total rejections, re-offers included.
        self.rejected_count = 0
        self._rejected_seen: set[str] = set()

    # ------------------------------------------------------------------
    # Exponential costs
    # ------------------------------------------------------------------

    def _server_charge(self, stream_id: str) -> float:
        """``Σ_{i∈M} (c_i(S)/B_i)·C(i)`` — the server part of the Line 4 test."""
        self.instance.stream(stream_id)  # canonical unknown-stream error
        return self._server_charge_index(self._idx.stream_index[stream_id])

    def _server_charge_index(self, k: int) -> float:
        """Index form of :meth:`_server_charge` (same floats, no id lookup)."""
        total = 0.0
        for i, share, scaled_budget in self._server_terms[k]:
            total += share * (scaled_budget * (float(self._exp_server[i]) - 1.0))
        return total

    def _user_charge(self, user_id: str, stream_id: str) -> float:
        """``Σ_j (k^u_j(S)/K^u_j)·C(u,j)`` — one user's part of the test.

        Scalar diagnostic view of :meth:`_user_charges` (same kernel, a
        single pair), for tests and interactive inspection.
        """
        idx = self._idx
        u_i = idx.user_index[user_id]
        k = idx.stream_index[self.instance.stream(stream_id).stream_id]
        row = idx.s_user[idx.s_indptr[k]:idx.s_indptr[k + 1]]
        position = np.flatnonzero(row == u_i)
        if position.size == 0:
            return 0.0  # zero utility pair: loads are zero by the model
        return float(self._user_charges(idx.s_indptr[k] + position[:1])[0])

    def _user_charges(self, pairs: "slice | np.ndarray") -> np.ndarray:
        """``Σ_j (k^u_j(S)/K^u_j)·C(u,j)`` for each of the given pairs.

        ``pairs`` is a slice of one stream's CSR row (an offer) or an
        array of pair indices (a batch of offers).  Each term is the
        scalar path's ``(k/K)·(λK·(µ^L − 1))`` from the static pair
        columns and the exact :attr:`_exp_user` cache, and the measures
        accumulate in ascending ``j`` onto zero, skipping uncharged
        pairs — the same floats as charging one user at a time.
        """
        terms = self._pair_ratio[:, pairs] * (
            self._pair_scaled_cap[:, pairs]
            * (self._exp_user_flat[self._pair_budget[:, pairs]] - 1.0)
        )
        charged = self._pair_charged[:, pairs]
        charge = np.zeros(terms.shape[1])
        for j in range(terms.shape[0]):
            np.add(charge, terms[j], out=charge, where=charged[j])
        return charge

    def _charges_mutated(self) -> None:
        """Count a commit/release toward the periodic drift-guard resync."""
        self._ops_since_resync += 1
        if self._ops_since_resync >= self.charge_resync:
            self.resync_charges()

    def resync_charges(self) -> None:
        """Float-drift guard: recompute every cached ``µ^L`` from the loads.

        Because the incremental writes are already exact per-entry
        recomputes, this is a bit-wise no-op (asserted in
        ``tests/test_allocate.py``); it runs every
        :attr:`charge_resync` commits/releases as a cheap
        runtime pin of that invariant, and gives any subclass that
        swaps in genuinely multiplicative updates a bounded-drift story.
        """
        for i in range(self._idx.m):
            self._exp_server[i] = self.mu ** float(self._server_load_arr[i])
        self._exp_user[...] = self.mu ** self._user_load_arr
        self._ops_since_resync = 0

    # ------------------------------------------------------------------
    # Online interface
    # ------------------------------------------------------------------

    def _reject(self, stream_id: str) -> None:
        """Record a rejection: the count always grows, the id list only
        on first rejection (so re-offers over a long trace stay O(1))."""
        self.rejected_count += 1
        if stream_id not in self._rejected_seen:
            self._rejected_seen.add(stream_id)
            self.rejected.append(stream_id)

    def offer(self, stream_id: str) -> "list[str]":
        """Offer a stream; returns the users it was assigned to (may be
        empty = rejected).  An *accepted* stream may not be offered again
        until released; rejected streams may be re-offered (the simulator
        treats each re-arrival as a fresh request)."""
        k = self._idx.stream_index.get(stream_id)
        if k is None:
            self.instance.stream(stream_id)  # canonical unknown-stream error
        return self._idx.user_ids_of(self.offer_indexed(k))

    def _check_stream_index(self, k: int) -> int:
        """Validate a stream index loudly (canonical :class:`ValidationError`).

        Out-of-range *and negative* indices both fail: numpy's negative
        indexing would otherwise silently address the wrong stream.
        """
        k = int(k)
        if not 0 <= k < self._idx.num_streams:
            raise ValidationError(
                f"unknown stream index {k}; catalog has "
                f"{self._idx.num_streams} streams"
            )
        return k

    def offer_indexed(self, k: int) -> np.ndarray:
        """Index-native :meth:`offer`: stream index in, receiver user
        indices out (same floats, same decisions — the string form
        delegates here).

        Receivers come in ascending charge/utility order (ties by user
        id), the order the drop walk keeps them in.
        """
        idx = self._idx
        k = int(k)
        if not 0 <= k < idx.num_streams:
            self._check_stream_index(k)  # raises the canonical error
        stream_id = idx.stream_ids[k]
        if stream_id in self._offered:
            raise ValidationError(f"stream {stream_id!r} is already active")
        lo, hi = self._indptr[k], self._indptr[k + 1]
        if lo == hi:
            self._reject(stream_id)
            return _NO_USERS
        row = slice(lo, hi)
        charges = self._user_charges(row)
        utilities = idx.s_w[row]
        order = np.lexsort((self._pair_rank[row], charges / utilities))

        # Maximal U_j: drop users in decreasing order of charge/utility
        # until the Line 4 condition holds (the paper's note after Alg. 2).
        walk = np.empty((2, hi - lo + 1))
        charges.take(order, out=walk[0, :0:-1])
        utilities.take(order, out=walk[1, :0:-1])
        count = hi - lo - int(drop_walk(walk, self._server_charge_index(k)))
        if count == 0:
            self._reject(stream_id)
            return _NO_USERS
        pairs = order[:count] + lo

        # Each selected pair's budget and its load after a commit: the
        # guard tests these loads and the commit writes them.
        budgets = self._pair_budget[:, pairs]
        loads = self._user_load_flat[budgets] + self._pair_ratio[:, pairs]
        if self.enforce_budgets:
            pairs, budgets, loads = self._hard_guard(k, pairs, budgets, loads)
            if pairs.size == 0:
                self._reject(stream_id)
                return _NO_USERS

        # Commit: server loads increase once, user loads per receiver;
        # the charge caches refresh for exactly the budgets that moved.
        self._offered.add(stream_id)
        for i, share, _scaled_budget in self._server_terms[k]:
            load = float(self._server_load_arr[i]) + share
            self._server_load_arr[i] = load
            self._exp_server[i] = self.mu ** load
        charged = self._pair_charged[:, pairs]
        touched = budgets[charged]
        loads = loads[charged]
        self._user_load_flat[touched] = loads
        self._exp_user_flat[touched] = self.mu ** loads
        self._charges_mutated()
        self._active_pairs[k] = pairs
        return idx.s_user[pairs]

    def offer_batch(self, ks: np.ndarray) -> "list[np.ndarray]":
        """Answer a group of offers; returns answers for a prefix of ``ks``.

        Used by the batched simulation engine for arrival groups whose
        decisions cannot interact until one commits.  The exponential
        charges only move on a commit, so every offer the sequential
        walk would *reject* sees unchanged state — this method
        vectorizes the rejection filter (batched charges, one
        segment-major ``lexsort`` and one :func:`drop_walk` over a
        padded row per offer — the kernel :meth:`offer_indexed` runs on
        its single row) and then delegates the first offer predicted
        to select users to :meth:`offer_indexed`, which recomputes and
        commits.  The answers are therefore bit-identical to calling
        :meth:`offer_indexed` in sequence; the prefix ends at the first
        potentially state-changing answer (the caller re-offers the rest).
        """
        idx = self._idx
        total = len(ks)
        if total == 0:
            return []
        ks_arr = np.asarray(ks, dtype=np.int64)
        starts = idx.s_indptr[ks_arr]
        counts = (idx.s_indptr[ks_arr + 1] - starts).astype(np.int64)
        keep = np.zeros(total, dtype=np.int64)  # predicted Line-4 count
        nz = counts > 0
        if nz.any():
            from repro.core.indexed import _concat_ranges

            row_pairs = _concat_ranges(starts[nz], counts[nz])
            row_w = idx.s_w[row_pairs]
            lengths = counts[nz]
            nrows = lengths.size
            seg = np.repeat(np.arange(nrows), lengths)
            charges = self._user_charges(row_pairs)

            server_charge = np.array(
                [self._server_charge_index(k) for k in ks_arr[nz].tolist()]
            )

            with np.errstate(invalid="ignore"):
                ratio = charges / row_w
            # Segment-major stable lexsort == each offer's own
            # (rank, charge/utility) lexsort, concatenated.
            order = np.lexsort((self._pair_rank[row_pairs], ratio, seg))
            offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
            col = np.arange(seg.size, dtype=np.int64) - offsets[seg]
            # One padded walk row per offer, users in drop order.
            walk = np.zeros((2, nrows, int(lengths.max()) + 1))
            step = lengths[seg] - col
            walk[0, seg, step] = charges[order]
            walk[1, seg, step] = row_w[order]
            keep[nz] = np.maximum(lengths - drop_walk(walk, server_charge), 0)

        answers: "list[np.ndarray]" = []
        for position in range(total):
            k = int(ks_arr[position])
            stream_id = idx.stream_ids[k]
            if stream_id in self._offered:
                raise ValidationError(f"stream {stream_id!r} is already active")
            if keep[position] == 0:
                self._reject(stream_id)
                answers.append(_NO_USERS)
                continue
            # First offer that selects users: recompute + commit through
            # the scalar path (state untouched by the rejects above, so
            # the floats are identical), then end the prefix — a commit
            # moves the charges every later decision depends on.
            answers.append(self.offer_indexed(k))
            break
        return answers

    def _hard_guard(
        self, k: int, pairs: np.ndarray, budgets: np.ndarray, loads: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Drop the stream (or individual users) if committing would exceed
        a budget.  Never fires under the small-streams precondition.

        ``budgets`` and ``loads`` are the selected pairs' ``(m_c, n)``
        budget indices and post-commit loads; all three come back
        filtered to the users that fit.  A user measure counts when its
        cap is finite, whether or not the pair is charged: a zero-load
        pair on a user already over a finite cap is dropped, and an
        infinite cap never blocks.
        """
        for i, share in self._server_shares[k]:
            if float(self._server_load_arr[i]) + share > _LOAD_LIMIT:
                return _NO_USERS, budgets[:, :0], loads[:, :0]
        over = loads > _LOAD_LIMIT
        over &= self._pair_finite[:, pairs]
        if not over.any():
            return pairs, budgets, loads
        fits = ~over.any(axis=0)
        return pairs[fits], budgets[:, fits], loads[:, fits]

    def release(self, stream_id: str) -> None:
        """Extension for finite-duration sessions: return a stream's load.

        Removes the stream from every receiver and subtracts its server
        and user loads.  The stream may be offered again afterwards.
        The §5 competitive analysis covers the arrivals-only model; with
        releases this is the heuristic policy used by the simulator.
        """
        k = self._idx.stream_index.get(stream_id)
        if k is None:
            self.instance.stream(stream_id)  # canonical unknown-stream error
        if stream_id not in self._offered:
            raise ValidationError(
                f"stream {stream_id!r} is not active "
                "(never offered, rejected, or already released)"
            )
        self.release_indexed(k)

    def release_indexed(self, k: int) -> None:
        """Index-native :meth:`release`: one scatter-subtract over the
        stream's receiver pairs instead of a per-user loop.

        Unknown indices and inactive streams raise the canonical
        :class:`~repro.exceptions.ValidationError` — never a raw
        ``KeyError``/``IndexError``, and never a silent no-op.
        """
        k = int(k)
        if not 0 <= k < self._idx.num_streams:
            self._check_stream_index(k)  # raises the canonical error
        stream_id = self._idx.stream_ids[k]
        if stream_id not in self._offered:
            raise ValidationError(
                f"stream {stream_id!r} is not active "
                "(never offered, rejected, or already released)"
            )
        pairs = self._active_pairs.pop(k, _NO_USERS)
        if pairs.size:
            for i, share, _scaled_budget in self._server_terms[k]:
                load = float(self._server_load_arr[i]) - share
                self._server_load_arr[i] = load
                self._exp_server[i] = self.mu ** load
            charged = self._pair_charged[:, pairs]
            touched = self._pair_budget[:, pairs][charged]
            loads = self._user_load_flat[touched] - self._pair_ratio[:, pairs][charged]
            self._user_load_flat[touched] = loads
            self._exp_user_flat[touched] = self.mu ** loads
            self._charges_mutated()
        self._offered.discard(stream_id)

    # ------------------------------------------------------------------
    # State snapshot / restore (the serving layer's durability hooks)
    # ------------------------------------------------------------------

    def state_dict(self) -> "dict[str, object]":
        """The allocator's full dynamic state, as plain data.

        Everything :meth:`load_state` needs to make a fresh allocator
        (same instance, same ``mu``) *bit-identical* to this one:
        normalized loads, the cached exponential charges (copied
        verbatim rather than recomputed, so restore cannot drift),
        active sessions with their receiver pairs, rejection
        bookkeeping and the resync counter.  Static derived data
        (scales, ``µ``, the index) is rebuilt from the instance at
        construction and therefore not part of the state.
        """
        return {
            "mu": self.mu,
            "server_load": self._server_load_arr.copy(),
            "user_load": self._user_load_arr.copy(),
            "exp_server": self._exp_server.copy(),
            "exp_user": self._exp_user.copy(),
            "ops_since_resync": int(self._ops_since_resync),
            "offered": sorted(self._offered),
            "active_pairs": {
                int(k): np.asarray(pairs, dtype=np.int64).copy()
                for k, pairs in self._active_pairs.items()
            },
            "rejected": list(self.rejected),
            "rejected_count": int(self.rejected_count),
        }

    def load_state(self, state: "dict[str, object]") -> None:
        """Restore a :meth:`state_dict` snapshot onto this allocator.

        The allocator must wrap the same instance with the same ``mu``
        (checked loudly); afterwards every future decision — and
        :meth:`resync_charges`, still a bit-wise no-op — is identical
        to the allocator the state was taken from.
        """
        if float(state["mu"]) != self.mu:
            raise ValidationError(
                f"state was taken at mu={state['mu']!r} but this allocator "
                f"has mu={self.mu!r}; same instance and mu are required"
            )
        idx = self._idx
        for name, target in (
            ("server_load", self._server_load_arr),
            ("user_load", self._user_load_arr),
            ("exp_server", self._exp_server),
            ("exp_user", self._exp_user),
        ):
            source = np.asarray(state[name], dtype=np.float64)
            if source.shape != target.shape:
                raise ValidationError(
                    f"state array {name!r} has shape {source.shape}, "
                    f"expected {target.shape}"
                )
            target[...] = source
        self._ops_since_resync = int(state["ops_since_resync"])
        offered = set(state["offered"])
        for sid in offered:
            if sid not in idx.stream_index:
                raise ValidationError(f"state names unknown stream id {sid!r}")
        self._offered = offered
        self._active_pairs = {}
        for k, pairs in sorted(state["active_pairs"].items()):
            k = self._check_stream_index(k)
            arr = np.asarray(pairs, dtype=np.int64)
            if arr.size and (
                int(arr.min()) < int(idx.s_indptr[k])
                or int(arr.max()) >= int(idx.s_indptr[k + 1])
            ):
                raise ValidationError(
                    f"state pairs for stream index {k} fall outside its "
                    "interest row"
                )
            self._active_pairs[k] = arr
        self.rejected = list(state["rejected"])
        self._rejected_seen = set(self.rejected)
        self.rejected_count = int(state["rejected_count"])

    def state_digest(self) -> str:
        """SHA-256 fingerprint of the dynamic state (bit-identity checks).

        Two allocators over the same instance have equal digests iff
        their loads, charge caches, active sessions, and rejection
        bookkeeping are bit-identical — the equality the crash-restore
        tests assert between a restored service and an uninterrupted
        run.
        """
        import hashlib

        state = self.state_dict()
        digest = hashlib.sha256()
        digest.update(repr(float(state["mu"])).encode())
        for name in ("server_load", "user_load", "exp_server", "exp_user"):
            arr = state[name]
            digest.update(name.encode())
            digest.update(repr(arr.shape).encode())
            digest.update(arr.tobytes())
        digest.update(repr(int(state["ops_since_resync"])).encode())
        digest.update("\x00".join(state["offered"]).encode())
        for k, pairs in sorted(state["active_pairs"].items()):
            digest.update(repr(int(k)).encode())
            digest.update(pairs.tobytes())
        digest.update("\x00".join(state["rejected"]).encode())
        digest.update(repr(int(state["rejected_count"])).encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def assignment(self) -> Assignment:
        """The current assignment, built on demand from the active pairs.

        A fresh :class:`~repro.core.assignment.Assignment` on every
        access (a snapshot: later offers and releases do not change it).
        The allocator's own state is the loads and
        ``stream index → receiver pairs``; offers and releases keep no
        string-keyed mirror.
        """
        idx = self._idx
        view = Assignment(self.instance)
        for k, pairs in self._active_pairs.items():
            view.assign_stream(idx.stream_ids[k], idx.user_ids_of(idx.s_user[pairs]))
        return view

    @property
    def competitive_bound(self) -> float:
        """Theorem 5.4's guarantee: ``1 + 2·log₂ µ``."""
        return 1.0 + 2.0 * self.log_mu

    def normalized_loads(self) -> "dict[str, float]":
        """Current normalized loads per budget (for diagnostics/metrics)."""
        loads = {
            f"server[{i}]": float(self._server_load_arr[i])
            for i in self._server_measures
        }
        idx = self._idx
        for u_i, uid in enumerate(idx.user_ids):
            for j in range(idx.mc):
                if self._finite_caps[u_i, j]:
                    loads[f"user[{uid}][{j}]"] = float(self._user_load_arr[u_i, j])
        return loads


@dataclass
class AllocateResult:
    """Outcome of a batch :func:`allocate` run."""

    assignment: Assignment
    mu: float
    gamma: float
    competitive_bound: float
    small_streams_ok: bool
    rejected: "list[str]" = field(default_factory=list)


def allocate(
    instance: MMDInstance,
    order: "list[str] | None" = None,
    mu: "float | None" = None,
    enforce_budgets: bool = True,
) -> AllocateResult:
    """Run Algorithm 2 over all streams in the given (default: input) order."""
    allocator = OnlineAllocator(instance, mu=mu, enforce_budgets=enforce_budgets)
    sequence = order if order is not None else instance.stream_ids()
    for sid in sequence:
        allocator.offer(sid)
    return AllocateResult(
        assignment=allocator.assignment,
        mu=allocator.mu,
        gamma=allocator.gamma,
        competitive_bound=allocator.competitive_bound,
        small_streams_ok=small_streams_condition(instance, allocator.mu),
        rejected=list(allocator.rejected),
    )
