"""Tests for §5: online Algorithm Allocate (Lemma 5.1, Theorem 5.4)."""

from __future__ import annotations

import math

import pytest

from repro.core.allocate import (
    OnlineAllocator,
    allocate,
    global_skew_parameters,
    small_streams_condition,
)
from repro.core.optimal import solve_exact_milp
from repro.exceptions import ValidationError
from repro.instances.generators import random_mmd, small_streams_mmd


def small_ensemble(count=6, seed=500, **kwargs):
    return [
        small_streams_mmd(12 + i, 3 + i % 3, seed=seed + i, **kwargs)
        for i in range(count)
    ]


class TestParameters:
    def test_mu_exceeds_feasibility_threshold(self):
        """µ = 2γD + 2 is what Lemma 5.1 needs (µ/2 - 1 >= γD)."""
        inst = small_streams_mmd(10, 3, seed=1)
        gamma, mu, d = global_skew_parameters(inst)
        assert mu / 2.0 - 1.0 >= gamma * d - 1e-9
        assert gamma >= 1.0

    def test_small_streams_condition_detects_violation(self):
        inst = random_mmd(8, 3, m=1, mc=1, seed=7, budget_fraction=0.2)
        # A tight random instance has streams costing a large budget share.
        assert not small_streams_condition(inst)

    def test_small_streams_condition_holds_for_generator(self):
        for inst in small_ensemble(count=4):
            assert small_streams_condition(inst)

    def test_invalid_mu_rejected(self):
        inst = small_streams_mmd(6, 2, seed=3)
        with pytest.raises(ValidationError):
            OnlineAllocator(inst, mu=1.0)


class TestLemma51Feasibility:
    def test_never_violates_budgets_under_precondition(self):
        """With the hard guard OFF, the exponential costs alone must keep
        every budget feasible when streams are small (Lemma 5.1)."""
        for inst in small_ensemble(count=6, seed=900):
            allocator = OnlineAllocator(inst, enforce_budgets=False)
            for sid in inst.stream_ids():
                allocator.offer(sid)
            assert allocator.assignment.is_feasible(), (
                allocator.assignment.violated_constraints()
            )

    def test_feasible_for_multi_budget_small_streams(self):
        for i in range(3):
            inst = small_streams_mmd(10, 3, m=2, mc=2, seed=700 + i)
            allocator = OnlineAllocator(inst, enforce_budgets=False)
            for sid in inst.stream_ids():
                allocator.offer(sid)
            assert allocator.assignment.is_feasible()

    def test_hard_guard_protects_on_large_streams(self):
        """On instances violating the precondition, the engineering guard
        still prevents infeasibility."""
        inst = random_mmd(10, 3, m=1, mc=1, seed=13, budget_fraction=0.3)
        allocator = OnlineAllocator(inst, enforce_budgets=True)
        for sid in inst.stream_ids():
            allocator.offer(sid)
        assert allocator.assignment.is_feasible()


class TestTheorem54Competitiveness:
    def test_competitive_bound_formula(self):
        inst = small_streams_mmd(10, 3, seed=21)
        allocator = OnlineAllocator(inst)
        assert allocator.competitive_bound == pytest.approx(
            1.0 + 2.0 * math.log2(allocator.mu)
        )

    def test_ratio_within_bound(self):
        for inst in small_ensemble(count=5, seed=1100):
            result = allocate(inst)
            opt = solve_exact_milp(inst).utility
            if opt == 0:
                continue
            achieved = result.assignment.utility()
            ratio = opt / max(achieved, 1e-12)
            assert ratio <= result.competitive_bound + 1e-9, (
                f"ratio {ratio} > bound {result.competitive_bound}"
            )

    def test_ratio_within_bound_any_order(self):
        """Online: the bound holds for adversarial arrival orders too."""
        inst = small_streams_mmd(14, 4, seed=33)
        opt = solve_exact_milp(inst).utility
        orders = [
            inst.stream_ids(),
            list(reversed(inst.stream_ids())),
            sorted(inst.stream_ids(), key=lambda s: inst.total_utility(s)),
        ]
        for order in orders:
            result = allocate(inst, order=order)
            achieved = result.assignment.utility()
            if opt == 0:
                continue
            assert opt / max(achieved, 1e-12) <= result.competitive_bound + 1e-9


class TestOnlineSemantics:
    def test_double_offer_of_accepted_stream_rejected(self):
        inst = small_streams_mmd(8, 2, seed=41)
        allocator = OnlineAllocator(inst)
        sid = inst.stream_ids()[0]
        receivers = allocator.offer(sid)
        if receivers:
            with pytest.raises(ValidationError, match="already active"):
                allocator.offer(sid)

    def test_decisions_never_revoked(self):
        inst = small_streams_mmd(10, 3, seed=43)
        allocator = OnlineAllocator(inst)
        committed: dict[str, set[str]] = {}
        for sid in inst.stream_ids():
            allocator.offer(sid)
            for prev, users in committed.items():
                assert set(allocator.assignment.receivers_of(prev)) == users
            committed[sid] = set(allocator.assignment.receivers_of(sid))

    def test_release_returns_load(self):
        inst = small_streams_mmd(8, 2, seed=47)
        allocator = OnlineAllocator(inst)
        sid = next(
            s for s in inst.stream_ids() if allocator.offer(s)
        )
        loads_before = dict(allocator.normalized_loads())
        allocator.release(sid)
        loads_after = allocator.normalized_loads()
        assert all(loads_after[k] <= loads_before[k] + 1e-12 for k in loads_after)
        assert sid not in allocator.assignment.assigned_streams()
        # Releasing an unknown stream is an error.
        with pytest.raises(ValidationError):
            allocator.release("nope")

    def test_rejected_streams_recorded(self):
        inst = random_mmd(8, 3, m=1, mc=1, seed=51, budget_fraction=0.15)
        result = allocate(inst)
        # With a tight budget, something must be rejected.
        assert result.rejected or result.assignment.assigned_streams()


class TestRejectionAccounting:
    """Regression for the unbounded ``rejected`` list: re-offered
    rejections over a long trace must not grow memory."""

    @staticmethod
    def _rejecting_allocator():
        inst = random_mmd(8, 3, m=1, mc=1, seed=51, budget_fraction=0.15)
        allocator = OnlineAllocator(inst)
        rejected_id = next(
            sid for sid in inst.stream_ids() if not allocator.offer(sid)
        )
        return allocator, rejected_id

    def test_reoffered_rejection_does_not_grow_list(self):
        allocator, sid = self._rejecting_allocator()
        length = len(allocator.rejected)
        count = allocator.rejected_count
        for _ in range(100):
            assert allocator.offer(sid) == []
        assert len(allocator.rejected) == length  # deduplicated
        assert allocator.rejected_count == count + 100  # still all counted

    def test_rejected_list_bounded_by_catalog(self):
        allocator, sid = self._rejecting_allocator()
        for _ in range(50):
            allocator.offer(sid)
        assert len(allocator.rejected) <= allocator.instance.num_streams
        assert allocator.rejected.count(sid) == 1

    def test_batch_allocate_semantics_preserved(self):
        """Each stream offered once: the dedup is invisible to allocate()."""
        inst = random_mmd(8, 3, m=1, mc=1, seed=51, budget_fraction=0.15)
        result = allocate(inst)
        assert len(result.rejected) == len(set(result.rejected))
        carried = {
            sid for _uid, streams in result.assignment.as_dict().items()
            for sid in streams
        }
        assert set(result.rejected).isdisjoint(carried)


class TestIncrementalCharges:
    """The cached exponential charges must equal ``µ^L`` bit-for-bit at
    every point, and the periodic drift-guard resync must be a no-op —
    the invariants that keep decisions identical to the uncached path."""

    @staticmethod
    def _exercise(allocator, inst, releases=True):
        import numpy as np

        for step, sid in enumerate(inst.stream_ids()):
            allocator.offer(sid)
            if releases and step % 3 == 2 and sid not in allocator.rejected:
                try:
                    allocator.release(sid)
                except ValidationError:
                    pass
        return np

    def test_caches_match_exact_powers(self):
        inst = small_streams_mmd(14, 4, seed=77)
        allocator = OnlineAllocator(inst)
        np = self._exercise(allocator, inst)
        expected_user = allocator.mu ** allocator._user_load_arr
        assert np.array_equal(allocator._exp_user, expected_user)
        for i in range(allocator._idx.m):
            assert float(allocator._exp_server[i]) == (
                allocator.mu ** float(allocator._server_load_arr[i])
            )

    def test_resync_is_bitwise_noop(self):
        inst = small_streams_mmd(12, 3, seed=78)
        allocator = OnlineAllocator(inst)
        np = self._exercise(allocator, inst)
        before_user = allocator._exp_user.copy()
        before_server = allocator._exp_server.copy()
        allocator.resync_charges()
        assert np.array_equal(allocator._exp_user, before_user)
        assert np.array_equal(allocator._exp_server, before_server)
        assert allocator._ops_since_resync == 0

    def test_decisions_match_per_offer_recompute(self):
        """Offer-by-offer, the incremental allocator's receiver sets must
        equal those of a reference that resyncs before every decision
        (i.e. the pre-cache behavior)."""
        inst = small_streams_mmd(16, 5, seed=79)
        incremental = OnlineAllocator(inst)
        reference = OnlineAllocator(inst)
        for sid in inst.stream_ids():
            reference.resync_charges()  # force the "recompute every offer" path
            assert incremental.offer(sid) == reference.offer(sid)


class TestMaximality:
    def test_selected_set_satisfies_condition(self):
        """The chosen U_j satisfies the Line-4 inequality at decision time."""
        inst = small_streams_mmd(10, 4, seed=61)
        allocator = OnlineAllocator(inst, enforce_budgets=False)
        for sid in inst.stream_ids():
            server_charge = allocator._server_charge(sid)
            charges = {
                u.user_id: allocator._user_charge(u.user_id, sid)
                for u in inst.users
                if sid in u.utilities
            }
            receivers = allocator.offer(sid)
            if receivers:
                total_charge = server_charge + sum(charges[u] for u in receivers)
                total_utility = sum(
                    inst.user(u).utilities[sid] for u in receivers
                )
                assert total_charge <= total_utility + 1e-9


class TestReleaseHardening:
    """Engine agreement for the release paths: id-keyed and index-native
    releases must raise the same canonical :class:`ValidationError` for
    every bad input — never a raw ``KeyError``/``IndexError`` and never
    a silent no-op (the serving layer's WAL replay depends on it)."""

    def _admitted(self, seed=47):
        inst = small_streams_mmd(8, 2, seed=seed)
        allocator = OnlineAllocator(inst)
        sid = next(s for s in inst.stream_ids() if allocator.offer(s))
        return inst, allocator, sid

    def test_unknown_id_and_index_agree(self):
        inst, allocator, _ = self._admitted()
        with pytest.raises(ValidationError, match="nope"):
            allocator.release("nope")
        with pytest.raises(ValidationError, match="unknown stream index"):
            allocator.release_indexed(inst.num_streams)

    def test_negative_index_never_wraps(self):
        """numpy-style negative indexing must not silently release the
        last stream in the catalog."""
        _, allocator, _ = self._admitted()
        with pytest.raises(ValidationError, match="unknown stream index"):
            allocator.release_indexed(-1)

    def test_double_release_loud_across_paths(self):
        """Double release is loud regardless of which path did the first."""
        inst, allocator, sid = self._admitted()
        k = allocator._idx.stream_index[sid]
        allocator.release(sid)
        with pytest.raises(ValidationError, match="not active"):
            allocator.release_indexed(k)
        # And the mirror image: index-native first, id-keyed second.
        inst2, allocator2, sid2 = self._admitted(seed=48)
        allocator2.release_indexed(allocator2._idx.stream_index[sid2])
        with pytest.raises(ValidationError, match="not active"):
            allocator2.release(sid2)

    def test_release_of_rejected_stream_loud(self):
        """A rejected offer holds no load; releasing it must refuse."""
        inst = random_mmd(8, 3, m=1, mc=1, seed=51, budget_fraction=0.15)
        allocator = OnlineAllocator(inst)
        rejected = next(
            (s for s in inst.stream_ids() if not allocator.offer(s)), None
        )
        if rejected is None:
            pytest.skip("tight instance unexpectedly admitted everything")
        with pytest.raises(ValidationError, match="not active"):
            allocator.release(rejected)
        state_users = allocator._exp_user.copy()
        # The refused release must not have touched any charge.
        import numpy as np

        assert np.array_equal(allocator._exp_user, state_users)


class TestChargeResyncConfig:
    """The drift-guard interval resolves arg > $REPRO_CHARGE_RESYNC >
    default, and junk fails loudly instead of disabling the guard."""

    def test_default(self, monkeypatch):
        from repro.config import DEFAULT_CHARGE_RESYNC

        monkeypatch.delenv("REPRO_CHARGE_RESYNC", raising=False)
        inst = small_streams_mmd(6, 2, seed=3)
        assert OnlineAllocator(inst).charge_resync == DEFAULT_CHARGE_RESYNC

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHARGE_RESYNC", "7")
        inst = small_streams_mmd(6, 2, seed=3)
        assert OnlineAllocator(inst).charge_resync == 7

    def test_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHARGE_RESYNC", "7")
        inst = small_streams_mmd(6, 2, seed=3)
        assert OnlineAllocator(inst, charge_resync=3).charge_resync == 3

    @pytest.mark.parametrize("junk", ["junk", "0", "-5", "2.5", ""])
    def test_junk_env_is_loud(self, monkeypatch, junk):
        from repro.config import resolve_charge_resync

        monkeypatch.setenv("REPRO_CHARGE_RESYNC", junk)
        with pytest.raises(ValidationError):
            resolve_charge_resync()

    def test_bad_arg_is_loud(self):
        inst = small_streams_mmd(6, 2, seed=3)
        with pytest.raises(ValidationError):
            OnlineAllocator(inst, charge_resync=0)

    def test_small_interval_forces_frequent_resync(self, monkeypatch):
        """A tiny interval keeps the op counter pinned below it — and the
        forced resyncs never change a decision (bit-wise no-op guard)."""
        monkeypatch.delenv("REPRO_CHARGE_RESYNC", raising=False)
        inst = small_streams_mmd(12, 3, seed=81)
        eager = OnlineAllocator(inst, charge_resync=1)
        lazy = OnlineAllocator(inst)
        for sid in inst.stream_ids():
            assert eager.offer(sid) == lazy.offer(sid)
            assert eager._ops_since_resync == 0


class TestHardGuardEdges:
    """Edge semantics of the ``enforce_budgets`` guard.

    The guard masks user measures by *finite capacity*, not by whether
    the pair is charged in the Line-4 test: a zero-load pair on a user
    already over a finite cap is dropped, while an infinite-cap measure
    never blocks, whatever load it records.
    """

    @staticmethod
    def _instance(users, budget=100.0, costs=(1.0, 1.0), strict=True):
        import math as _math

        from repro.core.instance import MMDInstance, Stream, User

        streams = [Stream(f"s{i + 1}", (c,)) for i, c in enumerate(costs)]
        built = [
            User(uid, _math.inf, caps, utilities=w, loads=loads)
            for uid, caps, w, loads in users
        ]
        return MMDInstance(streams, built, (budget,), strict=strict)

    def test_zero_load_pair_on_over_cap_user_is_dropped(self):
        inst = self._instance(
            [
                ("a", (1.0,), {"s1": 10.0, "s2": 10.0}, {"s1": (2.0,)}),
                ("b", (math.inf,), {"s2": 10.0}, {}),
            ],
            strict=False,
        )
        allocator = OnlineAllocator(inst, enforce_budgets=False)
        assert allocator.offer("s1") == ["a"]
        assert allocator._user_load_arr[0, 0] == 2.0  # a is over its cap
        allocator.enforce_budgets = True
        # s2 puts no load on a (uncharged in Line 4), yet the guard sees
        # a's cap already exceeded and drops the pair.
        assert allocator._user_charge("a", "s2") == 0.0
        assert allocator.offer("s2") == ["b"]

    def test_zero_load_pair_on_over_cap_user_alone_is_rejected(self):
        inst = self._instance(
            [("a", (1.0,), {"s1": 10.0, "s2": 10.0}, {"s1": (2.0,)})],
            strict=False,
        )
        allocator = OnlineAllocator(inst, enforce_budgets=False)
        assert allocator.offer("s1") == ["a"]
        allocator.enforce_budgets = True
        assert allocator.offer("s2") == []
        assert allocator.rejected == ["s2"]

    def test_zero_load_pair_is_kept_without_the_guard(self):
        inst = self._instance(
            [("a", (1.0,), {"s1": 10.0, "s2": 10.0}, {"s1": (2.0,)})],
            strict=False,
        )
        allocator = OnlineAllocator(inst, enforce_budgets=False)
        assert allocator.offer("s1") == ["a"]
        assert allocator.offer("s2") == ["a"]

    def test_infinite_cap_measure_never_blocks(self):
        inst = self._instance(
            [
                (
                    "a",
                    (1.0, math.inf),
                    {"s1": 10.0, "s2": 10.0},
                    {"s1": (0.1, 50.0), "s2": (0.1, 50.0)},
                )
            ]
        )
        allocator = OnlineAllocator(inst)
        assert allocator.offer("s1") == ["a"]
        # Even a recorded load far past 1 on the uncapped measure does
        # not block: the guard only looks at finite caps.
        allocator._user_load_arr[0, 1] = 5.0
        assert allocator.offer("s2") == ["a"]
        assert allocator._user_load_arr[0, 1] == 5.0  # never charged

    def test_zero_cap_zero_load_pair_fits(self):
        """``0/0`` is NaN, and NaN never exceeds the cap."""
        inst = self._instance([("a", (0.0,), {"s1": 10.0}, {})], costs=(1.0,))
        allocator = OnlineAllocator(inst)
        assert allocator.offer("s1") == ["a"]

    def test_server_budget_rejects_the_whole_stream(self):
        inst = self._instance(
            [("a", (math.inf,), {"s1": 10.0, "s2": 20.0}, {})],
            budget=1.0,
            costs=(0.6, 0.5),
        )
        allocator = OnlineAllocator(inst)
        assert allocator.offer("s1") == ["a"]
        assert allocator.offer("s2") == []
        unguarded = OnlineAllocator(inst, enforce_budgets=False)
        unguarded.offer("s1")
        assert unguarded.offer("s2") == ["a"]


class TestHotPath:
    """Offers and releases run on the index arrays alone."""

    def test_no_string_mirror_on_offer_or_release(self, monkeypatch):
        from repro.core.assignment import Assignment
        from repro.core.indexed import IndexedInstance

        inst = small_streams_mmd(14, 5, seed=91)
        allocator = OnlineAllocator(inst)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("hot path touched the string-keyed mirror")

        monkeypatch.setattr(Assignment, "assign_stream", forbidden)
        monkeypatch.setattr(Assignment, "discard", forbidden)
        monkeypatch.setattr(IndexedInstance, "user_ids_of", forbidden)
        admitted = [k for k in range(inst.num_streams)
                    if allocator.offer_indexed(k).size]
        assert admitted
        for k in admitted[::2]:
            allocator.release_indexed(k)

    def test_assignment_is_derived_from_active_pairs(self):
        inst = small_streams_mmd(14, 5, seed=92)
        allocator = OnlineAllocator(inst)
        carried = {}
        for k in range(inst.num_streams):
            users = allocator.offer_indexed(k)
            if users.size:
                carried[inst.streams[k].stream_id] = set(
                    allocator._idx.user_ids_of(users)
                )
        released = sorted(carried)[::2]
        for sid in released:
            allocator.release(sid)
            del carried[sid]
        view = allocator.assignment
        assert view.assigned_streams() == set(carried)
        for sid, users in carried.items():
            assert set(view.receivers_of(sid)) == users
        # A snapshot: later decisions do not reach an earlier view.
        if carried:
            allocator.release(next(iter(carried)))
            assert view.assigned_streams() == set(carried)

    def test_guard_runs_on_every_admission(self, monkeypatch):
        inst = random_mmd(10, 4, m=1, mc=2, seed=17, budget_fraction=0.3)
        calls = []
        original = OnlineAllocator._hard_guard

        def spy(self, k, *args):
            calls.append(k)
            return original(self, k, *args)

        monkeypatch.setattr(OnlineAllocator, "_hard_guard", spy)
        guarded = OnlineAllocator(inst)
        for k in range(inst.num_streams):
            guarded.offer_indexed(k)
        assert guarded._active_pairs
        assert set(guarded._active_pairs) <= set(calls)
        assert len(calls) == len(set(calls))  # once per offer
        calls.clear()
        unguarded = OnlineAllocator(inst, enforce_budgets=False)
        for k in range(inst.num_streams):
            unguarded.offer_indexed(k)
        assert unguarded._active_pairs and not calls
