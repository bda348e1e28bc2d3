"""Reference-oracle parity suite for the online allocator's hot path.

:class:`ScalarReferenceAllocator` keeps the scalar form of
``offer_indexed`` / ``release_indexed``: per-measure masked charges
over 2-D gathers, a per-user ``while`` loop for the Line-4 drop walk,
the per-measure hard guard, and a string-keyed :class:`Assignment`
mirror maintained on every commit and release.  It lives here only as
a test oracle.  The production :class:`OnlineAllocator` must agree
with it after every operation: same receivers (values, order, dtype),
same ``state_digest``, same rejection bookkeeping and the same
assignment.  Instances cover ``m_c ∈ {1, 2, 3}``, infinite caps and
budgets, zero-load pairs, zero-cost server measures, zero caps,
interleaved releases, both ``enforce_budgets`` settings, and large
streams on which the guard fires.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocate import OnlineAllocator
from repro.core.assignment import Assignment
from repro.core.instance import FEASIBILITY_RTOL, MMDInstance, Stream, User
from repro.exceptions import ValidationError
from repro.instances.workloads import iptv_neighborhood_workload

# Zero caps with positive loads make ``k/K`` infinite, and without the
# guard loads can run to infinity; both paths warn alike on those edges.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


class ScalarReferenceAllocator(OnlineAllocator):
    """The scalar offer/release path, kept as a test oracle."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mirror = Assignment(self.instance)
        #: Offers on which the hard guard dropped at least one user.
        self.guard_fired = 0

    def _ref_server_charge(self, k: int) -> float:
        costs = self._idx.stream_costs[k]
        total = 0.0
        for i in self._server_measures:
            budget = self._idx.budgets[i]
            if costs[i] > 0:
                scaled_budget = self._server_scale[i] * self.instance.budgets[i]
                exp_cost = scaled_budget * (float(self._exp_server[i]) - 1.0)
                total += (costs[i] / budget) * exp_cost
        return float(total)

    def _ref_user_charges(self, row_users, row_pairs):
        idx = self._idx
        charge = np.zeros(row_users.size)
        for j in range(idx.mc):
            cap = idx.capacities[row_users, j]
            load = idx.s_loads[row_pairs, j]
            mask = np.isfinite(cap) & (load > 0.0)
            if mask.any():
                users = row_users[mask]
                scaled_cap = self._user_scale_arr[users, j] * cap[mask]
                exp_cost = scaled_cap * (self._exp_user[users, j] - 1.0)
                charge[mask] += (load[mask] / cap[mask]) * exp_cost
        return charge

    def _ref_hard_guard(self, k, selected_users, selected_pairs):
        idx = self._idx
        empty = np.empty(0, dtype=np.int64)
        costs = idx.stream_costs[k]
        for i in self._server_measures:
            budget = idx.budgets[i]
            if self._server_load_arr[i] + costs[i] / budget > 1.0 + FEASIBILITY_RTOL:
                return empty, empty
        fits = np.ones(selected_users.size, dtype=bool)
        for j in range(idx.mc):
            cap = idx.capacities[selected_users, j]
            finite = np.isfinite(cap)
            with np.errstate(invalid="ignore"):
                over = (
                    self._user_load_arr[selected_users, j]
                    + idx.s_loads[selected_pairs, j] / cap
                    > 1.0 + FEASIBILITY_RTOL
                )
            fits &= ~(finite & over)
        return selected_users[fits], selected_pairs[fits]

    def offer_indexed(self, k):
        idx = self._idx
        k = self._check_stream_index(k)
        stream_id = idx.stream_ids[k]
        if stream_id in self._offered:
            raise ValidationError(f"stream {stream_id!r} is already active")
        empty = np.empty(0, dtype=np.int64)
        lo, hi = int(idx.s_indptr[k]), int(idx.s_indptr[k + 1])
        if lo == hi:
            self._reject(stream_id)
            return empty
        row_users = idx.s_user[lo:hi]
        row_pairs = np.arange(lo, hi, dtype=np.int64)
        row_w = idx.s_w[lo:hi]
        server_charge = self._ref_server_charge(k)
        charges = self._ref_user_charges(row_users, row_pairs)
        with np.errstate(invalid="ignore"):
            ratio = charges / row_w
        order = np.lexsort((idx.user_rank[row_users], ratio))
        sorted_charges = charges[order]
        sorted_w = row_w[order]
        total_charge = server_charge + float(np.cumsum(sorted_charges)[-1])
        total_utility = float(np.cumsum(sorted_w)[-1])
        count = order.size
        while count and total_charge > total_utility:
            count -= 1
            total_charge -= float(sorted_charges[count])
            total_utility -= float(sorted_w[count])
        if count == 0:
            self._reject(stream_id)
            return empty
        selected_users = row_users[order[:count]]
        selected_pairs = row_pairs[order[:count]]
        if self.enforce_budgets:
            before = selected_users.size
            selected_users, selected_pairs = self._ref_hard_guard(
                k, selected_users, selected_pairs
            )
            if selected_users.size < before:
                self.guard_fired += 1
            if selected_users.size == 0:
                self._reject(stream_id)
                return empty
        self._offered.add(stream_id)
        costs = idx.stream_costs[k]
        for i in self._server_measures:
            if costs[i] > 0:
                self._server_load_arr[i] += costs[i] / idx.budgets[i]
                self._exp_server[i] = self.mu ** float(self._server_load_arr[i])
        for j in range(idx.mc):
            cap = idx.capacities[selected_users, j]
            load = idx.s_loads[selected_pairs, j]
            mask = np.isfinite(cap) & (load > 0.0)
            if mask.any():
                touched = selected_users[mask]
                self._user_load_arr[touched, j] += load[mask] / cap[mask]
                self._exp_user[touched, j] = self.mu ** self._user_load_arr[touched, j]
        self._charges_mutated()
        self._active_pairs[k] = selected_pairs
        self.mirror.assign_stream(stream_id, idx.user_ids_of(selected_users))
        return selected_users

    def release_indexed(self, k):
        idx = self._idx
        k = self._check_stream_index(k)
        stream_id = idx.stream_ids[k]
        if stream_id not in self._offered:
            raise ValidationError(
                f"stream {stream_id!r} is not active "
                "(never offered, rejected, or already released)"
            )
        pairs = self._active_pairs.pop(k, np.empty(0, dtype=np.int64))
        if pairs.size:
            costs = idx.stream_costs[k]
            for i in self._server_measures:
                if costs[i] > 0:
                    self._server_load_arr[i] -= costs[i] / idx.budgets[i]
                    self._exp_server[i] = self.mu ** float(self._server_load_arr[i])
            users = idx.s_user[pairs]
            for j in range(idx.mc):
                cap = idx.capacities[users, j]
                load = idx.s_loads[pairs, j]
                mask = np.isfinite(cap) & (load > 0.0)
                if mask.any():
                    touched = users[mask]
                    self._user_load_arr[touched, j] -= load[mask] / cap[mask]
                    self._exp_user[touched, j] = (
                        self.mu ** self._user_load_arr[touched, j]
                    )
            self._charges_mutated()
            for uid in idx.user_ids_of(users):
                self.mirror.discard(uid, stream_id)
        self._offered.discard(stream_id)


def build_instance(
    seed: int,
    num_streams: int,
    num_users: int,
    m: int,
    mc: int,
    *,
    budget_fraction: float,
    cap_fraction: float,
    inf_cap_p: float,
    zero_load_p: float,
    zero_cost_p: float,
    density: float = 0.6,
) -> MMDInstance:
    """A random MMD instance with the edge cases the allocator masks.

    Built with ``strict=False`` so single-stream loads may exceed a
    cap (large streams: the guard fires).  One server measure may have
    an infinite budget when ``m > 1``; zero caps appear on ~5% of the
    finite user measures.
    """
    rng = np.random.default_rng(seed)
    costs = rng.uniform(0.5, 5.0, size=(num_streams, m))
    costs[rng.random((num_streams, m)) < zero_cost_p] = 0.0
    budgets = []
    for i in range(m):
        if m > 1 and i == m - 1 and rng.random() < 0.3:
            budgets.append(math.inf)
        else:
            total = float(costs[:, i].sum())
            budgets.append(max(budget_fraction * total, float(costs[:, i].max()), 0.1))
    streams = [
        Stream(f"s{k:02d}", tuple(float(c) for c in costs[k]))
        for k in range(num_streams)
    ]
    users = []
    for u in range(num_users):
        wants = [k for k in range(num_streams) if rng.random() < density]
        utilities = {f"s{k:02d}": float(rng.uniform(1.0, 10.0)) for k in wants}
        loads = {}
        for k in wants:
            vec = rng.uniform(0.1, 4.0, size=mc)
            vec[rng.random(mc) < zero_load_p] = 0.0
            if vec.any():
                loads[f"s{k:02d}"] = tuple(float(x) for x in vec)
        caps = []
        for j in range(mc):
            draw = rng.random()
            if draw < inf_cap_p:
                caps.append(math.inf)
            elif draw < inf_cap_p + 0.05:
                caps.append(0.0)
            else:
                total = sum(vec[j] for vec in loads.values()) or 1.0
                caps.append(cap_fraction * total)
        users.append(User(f"u{u:02d}", math.inf, tuple(caps), utilities, loads))
    return MMDInstance(streams, users, tuple(budgets), strict=False)


def assert_same(production, reference, got, want) -> None:
    """Equal decisions and bit-identical state after one operation."""
    assert isinstance(got, np.ndarray) and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert production.state_digest() == reference.state_digest()
    assert production.rejected == reference.rejected
    assert production.rejected_count == reference.rejected_count


def run_ops(instance, ops, *, enforce_budgets=True, mu=None, check_assignment=True):
    """Apply ``(op, k)`` pairs to both allocators, comparing after each.

    ``op`` is ``"offer"``, ``"release"`` or ``"toggle"`` (flip
    ``enforce_budgets`` on both; ``k`` is ignored).
    """
    production = OnlineAllocator(instance, mu=mu, enforce_budgets=enforce_budgets)
    reference = ScalarReferenceAllocator(
        instance, mu=mu, enforce_budgets=enforce_budgets
    )
    for op, k in ops:
        if op == "toggle":
            # Flip the guard on both: with it off, users can run over a
            # cap; with it back on, it must drop exactly the same pairs.
            for allocator in (production, reference):
                allocator.enforce_budgets = not allocator.enforce_budgets
            continue
        method = "offer_indexed" if op == "offer" else "release_indexed"
        outcomes = []
        for allocator in (production, reference):
            try:
                outcomes.append(getattr(allocator, method)(k))
            except ValidationError as exc:
                outcomes.append(exc)
        got, want = outcomes
        if isinstance(want, ValidationError) or isinstance(got, ValidationError):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        if op == "release":
            assert got is None and want is None
            got = want = np.empty(0, dtype=np.int64)
        assert_same(production, reference, got, want)
        if check_assignment:
            assert production.assignment.as_dict() == reference.mirror.as_dict()
    return production, reference


def ops_strategy(num_streams: int):
    return st.lists(
        st.tuples(
            st.sampled_from(["offer", "offer", "offer", "release", "toggle"]),
            st.integers(0, num_streams - 1),
        ),
        min_size=1,
        max_size=40,
    )


@st.composite
def scenarios(draw):
    num_streams = draw(st.integers(1, 12))
    params = dict(
        seed=draw(st.integers(0, 10_000)),
        num_streams=num_streams,
        num_users=draw(st.integers(1, 10)),
        m=draw(st.integers(1, 2)),
        mc=draw(st.sampled_from([1, 2, 3])),
        budget_fraction=draw(st.sampled_from([0.15, 0.4, 5.0])),
        cap_fraction=draw(st.sampled_from([0.2, 0.6, 5.0])),
        inf_cap_p=draw(st.sampled_from([0.0, 0.3, 1.0])),
        zero_load_p=draw(st.sampled_from([0.0, 0.3])),
        zero_cost_p=draw(st.sampled_from([0.0, 0.3])),
    )
    ops = draw(ops_strategy(num_streams))
    enforce = draw(st.booleans())
    mu = draw(st.sampled_from([None, None, 1.5, 64.0]))
    return params, ops, enforce, mu


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_production_matches_scalar_reference(scenario):
    params, ops, enforce, mu = scenario
    run_ops(build_instance(**params), ops, enforce_budgets=enforce, mu=mu)


@pytest.mark.parametrize("mc", [1, 2, 3])
@pytest.mark.parametrize("enforce", [True, False])
def test_large_streams_guard_fires(mc, enforce):
    """Tight caps and a cheap ``µ`` admit streams whose loads exceed the
    caps, so the guard drops users; parity must hold through it and
    through interleaved releases."""
    instance = build_instance(
        seed=11 * mc, num_streams=12, num_users=8, m=2, mc=mc,
        budget_fraction=0.4, cap_fraction=0.2, inf_cap_p=0.2,
        zero_load_p=0.2, zero_cost_p=0.2,
    )
    rng = np.random.default_rng(mc)
    ops = []
    for step in range(200):
        ops.append(("release" if rng.random() < 0.35 else "offer",
                    int(rng.integers(instance.num_streams))))
    _, reference = run_ops(instance, ops, enforce_budgets=enforce, mu=1.5)
    if enforce:
        assert reference.guard_fired > 0


@pytest.mark.parametrize("mc", [1, 2, 3])
def test_guard_after_unguarded_overload(mc):
    """Users pushed over their caps with the guard off, then offered
    zero-load pairs with it on: the guard drops those pairs (it masks
    by finite cap, not by "charged"), and parity must hold."""
    instance = build_instance(
        seed=5 + mc, num_streams=12, num_users=8, m=1, mc=mc,
        budget_fraction=5.0, cap_fraction=0.2, inf_cap_p=0.0,
        zero_load_p=0.5, zero_cost_p=0.0,
    )
    half = instance.num_streams // 2
    ops = [("offer", k) for k in range(half)] + [("toggle", 0)]
    ops += [("offer", k) for k in range(half, instance.num_streams)]
    _, reference = run_ops(instance, ops, enforce_budgets=False, mu=1.5)
    assert reference.guard_fired > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_shaped_workload(seed):
    """The serving benchmark's shape (100 channels × 100 households,
    large streams: the small-streams precondition fails), over a long
    interleaved offer/release sequence."""
    from repro.core.allocate import small_streams_condition

    instance = iptv_neighborhood_workload(
        num_channels=100, num_households=100, seed=seed
    )
    assert not small_streams_condition(instance)
    rng = np.random.default_rng(seed)
    active: "set[int]" = set()
    ops = []
    for _ in range(600):
        if active and rng.random() < 0.45:
            k = int(rng.choice(sorted(active)))
            active.discard(k)
            ops.append(("release", k))
        else:
            k = int(rng.integers(instance.num_streams))
            ops.append(("offer", k))
            active.add(k)  # rejected streams make the release loud on both
    run_ops(instance, ops, check_assignment=False)


def scalar_drop_count(server_charge, charges, utilities) -> int:
    """The scalar Line-4 loop over users already in ascending ratio order."""
    total_charge = server_charge + float(np.cumsum(charges)[-1])
    total_utility = float(np.cumsum(utilities)[-1])
    count = len(charges)
    while count and total_charge > total_utility:
        count -= 1
        total_charge -= float(charges[count])
        total_utility -= float(utilities[count])
    return count


# Small values make exact ties (charge == utility) common; inf and NaN
# cover the overflowed and 0·inf charges.
TERMS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, math.inf, math.nan])
ROWS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, math.inf]),
        st.lists(st.tuples(TERMS, st.sampled_from([0.5, 1.0, 2.0])),
                 min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(ROWS)
def test_drop_walk_matches_scalar_loop(rows):
    """One row at a time (the offer path) and padded together (the
    batch path), the kernel keeps what the scalar loop keeps."""
    from repro.core.allocate import drop_walk

    want = []
    for server_charge, terms in rows:
        charges = np.array([c for c, _ in terms])
        utilities = np.array([w for _, w in terms])
        want.append(scalar_drop_count(server_charge, charges, utilities))
        walk = np.empty((2, len(terms) + 1))
        walk[0, 1:] = charges[::-1]
        walk[1, 1:] = utilities[::-1]
        with np.errstate(invalid="ignore"):
            assert len(terms) - int(drop_walk(walk, server_charge)) == want[-1]
    width = max(len(terms) for _, terms in rows)
    walk = np.zeros((2, len(rows), width + 1))
    for r, (_, terms) in enumerate(rows):
        walk[0, r, 1:len(terms) + 1] = [c for c, _ in reversed(terms)]
        walk[1, r, 1:len(terms) + 1] = [w for _, w in reversed(terms)]
    lengths = np.array([len(terms) for _, terms in rows])
    server = np.array([server_charge for server_charge, _ in rows])
    kept = np.maximum(lengths - drop_walk(walk, server), 0)
    assert kept.tolist() == want
