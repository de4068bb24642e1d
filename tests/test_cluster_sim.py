"""Cluster simulator tests: propagation, utilization, policies, scheduling.

The hand-checkable demand model below mirrors a front service calling two
backends, one of which calls a third; every closed-form rate in these tests
was worked out on paper from the fan-out multipliers.
"""
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_phpa import cli
from graph_phpa.autoscaler import ScalingBounds
from graph_phpa.cluster_sim import (
    DECISION_COLUMNS,
    SIM_COLUMNS,
    DecisionLog,
    DemandModel,
    HpaConfig,
    PredictivePolicy,
    ReactivePolicy,
    ScalingPolicy,
    SimConfig,
    SimulationLog,
    initial_pod_counts,
    run_simulation,
)
from graph_phpa.config import ExperimentConfig
from graph_phpa.errors import ValidationError
from graph_phpa.forecast_lstm import LstmConfig, LstmModel
from graph_phpa.predict_gcn import GcnConfig, GcnModel, ServiceGraph
from graph_phpa.tensor import BLOCK, MinMaxScaler
from graph_phpa.traces import WorkloadTrace
from oracles import (DecisionRow, PerMinutePredictivePolicy, ReactiveRuleOracle, SimRow,
                     assert_bitwise_equal, decision_log_from_rows, decision_rows, log_from_rows,
                     log_rows, propagate_minute_oracle, run_simulation_oracle, size_pods_oracle,
                     write_decision_rows_oracle, write_rows_oracle)


def bookinfo_demand(noise: float = 0.0) -> DemandModel:
    return DemandModel(
        services=("front", "details", "reviews", "ratings"),
        entry="front",
        cpu_per_request={"front": 0.01, "details": 0.004,
                         "reviews": 0.006, "ratings": 0.006},
        fan_out={"front": {"details": 1.0, "reviews": 1.0},
                 "reviews": {"ratings": 2.0 / 3.0}},
        noise_sigma=noise,
    )


def flat_bounds(services, r_ub=10.0, v_p=1.0, q=10):
    return {s: ScalingBounds(1.0, r_ub, v_p, max_pods=q) for s in services}


class TestDemandModel:
    def test_propagation_by_hand(self):
        demand = bookinfo_demand()
        rates, _ = demand.demand_series([300.0], start_minute=0, seed=1)
        assert rates.shape == (1, 4) and rates.dtype == np.float64
        assert dict(zip(demand.services, rates[0])) == {
            "front": 300.0, "details": 300.0, "reviews": 300.0,
            "ratings": pytest.approx(200.0)}

    def test_resource_usage_by_hand(self):
        _, usage = bookinfo_demand().demand_series([300.0], start_minute=0, seed=1)
        # Columns in services order: front, details, reviews, ratings.
        assert usage.shape == (1, 4)
        assert usage[0, 0] == pytest.approx(3.0)
        assert usage[0, 1] == pytest.approx(1.2)
        assert usage[0, 2] == pytest.approx(1.8)
        assert usage[0, 3] == pytest.approx(1.2)

    def test_zero_external_is_zero_everywhere(self):
        rates, usage = bookinfo_demand(noise=0.5).demand_series([0.0], start_minute=3, seed=9)
        assert np.all(rates[0] == 0.0)
        assert np.all(usage[0] == 0.0)

    def test_noise_only_hits_internal_services(self):
        demand = bookinfo_demand(noise=0.4)
        rates, _ = demand.demand_series([100.0], start_minute=7, seed=21)
        assert rates[0, demand.services.index("front")] == 100.0
        assert rates[0, demand.services.index("details")] != pytest.approx(100.0)

    def test_noise_is_keyed_by_absolute_minute(self):
        # The same absolute minute must see the same jitter no matter what
        # was simulated before it; this is what keeps warmup out of the data.
        demand = bookinfo_demand(noise=0.3)
        a, _ = demand.demand_series([100.0], start_minute=50, seed=5)
        b, _ = demand.demand_series([100.0] * 3, start_minute=49, seed=5)
        assert np.all(a[0] == b[1])
        c, _ = demand.demand_series([100.0], start_minute=51, seed=5)
        assert np.any(a[0] != c[0])

    def test_noise_mean_is_one_in_expectation(self):
        demand = bookinfo_demand(noise=0.2)
        rates, _ = demand.demand_series(np.full(4000, 100.0), start_minute=0, seed=77)
        assert np.mean(rates[:, demand.services.index("details")]) == pytest.approx(100.0,
                                                                                   rel=0.01)

    def test_demand_series_matches_per_minute_calls(self):
        # The one-pass window must be bit for bit the per-minute propagation,
        # each minute drawing from its own freshly seeded generator, and so
        # must a window of one minute.
        external = np.array([100.0, 120.0, 90.0, 0.0, 333.3, 57.25])
        for sigma, start in itertools.product((0.0, 0.1, 0.25), (0, 40)):
            demand = bookinfo_demand(noise=sigma)
            rps, usage = demand.demand_series(external, start_minute=start, seed=3)
            assert rps.shape == usage.shape == (len(external), len(demand.services))
            for i, x in enumerate(external):
                rates = propagate_minute_oracle(demand, x, start + i, 3)
                one, _ = demand.demand_series([x], start + i, 3)
                for j, s in enumerate(demand.services):
                    assert rps[i, j].tobytes() == np.float64(rates[s]).tobytes()
                    assert one[0, j].tobytes() == np.float64(rates[s]).tobytes()
                    assert usage[i, j] == rates[s] * demand.cpu_per_request[s]

    def test_conservation_without_noise(self):
        # Noise-free propagation is exactly linear in the external rate.
        rates, _ = bookinfo_demand().demand_series([100.0, 250.0], 0, 1)
        np.testing.assert_allclose(rates[1], 2.5 * rates[0])

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            DemandModel(services=("a", "b"), entry="a",
                        cpu_per_request={"a": 0.01, "b": 0.01},
                        fan_out={"a": {"b": 1.0}, "b": {"a": 1.0}})

    def test_unknown_entry_rejected(self):
        with pytest.raises(ValidationError):
            DemandModel(services=("a",), entry="x", cpu_per_request={"a": 0.01},
                        fan_out={})

    def test_missing_cost_rejected(self):
        with pytest.raises(ValidationError):
            DemandModel(services=("a", "b"), entry="a",
                        cpu_per_request={"a": 0.01}, fan_out={})

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            bookinfo_demand().demand_series([-1.0], 0, 1)


class TestComputeUtilization:
    """A simulated minute's utilization: rps * cost / (pods * capacity)."""

    @staticmethod
    def two_minutes(rps: int, r_lb: float, r_ub: float = 10.0, policy=None):
        """(utilization, pods) per minute of one service at 0.01 vCPU per
        request over two minutes at rps; the resource band sets its starting
        pods."""
        demand = DemandModel(services=("s",), entry="s", cpu_per_request={"s": 0.01},
                             fan_out={})
        bounds = {"s": ScalingBounds(r_lb, r_ub, 1.0, max_pods=10)}
        log = run_simulation(stub_trace([rps, rps]), demand,
                             policy or ReactivePolicy(HpaConfig(), bounds), bounds,
                             SimConfig(seed=1))
        return log.utilization[:, 0].tolist(), log.pods[:, 0].tolist()

    def test_hand_values(self):
        assert self.two_minutes(100, 1.0)[0][0] == pytest.approx(1.0)
        assert self.two_minutes(100, 2.0)[0][0] == pytest.approx(0.5)
        assert self.two_minutes(0, 3.0)[0][0] == 0.0
        assert self.two_minutes(300, 1.0, r_ub=2.0)[0][0] == pytest.approx(1.5)

    def test_rejects_zero_pods(self):
        # A policy that asks for no pods keeps one, so utilization stays finite.
        utils, pods = self.two_minutes(100, 1.0, policy=PinnedPolicy({0: {"s": 0}}))
        assert pods == [1, 1] and utils == [1.0, 1.0]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValidationError, match="pod_capacity must be positive"):
            ScalingBounds(1.0, 5.0, 0.0, max_pods=3)


class TestInitialPodCounts:
    def test_sizes_from_noise_free_demand(self):
        demand = bookinfo_demand(noise=0.9)  # noise ignored for sizing
        counts = initial_pod_counts(demand, 300.0, flat_bounds(demand.services))
        assert counts == {"front": 3, "details": 2, "reviews": 2, "ratings": 2}

    def test_floor_of_one_pod(self):
        counts = initial_pod_counts(bookinfo_demand(), 0.0,
                                    flat_bounds(bookinfo_demand().services))
        assert all(n == 1 for n in counts.values())

    def test_clamped_to_max_pods(self):
        bounds = flat_bounds(bookinfo_demand().services, q=2)
        counts = initial_pod_counts(bookinfo_demand(), 900.0, bounds)
        assert counts["front"] == 2

    def test_resource_floor_raises_opening_allocation(self):
        # 100 rps puts every service below a 2.5 vCPU floor, so the floor wins.
        demand = bookinfo_demand()
        bounds = {s: ScalingBounds(2.5, 10.0, 1.0, max_pods=10) for s in demand.services}
        counts = initial_pod_counts(demand, 100.0, bounds)
        assert all(n == 3 for n in counts.values())

    @given(external=st.floats(0.0, 5000.0), r_lb=st.floats(0.1, 4.0),
           band=st.floats(0.0, 20.0), v_p=st.floats(0.05, 3.0), q=st.integers(1, 30))
    def test_is_the_sizing_rule_on_opening_usage(self, external, r_lb, band, v_p, q):
        demand = bookinfo_demand()
        bounds = {s: ScalingBounds(r_lb, r_lb + band, v_p, max_pods=q) for s in demand.services}
        usage = {s: rate * demand.cpu_per_request[s]
                 for s, rate in propagate_minute_oracle(demand, external, 0, 0).items()}
        assert initial_pod_counts(demand, external, bounds) == \
            {s: size_pods_oracle(usage[s], bounds[s])[1] for s in demand.services}


class TestReactivePolicy:
    def decide_once(self, util, pods=4, minutes=1, config=None):
        config = config or HpaConfig(scale_out=0.9, scale_in=0.3,
                                     stabilization_minutes=5)
        policy = ReactivePolicy(config, flat_bounds(("s",)))
        policy.begin(0, ("s",), np.empty((0, 1)))
        out = None
        for _ in range(minutes):
            out, = policy.decide(0, [util], [pods])
        return out

    def test_breach_adds_one_pod(self):
        assert self.decide_once(0.95) == 5

    def test_comfortable_zone_holds(self):
        assert self.decide_once(0.5, minutes=10) == 4

    def test_scale_in_needs_sustained_calm(self):
        assert self.decide_once(0.1, minutes=4) == 4
        assert self.decide_once(0.1, minutes=5) == 3

    def test_middle_utilization_resets_the_calm_counter(self):
        policy = ReactivePolicy(HpaConfig(0.9, 0.3, 3), flat_bounds(("s",)))
        policy.begin(0, ("s",), np.empty((0, 1)))
        for util in (0.1, 0.1, 0.5, 0.1, 0.1):  # calm streak broken at step 3
            targets = policy.decide(0, [util], [4])
        assert targets == [4]
        targets = policy.decide(0, [0.1], [4])
        assert targets == [3]

    def test_breach_resets_the_calm_counter(self):
        policy = ReactivePolicy(HpaConfig(0.9, 0.3, 2), flat_bounds(("s",)))
        policy.begin(0, ("s",), np.empty((0, 1)))
        policy.decide(0, [0.1], [4])
        policy.decide(1, [0.95], [4])
        targets = policy.decide(2, [0.1], [4])
        assert targets == [4]  # counter restarted after the breach

    def test_never_out_and_in_same_minute(self):
        # Boundary utilizations equal to a threshold trigger neither rule.
        assert self.decide_once(0.9, minutes=10) == 4
        assert self.decide_once(0.3, minutes=10) == 4

    def test_scale_out_capped(self):
        policy = ReactivePolicy(HpaConfig(0.9, 0.3, 5), flat_bounds(("s",), q=4))
        policy.begin(0, ("s",), np.empty((0, 1)))
        targets = policy.decide(0, [2.0], [4])
        assert targets == [4]

    def test_scale_in_floors_at_one(self):
        policy = ReactivePolicy(HpaConfig(0.9, 0.3, 1), flat_bounds(("s",)))
        policy.begin(0, ("s",), np.empty((0, 1)))
        targets = policy.decide(0, [0.0], [1])
        assert targets == [1]

    def test_policy_name_carries_threshold(self):
        assert ReactivePolicy(HpaConfig(0.7, 0.3, 5), {}).name == "reactive@0.7"
        assert ReactivePolicy(HpaConfig(0.9, 0.3, 5), {}).name == "reactive@0.9"


def rate_following_phpa(demand: DemandModel, bounds, k: int = 2) -> PredictivePolicy:
    """A predictive policy over demand's call graph whose predicted demand
    follows the request rates: one graph layer reads each node's latest rate,
    scaled 2000 rps -> 1.0, with weight 30."""
    graph = ServiceGraph.from_edges(demand.services, [(u, v) for u, callees in
                                                      demand.fan_out.items() for v in callees])
    w = np.zeros((k, 1))
    w[-2, 0] = 30.0
    unit = MinMaxScaler(0.0, 1.0, 0.0, 1.0)
    gcn = GcnModel(GcnConfig(window=k, hidden=(), epochs=1), graph.nodes, [w],
                   MinMaxScaler(0.0, 2000.0, 0.0, 1.0), tuple(unit for _ in graph.nodes))
    return PredictivePolicy({s: fixed_forecaster(k, 0.5) for s in graph.nodes}, gcn, graph,
                            bounds)


def stub_trace(values, start_minute=0):
    return WorkloadTrace(resolution=1, start_minute=start_minute,
                         counts=tuple(int(v) for v in values))


class PinnedPolicy(ScalingPolicy):
    """Test double that requests a fixed target plan by minute index."""

    name = "pinned"

    def __init__(self, plan):
        self.plan = plan  # {minute: {service: target}}

    def begin(self, start_minute, services, rates):
        self.services = services

    def decide(self, minute, utilization, pods):
        targets = self.plan.get(minute, {})
        return [targets.get(s, n) for s, n in zip(self.services, pods)]


class TestRunSimulation:
    def test_row_grid_is_complete_and_ordered(self):
        demand = bookinfo_demand()
        log = run_simulation(stub_trace([100] * 6), demand,
                             ReactivePolicy(HpaConfig(), flat_bounds(demand.services)),
                             flat_bounds(demand.services), SimConfig(seed=1))
        assert log.horizon == 6 and log.start_minute == 0
        assert log.services == demand.services
        for column in (log.service_rps, log.pods, log.utilization, log.decision_delta):
            assert column.shape == (6, 4)
        assert log.policy_name == "reactive@0.9"

    def test_startup_delay_defers_additions(self):
        # Plan: at minute 0 ask front for 3 more pods. With startup_delay=2
        # they serve from minute 2.
        demand = bookinfo_demand()
        bounds = flat_bounds(demand.services)
        policy = PinnedPolicy({0: {"front": 4}})
        log = run_simulation(stub_trace([100] * 4), demand, policy, bounds,
                             SimConfig(seed=1, startup_delay=2), warmup=0)
        assert log.pods[:, 0].tolist() == [1, 1, 4, 4]
        assert log.decision_delta[0, 0] == 3

    def test_removals_land_next_minute(self):
        demand = bookinfo_demand()
        # A 4 vCPU floor starts every service at 4 pods.
        bounds = {s: ScalingBounds(4.0, 10.0, 1.0, max_pods=10) for s in demand.services}
        policy = PinnedPolicy({0: {"front": 2}})
        log = run_simulation(stub_trace([100] * 3), demand, policy, bounds,
                             SimConfig(seed=1), warmup=0)
        assert log.pods[:, 0].tolist() == [4, 2, 2]
        assert log.decision_delta[0, 0] == -2

    def test_pending_additions_count_toward_the_target(self):
        # A target held while its pods start up is granted once: front asks for
        # 4 pods at minute 0 and gets 3 more, ready at minute 3, and the same
        # target at minutes 1 and 2 finds them pending.
        demand = bookinfo_demand()
        bounds = flat_bounds(demand.services)
        policy = PinnedPolicy({m: {"front": 4} for m in range(3)})
        log = run_simulation(stub_trace([100] * 5), demand, policy, bounds,
                             SimConfig(seed=1, startup_delay=3), warmup=0)
        assert log.decision_delta[:, 0].tolist() == [3, 0, 0, 0, 0]
        assert log.pods[:, 0].tolist() == [1, 1, 1, 4, 4]

    def test_warmup_suppresses_decisions(self):
        demand = bookinfo_demand()
        bounds = flat_bounds(demand.services)
        policy = PinnedPolicy({m: {"front": 9} for m in range(6)})
        log = run_simulation(stub_trace([100] * 6), demand, policy, bounds,
                             SimConfig(seed=1), warmup=4)
        # First decision at minute 4, lands at minute 5.
        assert log.pods[:, 0].tolist() == [1, 1, 1, 1, 1, 9]

    def test_cluster_budget_caps_additions(self):
        demand = bookinfo_demand()
        bounds = flat_bounds(demand.services, q=40)
        # Every service wants 20 pods at minute 0; budget is 30 total. Grants
        # happen in node order until the budget runs out.
        policy = PinnedPolicy({0: {s: 20 for s in demand.services}})
        log = run_simulation(stub_trace([100] * 3), demand, policy, bounds,
                             SimConfig(seed=1, max_total_pods=30), warmup=0)
        assert log.pods[2].sum() <= 30
        assert log.pods[-1, 0] == 20  # first in node order got its full ask

    def test_matured_additions_leave_the_pending_budget(self):
        # Pods added at minute 0 serve from minute 1 and stop counting as
        # pending, so the minute-2 ask gets the last two pods of the budget.
        demand = bookinfo_demand()
        bounds = flat_bounds(demand.services)
        policy = PinnedPolicy({0: {"front": 3}, 2: {"front": 5}})
        log = run_simulation(stub_trace([100] * 4), demand, policy, bounds,
                             SimConfig(seed=1, max_total_pods=8), warmup=0)
        assert log.pods[:, 0].tolist() == [1, 3, 3, 5]
        assert log.decision_delta[:, 0].tolist() == [2, 0, 2, 0]

    def test_total_pods_never_exceed_budget(self):
        demand = bookinfo_demand(noise=0.2)
        bounds = flat_bounds(demand.services, q=79)
        rng = np.random.default_rng(5)
        values = (200 + 150 * np.sin(np.arange(80) / 6.0)
                  + rng.uniform(0, 40, 80)).astype(int)
        log = run_simulation(stub_trace(values), demand,
                             ReactivePolicy(HpaConfig(0.5, 0.3, 2),
                                            bounds), bounds, SimConfig(seed=9, max_total_pods=12))
        assert log.pods.sum(axis=1).max() <= 12

    def test_pods_stay_within_service_limits(self):
        demand = bookinfo_demand(noise=0.3)
        bounds = flat_bounds(demand.services, q=3)
        values = [50, 400, 800, 1200, 900, 30, 10, 10, 10, 10, 10, 10]
        log = run_simulation(stub_trace(values), demand,
                             ReactivePolicy(HpaConfig(0.6, 0.3, 1), bounds),
                             bounds, SimConfig(seed=4))
        assert log.pods.min() >= 1 and log.pods.max() <= 3

    @given(budget=st.integers(4, 30), max_pods=st.integers(1, 12),
           startup_delay=st.sampled_from([1, 2, 3]),
           kind=st.sampled_from(["reactive", "pinned", "phpa"]),
           plan=st.lists(st.lists(st.integers(0, 15), min_size=4, max_size=4),
                         min_size=1, max_size=25),
           values=st.lists(st.integers(0, 2000), min_size=1, max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_budget_and_pod_limits_hold(self, budget, max_pods, startup_delay, kind,
                                        plan, values):
        demand = bookinfo_demand(noise=0.3)
        # A 1 vCPU band starts every service at one pod, whatever the rate.
        bounds = flat_bounds(demand.services, r_ub=1.0, q=max_pods)
        warmup = 0
        if kind == "reactive":
            policy = ReactivePolicy(HpaConfig(0.6, 0.3, 1), bounds)
        elif kind == "pinned":
            # Targets outside [1, max_pods] on purpose: the simulator clips them.
            policy = PinnedPolicy({m: dict(zip(demand.services, targets))
                                   for m, targets in enumerate(plan)})
        else:
            # Sized under its own wider bounds, so its targets pass max_pods too.
            policy = rate_following_phpa(demand, flat_bounds(demand.services, 15.0, q=15))
            warmup = policy.gcn_model.config.window - 1
            values = values + values[-1:]  # at least one full window
        log = run_simulation(stub_trace(values), demand, policy, bounds,
                             SimConfig(seed=5, startup_delay=startup_delay,
                                       max_total_pods=budget), warmup=warmup)
        assert log.pods.min() >= 1 and log.pods.max() <= max_pods
        assert log.pods.sum(axis=1).max() <= budget

    def test_same_seed_reproduces_the_log(self):
        demand = bookinfo_demand(noise=0.25)
        bounds = flat_bounds(demand.services)
        def go():
            return run_simulation(stub_trace([120, 180, 260, 300, 240, 150]),
                                  demand,
                                  ReactivePolicy(HpaConfig(0.7, 0.3, 2), bounds),
                                  bounds, SimConfig(seed=31))
        assert log_rows(go()) == log_rows(go())

    def test_noise_alignment_with_demand_series(self):
        # A simulation over the tail of a trace must see exactly the rates
        # demand_series produces for those absolute minutes.
        demand = bookinfo_demand(noise=0.2)
        bounds = flat_bounds(demand.services)
        full = np.array([100.0, 140.0, 90.0, 200.0, 170.0, 130.0])
        rps, _ = demand.demand_series(full, start_minute=0, seed=8)
        tail = stub_trace(full[3:].astype(int), start_minute=3)
        log = run_simulation(tail, demand,
                             ReactivePolicy(HpaConfig(), bounds), bounds, SimConfig(seed=8))
        for r in log_rows(log):
            assert r.service_rps == pytest.approx(
                rps[r.minute, demand.services.index(r.service)], rel=1e-12)

    def test_rows_equal_per_minute_propagation(self):
        # The whole window is propagated up front; every row must still carry
        # exactly what per-minute propagation gives for its own absolute minute.
        values = [100, 140, 90, 200, 170, 130]
        for sigma in (0.0, 0.1, 0.25):
            demand = bookinfo_demand(noise=sigma)
            bounds = flat_bounds(demand.services)
            log = run_simulation(stub_trace(values, start_minute=7), demand,
                                 ReactivePolicy(HpaConfig(), bounds), bounds, SimConfig(seed=8))
            assert log.service_rps.shape == (len(values), len(demand.services))
            assert log.service_rps.dtype == np.float64
            for r in log_rows(log):
                rates = propagate_minute_oracle(demand, values[r.minute - 7], r.minute, 8)
                assert r.service_rps == rates[r.service]

    def test_five_minute_trace_rejected(self):
        demand = bookinfo_demand()
        bounds = flat_bounds(demand.services)
        trace = WorkloadTrace(resolution=5, start_minute=0, counts=(1, 2, 3))
        with pytest.raises(ValidationError, match="1-minute"):
            run_simulation(trace, demand, ReactivePolicy(HpaConfig(), bounds),
                           bounds, SimConfig(seed=1))

    def test_initial_pods_over_budget_rejected(self):
        demand = bookinfo_demand()
        # A 4 vCPU floor starts all four services at 4 pods, 16 in all.
        bounds = {s: ScalingBounds(4.0, 10.0, 1.0, max_pods=10) for s in demand.services}
        with pytest.raises(ValidationError, match="budget"):
            run_simulation(stub_trace([100] * 3), demand,
                           ReactivePolicy(HpaConfig(), bounds), bounds,
                           SimConfig(seed=1, max_total_pods=10))

    def test_overload_flag_matches_utilization(self):
        # Every cell's utilization is rps * cost / (pods * capacity) bit for
        # bit, and the overload flag is exactly utilization > 1.
        demand = bookinfo_demand(noise=0.2)
        bounds = flat_bounds(demand.services, v_p=0.7)
        values = [50, 800, 1000, 700, 60, 50]
        log = run_simulation(stub_trace(values), demand,
                             ReactivePolicy(HpaConfig(), bounds), bounds, SimConfig(seed=2))
        assert log.overloaded.any()
        for r in log_rows(log):
            assert r.utilization == (r.service_rps * demand.cpu_per_request[r.service]
                                     / (r.pods * 0.7))
        assert np.array_equal(log.overloaded, log.utilization > 1.0)


def assert_logs_bitwise_equal(log, ref):
    """Every field of two replays' logs, floats bit for bit."""
    assert (log.policy_name, log.seed, log.trace_sha256, log.start_minute, log.services) == \
        (ref.policy_name, ref.seed, ref.trace_sha256, ref.start_minute, ref.services)
    for name in ("external", "service_rps", "pods", "utilization", "decision_delta"):
        assert_bitwise_equal(getattr(log, name), getattr(ref, name))
    assert (log.decisions is None) == (ref.decisions is None)
    if ref.decisions is not None:
        assert log.decisions.start_minute == ref.decisions.start_minute
        for name in ("forecast_rps", "predicted_vcpu", "r_new", "n_prev", "n_new"):
            assert_bitwise_equal(getattr(log.decisions, name), getattr(ref.decisions, name))


class TestSimulationOracle:
    """run_simulation against the minute loop and threshold rule kept in
    oracles.py: the same log, field by field and bit for bit."""

    @given(budget=st.integers(4, 30), max_pods=st.integers(1, 12),
           startup_delay=st.integers(1, 3), warmup=st.integers(0, 4),
           noise=st.sampled_from([0.0, 0.3]),
           kind=st.sampled_from(["reactive", "pinned", "phpa"]),
           hpa=st.tuples(st.sampled_from([0.5, 0.9]), st.sampled_from([0.1, 0.3]),
                         st.integers(1, 4)),
           plan=st.lists(st.lists(st.integers(-2, 15), min_size=4, max_size=4),
                         min_size=1, max_size=25),
           # Rates low enough to be calm at one pod, among any others.
           values=st.lists(st.integers(0, 20) | st.integers(0, 2000), min_size=1, max_size=25),
           long=st.sampled_from([0, 0, 0, BLOCK + 5]),
           start=st.integers(0, 10_000), seed=st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_minute_loop_oracle(self, budget, max_pods, startup_delay, warmup,
                                            noise, kind, hpa, plan, values, long, start,
                                            seed):
        demand = bookinfo_demand(noise=noise)
        # A 1 vCPU band starts every service at one pod, whatever the rate,
        # so the budget and max_pods clip additions from the first minute.
        bounds = flat_bounds(demand.services, r_ub=1.0, q=max_pods)
        # A long trace repeats the drawn rates, crossing the loop's blocks.
        values = (values * (long // len(values) + 1))[:long] if long else values
        if kind == "reactive":
            policy, ref = (cls(HpaConfig(*hpa), bounds)
                           for cls in (ReactivePolicy, ReactiveRuleOracle))
        elif kind == "pinned":
            # Targets outside [1, max_pods] on purpose: the simulator clips them.
            policy, ref = (PinnedPolicy({start + m: dict(zip(demand.services, targets))
                                         for m, targets in enumerate(plan)})
                           for _ in range(2))
        else:
            # Sized under its own wider bounds, so its targets pass max_pods too.
            policy, ref = (rate_following_phpa(demand, flat_bounds(demand.services, 15.0, q=15))
                           for _ in range(2))
            warmup += policy.gcn_model.config.window - 1
            values = values + [values[-1]] * warmup  # a decision after warmup
        trace = stub_trace(values, start_minute=start)
        sim = SimConfig(seed=seed, startup_delay=startup_delay, max_total_pods=budget)
        assert_logs_bitwise_equal(
            run_simulation(trace, demand, policy, bounds, sim, warmup=warmup),
            run_simulation_oracle(trace, demand, ref, bounds, sim, warmup=warmup))


# Bit patterns that repr alone does not tell apart, or that it writes long:
# both zeros; NaNs of both signs, quiet and signalling, with other payloads;
# both infinities; the least and greatest subnormals, and a negative one.
SPECIAL_FLOATS = np.array([0x0, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
                           0x7FF8000000000001, 0x7FF0000000000001, 0xFFF00000DEAD0000,
                           0x7FF0000000000000, 0xFFF0000000000000, 0x1, 0x000FFFFFFFFFFFFF,
                           0x800123456789ABCD], dtype=np.uint64).view(np.float64)


def special_cells(rng, shape) -> np.ndarray:
    """Cells drawn from SPECIAL_FLOATS, with the middle half of the rows one
    long run of a single one of them: with more than one block of minutes,
    the run crosses a block edge."""
    cells = SPECIAL_FLOATS[rng.integers(0, len(SPECIAL_FLOATS), shape)]
    cells[shape[0] // 4:3 * shape[0] // 4] = SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))]
    return cells


class TestSimulationLog:
    def make_log(self):
        rows = [
            SimRow(0, "a", 10.0, 10.0, 2, 0.5, False, "p", 0),
            SimRow(0, "b", 10.0, 5.0, 1, 1.2, True, "p", 0),
            SimRow(1, "a", 12.0, 12.0, 3, 0.6, False, "p", 1),
            SimRow(1, "b", 12.0, 6.0, 1, 0.9, False, "p", 0),
        ]
        return log_from_rows(rows, policy_name="p", services=("a", "b"), start_minute=0)

    def test_aggregates_by_hand(self):
        log = self.make_log()
        assert log.pod_minutes() == 7
        assert log.pod_minutes("a") == 5
        assert log.overload_minutes() == 1
        assert log.overload_minutes("a") == 0
        assert log.peak_total_pods() == 4

    def test_summary_is_recomputable(self):
        summary = self.make_log().summary()
        assert summary["totals"]["pod_minutes"] == 7
        assert summary["totals"]["overload_minutes"] == 1
        assert summary["services"]["a"]["mean_utilization"] == pytest.approx(0.55)
        assert summary["services"]["b"]["max_utilization"] == pytest.approx(1.2)
        assert summary["service_order"] == ["a", "b"]

    def test_csv_round_trips_every_field(self, tmp_path):
        import csv as csv_mod
        log = self.make_log()
        path = tmp_path / "sim.csv"
        log.write_csv(path)
        with open(path, encoding="utf-8") as fh:
            rows = list(csv_mod.DictReader(fh))
        assert len(rows) == 4
        assert tuple(rows[0]) == SIM_COLUMNS
        assert rows[1]["overloaded"] == "1"
        assert float(rows[1]["utilization"]) == 1.2
        assert rows[2]["decision_delta"] == "1"

    def test_csv_written_with_lf_only(self, tmp_path):
        path = tmp_path / "sim.csv"
        self.make_log().write_csv(path)
        assert b"\r" not in path.read_bytes()

    def test_csv_bytes_equal_csv_writer(self, tmp_path):
        # Names that csv must quote or that hold a %-format, and floats whose
        # repr is long or special.
        odd = ("a,b", 'q"x', "", "line\nbreak", "c\rr", "%d%%s")
        specials = [1e-300, 1.5, float("nan"), float("inf"), 5e-324, -0.0, 1 / 3, 1.0]
        policy = 'p,"%s\r%%'
        rows = [SimRow(m, name, (0.1 + m, float("inf"))[m], specials[k % 8], 2 - m,
                       specials[~k % 8], specials[~k % 8] > 1.0, policy, m - j)
                for m in range(2) for j, name in enumerate(odd) for k in [6 * m + j]]
        decisions = [DecisionRow(m, name, 2.5 * m, 1 / 7, specials[j], 1, 3, 2)
                     for m in range(2) for j, name in enumerate(odd)]
        log = log_from_rows(rows, policy_name=policy, services=odd, start_minute=0,
                            decisions=decision_log_from_rows(decisions, odd))
        log.write_csv(tmp_path / "sim.csv")
        log.write_decisions_csv(tmp_path / "decisions.csv")
        for name, columns, records in (("sim.csv", SIM_COLUMNS, rows),
                                       ("decisions.csv", DECISION_COLUMNS, decisions)):
            write_rows_oracle(tmp_path / f"ref_{name}", columns, records)
            assert (tmp_path / name).read_bytes() == (tmp_path / f"ref_{name}").read_bytes()

    @pytest.mark.parametrize("horizon", [BLOCK - 1, 2 * BLOCK + 37, 3 * BLOCK + 1])
    def test_csv_bytes_equal_csv_writer_across_blocks(self, tmp_path, horizon):
        # write_csv walks blocks of minutes; horizons that are no multiple of
        # the block end in a long last block.
        rng = np.random.default_rng(horizon)
        services = ("a,b", "line\nbreak", "c")
        shape = (horizon, len(services))
        log = SimulationLog(policy_name="p", seed=1, trace_sha256="t", start_minute=7,
                            services=services, external=rng.random(horizon) * 300,
                            service_rps=rng.random(shape) * 300,
                            pods=rng.integers(1, 13, shape),
                            utilization=rng.random(shape) * 1.2,
                            decision_delta=rng.integers(-1, 2, shape))
        log.write_csv(tmp_path / "sim.csv")
        write_rows_oracle(tmp_path / "ref.csv", SIM_COLUMNS, log_rows(log))
        assert (tmp_path / "sim.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("horizon", [1, BLOCK - 1, 2 * BLOCK + 37])
    def test_csv_bytes_equal_csv_writer_with_special_values(self, tmp_path, horizon):
        # Zeros of both signs, NaNs of several payloads, infinities,
        # subnormals and long runs share external and both float grids.
        rng = np.random.default_rng(horizon)
        services = ("a", "b,c", "d")
        shape = (horizon, len(services))
        log = SimulationLog(policy_name="p", seed=1, trace_sha256="t", start_minute=3,
                            services=services, external=special_cells(rng, (horizon,)),
                            service_rps=special_cells(rng, shape),
                            pods=rng.integers(1, 13, shape),
                            utilization=special_cells(rng, shape),
                            decision_delta=rng.integers(-1, 2, shape))
        log.write_csv(tmp_path / "sim.csv")
        write_rows_oracle(tmp_path / "ref.csv", SIM_COLUMNS, log_rows(log))
        assert (tmp_path / "sim.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# Names that csv must quote or that hold a %-format, and names of any other
# characters a service may hold.
SERVICE_NAMES = (st.sampled_from(["a,b", 'q"x', "", "line\nbreak", "c\rr", "%d%%s"])
                 | st.text(st.characters(blacklist_categories=("Cs",),
                                         blacklist_characters="/\0"), max_size=5))
# Floats whose repr is long or special, among any others.
DECISION_FLOATS = (st.sampled_from([-0.0, 1e16, 5e-324, 1 / 3, float("nan"),
                                    *SPECIAL_FLOATS.tolist()])
                   | st.floats(allow_nan=True, allow_infinity=True))


class TestDecisionsCsv:
    @given(services=st.lists(SERVICE_NAMES, min_size=1, max_size=4, unique=True),
           minutes=st.sampled_from([0, 1, 3, BLOCK - 1, 2 * BLOCK + 37]),
           start=st.integers(-2**40, 2**40),
           pool=st.lists(DECISION_FLOATS, min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_grid_writer_bytes_equal_the_row_writer(self, tmp_path_factory, services,
                                                    minutes, start, pool, seed):
        # The grids take their cells from the drawn floats and -0.0, 1e16 and
        # 5e-324, and cross the writer's blocks of minutes.
        rng = np.random.default_rng(seed)
        values = np.array(pool + [-0.0, 1e16, 5e-324])
        shape = (minutes, len(services))
        grids = DecisionLog(start, *(values[rng.integers(0, len(values), shape)]
                                     for _ in range(3)),
                            n_prev=rng.integers(1, 2**40, shape),
                            n_new=rng.integers(1, 2**40, shape))
        log = SimulationLog(policy_name="phpa", seed=1, trace_sha256="x", start_minute=start,
                            services=tuple(services), external=np.zeros(0),
                            service_rps=np.zeros((0, len(services))),
                            pods=np.zeros((0, len(services)), dtype=np.int64),
                            utilization=np.zeros((0, len(services))),
                            decision_delta=np.zeros((0, len(services)), dtype=np.int64),
                            decisions=grids)
        d = tmp_path_factory.mktemp("decisions")
        log.write_decisions_csv(d / "decisions.csv")
        write_decision_rows_oracle(d / "ref.csv", decision_rows(log))
        assert (d / "decisions.csv").read_bytes() == (d / "ref.csv").read_bytes()

    @pytest.mark.parametrize("minutes", [1, BLOCK - 1, 2 * BLOCK + 37])
    def test_special_values_bytes_equal_the_row_writer(self, tmp_path, minutes):
        # Zeros of both signs, NaNs of several payloads, infinities,
        # subnormals and long runs share each float column.
        rng = np.random.default_rng(minutes)
        services = ("a", "b")
        shape = (minutes, len(services))
        grids = DecisionLog(11, *(special_cells(rng, shape) for _ in range(3)),
                            n_prev=rng.integers(1, 9, shape), n_new=rng.integers(1, 9, shape))
        log = SimulationLog(policy_name="phpa", seed=1, trace_sha256="x", start_minute=11,
                            services=services, external=np.zeros(0),
                            service_rps=np.zeros((0, 2)), pods=np.zeros((0, 2), dtype=np.int64),
                            utilization=np.zeros((0, 2)),
                            decision_delta=np.zeros((0, 2), dtype=np.int64), decisions=grids)
        log.write_decisions_csv(tmp_path / "decisions.csv")
        write_decision_rows_oracle(tmp_path / "ref.csv", decision_rows(log))
        assert (tmp_path / "decisions.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def fixed_forecaster(k: int, value: float) -> LstmModel:
    """Zero-weight LSTM whose head bias pins the output to a constant."""
    hidden = 2
    return LstmModel(LstmConfig(window=k, hidden_units=hidden), np.zeros((1, 4 * hidden)),
                     np.zeros((hidden, 4 * hidden)), np.zeros(4 * hidden),
                     np.zeros((hidden, 1)), math.atanh(value),
                     MinMaxScaler(-1.0, 1.0, -1.0, 1.0))


class TestPredictivePolicySimulation:
    """End-to-end runs with a hand-built pipeline: the graph predictor reads a
    single feature slot through doubled weights (a_hat halves everything on a
    two-node graph), so predicted demand is known in closed form each minute.
    """

    k = 3

    def demand_ab(self):
        return DemandModel(services=("a", "b"), entry="a",
                           cpu_per_request={"a": 0.01, "b": 0.01},
                           fan_out={"a": {"b": 1.0}})

    def make_policy(self, slot: int, feature_scaler: MinMaxScaler):
        graph = ServiceGraph.from_edges(["a", "b"], [("a", "b")])
        w = np.zeros((self.k, 1))
        w[slot, 0] = 2.0
        unit = MinMaxScaler(0.0, 1.0, 0.0, 1.0)
        gcn = GcnModel(GcnConfig(window=self.k, hidden=(), epochs=1), ("a", "b"),
                       [w], feature_scaler, (unit, unit))
        models = {"a": fixed_forecaster(self.k, 0.6),
                  "b": fixed_forecaster(self.k, 0.6)}
        bounds = {"a": ScalingBounds(1.0, 8.0, 1.0, max_pods=8),
                  "b": ScalingBounds(1.0, 8.0, 1.0, max_pods=8)}
        return PredictivePolicy(models, gcn, graph, bounds), bounds

    def test_constant_workload_reaches_a_fixed_point(self):
        # Forecast slot, identity scaling: demand is 1.2 vCPU every minute, so
        # the first decision sizes each service at 2 pods and nothing moves after.
        policy, bounds = self.make_policy(slot=-1,
                                          feature_scaler=MinMaxScaler(0.0, 1.0, 0.0, 1.0))
        log = run_simulation(stub_trace([100] * 30), self.demand_ab(), policy,
                             bounds, SimConfig(seed=3), warmup=5)
        for s in ("a", "b"):
            assert log.pods[:, log.services.index(s)].tolist() == [1] * 6 + [2] * 24
        rows = decision_rows(log)
        assert [d.delta for d in rows[:2]] == [1, 1]
        assert all(d.delta == 0 and d.r_new == pytest.approx(1.2) for d in rows[2:])

    def test_step_up_sizes_pods_from_the_prediction(self):
        # Slot 0 reads the request rate one minute back, scaled 100 rps -> 1.0,
        # so demand steps 2.0 -> 3.0 one minute after the trace steps up: the
        # pods go from 2 to 3, each ready the minute after its decision.
        policy, bounds = self.make_policy(slot=0,
                                          feature_scaler=MinMaxScaler(0.0, 100.0, 0.0, 1.0))
        log = run_simulation(stub_trace([100] * 8 + [150] * 8), self.demand_ab(),
                             policy, bounds, SimConfig(seed=3), warmup=4)
        for s in ("a", "b"):
            steps = [d for d in decision_rows(log) if d.service == s]
            assert [d.r_new for d in steps] == pytest.approx([2.0] * 5 + [3.0] * 7)
            assert [d.n_new for d in steps] == [2] * 5 + [3] * 7
            assert [d.delta for d in steps] == [1, 0, 0, 0, 0, 1] + [0] * 6
            assert log.pods[:, log.services.index(s)].tolist() == [1] * 5 + [2] * 5 + [3] * 6


class TestBatchedPredictiveReplay:
    def test_matches_per_minute_oracle_on_tiny_config(self, tiny_config_path,
                                                      tiny_models_dir, tmp_path):
        # The per-minute oracle forecasts one window at a time, for which BLAS
        # sums in another order than over many (see test_autoscaler's
        # BATCH_OF_ONE_RTOL): its values agree to the forecasters' precision,
        # in the package's float32 and in float64.
        prepared = cli.prepare(*ExperimentConfig.load(tiny_config_path))
        cfg = prepared.cfg
        gcn = GcnModel.load(Path(tiny_models_dir) / "gcn.json")
        loaded = LstmModel.load(Path(tiny_models_dir) / "lstm.json")
        for dtype, rel in ((np.float32, 1e-5), (np.float64, 1e-9)):
            models = {s: LstmModel.from_params(m.config, [p.astype(dtype) for p in m.params],
                                               m.scaler) for s, m in loaded.items()}
            oracle_policy = PerMinutePredictivePolicy(models, gcn, cfg.graph, cfg.bounds)
            batched, oracle = (
                cli.replay(prepared, policy, tmp_path / dtype.__name__ / type(policy).__name__)[0]
                for policy in (PredictivePolicy(models, gcn, cfg.graph, cfg.bounds),
                               oracle_policy))
            assert log_rows(batched) == log_rows(oracle)
            grids = batched.decisions
            for name in ("forecast_rps", "predicted_vcpu", "r_new"):
                assert getattr(grids, name).dtype == np.float64
            assert grids.n_prev.dtype == grids.n_new.dtype == np.int64
            batched_rows, oracle_rows = decision_rows(batched), oracle_policy.rows
            assert len(batched_rows) == len(oracle_rows) > 0
            assert any(d.delta != 0 for d in batched_rows)
            for b, o in zip(batched_rows, oracle_rows):
                assert (b.minute, b.service, b.n_prev, b.n_new, b.delta) == \
                    (o.minute, o.service, o.n_prev, o.n_new, o.delta)
                for name in ("forecast_rps", "predicted_vcpu", "r_new"):
                    assert getattr(b, name) == pytest.approx(getattr(o, name), rel=rel, abs=0), \
                        f"{name} with forecasters in {dtype.__name__}"

    def test_services_out_of_graph_order_rejected(self):
        # Rate columns are matched to forecasters by position, so a grid whose
        # services are not graph.nodes in order must not be read.
        policy = TestPredictivePolicySimulation().make_policy(
            slot=-1, feature_scaler=MinMaxScaler(0.0, 1.0, 0.0, 1.0))[0]
        rates = np.full((5, 2), 100.0)
        for services in (("b", "a"), ("a",), ("a", "b", "c")):
            with pytest.raises(ValidationError, match="not graph.nodes"):
                policy.begin(0, services, rates)
        policy.begin(0, ("a", "b"), rates)
        demand = DemandModel(services=("b", "a"), entry="a",
                             cpu_per_request={"a": 0.01, "b": 0.01}, fan_out={"a": {"b": 1.0}})
        bounds = {s: ScalingBounds(1.0, 8.0, 1.0, max_pods=8) for s in ("a", "b")}
        with pytest.raises(ValidationError, match=r"\['b', 'a'\] are not graph.nodes"):
            run_simulation(stub_trace([100] * 8), demand, policy, bounds, SimConfig(seed=3),
                           warmup=4)

    def test_non_finite_demand_rejected_naming_service_and_minute(self):
        policy = TestPredictivePolicySimulation().make_policy(
            slot=0, feature_scaler=MinMaxScaler(0.0, 1.0, 0.0, 1.0))[0]
        rates = np.full((5, 2), 100.0)
        # Slot 0 reads row 3 in the window that ends at row 4, predicted at
        # minute 10 + 4; doubled, the rate overflows.
        rates[3] = 1e308
        with np.errstate(over="ignore"), pytest.raises(
                ValidationError, match="predicted demand for 'a' at minute 14 is not finite"):
            policy.begin(10, ("a", "b"), rates)

    def test_decisions_come_one_minute_after_another(self):
        policy = TestPredictivePolicySimulation().make_policy(
            slot=-1, feature_scaler=MinMaxScaler(0.0, 1.0, 0.0, 1.0))[0]
        policy.begin(10, ("a", "b"), np.full((6, 2), 100.0))
        policy.decide(12, [0.5, 0.5], [1, 1])
        for minute in (12, 14):
            with pytest.raises(ValidationError, match=f"minute {minute} out of order"):
                policy.decide(minute, [0.5, 0.5], [1, 1])
        policy.decide(13, [0.5, 0.5], [2, 1])
        assert policy.decisions.start_minute == 12
        assert policy.decisions.n_prev.tolist() == [[1, 1], [2, 1]]

    def test_targets_do_not_depend_on_the_pods(self):
        # Each minute's targets follow from its own prediction: whatever pods
        # decide is handed, and whatever came before, the targets are the same.
        policy = TestPredictivePolicySimulation().make_policy(
            slot=0, feature_scaler=MinMaxScaler(0.0, 100.0, 0.0, 1.0))[0]
        rates = np.array([[100.0, 100.0], [150.0, 150.0], [300.0, 300.0], [50.0, 50.0]])
        runs = []
        for pods in ([1, 1], [8, 3], [4, 8]):
            policy.begin(10, ("a", "b"), rates)
            runs.append([policy.decide(minute, [0.5, 0.5], pods) for minute in (12, 13)])
            assert policy.decisions.n_prev.tolist() == [pods, pods]
        assert runs[0] == runs[1] == runs[2] == [[3, 3], [6, 6]]

    def test_decision_log_of_each_kind_of_run(self):
        # A reactive run logs no decisions; a predictive run logs a grid, with
        # no rows when warmup covers the whole trace.
        maker = TestPredictivePolicySimulation()
        demand = maker.demand_ab()
        policy, bounds = maker.make_policy(slot=-1,
                                           feature_scaler=MinMaxScaler(0.0, 1.0, 0.0, 1.0))
        reactive = run_simulation(stub_trace([100] * 8), demand,
                                  ReactivePolicy(HpaConfig(), bounds), bounds,
                                  SimConfig(seed=3), warmup=4)
        assert reactive.decisions is None
        for warmup, rows in ((4, 4), (8, 0)):
            log = run_simulation(stub_trace([100] * 8), demand, policy, bounds,
                                 SimConfig(seed=3), warmup=warmup)
            assert len(log.decisions) == rows
            if rows:
                assert log.decisions.start_minute == warmup
            assert log.decisions.r_new.shape == log.decisions.n_new.shape == (rows, 2)
        assert log.decisions.forecast_rps.shape == (0, 2)
        assert decision_rows(log) == []

    def test_minute_outside_the_prepass_rejected(self):
        policy = TestPredictivePolicySimulation().make_policy(
            slot=-1, feature_scaler=MinMaxScaler(0.0, 1.0, 0.0, 1.0))[0]
        policy.begin(10, ("a", "b"), np.full((5, 2), 100.0))
        pods = [1, 1]
        policy.decide(12, [0.5, 0.5], pods)
        for minute in (11, 15):
            with pytest.raises(ValidationError, match="no prediction"):
                policy.decide(minute, [0.5, 0.5], pods)
