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
    DecisionRow,
    DemandModel,
    HpaConfig,
    PredictivePolicy,
    ReactivePolicy,
    ScalingPolicy,
    SimulationLog,
    initial_pod_counts,
    run_simulation,
)
from graph_phpa.config import ExperimentConfig
from graph_phpa.errors import ValidationError
from graph_phpa.forecast_lstm import LstmConfig, LstmLayer, LstmModel
from graph_phpa.predict_gcn import GcnConfig, GcnModel, ServiceGraph
from graph_phpa.tensor import BLOCK, MinMaxScaler
from graph_phpa.traces import WorkloadTrace
from oracles import (PerMinutePredictivePolicy, SimRow, log_from_rows, log_rows,
                     propagate_minute_oracle, write_rows_oracle)


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
    return {s: ScalingBounds(1.0, r_ub, v_p, q) for s in services}


class TestDemandModel:
    def test_propagation_by_hand(self):
        rates, _ = bookinfo_demand().demand_series([300.0], start_minute=0, seed=1)
        assert {s: v[0] for s, v in rates.items()} == {
            "front": 300.0, "details": 300.0, "reviews": 300.0,
            "ratings": pytest.approx(200.0)}

    def test_resource_usage_by_hand(self):
        _, usage = bookinfo_demand().demand_series([300.0], start_minute=0, seed=1)
        assert usage["front"][0] == pytest.approx(3.0)
        assert usage["details"][0] == pytest.approx(1.2)
        assert usage["reviews"][0] == pytest.approx(1.8)
        assert usage["ratings"][0] == pytest.approx(1.2)

    def test_zero_external_is_zero_everywhere(self):
        rates, usage = bookinfo_demand(noise=0.5).demand_series([0.0], start_minute=3, seed=9)
        assert all(v[0] == 0.0 for v in rates.values())
        assert all(v[0] == 0.0 for v in usage.values())

    def test_noise_only_hits_internal_services(self):
        demand = bookinfo_demand(noise=0.4)
        rates, _ = demand.demand_series([100.0], start_minute=7, seed=21)
        assert rates["front"][0] == 100.0
        assert rates["details"][0] != pytest.approx(100.0)

    def test_noise_is_keyed_by_absolute_minute(self):
        # The same absolute minute must see the same jitter no matter what
        # was simulated before it; this is what keeps warmup out of the data.
        demand = bookinfo_demand(noise=0.3)
        a, _ = demand.demand_series([100.0], start_minute=50, seed=5)
        b, _ = demand.demand_series([100.0] * 3, start_minute=49, seed=5)
        assert all(a[s][0] == b[s][1] for s in demand.services)
        c, _ = demand.demand_series([100.0], start_minute=51, seed=5)
        assert any(a[s][0] != c[s][0] for s in demand.services)

    def test_noise_mean_is_one_in_expectation(self):
        demand = bookinfo_demand(noise=0.2)
        rates, _ = demand.demand_series(np.full(4000, 100.0), start_minute=0, seed=77)
        assert np.mean(rates["details"]) == pytest.approx(100.0, rel=0.01)

    def test_demand_series_matches_per_minute_calls(self):
        # The one-pass window must be bit for bit the per-minute propagation,
        # each minute drawing from its own freshly seeded generator, and so
        # must a window of one minute.
        external = np.array([100.0, 120.0, 90.0, 0.0, 333.3, 57.25])
        for sigma, with_noise, start in itertools.product((0.0, 0.1, 0.25), (True, False),
                                                          (0, 40)):
            demand = bookinfo_demand(noise=sigma)
            rps, usage = demand.demand_series(external, start_minute=start, seed=3,
                                              with_noise=with_noise)
            for i, x in enumerate(external):
                rates = propagate_minute_oracle(demand, x, start + i, 3, with_noise)
                one, _ = demand.demand_series([x], start + i, 3, with_noise)
                for s in demand.services:
                    assert rps[s][i].tobytes() == np.float64(rates[s]).tobytes()
                    assert one[s][0].tobytes() == np.float64(rates[s]).tobytes()
                    assert usage[s][i] == rates[s] * demand.cpu_per_request[s]

    def test_conservation_without_noise(self):
        # Noise-free propagation is exactly linear in the external rate.
        demand = bookinfo_demand()
        rates, _ = demand.demand_series([100.0, 250.0], 0, 1, with_noise=False)
        for s in demand.services:
            assert rates[s][1] == pytest.approx(2.5 * rates[s][0])

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
        bounds = {"s": ScalingBounds(r_lb, r_ub, 1.0, 10)}
        log = run_simulation(stub_trace([rps, rps]), demand,
                             policy or ReactivePolicy(HpaConfig(), bounds), bounds, seed=1)
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
            ScalingBounds(1.0, 5.0, 0.0, 3)


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
        bounds = {s: ScalingBounds(2.5, 10.0, 1.0, 10) for s in demand.services}
        counts = initial_pod_counts(demand, 100.0, bounds)
        assert all(n == 3 for n in counts.values())


class TestReactivePolicy:
    def decide_once(self, util, pods=4, minutes=1, config=None):
        config = config or HpaConfig(scale_out=0.9, scale_in=0.3,
                                     stabilization_minutes=5)
        policy = ReactivePolicy(config, flat_bounds(("s",)))
        policy.begin(0, {"s": []})
        out = None
        for _ in range(minutes):
            targets, _ = policy.decide(0, {"s": util}, {"s": pods})
            out = targets["s"]
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
        policy.begin(0, {"s": []})
        for util in (0.1, 0.1, 0.5, 0.1, 0.1):  # calm streak broken at step 3
            targets, _ = policy.decide(0, {"s": util}, {"s": 4})
        assert targets["s"] == 4
        targets, _ = policy.decide(0, {"s": 0.1}, {"s": 4})
        assert targets["s"] == 3

    def test_breach_resets_the_calm_counter(self):
        policy = ReactivePolicy(HpaConfig(0.9, 0.3, 2), flat_bounds(("s",)))
        policy.begin(0, {"s": []})
        policy.decide(0, {"s": 0.1}, {"s": 4})
        policy.decide(1, {"s": 0.95}, {"s": 4})
        targets, _ = policy.decide(2, {"s": 0.1}, {"s": 4})
        assert targets["s"] == 4  # counter restarted after the breach

    def test_never_out_and_in_same_minute(self):
        # Boundary utilizations equal to a threshold trigger neither rule.
        assert self.decide_once(0.9, minutes=10) == 4
        assert self.decide_once(0.3, minutes=10) == 4

    def test_scale_out_capped(self):
        policy = ReactivePolicy(HpaConfig(0.9, 0.3, 5), flat_bounds(("s",), q=4))
        policy.begin(0, {"s": []})
        targets, _ = policy.decide(0, {"s": 2.0}, {"s": 4})
        assert targets["s"] == 4

    def test_scale_in_floors_at_one(self):
        policy = ReactivePolicy(HpaConfig(0.9, 0.3, 1), flat_bounds(("s",)))
        policy.begin(0, {"s": []})
        targets, _ = policy.decide(0, {"s": 0.0}, {"s": 1})
        assert targets["s"] == 1

    def test_policy_name_carries_threshold(self):
        assert ReactivePolicy(HpaConfig(0.7, 0.3, 5), {}).name == "reactive@0.7"
        assert ReactivePolicy(HpaConfig(0.9, 0.3, 5), {}).name == "reactive@0.9"


def stub_trace(values, start_minute=0):
    return WorkloadTrace(resolution=1, start_minute=start_minute,
                         counts=tuple(int(v) for v in values))


class PinnedPolicy(ScalingPolicy):
    """Test double that requests a fixed target plan by minute index."""

    name = "pinned"

    def __init__(self, plan):
        self.plan = plan  # {minute: {service: target}}

    def decide(self, minute, utilization, pods):
        return self.plan.get(minute, {}), []


class TestRunSimulation:
    def test_row_grid_is_complete_and_ordered(self):
        demand = bookinfo_demand()
        log = run_simulation(stub_trace([100] * 6), demand,
                             ReactivePolicy(HpaConfig(), flat_bounds(demand.services)),
                             flat_bounds(demand.services), seed=1)
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
                             seed=1, warmup=0, startup_delay=2)
        assert log.pods[:, 0].tolist() == [1, 1, 4, 4]
        assert log.decision_delta[0, 0] == 3

    def test_removals_land_next_minute(self):
        demand = bookinfo_demand()
        # A 4 vCPU floor starts every service at 4 pods.
        bounds = {s: ScalingBounds(4.0, 10.0, 1.0, 10) for s in demand.services}
        policy = PinnedPolicy({0: {"front": 2}})
        log = run_simulation(stub_trace([100] * 3), demand, policy, bounds,
                             seed=1, warmup=0)
        assert log.pods[:, 0].tolist() == [4, 2, 2]
        assert log.decision_delta[0, 0] == -2

    def test_warmup_suppresses_decisions(self):
        demand = bookinfo_demand()
        bounds = flat_bounds(demand.services)
        policy = PinnedPolicy({m: {"front": 9} for m in range(6)})
        log = run_simulation(stub_trace([100] * 6), demand, policy, bounds,
                             seed=1, warmup=4)
        # First decision at minute 4, lands at minute 5.
        assert log.pods[:, 0].tolist() == [1, 1, 1, 1, 1, 9]

    def test_cluster_budget_caps_additions(self):
        demand = bookinfo_demand()
        bounds = flat_bounds(demand.services, q=40)
        # Every service wants 20 pods at minute 0; budget is 30 total. Grants
        # happen in node order until the budget runs out.
        policy = PinnedPolicy({0: {s: 20 for s in demand.services}})
        log = run_simulation(stub_trace([100] * 3), demand, policy, bounds,
                             seed=1, warmup=0, max_total_pods=30)
        assert log.pods[2].sum() <= 30
        assert log.pods[-1, 0] == 20  # first in node order got its full ask

    def test_matured_additions_leave_the_pending_budget(self):
        # Pods added at minute 0 serve from minute 1 and stop counting as
        # pending, so the minute-2 ask gets the last two pods of the budget.
        demand = bookinfo_demand()
        bounds = flat_bounds(demand.services)
        policy = PinnedPolicy({0: {"front": 3}, 2: {"front": 5}})
        log = run_simulation(stub_trace([100] * 4), demand, policy, bounds,
                             seed=1, warmup=0, max_total_pods=8)
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
                                            bounds), bounds, seed=9,
                             max_total_pods=12)
        assert log.pods.sum(axis=1).max() <= 12

    def test_pods_stay_within_service_limits(self):
        demand = bookinfo_demand(noise=0.3)
        bounds = flat_bounds(demand.services, q=3)
        values = [50, 400, 800, 1200, 900, 30, 10, 10, 10, 10, 10, 10]
        log = run_simulation(stub_trace(values), demand,
                             ReactivePolicy(HpaConfig(0.6, 0.3, 1), bounds),
                             bounds, seed=4)
        assert log.pods.min() >= 1 and log.pods.max() <= 3

    @given(budget=st.integers(4, 30), max_pods=st.integers(1, 12),
           startup_delay=st.sampled_from([1, 2, 3]), reactive=st.booleans(),
           plan=st.lists(st.lists(st.integers(0, 15), min_size=4, max_size=4),
                         min_size=1, max_size=25),
           values=st.lists(st.integers(0, 2000), min_size=1, max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_budget_and_pod_limits_hold(self, budget, max_pods, startup_delay, reactive,
                                        plan, values):
        demand = bookinfo_demand(noise=0.3)
        # A 1 vCPU band starts every service at one pod, whatever the rate.
        bounds = flat_bounds(demand.services, r_ub=1.0, q=max_pods)
        if reactive:
            policy = ReactivePolicy(HpaConfig(0.6, 0.3, 1), bounds)
        else:
            # Targets outside [1, max_pods] on purpose: the simulator clips them.
            policy = PinnedPolicy({m: dict(zip(demand.services, targets))
                                   for m, targets in enumerate(plan)})
        log = run_simulation(stub_trace(values), demand, policy, bounds, seed=5,
                             warmup=0, startup_delay=startup_delay,
                             max_total_pods=budget)
        assert log.pods.min() >= 1 and log.pods.max() <= max_pods
        assert log.pods.sum(axis=1).max() <= budget

    def test_same_seed_reproduces_the_log(self):
        demand = bookinfo_demand(noise=0.25)
        bounds = flat_bounds(demand.services)
        def go():
            return run_simulation(stub_trace([120, 180, 260, 300, 240, 150]),
                                  demand,
                                  ReactivePolicy(HpaConfig(0.7, 0.3, 2), bounds),
                                  bounds, seed=31)
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
                             ReactivePolicy(HpaConfig(), bounds), bounds, seed=8)
        for r in log_rows(log):
            assert r.service_rps == pytest.approx(rps[r.service][r.minute], rel=1e-12)

    def test_rows_equal_per_minute_propagation(self):
        # The whole window is propagated up front; every row must still carry
        # exactly what per-minute propagation gives for its own absolute minute.
        values = [100, 140, 90, 200, 170, 130]
        for sigma in (0.0, 0.1, 0.25):
            demand = bookinfo_demand(noise=sigma)
            bounds = flat_bounds(demand.services)
            log = run_simulation(stub_trace(values, start_minute=7), demand,
                                 ReactivePolicy(HpaConfig(), bounds), bounds, seed=8)
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
                           bounds, seed=1)

    def test_initial_pods_over_budget_rejected(self):
        demand = bookinfo_demand()
        # A 4 vCPU floor starts all four services at 4 pods, 16 in all.
        bounds = {s: ScalingBounds(4.0, 10.0, 1.0, 10) for s in demand.services}
        with pytest.raises(ValidationError, match="budget"):
            run_simulation(stub_trace([100] * 3), demand,
                           ReactivePolicy(HpaConfig(), bounds), bounds,
                           seed=1, max_total_pods=10)

    def test_overload_flag_matches_utilization(self):
        # Every cell's utilization is rps * cost / (pods * capacity) bit for
        # bit, and the overload flag is exactly utilization > 1.
        demand = bookinfo_demand(noise=0.2)
        bounds = flat_bounds(demand.services, v_p=0.7)
        values = [50, 800, 1000, 700, 60, 50]
        log = run_simulation(stub_trace(values), demand,
                             ReactivePolicy(HpaConfig(), bounds), bounds, seed=2)
        assert log.overloaded.any()
        for r in log_rows(log):
            assert r.utilization == (r.service_rps * demand.cpu_per_request[r.service]
                                     / (r.pods * 0.7))
        assert np.array_equal(log.overloaded, log.utilization > 1.0)


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

    def test_rows_build_by_keyword_or_position_and_stay_immutable(self):
        decision = DecisionRow(1, "a", 2.0, 0.5, 1.0, 1.5, 1, 2, 1)
        assert decision == DecisionRow(minute=1, service="a", forecast_rps=2.0,
                                       predicted_vcpu=0.5, r_prev=1.0, r_new=1.5,
                                       n_prev=1, n_new=2, delta=1)
        with pytest.raises(AttributeError):
            decision.delta = 0

    def test_csv_bytes_equal_csv_writer(self, tmp_path):
        # Names that csv must quote, and floats whose repr is long or special.
        odd = ("a,b", 'q"x', "", "line\nbreak")
        specials = [1e-300, 1.5, float("nan"), float("inf"), 5e-324, -0.0, 1 / 3, 1.0]
        rows = [SimRow(m, name, (0.1 + m, float("inf"))[m], specials[4 * m + j], 2 - m,
                       specials[-4 * m - j - 1], specials[-4 * m - j - 1] > 1.0,
                       "pol,icy", m - j)
                for m in range(2) for j, name in enumerate(odd)]
        decisions = [DecisionRow(m, name, 2.5, 1 / 7, 1.0, 3.0, 1, 3, 2)
                     for m, name in enumerate(odd)]
        log = log_from_rows(rows, policy_name="pol,icy", services=odd, start_minute=0,
                            decisions=decisions)
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


def fixed_forecaster(k: int, value: float) -> LstmModel:
    """Zero-weight LSTM whose head bias pins the output to a constant."""
    hidden = 2
    layer = LstmLayer(np.zeros((1, 4 * hidden)), np.zeros((hidden, 4 * hidden)),
                      np.zeros(4 * hidden))
    return LstmModel(LstmConfig(window=k, hidden_units=hidden), [layer],
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
        bounds = {"a": ScalingBounds(1.0, 8.0, 1.0, 8),
                  "b": ScalingBounds(1.0, 8.0, 1.0, 8)}
        return PredictivePolicy(models, gcn, graph, bounds), bounds

    def test_constant_workload_reaches_a_fixed_point(self):
        # Forecast slot, identity scaling: demand is 1.2 vCPU every minute, so
        # after the first decision nothing may move, whatever the count is.
        policy, bounds = self.make_policy(slot=-1,
                                          feature_scaler=MinMaxScaler(0.0, 1.0, 0.0, 1.0))
        log = run_simulation(stub_trace([100] * 30), self.demand_ab(), policy,
                             bounds, seed=3, warmup=5)
        for s in ("a", "b"):
            pods = log.pods[:, log.services.index(s)].tolist()
            assert len(set(pods[10:])) == 1
        assert all(d.delta == 0 for d in log.decisions)

    def test_first_decision_seeds_state_without_moving_pods(self):
        policy, bounds = self.make_policy(slot=-1,
                                          feature_scaler=MinMaxScaler(0.0, 1.0, 0.0, 1.0))
        log = run_simulation(stub_trace([100] * 12), self.demand_ab(), policy,
                             bounds, seed=3, warmup=5)
        first = log.decisions[0]
        assert first.delta == 0
        assert first.r_prev == first.r_new == pytest.approx(1.2)
        assert first.n_prev == first.n_new

    def test_decisions_chain_the_allocation_state(self):
        # Slot 0 reads the request rate one minute back, scaled 100 rps -> 1.0,
        # so demand steps 2.0 -> 3.0 one minute after the trace steps up. That
        # is one +1 pod move; the state must carry 3.0 forward, not fall back.
        policy, bounds = self.make_policy(slot=0,
                                          feature_scaler=MinMaxScaler(0.0, 100.0, 0.0, 1.0))
        log = run_simulation(stub_trace([100] * 8 + [150] * 8), self.demand_ab(),
                             policy, bounds, seed=3, warmup=4)
        for s in ("a", "b"):
            steps = [d for d in log.decisions if d.service == s]
            for prev, cur in zip(steps, steps[1:]):
                assert cur.r_prev == prev.r_new
            assert [d.delta for d in steps].count(1) == 1
            assert log.pods[:, log.services.index(s)].tolist() == [1] * 10 + [2] * 6


class TestBatchedPredictiveReplay:
    def test_matches_per_minute_oracle_on_tiny_config(self, tiny_config_path,
                                                      tiny_models_dir, tmp_path):
        prepared = cli.prepare(*ExperimentConfig.load(tiny_config_path))
        cfg = prepared.cfg
        models = {s: LstmModel.load(Path(tiny_models_dir) / f"lstm_{s}.json")
                  for s in cfg.graph.nodes}
        gcn = GcnModel.load(Path(tiny_models_dir) / "gcn.json")

        def replay(policy_cls):
            policy = policy_cls(models, gcn, cfg.graph, cfg.bounds)
            return cli.replay(prepared, policy, tmp_path / policy_cls.__name__)[0]

        batched, oracle = replay(PredictivePolicy), replay(PerMinutePredictivePolicy)
        assert log_rows(batched) == log_rows(oracle)
        assert len(batched.decisions) == len(oracle.decisions) > 0
        assert any(d.delta != 0 for d in batched.decisions)
        for b, o in zip(batched.decisions, oracle.decisions):
            assert (b.minute, b.service, b.n_prev, b.n_new, b.delta) == \
                (o.minute, o.service, o.n_prev, o.n_new, o.delta)
            for name in ("forecast_rps", "predicted_vcpu", "r_prev", "r_new"):
                assert type(getattr(b, name)) is float
                assert getattr(b, name) == pytest.approx(getattr(o, name), rel=1e-9, abs=0)

    def test_minute_outside_the_prepass_rejected(self):
        policy = TestPredictivePolicySimulation().make_policy(
            slot=-1, feature_scaler=MinMaxScaler(0.0, 1.0, 0.0, 1.0))[0]
        policy.begin(10, {"a": np.full(5, 100.0), "b": np.full(5, 100.0)})
        pods = {"a": 1, "b": 1}
        policy.decide(12, {}, pods)
        for minute in (11, 15):
            with pytest.raises(ValidationError, match="no prediction"):
                policy.decide(minute, {}, pods)
