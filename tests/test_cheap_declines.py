"""The cheap decline path decides exactly what the raising path decided.

``SystemController.try_deploy`` answers a refused placement with its
reason instead of an ``AllocationError`` and repeats a capacity fast reject
from memory while the placement index's generation stands, deployments
read their service time
from the controller's one service cache, and ``ProposedSystem``'s fairness
check probes the per-model index instead of counting copies.  These tests
hold each shortcut to the behaviour it replaced: the counters every
placement outcome bumps, a fresh probe after every change the memo must
see, the cycle model's uncached latency at every ring distance, the old
fairness loop, and one small deep-backlog schedule.
"""

import collections
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterSimulator, Task, paper_cluster, scaled_cluster
from repro.errors import AllocationError
from repro.experiments.bench_scale import _schedule_digest
from repro.runtime import Catalog, build_system
from repro.runtime.controller import SystemController
from repro.tenancy import TenantParameters, TenantScheduler
from repro.vital import LowLevelController, VitalCompiler
from repro.workloads import TABLE1_COMPOSITIONS, generate_workload, poisson_arrivals
from repro.workloads.deepbench import all_models
from tests.queueing import show_counts


@pytest.fixture(scope="module")
def shared_catalog():
    return Catalog(VitalCompiler())


def _controller(catalog, cluster=None, **kwargs):
    cluster = cluster or paper_cluster()
    return SystemController(
        cluster, catalog, LowLevelController(catalog.compiler.store), **kwargs
    )


# -- deploy / try_deploy: same outcome, same counters ----------------------------


def _success(controller):
    return "gru-h512-t1", {}


def _fast_reject(controller):
    controller.deploy("gru-h2560-t375")
    controller.deploy("gru-h2304-t250")
    return "lstm-h1536-t50", {}


def _capacity_failure(controller):
    # One VU37P board stays free: the fast reject passes, the two-board
    # plan's search fails.
    controller.deploy("gru-h2560-t375")
    return "gru-h2560-t375", {}


def _capacity_failure_after_eviction(controller):
    busy, _ = controller.deploy("gru-h2560-t375")
    controller.acquire(busy)
    controller.deploy("gru-h512-t1")  # idle and stale by now=1.0
    return "gru-h2560-t375", {"now": 1.0, "waited_s": 1.0}


def _quota_refusal(controller):
    controller.quota = lambda tenant, plan: False
    return "gru-h512-t1", {}


def _quota_refusal_on_a_full_cluster(controller):
    # The quota verdict outranks the capacity fast reject.
    _fast_reject(controller)
    controller.quota = lambda tenant, plan: False
    return "lstm-h1536-t50", {}


def _guarded_fast_reject(controller):
    _fast_reject(controller)
    controller.quota = lambda tenant, plan: True
    return "lstm-h1536-t50", {}


#: outcome -> (set-up, ``try_deploy``'s refusal reason (``None``: it
#: places), the counters one call bumps).
OUTCOMES = {
    "success": (_success, None, {
        "deploy_calls": 1, "placement_searches": 1, "boards_probed": 2,
        "deployments_created": 1,
    }),
    "fast_reject": (_fast_reject, "capacity", {
        "deploy_calls": 1, "fast_rejects": 1, "placement_failures": 1,
    }),
    "capacity_failure": (_capacity_failure, "capacity", {
        "deploy_calls": 1, "placement_searches": 1, "boards_probed": 1,
        "placement_failures": 1,
    }),
    "capacity_failure_after_eviction": (
        _capacity_failure_after_eviction, "capacity", {
            "deploy_calls": 1, "placement_searches": 1, "boards_probed": 1,
            "fast_rejects": 1, "deployments_evicted": 1,
            "placement_failures": 1,
        },
    ),
    "quota_refusal": (_quota_refusal, "quota", {
        "deploy_calls": 1, "quota_rejections": 1,
    }),
    "quota_refusal_on_a_full_cluster": (
        _quota_refusal_on_a_full_cluster, "quota", {
            "deploy_calls": 1, "quota_rejections": 1,
        },
    ),
    "guarded_fast_reject": (_guarded_fast_reject, "capacity", {
        "deploy_calls": 1, "fast_rejects": 1, "placement_failures": 1,
    }),
}


def _delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in after
            if after[key] != before[key]}


class TestDeclineCounters:
    @pytest.mark.parametrize("outcome", sorted(OUTCOMES))
    def test_deploy_and_try_deploy_count_alike(self, shared_catalog, outcome):
        setup, reason, expected = OUTCOMES[outcome]
        deltas = []
        for method in ("deploy", "try_deploy"):
            controller = _controller(shared_catalog)
            model_key, kwargs = setup(controller)
            before = dict(vars(controller.stats))
            if method == "try_deploy":
                placed = controller.try_deploy(model_key, **kwargs)
                if reason is None:
                    assert type(placed) is tuple
                else:
                    assert placed == reason
            elif reason is None:
                controller.deploy(model_key, **kwargs)
            else:
                with pytest.raises(AllocationError):
                    controller.deploy(model_key, **kwargs)
            deltas.append(_delta(before, vars(controller.stats)))
        assert deltas == [expected, expected]

    @pytest.mark.parametrize(
        "outcome",
        ["fast_reject", "capacity_failure", "capacity_failure_after_eviction",
         "guarded_fast_reject"],
    )
    def test_capacity_message(self, shared_catalog, outcome):
        controller = _controller(shared_catalog)
        model_key, kwargs = OUTCOMES[outcome][0](controller)
        with pytest.raises(
            AllocationError,
            match=rf"^no feasible allocation for {model_key} "
            r"\(largest free hole per type: \{.*\}\)$",
        ) as caught:
            controller.deploy(model_key, **kwargs)
        largest = {
            device_type: controller.index.max_free(device_type)
            for device_type in controller.index.device_types()
        }
        assert str(largest) in str(caught.value)

    def test_quota_message(self, shared_catalog):
        controller = _controller(shared_catalog)
        model_key, _ = _quota_refusal(controller)
        with pytest.raises(
            AllocationError,
            match=r"^tenant quota: no plan for gru-h512-t1 fits within the "
            r"quota of tenant 'acme'$",
        ):
            controller.deploy(model_key, tenant="acme")


# -- a repeated refusal answered from memory ----------------------------------------

#: The model ``_fast_reject`` leaves no hole for.
REFUSED = "lstm-h1536-t50"


def _spy_probes(controller, monkeypatch) -> list:
    """Record every capacity fast-reject probe, by model."""
    probes = []
    probe = controller._any_plan_could_fit

    def spy(model_key):
        probes.append(model_key)
        return probe(model_key)

    monkeypatch.setattr(controller, "_any_plan_could_fit", spy)
    return probes


def _fail(controller, fpga_id):
    controller.on_board_failure(controller.cluster.board(fpga_id), 0.0)


#: change -> (set-up before the refusal, the change after it).  Each moves
#: what a refusal reads: free blocks or board health.
CHANGES = {
    "allocation": (None, lambda c: c.cluster.board("vu37p-0").allocate("x", 1)),
    "release": (
        lambda c: c.cluster.board("vu37p-0").allocate("x", 1),
        lambda c: c.cluster.board("vu37p-0").release("x"),
    ),
    "evict": (None, lambda c: c.evict(c.deployments_of("gru-h2304-t250")[0])),
    "discard": (
        None, lambda c: c.discard(c.deployments_of("gru-h2560-t375")[0])
    ),
    "board_failure": (None, lambda c: _fail(c, "vu37p-2")),
    "board_degraded": (
        None, lambda c: c.on_board_degraded(c.cluster.board("vu37p-2"))
    ),
    "board_repair": (
        lambda c: _fail(c, "vu37p-2"),
        lambda c: c.on_board_repair(c.cluster.board("vu37p-2")),
    ),
}


class TestRefusalMemo:
    def test_repeat_asks_neither_probe_nor_quota(
        self, shared_catalog, monkeypatch
    ):
        controller = _controller(shared_catalog)
        _fast_reject(controller)
        asked = []
        controller.quota = lambda tenant, plan: asked.append(tenant) or True
        assert controller.try_deploy(REFUSED, tenant="a") == "capacity"
        assert asked
        probes = _spy_probes(controller, monkeypatch)
        asked.clear()
        for _ in range(3):
            before = dict(vars(controller.stats))
            assert controller.try_deploy(REFUSED, tenant="a") == "capacity"
            assert _delta(before, vars(controller.stats)) == (
                OUTCOMES["fast_reject"][2]
            )
        assert probes == [] and asked == []
        # deploy shares the memo and still raises the capacity message.
        with pytest.raises(AllocationError, match="^no feasible allocation"):
            controller.deploy(REFUSED, tenant="a")
        assert probes == []

    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_every_change_probes_again(self, shared_catalog, monkeypatch,
                                       change):
        prepare, apply = CHANGES[change]
        controller = _controller(shared_catalog)
        _fast_reject(controller)
        if prepare is not None:
            prepare(controller)
        assert controller.try_deploy(REFUSED) == "capacity"
        probes = _spy_probes(controller, monkeypatch)
        generation = controller.index.generation
        apply(controller)
        assert controller.index.generation != generation
        controller.try_deploy(REFUSED)
        assert probes == [REFUSED]

    def test_a_quota_refusal_is_per_tenant(self, shared_catalog, monkeypatch):
        """Another tenant's quota is still asked at the same generation."""
        controller = _controller(shared_catalog)
        _fast_reject(controller)
        controller.quota = lambda tenant, plan: tenant != "capped"
        assert controller.try_deploy(REFUSED, tenant="a") == "capacity"
        probes = _spy_probes(controller, monkeypatch)
        before = dict(vars(controller.stats))
        assert controller.try_deploy(REFUSED, tenant="capped") == "quota"
        assert _delta(before, vars(controller.stats)) == (
            OUTCOMES["quota_refusal"][2]
        )
        assert controller.try_deploy(REFUSED, tenant="a") == "capacity"
        assert probes == []

    def test_a_call_that_may_evict_probes_after_its_eviction(
        self, shared_catalog, monkeypatch
    ):
        """A call that may evict answers its first fast reject from the
        memo, counted as the probe would count it, and then tries its
        eviction; an eviction moves the generation, so the next turn
        probes."""
        controller = _controller(shared_catalog)
        _fast_reject(controller)
        assert controller.try_deploy(REFUSED) == "capacity"
        probes = _spy_probes(controller, monkeypatch)
        patience = controller.eviction_patience_s
        for _ in range(2):
            before = dict(vars(controller.stats))
            # Nothing has idled out by now=0: the eviction finds no victim.
            assert controller.try_deploy(REFUSED, waited_s=patience) == (
                "capacity"
            )
            assert _delta(before, vars(controller.stats)) == (
                OUTCOMES["fast_reject"][2]
            )
        assert probes == []
        # A stale idle copy of another model is evicted, and the probe
        # after it places the model where the memo would have refused.
        placed = controller.try_deploy(REFUSED, now=1.0, waited_s=patience)
        assert placed.__class__ is tuple
        assert controller.stats.deployments_evicted == 1
        assert probes == [REFUSED]

    def test_a_call_that_may_evict_stores_the_memo(self, shared_catalog,
                                                   monkeypatch):
        controller = _controller(shared_catalog)
        _fast_reject(controller)
        patience = controller.eviction_patience_s
        assert controller.try_deploy(REFUSED, waited_s=patience) == (
            "capacity"
        )
        probes = _spy_probes(controller, monkeypatch)
        assert controller.try_deploy(REFUSED) == "capacity"
        assert probes == []


def _memo_answers(scheduler, controller, tasks) -> dict:
    """Run ``tasks`` and check that every capacity probe that refuses is
    the first for its (model, tenant, generation), and that every refusal
    answered without a probe repeats one of those.  Returns those answered
    refusals' ``(model, tenant, generation)``, split by whether the call
    may evict."""
    patience = controller.eviction_patience_s
    deploy, probe = controller.try_deploy, controller._any_plan_could_fit
    current = {}
    refusing = collections.Counter()
    remembered = {False: [], True: []}

    def spy_deploy(model_key, now=0.0, waited_s=0.0, allow_mixed=True,
                   tenant=""):
        seen = (model_key, tenant, controller.index.generation)
        current["tenant"] = tenant
        current["probed"] = False
        placed = deploy(model_key, now, waited_s, allow_mixed, tenant)
        if not current["probed"] and placed == "capacity":
            remembered[waited_s >= patience].append(seen)
        return placed

    def spy_probe(model_key):
        current["probed"] = True
        fits = probe(model_key)
        if not fits:
            refusing[(model_key, current["tenant"],
                      controller.index.generation)] += 1
        return fits

    controller.try_deploy = spy_deploy
    controller._any_plan_could_fit = spy_probe
    result = ClusterSimulator(scheduler, "memo").run(tasks)
    assert len(result.completed) + len(result.dropped) == len(tasks)
    assert refusing and max(refusing.values()) == 1
    for calls in remembered.values():
        assert set(calls) <= set(refusing)
    return remembered


def test_one_refusing_probe_per_generation_on_a_tenant_stream(shared_catalog):
    """A premium/best-effort overload."""
    cluster = scaled_cluster(8)
    system = build_system("proposed", cluster, shared_catalog)
    total = sum(len(board.blocks) for board in cluster.boards.values())
    tenancy = TenantScheduler(system, [
        TenantParameters(name="premium", priority=1, weight=2.0,
                         block_quota=int(total * 0.3), preemptible=False),
        TenantParameters(name="besteffort", priority=0,
                         block_quota=int(total * 0.8)),
    ])
    draws = [("gru-h512-t1", "premium"), ("lstm-h256-t150", "besteffort"),
             ("lstm-h512-t25", "besteffort"), ("lstm-h256-t150", "besteffort")]
    tasks = [
        Task(task_id=i, model_key=model, arrival_s=arrival_s,
                size_class="S", tenant=tenant)
        for i, (arrival_s, (model, tenant)) in enumerate(
            zip(poisson_arrivals(400, 12800.0, seed=5),
                itertools.cycle(draws))
        )
    ]
    assert _memo_answers(tenancy, system.controller, tasks)[False]


def test_one_refusing_probe_per_generation_on_an_evicting_backlog(
    shared_catalog,
):
    """A mixed-model backlog on eight boards, where most placements wait
    out the patience window: calls that may evict answer repeat refusals
    from the memo too."""
    system = build_system("proposed", scaled_cluster(8), shared_catalog)
    models = itertools.cycle(["gru-h512-t1", "gru-h1536-t375",
                              "lstm-h256-t150", "gru-h2304-t250",
                              "lstm-h1536-t50", "lstm-h512-t25"])
    tasks = [Task(task_id=i, model_key=model, arrival_s=arrival_s)
             for i, (arrival_s, model) in enumerate(
                 zip(poisson_arrivals(240, 24000.0, seed=11), models))]
    remembered = _memo_answers(system, system.controller, tasks)
    assert remembered[True] and remembered[False]
    assert system.controller.stats.deployments_evicted > 0


# -- one cached service time ------------------------------------------------------


def _hostable(plan, boards):
    """Every ordered assignment of distinct boards able to host the plan."""
    for members in itertools.permutations(boards, plan.replicas):
        assignment = []
        for board in members:
            image = plan.images.get(board.model.name)
            if image is None or not board.can_host(image.virtual_blocks):
                break
            assignment.append((board, image))
        else:
            yield assignment


class TestCachedServiceTime:
    """A deployment's ``service_s`` comes from the shared cache; it must
    equal the cycle model's uncached answer for its own boards."""

    def test_every_plan_at_every_hop_signature(self, shared_catalog):
        controller = _controller(shared_catalog, scaled_cluster(6))
        boards = list(controller.cluster.boards.values())
        signatures = set()
        for spec in all_models():
            for plan in shared_catalog.entry(spec).sorted_plans():
                for assignment in _hostable(plan, boards):
                    signatures.add(controller._hop_signature(assignment))
                    deployment, _ = controller._instantiate(
                        plan, assignment, now=0.0
                    )
                    fresh = controller._service_time(
                        plan, deployment.placements
                    )
                    assert deployment.service_s == fresh
                    assert controller.service_time(
                        plan, deployment.placements
                    ) == fresh
                    controller.discard(deployment)
        assert signatures == {0, 1, 2, 3}

    def test_after_cross_board_migration(self, shared_catalog):
        controller = _controller(
            shared_catalog, scaled_cluster(6), migration_enabled=True
        )
        boards = {board.fpga_id: board
                  for board in controller.cluster.boards.values()}
        # Ring order: vu37p-0, vu37p-1, vu37p-2, ku115-0, vu37p-3, vu37p-4.
        moves = [
            # A two-board pair from 1 hop apart to 2, and to 3.
            ("gru-h2560-t375", ["vu37p-0", "vu37p-1"], {1: "vu37p-2"}),
            ("gru-h2560-t375", ["vu37p-1", "vu37p-2"], {1: "vu37p-3"}),
            # One replica onto the other device type.
            ("lstm-h256-t150", ["vu37p-0"], {0: "ku115-0"}),
        ]
        for model_key, members, targets in moves:
            plan = next(
                plan
                for plan in shared_catalog.entry_by_key(model_key).sorted_plans()
                if plan.replicas == len(members)
            )
            assignment = [
                (boards[fpga_id], plan.images[boards[fpga_id].model.name])
                for fpga_id in members
            ]
            deployment, _ = controller._instantiate(plan, assignment, now=0.0)
            before = deployment.service_s
            engine = controller.migration
            move = engine.plan_move(
                deployment,
                {index: boards[fpga_id] for index, fpga_id in targets.items()},
            )
            engine.begin(move, now=1.0)
            engine.finish(move, now=1.0)
            fresh = controller._service_time(plan, deployment.placements)
            assert deployment.service_s == fresh
            assert deployment.service_s != before
            controller.discard(deployment)


# -- the fairness check -----------------------------------------------------------


MODELS = ["gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25", "gru-h1536-t375"]


def _reference_expansion_allowed(system, model_key):
    """The fairness check as a loop over the queue view (the old code)."""
    if not system.expansion_enabled:
        return False
    view = system._simulator.queue_view
    for other_key, depth in view.items():
        if other_key == model_key or depth <= 0:
            continue
        if system.controller.deployment_count(other_key) == 0:
            return False
    return view.get(model_key, 0) >= 2


_views = st.dictionaries(
    st.sampled_from(MODELS), st.integers(min_value=0, max_value=5)
)


class TestExpansionAllowed:
    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                _views,
                st.sets(st.sampled_from(MODELS)),
                st.sampled_from(MODELS),
            ),
            min_size=1,
            max_size=4,
        ),
        expansion_enabled=st.booleans(),
    )
    def test_matches_the_loop_over_the_view(
        self, shared_catalog, steps, expansion_enabled
    ):
        system = build_system("proposed", paper_cluster(), shared_catalog)
        system.expansion_enabled = expansion_enabled
        controller = system.controller
        for view, resident, model_key in steps:
            show_counts(system, view)
            # Residency alone decides "has copies"; stand-in deployments
            # keep the controller's per-model index as discard leaves it
            # (no key without a copy).
            controller._by_model = {key: [object()] for key in resident}
            # Twice per observation: the second check reuses the pending
            # set the first one derived.
            for _ in range(2):
                assert system._expansion_allowed(model_key) == (
                    _reference_expansion_allowed(system, model_key)
                )


# -- a small deep backlog, pinned ---------------------------------------------------


def test_small_deep_backlog_is_pinned(shared_catalog):
    """256 mix-7 tasks on 32 boards: ~250 refused placements and 21
    evictions.  The schedule, searches, creations and evictions match the
    raising implementation's; the refusals are fewer because a declined
    model stays parked while its decline's wake key is unchanged (they
    were 2 067 deploy calls, 2 030 failures, 2 028 fast rejects and 2 435
    attempts while every event retried every blocked model, 1 010, 973,
    971 and 1 290 while only arrivals woke one model, and 291, 254, 252
    and 570 under per-event wake sets with re-hints)."""
    system = build_system("proposed", scaled_cluster(32), shared_catalog)
    tasks = generate_workload(
        TABLE1_COMPOSITIONS[6], task_count=256, arrival_rate_per_s=1e5, seed=1
    )
    simulator = ClusterSimulator(system, "proposed")
    result = simulator.run(tasks)
    assert len(result.completed) == 256
    assert _schedule_digest(result) == (
        "7205c98b7a45656858e528129428aeff8907a8f577515d4836dd6ddfc78df619"
    )
    stats = system.controller.stats
    assert {
        "deploy_calls": stats.deploy_calls,
        "placement_failures": stats.placement_failures,
        "fast_rejects": stats.fast_rejects,
        "placement_searches": stats.placement_searches,
        "deployments_created": stats.deployments_created,
        "deployments_evicted": stats.deployments_evicted,
        "try_start_attempts": simulator.try_start_attempts,
    } == {
        "deploy_calls": 290,
        "placement_failures": 253,
        "fast_rejects": 251,
        "placement_searches": 66,
        "deployments_created": 37,
        "deployments_evicted": 21,
        "try_start_attempts": 569,
    }
