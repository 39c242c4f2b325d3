"""Work signalling is scoped to the image that owns the queue.

Each cluster node runs its own scheduler and task pool (paper Section
III.D), so a task becoming ready on one node must not resume the parked SMP
workers / GPU managers of another — they would poll queues that did not
change and go back to sleep.  ``Runtime.notify_work()`` stays the broadcast
for the rare events that can change what any place may run.
"""

from collections import Counter

import pytest

from repro.apps import matmul
from repro.bench.harness import CLUSTER_BEST, fresh_cluster
from repro.faults import FaultEvent, FaultPlan
from repro.hardware import build_gpu_cluster
from repro.runtime import Runtime, RuntimeConfig, Task
from repro.runtime.scheduler import Scheduler
from repro.sim import Environment
from tests.faults.helpers import assert_same_outputs, baseline, run_scenario


@pytest.fixture
def polls(monkeypatch):
    """Count ``next_task`` polls per place (``(kind, node_index)``)."""
    counts: Counter = Counter()
    inner = Scheduler.next_task

    def counting(self, worker):
        counts[(worker.kind, worker.node_index)] += 1
        return inner(self, worker)

    monkeypatch.setattr(Scheduler, "next_task", counting)
    return counts


def parked_cluster(num_nodes=3):
    """A started cluster runtime with every place asleep on its image."""
    env = Environment()
    rt = Runtime(build_gpu_cluster(env, num_nodes=num_nodes),
                 RuntimeConfig(functional=False, scheduler="affinity",
                               kernel_jitter=0, task_overhead=0))
    rt.start()
    env.run(until=1e-9)
    return rt


def test_gpu_manager_polls_stay_proportional_to_tasks(polls):
    """A manager needs one poll at task start and one prefetch probe.
    While every submission anywhere woke every manager everywhere this
    miniature polled 2.45x per GPU task (12.3x on the 8-node ledger
    workload); image-scoped wake-ups bring it to 1.66x."""
    res = matmul.run_ompss(
        fresh_cluster(4), matmul.MatmulSize(n=1024, bs=128),
        config=RuntimeConfig(**CLUSTER_BEST, presend=4), init="smp")
    gpu_tasks = sum(v for k, v in res.metrics.items()
                    if k.startswith("gpu.gpu:") and k.endswith(".tasks"))
    gpu_polls = sum(n for (kind, _node), n in polls.items() if kind == "gpu")
    assert gpu_tasks == 8 ** 3
    assert gpu_polls <= 2 * gpu_tasks


def test_submit_on_one_image_resumes_no_place_of_another(polls):
    rt = parked_cluster()
    polls.clear()
    parked = [dict(image._work_events) for image in rt.images]
    rt.images[1].submit_local(Task(name="local", device="smp", smp_cost=1.0))
    rt.env.run(until=rt.env.now + 1e-6)
    assert polls[("smp", 1)] > 0
    assert {node for (_kind, node) in polls} == {1}
    for image in (rt.images[0], rt.images[2]):
        # Same event objects, still pending: nobody there was resumed —
        # including the master's communication thread.
        assert image._work_events == parked[image.node.index]
        assert not any(ev.triggered for ev in image._work_events.values())


def test_bare_notify_work_reaches_every_image(polls):
    rt = parked_cluster()
    polls.clear()
    rt.notify_work()
    rt.env.run(until=rt.env.now + 1e-6)
    for image in rt.images:
        node = image.node.index
        assert polls[("smp", node)] == len(image.smp_workers)
        assert polls[("gpu", node)] == len(image.gpu_managers)
    # The communication thread polls each proxy once.
    assert sum(n for (kind, _node), n in polls.items()
               if kind == "node") == len(rt.master_image.proxies)


def test_remote_gpu_loss_recovers_through_the_broadcast():
    """The fault engine's blacklist/requeue ends in the bare broadcast; a
    GPU lost on a *remote* node must still complete bit-identically."""
    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", at=1e-3, node=1, gpu=0),
    ), seed=0, paranoid=True)
    res = run_scenario("matmul-cluster", plan)
    assert_same_outputs(baseline("matmul-cluster"), res)
    assert res.metrics["faults.gpu_lost"] == 1
