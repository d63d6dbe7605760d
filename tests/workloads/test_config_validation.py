"""JobConfig construction validation: bad shapes fail loudly at build."""

import math

import pytest

from repro.workloads import JobConfig


def test_defaults_are_valid():
    JobConfig()


@pytest.mark.parametrize("n_nodes", [0, -2, 1, 3, 127])
def test_rejects_odd_or_empty_node_counts(n_nodes):
    with pytest.raises(ValueError, match="even"):
        JobConfig(n_nodes=n_nodes)


def test_rejects_nonpositive_sync_interval():
    with pytest.raises(ValueError, match="j must be >= 1"):
        JobConfig(j=0)
    with pytest.raises(ValueError, match="j must be >= 1"):
        JobConfig(j=-5)


def test_rejects_steps_shorter_than_one_interval():
    with pytest.raises(ValueError, match="synchronization interval"):
        JobConfig(j=40, n_verlet_steps=39)
    JobConfig(j=40, n_verlet_steps=40)  # one full interval is fine


def test_rejects_empty_analyses():
    with pytest.raises(ValueError, match="at least one analysis"):
        JobConfig(analyses=())


@pytest.mark.parametrize(
    "budget", [float("nan"), float("inf"), -float("inf")]
)
def test_rejects_non_finite_budget(budget):
    with pytest.raises(ValueError, match="finite"):
        JobConfig(budget_per_node_w=budget)


def test_rejects_budget_below_rapl_floor():
    with pytest.raises(ValueError, match="RAPL floor"):
        JobConfig(budget_per_node_w=50.0)


def test_budget_floor_message_names_machine_and_floor():
    with pytest.raises(ValueError, match="theta") as exc:
        JobConfig(budget_per_node_w=50.0)
    assert "98" in str(exc.value)


def test_budget_at_the_floor_is_allowed():
    # fig8 sweeps down to exactly the 98 W Theta floor
    cfg = JobConfig(budget_per_node_w=98.0)
    assert math.isclose(cfg.budget_per_node_w, 98.0)


@pytest.mark.parametrize("interval", [0, -2, 2.0, True, None])
def test_rejects_analysis_interval_that_is_not_a_positive_int(interval):
    with pytest.raises(ValueError, match=r"analysis_intervals\['full_msd'\]"):
        JobConfig(analysis_intervals={"full_msd": interval})


def test_rejects_analysis_interval_for_an_analysis_the_job_does_not_run():
    with pytest.raises(ValueError, match="ful_msd.*not one of the job's analyses"):
        JobConfig(analysis_intervals={"ful_msd": 4})
    with pytest.raises(ValueError, match="vacf"):
        JobConfig(analyses=("full_msd",), analysis_intervals={"vacf": 2})


def test_analysis_intervals_for_the_job_analyses_are_allowed():
    JobConfig(
        analyses=("rdf", "full_msd"),
        analysis_intervals={"full_msd": 5, "rdf": 1},
    )
