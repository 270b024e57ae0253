"""The headline API: workload running, profiling, cross-dataset prediction."""
from repro.core.experiment import (
    BestWorstPrediction,
    CrossDatasetExperiment,
    DatasetPrediction,
)
from repro.core.parallel import (
    ParallelExecutionError,
    RunFailure,
    RunRequest,
    dataset_requests,
    resolve_jobs,
)
from repro.core.runner import RunConfig, WorkloadRunner

__all__ = [
    "BestWorstPrediction",
    "CrossDatasetExperiment",
    "DatasetPrediction",
    "ParallelExecutionError",
    "RunConfig",
    "RunFailure",
    "RunRequest",
    "WorkloadRunner",
    "dataset_requests",
    "resolve_jobs",
]
