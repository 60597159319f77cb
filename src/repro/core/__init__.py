"""StreamTune core: the paper's primary contribution.

* :mod:`repro.core.labeling` — Algorithm 1 bottleneck identification,
* :mod:`repro.core.history` — execution-history records and generation,
* :mod:`repro.core.pretrain` — GED clustering + per-cluster GNN encoders,
* :mod:`repro.core.finetune` — warm-up datasets for the prediction layer,
* :mod:`repro.core.tuner` — Algorithm 2 online parallelism tuning.
"""

from repro.core.labeling import (
    CPU_THRESHOLD,
    label_operators,
    label_operators_flink,
    label_operators_timely,
)
from repro.core.history import ExecutionRecord, HistoryGenerator
from repro.core.pretrain import PretrainedStreamTune, pretrain
from repro.core.finetune import PredictionDataset, build_warmup_dataset
from repro.core.tuner import StreamTuneTuner
from repro.core.persistence import (
    load_history,
    load_pretrained,
    save_history,
    save_pretrained,
)

__all__ = [
    "CPU_THRESHOLD",
    "ExecutionRecord",
    "HistoryGenerator",
    "PredictionDataset",
    "PretrainedStreamTune",
    "StreamTuneTuner",
    "build_warmup_dataset",
    "label_operators",
    "label_operators_flink",
    "label_operators_timely",
    "load_history",
    "load_pretrained",
    "pretrain",
    "save_history",
    "save_pretrained",
]
