"""Double DQN agents: network, optimizer, replay, training step, weight I/O."""

from .dqn import (
    Batch,
    ReplayBuffer,
    TrainConfig,
    Transition,
    huber,
    select_action,
    sync_target,
    train_step,
)
from .mlp import (
    AdamState,
    ForwardCache,
    MlpParams,
    ParamGrads,
    adam_step,
    backward,
    forward,
    init_params,
)
from .weights_io import MAGIC, load_params, save_params
