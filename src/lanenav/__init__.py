"""Dynamic lane-crossing navigation with forward models and MCTS planning."""

from .harness import BenchCell, BenchTable, EpisodeRecord, run_benchmark, run_episode
from .mcts import MCTSConfig, plan_action
from .models import (
    ErrorMap,
    History,
    PredictedFrame,
    build_model,
    oracle_predict,
    prediction_error,
    velocity_predict,
)
from .world import (
    Outcome,
    Timeline,
    WorldConfig,
    WorldState,
    action_to_velocity,
    clone_state,
    new_episode,
    render_frame,
    world_step,
)

__version__ = "0.1.0"
