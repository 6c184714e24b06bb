"""FOAM core: the coupled model driver, configuration, and history I/O."""

from repro.core.config import FoamConfig, paper_config, small_config, test_config
from repro.core.ensemble import (EnsembleConfig, FoamEnsemble, member_state,
                                 stack_members)
from repro.core.foam import FoamModel, FoamState
from repro.core.history import (
    HistoryWriter,
    load_checkpoint,
    load_history,
    save_restart,
)

__all__ = [
    "FoamConfig", "paper_config", "small_config", "test_config",
    "FoamModel", "FoamState",
    "EnsembleConfig", "FoamEnsemble", "stack_members", "member_state",
    "HistoryWriter", "load_history", "save_restart",
    "load_checkpoint",
]
