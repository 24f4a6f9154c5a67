"""Multi-task soft actor-critic whose policy is conditioned on unit-norm
task embeddings, plus the machinery to reuse those embeddings as a
high-level action interface: interpolation, composition, gradient-free
adaptation, and geometric analyses, all on built-in toy environments."""

__version__ = "0.1.0"

from .cem import CemConfig, CemTrace, adaptation_curve, cem_adapt, cem_optimize
from .embedding import (
    TaskEncoder,
    inject_noise,
    interpolate,
    normalize,
    sphere_grid,
)
from .envs import (
    DEFAULT_CONSTANTS,
    DIR2D,
    RUNJUMP,
    VEL1D,
    EnvConstants,
    TaskSpec,
    make_task_set,
)
from .errors import (
    CheckpointError,
    ConfigurationError,
    DegenerateEmbedding,
    InternalError,
    LatentMotorError,
    NonFiniteGradient,
    TrainingDiverged,
)
from .sac import (
    EvalReport,
    LossReport,
    SacModel,
    TrainConfig,
    evaluate_embeddings,
    evaluate_policy,
    q_target,
    sac_update,
    train,
)
