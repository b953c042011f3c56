"""Flatness-seeking optimizers for continual learning, with diagnostics.

Public surface: flat-vector numerics (numcore), differentiable objectives
(objective), the optimizer family (optim), the class-incremental harness
(continual), loss-landscape diagnostics (landscape), scoreboard metrics
(metrics), and the experiment CLI (cli).
"""

from .numcore import ParamVector, SeededRng, Segment, axpy, norm2, stack
from .objective import (
    Batch,
    MlpOracle,
    MlpSpec,
    ObjectiveOracle,
    QuadraticOracle,
    make_logreg,
    make_quadratic,
)
from .optim import (
    DivergenceError,
    OptimConfig,
    ProxyState,
    SeedGroup,
    hybrid_step_plan,
    make_stepper,
    proxy_value,
    rho_schedule,
    sam_perturb,
    step_record,
    train_epochs,
)
from .continual import (
    CLConfig,
    Dataset,
    GpmState,
    GpmStepper,
    MemoryBuffer,
    SyntheticSpec,
    Task,
    TaskStream,
    buffer_update,
    grow_head,
    gpm_extract_basis,
    make_stream,
    run_cl_experiment,
    synth_dataset,
    wa_align,
)
from .landscape import (
    FlatnessReport,
    ball_sharpness,
    flatness_report,
    hutchinson_trace,
    lanczos_eigenpairs,
    landscape_slice_2d,
    power_iter_lambda_max,
    r0_bruteforce,
    r1_bruteforce,
)
from .metrics import (
    average_accuracy,
    bwt,
    cflat_proportion,
    fwt,
    last_accuracy,
    relative_return,
)

__version__ = "0.1.0"
