"""Constrained stochastic linearized Bregman imaging with a weak deep prior.

Matrix-free operators, convex projections, a hand-differentiated generator
network, Langevin latent sampling, an expectation-maximization training
loop, and posterior statistics, plus a CLI wiring it all to a synthetic
desk-scale testbed.
"""

from .bregman import BregmanState, TraceRecord, bregman_step, run_bregman
from .em import TrainConfig, TrainTuple, e_step, init_tuples, m_step, train
from .errors import (CheckpointFormatError, ConfigError, GridFormatError,
                     NumericalAbortError)
from .linops import (ComposeOp, ConvKernel, ConvOp, LinearOp, RestrictionMask,
                     RestrictOp, dot_test)
from .net import NetArch, StageSpec, net_eval_and_backward, net_forward, net_init
from .projections import (Box, ConstraintStack, L1Ball, L2Ball, TVBall,
                          is_feasible, project_intersection)
from .sgld import SgldParams, sgld_run, sgld_step
from .stats import (SampleSet, draw_latents, model_quality, read_portable_grid,
                    summarize, write_portable_grid)
from .testbed import (ExperimentBank, LinearExperiment, NoiseSpec, add_noise_to_snr,
                      make_bank, make_ground_truth, snr_db)

__version__ = "0.1.0"
