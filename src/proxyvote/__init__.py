"""Vector-field keypoint voting for 6DoF pose estimation.

Core pieces: 2D line geometry and pinhole projection, smooth-L1 field
losses including the proxy-voting term with analytic gradients, RANSAC
keypoint voting, EPnP pose solving, ADD/ADD-S metrics and a synthetic
scene + training harness for desk-scale experiments.
"""

from .geometry import Intrinsics, Pose, pixel_centers, point_line_distance, project
from .losses import LossReport, dpvl, smooth_l1, vf_loss
from .metrics import EvalRecord, add_s_score, add_score, evaluate, judge, proj2d_error
from .model_tools import ModelCloud, farthest_point_sampling, load_model, model_diameter
from .pnp import reprojection_rmse, solve_epnp, umeyama
from .synth import (NoiseSpec, PoseRanges, SceneSample, corrupt, load_scene,
                    make_scene, sample_pose, save_scene)
from .trainer import TrainConfig, TrainTrace, fit_field, random_init_field, run_experiment
from .voting import VotingConfig, vote_keypoint

__version__ = "0.1.0"
