"""2D-to-3D human pose lifting with hybrid graph attention and a
frequency-domain trajectory-consistency loss, on a small numpy autodiff
core."""

from .errors import (ConfigError, DataError, DivergenceError, FormatError,
                     GraphStructureError, PoseLiftError, ProjectionError,
                     ShapeError, ShapeOverflowError, TruncatedFileError)
from .skeleton import (HybridAdjacency, SkeletonGraph, build_hybrid_adjacency,
                       human36m_skeleton, khop_adjacency, load_skeleton, save_skeleton,
                       shortest_path_hops, symmetric_matrix)
from .numerics import (Parameter, Tensor, batch_norm,
                       dropout, gelu, grad_check, l2norm_last, layer_norm,
                       linear, load_checkpoint, no_grad, precision,
                       save_checkpoint, scaled_dot_attention, softmax_rows)
from .frequency import (FreqLossConfig, dct_forward, dct_inverse, dct_matrix,
                        freq_loss, freq_loss_spatial_axis, trajectory_spectrum)
from .losses import (LossBreakdown, LossWeights, mpjve_loss, tc_loss, total_loss,
                     wmpjpe)
from .metrics import (EvalReport, evaluate_sequences, mpjpe, mpjve, p_mpjpe,
                      pck_auc, root_relative)
from .data import (Camera, JointWave, MotionSpec, NoiseConfig, PoseSequence,
                   export_csv, generate_motion, inject_noise, project_2d,
                   random_motion_spec, read_sequence, write_sequence)
from .hga import (HgaParams, aggregate_hybrid, fuse_update, hga_forward,
                  hybrid_cross_attention, npsc, project_ab)
from .network import (EncoderParams, ModelConfig, PoseLifter, embed_input,
                      encoder_forward, regression_head,
                      spatial_block_forward, temporal_block_forward,
                      two_stage_forward)
from .training import (AdamW, TrainConfig, TrainResult, adamw_step,
                       clip_gradients, evaluate, lr_schedule, train)

__version__ = "0.1.0"
