"""Compact piecewise-linear power flow surrogates for unit commitment.

Pipeline: parse a MATPOWER case and UC instance -> build network matrices
and analytic Jacobians -> sample feasible power-flow solutions (SLP
AC-OPF) -> train a compact ReLU surrogate around the physics Jacobian ->
encode it exactly as a big-M MILP with tightened bounds -> build and
solve NN AC-UC / L AC-UC / DC-UC -> audit schedules with the MTP AC-OPF
feasibility oracle.
"""

from .errors import (CompactPFError, ParseError, ValidationError,
                     ConvergenceError)
from .case_ingest import (parse_matpower, validate_case,
                          derate_thermal_limits, write_matpower,
                          load_uc_instance, RawCase, UCInstance, UCGen,
                          Condenser)
from .grid_model import (Network, OperatingPoint, build_network,
                         eval_power_flow, eval_at_input, pack_input,
                         pack_output, unpack_input)
from .jacobian import (LinearPFModel, injection_jacobian,
                       line_flow_jacobian, apparent_flow_jacobian,
                       full_jacobian, linearize,
                       finite_difference_jacobian)
from .ac_solver import (DispatchSpec, FeasibilityReport, InfeasibleError,
                        slp_acopf, mtp_acopf_check, make_dispatch_spec,
                        check_schedule_logic)
from .data_factory import (PFDataset, LoadScheme, SamplerConfig,
                           collect_dataset, apply_load_scheme,
                           dump_dataset, load_dataset)
from .pwl_learner import (CompactPWLModel, DirectNNModel, TrainConfig,
                          train_compact, train_direct, sparsify_retrain,
                          evaluate_model, enumerate_activation_patterns,
                          model_to_json, model_from_json)
from .milp_model import MILPModel, LE, EQ, GE, CONTINUOUS, BINARY
from .milp_encode import (BigMBounds, BoundBox, bound_box_from_network,
                          interval_bounds, tighten_bounds, prune,
                          hourly_bounds, encode_relu_network,
                          encode_linear_model, standalone_fragment)
from .milp_solve import (solve_lp, solve_milp, enumerate_binaries,
                         export_mps, parse_mps, import_solution)
from .uc_builder import (UCSchedule, build_core_uc, build_nn_ac_uc,
                         build_l_ac_uc, build_dc_uc, extract_schedule,
                         schedule_to_json, schedule_from_json)
from .harness import (ExperimentConfig, ExperimentReport, run_experiment,
                      emit_reports, prepare_models)

__version__ = "0.1.0"
