"""satcdn: content-replica placement for moving satellite networks.

Builds time-dependent constellation graphs, evaluates query/replication/storage
costs for replica schedules, and optimizes placements with multi-time DP local
searches plus a set of baselines.
"""

from .constellation import (Constellation, GroundNode, LatencySampler, Network, ShellSpec,
                            SnapshotGraph, build_shell, elevation_angle, o3b,
                            orbital_period_s, starlink_phase1, viasat)
from .costmodel import (CostBreakdown, CostParams, DistanceOracle, ReplicaSchedule,
                        build_distance_oracle, compute_c_qmin, query_cost,
                        replication_cost, storage_cost, total_cost)
from .delivery import (DeliveryReport, LinkModel, QoEModel, Router, RoutingPolicy,
                       simulate_delivery)
from .demand import (ContentCatalog, DemandMatrix, load_trace, predict_demand, save_trace,
                     synth_grid_demand, synth_population_demand)
from .placement import SOLVERS, OptimizerConfig, PlacementResult, solve_mtls, solve_mtols
from .scenario import Scenario, load_config, run_scenario

__version__ = "0.1.0"
