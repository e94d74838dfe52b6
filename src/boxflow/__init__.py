"""Set-oriented analysis of flows: box grids, transition graphs, Morse
decompositions, index pairs, and Lyapunov functions built from them."""

from .errors import (BoxflowError, CapacityError, CatalogError, ConfigError,
                     ConstructionError, DomainError, FiltrationError,
                     IngestionError, IsolationError, NumericalError,
                     PreconditionError, RegionOverlapError, SelectionError)
from .flows import (Escape, FlowSystem, Trajectory, builtin_names,
                    builtin_system, flow_map, load_system, polynomial_field,
                    sample_trajectory)
from .grid import BoxGrid, BoxSet, build_grid
from .distances import BoxSetDistance, boxset_min_distance
from .transition import (EXIT, TransitionGraph, box_image,
                         build_transition_graph, invariant_part)
from .recurrence import (ARPair, IntersectionReport, MorseGraph,
                         ar_regions_in_pair, chain_recurrent_boxes,
                         check_R_equals_intersection, enumerate_ar_pairs,
                         epsilon_chain_oracle, morse_graph)
from .pairs import (BASEPOINT, IndexPair, PairValidation, RegularityReport,
                    RetractionReport, build_index_pair, exit_time,
                    quotient_flow, regularity_check, retraction_check,
                    stopped_flow, validate_index_pair)
from .lyapunov import (Filtration, LyapunovField, LyapunovParams,
                       complete_lyapunov, discounted_average,
                       extract_filtration, make_rho, morse_lyapunov,
                       pair_lyapunov, renewal_residual, rho, sup_envelope,
                       uniform_entry_time)
from .verify import CheckResult, VerifyReport, run_suite
from .cli import RunConfig, main

__all__ = [
    "ARPair", "BASEPOINT", "BoxGrid", "BoxSet", "BoxSetDistance",
    "BoxflowError", "CapacityError", "CatalogError", "CheckResult",
    "ConfigError", "ConstructionError", "DomainError", "EXIT", "Escape",
    "Filtration", "FiltrationError", "FlowSystem", "IndexPair",
    "IngestionError", "IntersectionReport", "IsolationError", "LyapunovField",
    "LyapunovParams", "MorseGraph", "NumericalError", "PairValidation",
    "PreconditionError", "RegionOverlapError", "RegularityReport",
    "RetractionReport", "RunConfig", "SelectionError", "Trajectory",
    "TransitionGraph", "VerifyReport", "ar_regions_in_pair",
    "box_image", "boxset_min_distance", "build_grid", "build_index_pair",
    "build_transition_graph", "builtin_names", "builtin_system",
    "chain_recurrent_boxes", "check_R_equals_intersection",
    "complete_lyapunov", "discounted_average", "enumerate_ar_pairs",
    "epsilon_chain_oracle", "exit_time", "extract_filtration", "flow_map",
    "invariant_part", "load_system", "main", "make_rho", "morse_graph",
    "morse_lyapunov", "pair_lyapunov", "polynomial_field", "quotient_flow",
    "regularity_check", "renewal_residual", "retraction_check", "rho",
    "run_suite", "sample_trajectory", "stopped_flow", "sup_envelope",
    "uniform_entry_time", "validate_index_pair",
]
