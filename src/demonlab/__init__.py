"""Feed-forward photon sorting on correlated photon baths.

Two input arms carry a diagonal photon-number mixture.  Weak taps route a
known fraction of each arm to monitor detectors, a click-driven switch
decides whether the arms pass straight through or swap, and the resulting
click imbalance at the output detectors is the figure of merit.  The
package provides exact transfer calculations on truncated number states,
closed-form low-brightness power laws, a slot-based event simulator, an
independent path-enumeration oracle, and a mutual-information account of
what the monitor record reveals.
"""
from .analytics import Normalization, closed_form_power, peak_enhancement_ratio
from .fock import JointOccupationDistribution, beamsplitter_split, loss_channel, single_mode_thermal, thermal_pmf
from .information import mutual_information
from .montecarlo import RunConfig, RunMode, RunResult, calibrate_balance, estimate_g2, measure_power, run
from .oracle import enumerate_outcomes
from .protocol import ClickPattern, Policy, SwitchState, TABLE_PAIR, TABLE_THERMAL, arm_kernel, canonical_policy, expected_power, propagate
from .sources import SourceKind, SourceSpec, make_source

__version__ = "0.1.0"

__all__ = [
    "ClickPattern",
    "JointOccupationDistribution",
    "Normalization",
    "Policy",
    "RunConfig",
    "RunMode",
    "RunResult",
    "SourceKind",
    "SourceSpec",
    "SwitchState",
    "TABLE_PAIR",
    "TABLE_THERMAL",
    "__version__",
    "arm_kernel",
    "beamsplitter_split",
    "calibrate_balance",
    "canonical_policy",
    "closed_form_power",
    "enumerate_outcomes",
    "estimate_g2",
    "expected_power",
    "loss_channel",
    "make_source",
    "measure_power",
    "mutual_information",
    "peak_enhancement_ratio",
    "propagate",
    "run",
    "single_mode_thermal",
    "thermal_pmf",
]
