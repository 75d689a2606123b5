"""The names the frozen benchmark in ``perfbench/`` reaches into the package by.

``perfbench/`` is not edited alongside the package, so a rename or a
signature change there breaks the benchmark silently unless it is caught
here.  ``perfbench/tracing.py`` and ``perfbench/workloads.py`` are loaded
by path: they are not a package.  Both workloads also run a few tiny rounds
here and must pass their own verification.
"""

import importlib
import importlib.util
import inspect
import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from demonlab import harness, montecarlo
from demonlab.harness import _parse_source
from demonlab.information import mutual_information
from demonlab.protocol import ALL_BAR, TABLE_THERMAL
from demonlab.sources import SourceSpec, make_source

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(f"demonlab.{module}"), name)


@pytest.mark.parametrize("module, name", _tracing().TARGETS)
def test_every_traced_target_resolves(module, name):
    assert callable(_resolve(module, name))


@pytest.mark.parametrize("module, name", [
    ("protocol", "propagate"), ("protocol", "detector_probs"),
    ("protocol", "ALL_CROSS"), ("protocol", "canonical_policy"),
    ("oracle", "enumerate_outcomes"), ("oracle", "compare"),
    ("information", "mutual_information"), ("harness", "measure_power"),
    ("fock", "LowPhotonRegimeWarning"), ("fock", "loss_channel"),
    ("fock", "beamsplitter_split"),
])
def test_names_the_benchmark_uses_resolve(module, name):
    _resolve(module, name)


_WEAK = SourceSpec.uncorrelated(0.05)
_R_HALF = math.sqrt(0.5)

#: One tiny call of each function a result probe of the tracer reads.
_PROBE_CALLS = {
    "montecarlo.run": ((montecarlo.RunConfig(spec=_WEAK, r=_R_HALF, eps2=1.0,
                                             slots=10_000, seed=1),), {}),
    "montecarlo.measure_power": ((_WEAK, _R_HALF, 1.0, 10_000, 1, "singles"), {}),
    "montecarlo.estimate_g2": ((SourceSpec.uncorrelated(0.5), montecarlo.MIN_G2_SLOTS, 1,
                                (0, 1)), {}),
    "protocol.propagate": ((make_source(_WEAK, 2), _R_HALF, 1.0, ALL_BAR), {}),
    "information.mutual_information": ((_WEAK, _R_HALF, 1.0), {"cutoff": 4}),
    "oracle.enumerate_outcomes": ((_WEAK, _R_HALF, 1.0, TABLE_THERMAL), {"cutoff": 2}),
}


@pytest.mark.parametrize("name", sorted(_tracing().PROBES))
def test_result_probes_read_real_results(name):
    # each probe reads fields off the arguments or the result, such as
    # InfoResult.joint, DemonOutcome.dist or OracleReport.paths
    fn = _resolve(*name.split("."))
    args, kwargs = _PROBE_CALLS[name]
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    counts = _tracing().PROBES[name](bound.arguments, fn(*args, **kwargs))
    assert counts and isinstance(counts, dict)


def test_keyword_arguments_the_benchmark_passes():
    assert "cutoff" in inspect.signature(mutual_information).parameters
    assert {"model", "tau_c"} <= set(inspect.signature(montecarlo.estimate_g2).parameters)
    config = montecarlo.RunConfig(spec=SourceSpec.uncorrelated(0.05), r=math.sqrt(0.5),
                                  eps2=1.0, slots=10, seed=1, arm_efficiency=(1.0, 0.9))
    assert config.arm_efficiency == (1.0, 0.9)


def test_run_config_fields_the_benchmark_replaces():
    # workloads.py replaces mode and dead_window_slots; tracing._run_kind reads both
    config = montecarlo.RunConfig(spec=SourceSpec.uncorrelated(0.05), r=math.sqrt(0.5),
                                  eps2=1.0, slots=10, seed=1)
    for mode in montecarlo.RunMode:
        assert replace(config, mode=mode).mode.value == mode.value
    assert _tracing()._run_kind(replace(config, dead_window_slots=5)) == "dead_window"


@pytest.mark.parametrize("spec, kind, fields", [
    (SourceSpec.uncorrelated(0.05), "uncorrelated", {"nbar": 0.05}),
    (SourceSpec.split_thermal(0.05), "split_thermal", {"nbar": 0.05}),
    (SourceSpec.correlated(s2=0.01), "correlated", {"s2": 0.01}),
    (SourceSpec.anti_correlated(s2=0.01, v2=0.87), "anti_correlated",
     {"s2": 0.01, "v2": 0.87}),
])
def test_source_constructors_the_benchmark_calls(spec, kind, fields):
    # workloads._spec builds every bath by one of these four calls
    assert spec == SourceSpec(kind, **fields)


@pytest.mark.parametrize("spec", [
    SourceSpec.uncorrelated(0.05), SourceSpec.split_thermal(0.05),
    SourceSpec.correlated(s2=0.01), SourceSpec.anti_correlated(s2=0.01, v2=0.87),
], ids=lambda spec: spec.kind.value)
def test_occupied_fraction_reads_the_engines_vacuum(spec):
    # run.py's occupied_frac takes P(vacuum) from make_source at cutoff 2
    read = make_source(spec, 2).entries.get((0, 0), 0.0)
    assert read == montecarlo._occupied_sampler(spec)[0]


def test_run_sweep_calls_the_harness_global_measure_power():
    # the benchmark times each cell by rebinding this module global
    assert harness.measure_power is montecarlo.measure_power
    assert "measure_power" in harness.run_sweep.__code__.co_names


@pytest.mark.parametrize("entry, spec", [
    ({"kind": "correlated", "s2": 0.01}, SourceSpec.correlated(s2=0.01)),
    ({"kind": "anti_correlated", "s2": 0.01, "v2": 0.87},
     SourceSpec.anti_correlated(s2=0.01, v2=0.87)),
])
def test_parsed_sources_match_built_specs(entry, spec):
    # the tracer picks out fig4a's runs by (spec, eps2) set membership
    parsed = _parse_source(entry, "source").spec
    assert parsed == spec
    assert hash(parsed) == hash(spec)


@pytest.mark.parametrize("workload", ["sweep-mc", "acquisition"])
def test_workload_gates_pass_on_tiny_rounds(workload, tmp_path):
    # the program namespace the benchmark hands each workload
    names = ("analytics", "cli", "fock", "harness", "information", "montecarlo",
             "oracle", "protocol", "sources")
    program = SimpleNamespace(**{n: importlib.import_module(f"demonlab.{n}") for n in names})
    workloads = _workloads()
    instance = workloads.WORKLOADS[workload](program, 5, workloads.SIZES["tiny"], tmp_path)
    ops = workloads.OpLog()
    for i in range(3):
        instance.collect(i, instance.run_round(i, ops))
    verdicts = instance.verify()
    assert verdicts.attempted > 0
    assert verdicts.failed == 0, verdicts.messages
