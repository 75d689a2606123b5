"""Tests for the bath catalogue: weights, marginals, exchange symmetry, g2."""

import dataclasses
import math

import pytest

from demonlab.fock import thermal_pmf
from demonlab.sources import (
    IN_A,
    IN_B,
    PAIR_KINDS,
    PARAMETERS,
    SourceKind,
    SourceSpec,
    bath_table,
    make_source,
)


def test_kind_partition():
    # the pair kinds are the ones parametrized by a pair strength
    assert PAIR_KINDS == {kind for kind in SourceKind if "s2" in PARAMETERS[kind]}
    assert PAIR_KINDS < set(SourceKind)


def test_source_spec_validation_per_kind():
    with pytest.raises(ValueError):
        SourceSpec(SourceKind.UNCORRELATED)  # nbar missing
    with pytest.raises(ValueError):
        SourceSpec(SourceKind.UNCORRELATED, nbar=0.05, s2=0.01)
    with pytest.raises(ValueError):
        SourceSpec(SourceKind.CORRELATED, s2=0.01, nbar=0.05)
    with pytest.raises(ValueError):
        SourceSpec(SourceKind.CORRELATED, s2=0.01, v2=0.9)
    with pytest.raises(ValueError):
        SourceSpec(SourceKind.ANTI_CORRELATED, s2=0.01)  # v2 missing


def test_source_spec_keeps_s2_as_given():
    assert SourceSpec.correlated(s2=0.01).s2 == 0.01
    assert SourceSpec.anti_correlated(s2=0.01, v2=0.87).s2 == 0.01
    for bad in (-0.01, math.nan, math.inf):
        with pytest.raises(ValueError, match="s2 must be finite"):
            SourceSpec.correlated(s2=bad)


def test_spec_holds_only_bath_parameters():
    # analysis choices (post-selection, say) belong to their readers, not the bath
    names = {field.name for field in dataclasses.fields(SourceSpec)}
    assert names == {"kind"}.union(*PARAMETERS.values())


def test_parameters_table_names_each_kinds_fields():
    assert set(PARAMETERS) == set(SourceKind)
    values = {"nbar": 0.05, "s2": 0.01, "v2": 0.87}
    for kind, names in PARAMETERS.items():
        spec = SourceSpec(kind, **{name: values[name] for name in names})
        assert all(getattr(spec, name) == values[name] for name in names)
        for name in set(values) - set(names):
            with pytest.raises(ValueError, match=f"{name} is not a parameter"):
                SourceSpec(kind, **{n: values[n] for n in (*names, name)})


def test_correlated_weights():
    w, lost = bath_table(SourceSpec.correlated(s2=0.01), 2)
    assert lost == 0.0
    assert abs(w[0, 0] - 1.0 / 1.01) < 1e-15
    assert abs(w[1, 1] - 0.01 / 1.01) < 1e-15
    assert abs(math.fsum(w.ravel().tolist()) - 1.0) < 1e-15


def test_anti_correlated_weights():
    w, _ = bath_table(SourceSpec.anti_correlated(s2=0.01, v2=0.87), 2)
    norm = math.fsum(w.ravel().tolist())
    assert abs(norm - 1.0) < 1e-15
    assert abs(w[2, 0] - w[0, 2]) < 1e-18
    # bunched to unbunched weight ratio is v2 / (1 - v2)
    ratio = (w[2, 0] + w[0, 2]) / w[1, 1]
    assert abs(ratio - 0.87 / 0.13) < 1e-10


def test_anti_correlated_perfect_visibility_has_no_coincidence_pair():
    w, _ = bath_table(SourceSpec.anti_correlated(s2=0.01, v2=1.0), 2)
    assert set(zip(*w.nonzero())) == {(0, 0), (2, 0), (0, 2)}
    assert w[2, 0] == w[0, 2] == 0.005 / 1.01


def test_make_source_uncorrelated_is_product_of_thermals():
    dist = make_source(SourceSpec.uncorrelated(0.05), cutoff=4)
    assert dist.mode_labels == (IN_A, IN_B)
    for na in range(4):
        for nb in range(4 - na):
            want = thermal_pmf(0.05, na) * thermal_pmf(0.05, nb)
            assert abs(dist.probability((na, nb)) - want) < 1e-15


def test_make_source_split_marginal_matches_thermal():
    """Balanced splitting of a 2*nbar thermal mode leaves thermal arms at nbar."""
    dist = make_source(SourceSpec.split_thermal(0.05), cutoff=40)
    for n in range(9):
        marg = math.fsum(p for occ, p in dist.entries.items() if occ[0] == n)
        assert abs(marg - thermal_pmf(0.05, n)) < 1e-12


@pytest.mark.parametrize("spec", [SourceSpec.uncorrelated(10.0), SourceSpec.split_thermal(6.0)],
                         ids=lambda spec: spec.kind.value)
def test_make_source_keeps_its_mass_on_bright_baths(spec):
    # nbar**n / (1+nbar)**(n+1) overflowed here, at the largest information cutoff
    dist = make_source(spec, cutoff=384)
    assert abs(math.fsum(dist.entries.values()) + dist.lost_mass - 1.0) <= 1e-12


def test_split_and_pair_sources_are_exchange_symmetric():
    specs = [
        SourceSpec.split_thermal(0.05),
        SourceSpec.correlated(s2=0.01),
        SourceSpec.anti_correlated(s2=0.01, v2=0.87),
        SourceSpec.uncorrelated(0.05),
    ]
    for spec in specs:
        dist = make_source(spec, cutoff=6)
        for (na, nb), p in dist.entries.items():
            assert abs(dist.probability((nb, na)) - p) < 1e-15, spec.kind


def test_make_source_pair_needs_room_for_two_photons():
    with pytest.raises(ValueError):
        make_source(SourceSpec.anti_correlated(s2=0.01, v2=0.5), cutoff=1)


def test_correlated_marginal_is_sub_thermal_truncation():
    # the pair bath keeps only the first rung, so the marginal has support {0, 1}
    dist = make_source(SourceSpec.correlated(s2=0.01), cutoff=6)
    occupancies = {occ for occ in dist.entries}
    assert occupancies == {(0, 0), (1, 1)}


def _marginal_g2_zero(spec: SourceSpec, cutoff: int) -> float:
    """``<n (n-1)> / <n>**2`` of the ``In_A`` marginal of ``make_source``."""
    entries = make_source(spec, cutoff).entries
    mean = math.fsum(occ[0] * p for occ, p in entries.items())
    return math.fsum(occ[0] * (occ[0] - 1) * p for occ, p in entries.items()) / mean ** 2


def test_marginal_g2_zero_thermal_kinds_bunch():
    assert abs(_marginal_g2_zero(SourceSpec.uncorrelated(0.05), cutoff=20) - 2.0) < 1e-6
    assert abs(_marginal_g2_zero(SourceSpec.split_thermal(0.05), cutoff=25) - 2.0) < 1e-6


def test_marginal_g2_zero_pair_truncation():
    # a correlated bath marginal never holds two photons, so g2 vanishes
    assert _marginal_g2_zero(SourceSpec.correlated(s2=0.01), cutoff=20) == 0.0


def test_source_mass_accounting():
    for spec in (SourceSpec.uncorrelated(0.05), SourceSpec.split_thermal(0.05)):
        dist = make_source(spec, cutoff=4)
        assert dist.lost_mass > 0.0
        assert abs(dist.total_mass - 1.0) < 1e-12
    exact = make_source(SourceSpec.correlated(s2=0.01), cutoff=4)
    assert exact.lost_mass == 0.0
