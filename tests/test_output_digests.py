"""Pinned SHA-256 digests of the preset reports, of ``info`` on the weak baths,
of ``g2`` on both stream models, and of the event engine's random stream.

A change meant to keep every output byte must leave these digests alone; a
change that moves an output on purpose updates the digest and says why.  A
change to the tallies a seed yields must also bump ``STREAM_VERSION``.
"""

import hashlib
import json
import math

import pytest

from demonlab.cli import main
from demonlab.montecarlo import STREAM_VERSION, RunConfig, run
from demonlab.sources import SourceSpec

PRESET_DIGESTS = {
    ("fig4a", "csv"): "71398c8885331a01d97eb9b8bf52d317154a275d5bfbfddaf472e4e3645de56a",
    ("fig4a", "json"): "b0621e850f58ac8bf23317880ca80f18c2e1a8b6b493828de8be9998060e4a72",
    ("fig4a", "svg"): "18f1479983517883fa42362ffbc04714baf7de3669bc8a9932266fe119a5e3e7",
    ("fig4b", "csv"): "1ed05ead4e94fd5d64b4815d09a64fa04b4db716d306870c844c5c9dee378548",
    ("fig4b", "json"): "2488005f288705262ae1998a468b05f461656a453dc77d61a144e92522800316",
    ("fig4b", "svg"): "02f425964c370a0420022cb2de1112e0b935ed25de62e392bd597a8a9d16e385",
    ("fig5a", "csv"): "3b9706bf491f8cc83787fbae3742bc69f97f890efdf482b0b3dc190fabc0bc26",
    ("fig5a", "json"): "c7e5cbf70c2c6e4f854ad526c482c2d8c5991ac308eee8768747ceecc2e373be",
    ("fig5a", "svg"): "18f1479983517883fa42362ffbc04714baf7de3669bc8a9932266fe119a5e3e7",
    ("fig5b", "csv"): "6010b3c92bfe8ca9caadcc9b93762d959c2292418d47555a7e5189dda9e96362",
    ("fig5b", "json"): "7ffa182bd8af9397f7c8669a8bb9d926e8a40e01a3036c24e66dfa82b9cbf69c",
    ("fig5b", "svg"): "28108001631bc416c1a4c1ef4d0ff236a2b413ae9cdd659071f090f0e6a7bbd6",
}

# default tap (r2 0.5) and coupling (eps2 1)
INFO_DIGESTS = {
    ("--kind", "uncorrelated", "--nbar", "0.05"):
        "26c43883baf74daee6ee8e5fa4cf7e0c542a3ba467ba2c8eef0deb12a2624e09",
    ("--kind", "split-thermal", "--nbar", "0.05"):
        "364c6fa96c7993bd03c8d7e8d37a83ce2046c8ff266a26198c00bc0d79328f98",
    ("--kind", "correlated", "--s2", "0.01"):
        "5f18193a15117ecc793df3dbe85028540bc4adfa9913b5c71d9280a16e5a4b2a",
    ("--kind", "anti-correlated", "--s2", "0.01", "--v2", "0.87"):
        "1e5db604dca8c87e0d65a830e14cf5f2310931f2bc60f16b1ac2acb6c447f24d",
}

# default slots (1e6) and delays (0, 1, 2, 5, 10, 20)
G2_DIGESTS = {
    ("--nbar", "0.5", "--seed", "1"):
        "15c065e5b344725be124644918f5cb1b1620fcaee3f57c6520e5d8a3fa2dc585",
    ("--nbar", "0.5", "--seed", "1", "--model", "gaussian-memory", "--tau-c", "8", "--fit"):
        "a26fe10f2f0fd09c05f45e799b127f43ae5dc054261c9fcd1bd96e167eede737",
}


def _stdout_digest(argv, capsys) -> str:
    assert main(list(argv)) == 0, argv
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("preset,fmt", sorted(PRESET_DIGESTS))
def test_preset_report_bytes_are_pinned(preset, fmt, capsys):
    argv = ["sweep", "--preset", preset, "--format", fmt]
    assert _stdout_digest(argv, capsys) == PRESET_DIGESTS[preset, fmt]


@pytest.mark.parametrize("flags", sorted(INFO_DIGESTS))
def test_info_bytes_are_pinned(flags, capsys):
    assert _stdout_digest(["info", *flags], capsys) == INFO_DIGESTS[flags]


@pytest.mark.parametrize("flags", sorted(G2_DIGESTS))
def test_g2_bytes_are_pinned(flags, capsys):
    assert _stdout_digest(["g2", *flags], capsys) == G2_DIGESTS[flags]


def test_stream_is_pinned_per_version():
    """Tallies of one small run per weak bath and mode, hashed."""
    baths = (SourceSpec.uncorrelated(0.05), SourceSpec.split_thermal(0.05),
             SourceSpec.correlated(s2=0.01), SourceSpec.anti_correlated(s2=0.01, v2=0.87))
    tallies = []
    for spec in baths:
        for mode, window in (("bar", 0), ("cross", 0), ("feed_forward", 0),
                             ("feed_forward", 5)):
            res = run(RunConfig(spec=spec, r=math.sqrt(0.3), eps2=0.7, slots=50_000,
                                seed=20210720, mode=mode, dead_window_slots=window))
            tallies.append([spec.kind.value, mode, window, res.n_a, res.n_b,
                            res.coincidences, res.lost_to_dead_window])
    digest = hashlib.sha256(json.dumps(tallies).encode()).hexdigest()[:16]
    assert digest == {3: "f0097c196b3c2a04"}[STREAM_VERSION]
