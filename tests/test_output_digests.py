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
    ("fig4a", "csv"): "63379bf2fdcbf6e1617e55df076a4d8e81496de121500b537bccb1784a854f3a",
    ("fig4a", "json"): "a1c3d9f84c891ca9a4c1cd1a713f57cdb03bb122cf34c549eabfa0d4cf9cb9ad",
    ("fig4a", "svg"): "5d8c718dacb52a1af36ec53783d25037160219b65b98e3f408e833f9774d97ac",
    ("fig4b", "csv"): "5309dad822fc618edc4bab1c4fdf7f5121a266a425ae47407847555f48027c62",
    ("fig4b", "json"): "c1c61c7ed1eb79c4c897b307bc79034af8774c6562a53ab24e7fed17429e6dcf",
    ("fig4b", "svg"): "84ba4837da4129db4e43c5097c20ce25a6e255679fd9e9cc951365cd14ef1d5c",
    ("fig5a", "csv"): "3fcec38007767ecd21831b3b88e21d2d2c5acd7f6887f8fc36cec5f8c0691ce8",
    ("fig5a", "json"): "5f130fcc9f3f5575f15118ff94813194671ff802cc3ecc1522c385ff5612f9d0",
    ("fig5a", "svg"): "5d8c718dacb52a1af36ec53783d25037160219b65b98e3f408e833f9774d97ac",
    ("fig5b", "csv"): "27db5296a38c42918f0a92e0a6bf1e4bd873a9101c91bafd189293bc51eaec20",
    ("fig5b", "json"): "436890b39f918298b04bae7412b690534a3ad4b6a856d022ae0dd25d851e6e81",
    ("fig5b", "svg"): "f1adab05fc341480c3a66bca7f2273b3c420c602b3d49e74b9f20818cfab3558",
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
