"""Pinned SHA-256 digests of the preset reports and of ``info`` on the weak baths.

A change meant to keep every output byte must leave these digests alone; a
change that moves an output on purpose updates the digest and says why.
"""

import hashlib

import pytest

from demonlab.cli import main

PRESET_DIGESTS = {
    ("fig4a", "csv"): "14bd2ecce6c3723d015e2a7b89152a6309346168976bec825bc4eaf60075e741",
    ("fig4a", "json"): "a9df544d7dbf5376b65d8ba4b5fdd0fe793510db66a4eaf147e3e101024659c6",
    ("fig4a", "svg"): "44a8c46f1422439c47cdf20aa7d172372e67d90d8327d70cc33158fac9f0d381",
    ("fig4b", "csv"): "5309dad822fc618edc4bab1c4fdf7f5121a266a425ae47407847555f48027c62",
    ("fig4b", "json"): "c1c61c7ed1eb79c4c897b307bc79034af8774c6562a53ab24e7fed17429e6dcf",
    ("fig4b", "svg"): "84ba4837da4129db4e43c5097c20ce25a6e255679fd9e9cc951365cd14ef1d5c",
    ("fig5a", "csv"): "f2e0b9ef3dadccbe64dc5b2cf2f3184a410dcdb0312c226ac91946be43c30cf4",
    ("fig5a", "json"): "b37556970f5cebf744e6217bf9fc10d2dca582647d9a809ad27b0032be632e6c",
    ("fig5a", "svg"): "44a8c46f1422439c47cdf20aa7d172372e67d90d8327d70cc33158fac9f0d381",
    ("fig5b", "csv"): "4f2b775ee0a19ae863afa70cdc82704f56795c8b9ee39b07341f9339fa63a6f2",
    ("fig5b", "json"): "1b33e4eecbe4f7db9d72c49ad41a35bde6d5e159d318ec413e8be4bbd9d6b433",
    ("fig5b", "svg"): "df9444ae4db934af21518490aea4bafa247c82e514b7d5cb4cbd8f3b6f29b7ed",
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
