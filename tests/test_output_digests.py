"""Pinned SHA-256 digests of the preset reports, of ``info`` on weak and bright
baths, of ``g2`` on both stream models, of ``mc`` dead-window and power runs,
of the baths' dict tables, and of the event engine's random stream.

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
from demonlab.sources import SourceSpec, make_source

PRESET_DIGESTS = {
    ("fig4a", "csv"): "71398c8885331a01d97eb9b8bf52d317154a275d5bfbfddaf472e4e3645de56a",
    ("fig4a", "json"): "b0621e850f58ac8bf23317880ca80f18c2e1a8b6b493828de8be9998060e4a72",
    ("fig4a", "svg"): "18f1479983517883fa42362ffbc04714baf7de3669bc8a9932266fe119a5e3e7",
    ("fig4b", "csv"): "1ed05ead4e94fd5d64b4815d09a64fa04b4db716d306870c844c5c9dee378548",
    ("fig4b", "json"): "2488005f288705262ae1998a468b05f461656a453dc77d61a144e92522800316",
    ("fig4b", "svg"): "02f425964c370a0420022cb2de1112e0b935ed25de62e392bd597a8a9d16e385",
    ("fig5a", "csv"): "ff1b03c7740c1c73eec31c66088eb58d4db7882ae6718882d71637e30a427c04",
    ("fig5a", "json"): "96077bb0876316b8744fb6323f6f253c41cc2e08031c2db82b475b0236875a21",
    ("fig5a", "svg"): "18f1479983517883fa42362ffbc04714baf7de3669bc8a9932266fe119a5e3e7",
    ("fig5b", "csv"): "f571743b0d98a09e617ec0f2acba243e9df0330416dca20dc20841841bd905ad",
    ("fig5b", "json"): "4b1bd5fdf92b8b9cd353f3186bc23b2490fa13856924be667f696e0da0784925",
    ("fig5b", "svg"): "28108001631bc416c1a4c1ef4d0ff236a2b413ae9cdd659071f090f0e6a7bbd6",
}

# default tap (r2 0.5) and coupling (eps2 1)
INFO_DIGESTS = {
    ("--kind", "uncorrelated", "--nbar", "0.05"):
        "9a2316f979c00b08d526efd25b0dfd5713b742686929d82d8d2c43134074bb72",
    ("--kind", "split-thermal", "--nbar", "0.05"):
        "63ea66ac33b152934dc9474e1b7a6a34d8f56d088122a3da259204c63c5fed88",
    ("--kind", "correlated", "--s2", "0.01"):
        "5f18193a15117ecc793df3dbe85028540bc4adfa9913b5c71d9280a16e5a4b2a",
    ("--kind", "anti-correlated", "--s2", "0.01", "--v2", "0.87"):
        "1e5db604dca8c87e0d65a830e14cf5f2310931f2bc60f16b1ac2acb6c447f24d",
    # bright baths: the cutoff search runs on to 48-192 photons
    ("--kind", "split-thermal", "--nbar", "2"):
        "b9a7127c16e748c208d81bc886d4ab127ad218e15971bdfe4e10888e66e5e0fb",
    ("--kind", "uncorrelated", "--nbar", "5", "--r2", "0.4", "--eps2", "0.75"):
        "62261a37d02b714617bffc289e52b050b52e809f7a6ed0706e1f59c39ab98f4c",
}

# default slots (1e6) and delays (0, 1, 2, 5, 10, 20)
G2_DIGESTS = {
    ("--nbar", "0.5", "--seed", "1"):
        "f21d992ba336bd713c7cf29cc1446358904d2d62b79025cee0c5feb9adb28277",
    ("--nbar", "0.5", "--seed", "1", "--model", "gaussian-memory", "--tau-c", "8", "--fit"):
        "fc23a73d9ea2b5e8ca5ad6baec2a44e2bc92651e8ab8ed174667ae8f2964ed10",
}

# 300k slots at seed 3, default tap (r2 0.5) and coupling (eps2 1)
MC_DIGESTS = {
    ("--kind", "uncorrelated", "--nbar", "0.05", "--dead-window", "5"):
        "d6ef15dac269fab4c5fff65ca97d84cfa3a1777654c5ca330037f7651d054a7e",
    ("--kind", "split-thermal", "--nbar", "0.05", "--dead-window", "5"):
        "9b08a841dac43d37d93fb0009cd4dc602ca2ad1a65a32e499d2b59bcdd1c30c6",
    ("--kind", "correlated", "--s2", "0.01", "--dead-window", "5"):
        "326283c06c067b50e247c3dee71423db112b78ba9ae6c0094154ae6c225743d8",
    ("--kind", "anti-correlated", "--s2", "0.01", "--v2", "0.87", "--dead-window", "5"):
        "a798a9160018dd0d851f28b1193c79a11ab3103fefb1c4b3e5e5947245d8afd6",
    ("--kind", "correlated", "--s2", "0.01", "--normalization", "pairs"):
        "191216a86f648dc09c97c5398391e4f1927d7fccd3c658c3cf995bfa2a498795",
    ("--kind", "uncorrelated", "--nbar", "0.05", "--normalization", "singles"):
        "8f9aeacf2313e7ef87a47fd26f7be64d9509974e8a83f491b86fe340b56c1e34",
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


@pytest.mark.parametrize("flags", sorted(MC_DIGESTS))
def test_mc_bytes_are_pinned(flags, capsys):
    argv = ["mc", *flags, "--slots", "300000", "--seed", "3"]
    assert _stdout_digest(argv, capsys) == MC_DIGESTS[flags]


def test_source_tables_are_pinned():
    """``make_source``'s cells and lost mass, sorted by key, on all four kinds of bath."""
    digest = hashlib.sha256()
    for spec in (SourceSpec.uncorrelated(0.5), SourceSpec.split_thermal(0.5),
                 SourceSpec.correlated(s2=0.01),
                 SourceSpec.anti_correlated(s2=0.01, v2=0.87)):
        for cutoff in (2, 6, 40):
            source = make_source(spec, cutoff)
            digest.update(repr((sorted(source.entries.items()), source.lost_mass)).encode())
    assert digest.hexdigest()[:16] == "dc9e421f9a0a9ef3"


#: Stream recipes: the weak baths at window 5, and bright baths over two full
#: blocks and a partial one, with unequal arms and windows from 1 to 100.
STREAM_RECIPES = {
    "weak": dict(
        baths=(SourceSpec.uncorrelated(0.05), SourceSpec.split_thermal(0.05),
               SourceSpec.correlated(s2=0.01),
               SourceSpec.anti_correlated(s2=0.01, v2=0.87)),
        runs=(("bar", 0), ("cross", 0), ("feed_forward", 0), ("feed_forward", 5)),
        config=dict(r=math.sqrt(0.3), eps2=0.7, slots=50_000),
        digests={3: "f0097c196b3c2a04", 4: "ac7b0e8183a107d4", 5: "2c0aa11a54aad3f6"}),
    "bright": dict(
        baths=(SourceSpec.uncorrelated(0.5), SourceSpec.split_thermal(0.5)),
        runs=(("bar", 0), ("cross", 0), ("feed_forward", 0), ("feed_forward", 1),
              ("feed_forward", 10), ("feed_forward", 100)),
        config=dict(r=math.sqrt(0.4), eps2=0.75, slots=150_000, arm_efficiency=(1.0, 0.8)),
        digests={3: "a51439b7caee5430", 4: "8e3a2f12b95f9d76", 5: "d633d92c11284375"}),
}


@pytest.mark.parametrize("recipe", sorted(STREAM_RECIPES))
def test_stream_is_pinned_per_version(recipe):
    """Tallies of one run per bath and mode of a recipe, hashed."""
    pin = STREAM_RECIPES[recipe]
    tallies = []
    for spec in pin["baths"]:
        for mode, window in pin["runs"]:
            res = run(RunConfig(spec=spec, seed=20210720, mode=mode,
                                dead_window_slots=window, **pin["config"]))
            tallies.append([spec.kind.value, mode, window, res.n_a, res.n_b,
                            res.coincidences, res.lost_to_dead_window])
    digest = hashlib.sha256(json.dumps(tallies).encode()).hexdigest()[:16]
    assert digest == pin["digests"][STREAM_VERSION]
