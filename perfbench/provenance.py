"""Provenance of a benchmark result: machine, versions, code and stream.

The stream fingerprint hashes the tallies of fixed small runs, one per
bath and mode.  It changes exactly when the engine's random stream for a
given seed changes, so a result taken after such a change says so.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

FINGERPRINT_SLOTS = 50_000
FINGERPRINT_SEED = 20210720
FINGERPRINT_R2 = 0.3
FINGERPRINT_EPS2 = 0.7
FINGERPRINT_DEAD_WINDOW = 5


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"git_commit": None, "git_dirty": None}
    try:
        commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": commit.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def _source_digest(root: Path) -> str:
    """SHA-256 over the package sources; identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "demonlab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _version(name: str) -> str | None:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def machine_note(root: Path, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        **_git(root),
        "src_sha256": _source_digest(root),
        "seed": seed,
    }


def stream_fingerprint(program) -> str:
    """Hash of the tallies of one small run per weak bath and mode."""
    mc = program.montecarlo
    SourceSpec = program.sources.SourceSpec
    baths = (SourceSpec.uncorrelated(0.05), SourceSpec.split_thermal(0.05),
             SourceSpec.correlated(s2=0.01), SourceSpec.anti_correlated(s2=0.01, v2=0.87))
    tallies = []
    for spec in baths:
        for mode, window in (("bar", 0), ("cross", 0), ("feed_forward", 0),
                             ("feed_forward", FINGERPRINT_DEAD_WINDOW)):
            res = mc.run(mc.RunConfig(spec=spec, r=math.sqrt(FINGERPRINT_R2),
                                      eps2=FINGERPRINT_EPS2, slots=FINGERPRINT_SLOTS,
                                      seed=FINGERPRINT_SEED, mode=mode,
                                      dead_window_slots=window))
            tallies.append([spec.kind.value, mode, window, res.n_a, res.n_b,
                            res.coincidences, res.lost_to_dead_window])
    return hashlib.sha256(json.dumps(tallies).encode()).hexdigest()[:16]
