"""Benchmark workloads: seeded input families, command cycles and output checks.

A workload writes its input family files once per set-up, then repeats a
fixed cycle of CLI commands.  Every command repeats the same (input, seed)
in every cycle, so the runner can also require byte-identical outputs
across cycles.  Families come from this file's own generator, never from
the program, so a change to the program cannot change the inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: (n, k, J) shapes of the construct-certify cycle, in cycle order.
CONSTRUCT_SHAPES = ((100, 1, 99), (400, 1, 399), (1000, 1, 999),
                    (100, 2, 98), (400, 2, 398), (400, 3, 397))

#: Families read by the Monte Carlo commands.  The *_DEFAULT ones have the
#: shape the CLI draws for itself at its defaults (n=6, k=1, J=50); the
#: other two are larger shapes of the same suites.
TRANSLATION_DEFAULT = (6, 1, 50)
TRANSLATION_WIDE = (30, 2, 20)
BADSET_LARGE = (8, 1, 200)
BADSET_DEFAULT = (6, 1, 50)

#: MC sample counts, scaled so that one cycle fits several times into a run.
TRANSLATION_SAMPLES = 1000      # the suite's minimum
BADSET_SAMPLES = 50_000         # times three epsilons
DET_SAMPLES = 100_000
INVERSE_SAMPLES = 20_000
VOLUME_SAMPLES = 1_000_000      # the CLI default of `volume --mc`
DEFAULT_SAMPLES = 10_000        # the CLI default of `mc`
DEFAULT_EPSILONS = 3            # entries of the CLI's default epsilon grid

#: Absolute slack between the program's measured deltas and this file's own
#: singular values of N_j B^T.
DELTA_AGREEMENT = 1e-9


def family_normals(seed: int, index: int, shape) -> np.ndarray:
    """(J, k, n) array of orthonormal normal blocks, one per family member.

    Gaussian blocks orthonormalized by Gram-Schmidt in plain numpy
    reductions (no BLAS), so the bytes depend only on the seed.
    """
    n, k, J = shape
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    g = rng.standard_normal((J, k, n))
    for i in range(k):
        for _ in range(2):
            for l in range(i):
                g[:, i] -= (g[:, i] * g[:, l]).sum(axis=1)[:, None] * g[:, l]
        g[:, i] /= np.sqrt((g[:, i] * g[:, i]).sum(axis=1))[:, None]
    return g


def write_family(path: Path, normals: np.ndarray) -> None:
    """Family JSON in the program's schema, one member block per line."""
    J, k, n = normals.shape
    with open(path, "w") as fh:
        fh.write('{"codim": %d, "dim": %d, "normals": [\n' % (k, n))
        for j, block in enumerate(normals):
            fh.write(json.dumps(block.tolist()))
            fh.write(",\n" if j + 1 < J else "\n")
        fh.write("]}\n")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a cycle.

    ``work`` is what the command contributes to the workload's throughput:
    family members for a certify (counted once its construct also passed)
    and Monte Carlo samples for `mc` and `volume`.  ``output`` names the file
    whose bytes are the command's result; otherwise it is its stdout.
    """

    kind: str
    label: str
    argv: tuple[str, ...]
    shape: tuple[int, int, int] | None
    work: int
    output: Path | None = None


@dataclass
class Outcome:
    """What a command did: exit code (None if it raised), streams, wall time."""

    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None = None


class Workload:
    """Base class: ``prepare`` writes the inputs, ``cycle`` lists the commands."""

    name = ""
    why = ""
    work_unit = ""
    #: Seconds one cycle takes on the reference machine (2 vCPU Xeon,
    #: OpenBLAS 0.3.31).  A run makes round(seconds / cycle_s) cycles, and at
    #: least min_cycles, so that each command's best latency comes from
    #: enough repeats.
    cycle_s = 1.0
    min_cycles = 2

    def __init__(self, seed: int, run_dir: Path):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.seed = seed
        self.run_dir = run_dir
        self.families: dict[str, tuple[Path, np.ndarray]] = {}

    def _family(self, key: str, index: int, shape) -> None:
        normals = family_normals(self.seed, index, shape)
        path = self.run_dir / f"family-{key}.json"
        write_family(path, normals)
        self.families[key] = (path, normals)

    def prepare(self) -> None:
        raise NotImplementedError

    def cycle(self) -> list[Command]:
        raise NotImplementedError

    def warmup(self) -> list[Command]:
        """Light commands run by every set-up, through the program's start-up
        paths (imports, argument parsing, first LAPACK calls).  The first
        cycle's remaining cold costs do not reach the gated metrics, which
        take each command's best latency over the cycles."""
        raise NotImplementedError

    def _pair(self, key: str) -> list[Command]:
        """construct, then certify of the result, on one family."""
        family, normals = self.families[key]
        shape = (normals.shape[2], normals.shape[1], normals.shape[0])
        comp = self.run_dir / f"complement-{key}.json"
        label = "n%d-k%d-J%d" % shape
        return [
            Command("construct", f"construct {label}",
                    ("construct", "--family", str(family), "--seed", str(self.seed),
                     "--out", str(comp)), shape, 0, comp),
            Command("certify", f"certify {label}",
                    ("certify", "--family", str(family), "--complement", str(comp)),
                    shape, shape[2]),
        ]

    def check(self, cmd: Command, out: Outcome, output: bytes) -> list[str]:
        """Problems with a finished command's result; empty when correct."""
        if out.error is not None:
            return [f"raised {out.error}"]
        if out.rc != 0:
            return [f"exit code {out.rc}: {out.stderr.strip()[-200:]}"]
        if cmd.kind == "volume":
            return _volume_agreement(output)
        if cmd.kind == "mc":
            return _mc_verdict(output)
        flags = dict(zip(cmd.argv[1::2], cmd.argv[2::2]))
        normals = {str(p): n for p, n in self.families.values()}[flags["--family"]]
        if cmd.kind == "construct":
            return _check_complement(output, normals)
        return _check_certify_csv(output, normals, Path(flags["--complement"]))


def _mc_verdict(output: bytes) -> list[str]:
    try:
        doc = json.loads(output)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if doc.get("verdict") is not True:
        return ['report lacks "verdict": true']
    return []


def _volume_agreement(output: bytes) -> list[str]:
    if "mc_agreement ok" not in output.decode().splitlines():
        return ["volume did not print mc_agreement ok"]
    return []


class ConstructCertify(Workload):
    name = "construct-certify"
    why = ("construct then certify on six fixed (n,k,J) shapes up to n=1000: "
           "adapt_basis owns construct and family loading owns certify")
    work_unit = "members"
    cycle_s = 8.5
    #: A shared host slows by up to half for seconds at a time; six samples
    #: of each command let its best latency skip most of those spells.
    min_cycles = 6

    def prepare(self) -> None:
        for i, shape in enumerate(CONSTRUCT_SHAPES):
            self._family(f"cc{i}", i, shape)

    def cycle(self) -> list[Command]:
        return [cmd for i in range(len(CONSTRUCT_SHAPES)) for cmd in self._pair(f"cc{i}")]

    def warmup(self) -> list[Command]:
        return self._pair("cc0")


def _singular_floor(normals: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Smallest singular value of N_j B^T for every member j."""
    return np.linalg.svd(normals @ basis.T, compute_uv=False)[:, -1]


def _load_basis(doc: dict, normals: np.ndarray) -> np.ndarray:
    J, k, n = normals.shape
    basis = np.asarray(doc["basis"], dtype=float).reshape(-1, n)
    if basis.shape != (k, n):
        raise ValueError(f"basis has shape {basis.shape}, expected {(k, n)}")
    return basis


def _check_complement(output: bytes, normals: np.ndarray) -> list[str]:
    try:
        doc = json.loads(output)
        basis = _load_basis(doc, normals)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return [f"complement file unreadable: {exc}"]
    k = basis.shape[0]
    if np.max(np.abs(basis @ basis.T - np.eye(k))) > 1e-9:
        return ["complement basis is not orthonormal"]
    floor = _singular_floor(normals, basis)
    if not np.all(floor > 0):
        return [f"complement meets member {int(np.argmin(floor)) + 1}"]
    return []


def _check_certify_csv(output: bytes, normals: np.ndarray, comp: Path) -> list[str]:
    lines = output.decode().splitlines()
    J = normals.shape[0]
    if not lines or lines[-1] != "verdict,true":
        return ["certify did not end in verdict,true"]
    if len(lines) != J + 2:
        return [f"certify printed {len(lines) - 2} profile rows for {J} members"]
    try:
        measured = np.array([float(line.split(",")[1]) for line in lines[1:-1]])
        basis = _load_basis(json.loads(comp.read_bytes()), normals)
    except (OSError, IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"certify output unreadable: {exc}"]
    if not np.all(measured > 0):
        return [f"measured delta <= 0 at member {int(np.argmin(measured)) + 1}"]
    gap = np.max(np.abs(measured - _singular_floor(normals, basis)))
    if gap > DELTA_AGREEMENT:
        return [f"measured deltas differ from independent SVD by {gap:.3e}"]
    return []


class McTranslation(Workload):
    name = "mc-translation"
    why = ("mc translation at the CLI default shape (cube fallback) and at "
           "n=30,k=2,J=20: the per-sample certify loop owns the time")
    work_unit = "samples"
    cycle_s = 1.2

    def prepare(self) -> None:
        self._family("tr-default", 0, TRANSLATION_DEFAULT)
        self._family("tr-wide", 1, TRANSLATION_WIDE)

    def _translation(self, key: str, shape) -> Command:
        return Command(
            "mc", "mc translation n%d-k%d-J%d" % shape,
            ("mc", "translation", "--family", str(self.families[key][0]),
             "--seed", str(self.seed), "--samples", str(TRANSLATION_SAMPLES)),
            shape, TRANSLATION_SAMPLES)

    def cycle(self) -> list[Command]:
        return [self._translation("tr-default", TRANSLATION_DEFAULT),
                self._translation("tr-wide", TRANSLATION_WIDE)]

    def warmup(self) -> list[Command]:
        return self._pair("tr-wide")


class McBulk(Workload):
    name = "mc-bulk"
    why = ("vectorized badset, det, inverse and volume kernels over samples x J "
           "arrays: separator and familyio stay idle, memory peaks here")
    work_unit = "samples"
    cycle_s = 4.3

    def prepare(self) -> None:
        self._family("badset-large", 0, BADSET_LARGE)
        self._family("badset-default", 1, BADSET_DEFAULT)

    def _defaults(self) -> list[Command]:
        seed = str(self.seed)
        family = str(self.families["badset-default"][0])
        return [
            Command("mc", "mc badset default",
                    ("mc", "badset", "--family", family, "--seed", seed),
                    BADSET_DEFAULT, DEFAULT_EPSILONS * DEFAULT_SAMPLES),
            Command("mc", "mc det default", ("mc", "det", "--seed", seed),
                    None, DEFAULT_SAMPLES),
            Command("mc", "mc inverse default", ("mc", "inverse", "--seed", seed),
                    None, DEFAULT_SAMPLES),
        ]

    def cycle(self) -> list[Command]:
        seed = str(self.seed)
        family = str(self.families["badset-large"][0])
        return [
            Command("mc", "mc badset n8-J200",
                    ("mc", "badset", "--family", family, "--seed", seed,
                     "--samples", str(BADSET_SAMPLES)),
                    BADSET_LARGE, DEFAULT_EPSILONS * BADSET_SAMPLES),
            Command("mc", "mc det k3-J50",
                    ("mc", "det", "--k", "3", "--members", "50", "--seed", seed,
                     "--samples", str(DET_SAMPLES)), None, DET_SAMPLES),
            Command("mc", "mc inverse k3-J50",
                    ("mc", "inverse", "--k", "3", "--members", "50", "--seed", seed,
                     "--samples", str(INVERSE_SAMPLES)), None, INVERSE_SAMPLES),
            Command("volume", "volume n4 mc",
                    ("volume", "--halfwidths", "1,0.5,0.25,0.125",
                     "--normal", "1,2,3,4", "--mc", "--seed", seed),
                    None, VOLUME_SAMPLES),
        ] + self._defaults()

    def warmup(self) -> list[Command]:
        return self._defaults()[:2]


WORKLOADS = {cls.name: cls for cls in (ConstructCertify, McTranslation, McBulk)}
