"""Subprocess golden tests for the command-line surface."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from transversal import familyio
from transversal.separator import (
    BOX_CONSTANT,
    SubspaceFamily,
    random_subspace_family,
)

from conftest import family_to_dict


def run_cli(*args, log=None, blas_threads=None):
    env = dict(os.environ)
    env.pop("TRANSVERSAL_LOG", None)
    if log is not None:
        env["TRANSVERSAL_LOG"] = log
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    cmd = [sys.executable, "-m", "transversal", *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def write_family(path, family):
    with open(path, "w") as fh:
        fh.write(familyio.dump_json(family_to_dict(family)))


def strict_json(text):
    """Parse RFC 8259 JSON, rejecting the NaN and Infinity tokens that
    Python's parser accepts by default."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture
def single_hyperplane(tmp_path):
    fam = SubspaceFamily.from_normals([np.array([[1.0, 0.0, 0.0, 0.0]])])
    path = tmp_path / "single.json"
    write_family(path, fam)
    return path


@pytest.fixture
def codim2_family(tmp_path):
    fam = random_subspace_family(77, 14, 2, 10)
    path = tmp_path / "codim2.json"
    write_family(path, fam)
    return path, fam


#: Each command's help line, as the root help lists it.
COMMAND_HELP = {
    "construct": "build a certified common complement",
    "certify": "measure a complement against a family (CSV)",
    "mc": "run a Monte Carlo suite",
    "volume": "box shadow volume and slab bounds",
}
#: Each mc suite's help line, as the mc help lists it.
MC_SUITE_HELP = {
    "badset": "measure of the bad set of a hyperplane family",
    "det": "determinant slab bound of shifted matrices",
    "inverse": "inverse floors of shifted matrices",
    "translation": "translated perturbed complements",
}
#: The flags of the commands other than mc, and so the only ones each accepts.
COMMAND_FLAGS = {
    "construct": {"--family", "--seed", "--out"},
    "certify": {"--family", "--complement", "--max-exponent", "--out"},
    "volume": {"--halfwidths", "--normal", "--delta", "--mc", "--samples", "--seed"},
}
#: The flags each mc suite reads, and so the only ones it accepts.
MC_SUITE_FLAGS = {
    "badset": {"--family", "--dim", "--members"},
    "det": {"--members", "--k", "--zero-shifts"},
    "inverse": {"--members", "--k", "--delta-exponent"},
    "translation": {"--family", "--dim", "--members", "--k", "--radius",
                    "--max-exponent", "--translation"},
}
MC_SHARED_FLAGS = {"--seed", "--samples", "--epsilon-grid"}


def listed_flags(help_text):
    return set(re.findall(r"--[a-z][a-z-]*", help_text)) - {"--help"}


def lists(help_text, names):
    """Whether a help screen lists every name with its help line."""
    return all(re.search(rf"^ +{name} +{re.escape(text)}$", help_text, re.M)
               for name, text in names.items())


def test_help_screens():
    root = run_cli("--help")
    assert root.returncode == 0
    assert "common complements" in root.stdout
    assert lists(root.stdout, COMMAND_HELP)
    mc = run_cli("mc", "--help")
    assert mc.returncode == 0, mc.stderr
    assert lists(mc.stdout, MC_SUITE_HELP)
    for command, flags in COMMAND_FLAGS.items():
        cp = run_cli(command, "--help")
        assert cp.returncode == 0, cp.stderr
        assert listed_flags(cp.stdout) == flags
    pairs = 0
    for suite, flags in MC_SUITE_FLAGS.items():
        cp = run_cli("mc", suite, "--help")
        assert cp.returncode == 0, cp.stderr
        listed = listed_flags(cp.stdout)
        assert listed == flags | MC_SHARED_FLAGS
        pairs += len(listed)
    assert pairs == 28


def test_construct_single_hyperplane(single_hyperplane, tmp_path):
    out = tmp_path / "comp.json"
    cp = run_cli("construct", "--family", single_hyperplane, "--seed", 0,
                 "--out", out)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == f"wrote {out}"
    _, certified = familyio.load_complement(out)
    assert json.loads(out.read_text())["measured"]["deltas"][0] == pytest.approx(1.0)
    assert certified[0] == pytest.approx(BOX_CONSTANT)


def test_construct_round_trips_codim2(codim2_family, tmp_path):
    path, fam = codim2_family
    out = tmp_path / "comp.json"
    cp = run_cli("construct", "--family", path, "--seed", 5, "--out", out)
    assert cp.returncode == 0, cp.stderr
    span, certified = familyio.load_complement(out)
    assert span.size == 2 and span.ambient_dim == 14
    doc = json.loads(out.read_text())
    # reloaded profiles still dominate index-wise
    assert np.all(np.array(doc["measured"]["deltas"]) >= certified - 1e-9)
    assert doc["rejection_stats"]["accepted"] >= 2  # one accept per recursion level


def test_construct_rejects_rank_deficient_family(tmp_path):
    bad = {
        "dim": 4,
        "codim": 2,
        "normals": [[[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    cp = run_cli("construct", "--family", path, "--out", tmp_path / "x.json")
    assert cp.returncode == 2
    assert "member 1" in cp.stderr


def test_certify_names_rank_deficient_later_member(codim2_family, tmp_path):
    path, fam = codim2_family
    doc = family_to_dict(fam)
    doc["normals"][3][1] = [2.0 * x for x in doc["normals"][3][0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    comp = tmp_path / "comp.json"
    assert run_cli("construct", "--family", path, "--out", comp).returncode == 0
    cp = run_cli("certify", "--family", bad, "--complement", comp)
    assert cp.returncode == 2
    assert "family member 4: normals have rank 1 < 2" in cp.stderr


def test_family_labels_load_and_are_checked(tmp_path):
    """The loader returns a family file's optional labels as strings and
    rejects a label list whose length does not match the members."""
    doc = family_to_dict(random_subspace_family(3, 4, 1, 2))
    _, labels = familyio.family_from_dict({**doc, "labels": ["a", 7]})
    assert labels == ["a", "7"]
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps({**doc, "labels": ["a"]}))
    cp = run_cli("construct", "--family", path, "--out", tmp_path / "x.json")
    assert cp.returncode == 2
    assert cp.stderr == "error: labels must match the number of members\n"


def test_family_with_empty_normals_is_shape_error(tmp_path):
    """The (J, k, n) shape is checked before any block is repaired."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": 0, "codim": 1, "normals": [[]]}))
    cp = run_cli("construct", "--family", path, "--out", tmp_path / "x.json")
    assert cp.returncode == 2
    assert cp.stderr == "error: codim must satisfy 1 <= k < n, got k=1, n=0\n"


@pytest.mark.parametrize("key, value", [("dim", 3.5), ("codim", True)])
def test_family_sizes_must_be_integers(tmp_path, key, value):
    doc = {**family_to_dict(random_subspace_family(3, 4, 1, 2)), key: value}
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps(doc))
    cp = run_cli("construct", "--family", path, "--out", tmp_path / "x.json")
    assert cp.returncode == 2
    assert cp.stderr == (f"error: malformed family document: {key} must be an "
                         f"integer, got {value!r}\n")


def test_construct_missing_file_is_input_error(tmp_path):
    cp = run_cli("construct", "--family", tmp_path / "nope.json",
                 "--out", tmp_path / "x.json")
    assert cp.returncode == 2


def test_construct_many_hyperplanes_gets_cube_profile(tmp_path):
    """J > n hyperplanes is valid input: the cube sampler certifies the
    constant profile 1/(2 J n)."""
    rng = np.random.default_rng(3)
    normals = rng.standard_normal((5, 1, 3))
    fam = SubspaceFamily.from_normals(list(normals))
    path = tmp_path / "crowded.json"
    write_family(path, fam)
    out = tmp_path / "x.json"
    cp = run_cli("construct", "--family", path, "--out", out)
    assert cp.returncode == 0, cp.stderr
    _, certified = familyio.load_complement(out)
    assert certified.tolist() == [0.5 / (5 * 3)] * 5
    measured = np.array(json.loads(out.read_text())["measured"]["deltas"])
    assert np.all(measured >= certified)


def test_construct_underflowing_profile_is_construction_error(tmp_path):
    """J = n - k is valid input, so a certified profile that underflows to 0
    in the recursion is a failed construction (exit 3), not invalid input."""
    path = tmp_path / "deep.json"
    write_family(path, random_subspace_family(5, 130, 30, 100))
    out = tmp_path / "x.json"
    cp = run_cli("construct", "--family", path, "--out", out)
    assert cp.returncode == 3, cp.stderr
    assert "underflows to 0 from index 96" in cp.stderr
    assert not out.exists()


def test_certify_construct_output(codim2_family, tmp_path):
    path, fam = codim2_family
    out = tmp_path / "comp.json"
    run_cli("construct", "--family", path, "--seed", 5, "--out", out)
    cp = run_cli("certify", "--family", path, "--complement", out)
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "j,delta_measured,delta_certified,fit_exponent,fit_scale"
    assert len(lines) == 1 + len(fam) + 1
    assert lines[-1] == "verdict,true"
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert 0.0 < float(first[1]) <= 1.0


def test_certify_round_trip_reproduces_measured(codim2_family, tmp_path):
    path, _ = codim2_family
    out = tmp_path / "comp.json"
    run_cli("construct", "--family", path, "--seed", 9, "--out", out)
    doc = json.loads(out.read_text())
    cp = run_cli("certify", "--family", path, "--complement", out)
    rows = [ln.split(",") for ln in cp.stdout.strip().splitlines()[1:-1]]
    measured = np.array([float(r[1]) for r in rows])
    certified = np.array([float(r[2]) for r in rows])
    np.testing.assert_allclose(measured, doc["measured"]["deltas"], atol=1e-12)
    np.testing.assert_allclose(certified, familyio.load_complement(out)[1], atol=1e-12)


def test_certify_orthogonal_complement_of_constant_family(tmp_path):
    fam = SubspaceFamily.from_normals([np.array([[1.0, 0.0, 0.0]])] * 4)
    fpath = tmp_path / "fam.json"
    write_family(fpath, fam)
    comp = {"ambient_dim": 3, "dim": 1, "basis": [[1.0, 0.0, 0.0]]}
    cpath = tmp_path / "comp.json"
    cpath.write_text(json.dumps(comp))
    cp = run_cli("certify", "--family", fpath, "--complement", cpath)
    assert cp.returncode == 0, cp.stderr
    rows = [ln.split(",") for ln in cp.stdout.strip().splitlines()[1:-1]]
    assert all(float(r[1]) == pytest.approx(1.0) for r in rows)
    assert cp.stdout.strip().endswith("verdict,true")


def test_certify_contained_candidate_fails_without_error(tmp_path):
    fam = SubspaceFamily.from_normals([np.array([[1.0, 0.0, 0.0]])])
    fpath = tmp_path / "fam.json"
    write_family(fpath, fam)
    comp = {"ambient_dim": 3, "dim": 1, "basis": [[0.0, 1.0, 0.0]]}  # inside V1
    cpath = tmp_path / "comp.json"
    cpath.write_text(json.dumps(comp))
    cp = run_cli("certify", "--family", fpath, "--complement", cpath)
    assert cp.returncode == 0
    assert cp.stdout.strip().endswith("verdict,false")


def test_certify_dimension_mismatch(tmp_path, single_hyperplane):
    comp = {"ambient_dim": 3, "dim": 1, "basis": [[1.0, 0.0, 0.0]]}
    cpath = tmp_path / "comp.json"
    cpath.write_text(json.dumps(comp))
    cp = run_cli("certify", "--family", single_hyperplane, "--complement", cpath)
    assert cp.returncode == 2


@pytest.mark.parametrize("argv", [
    ("construct", "--family", "{dir}", "--out", "{out}"),
    ("construct", "--family", "{family}", "--out", "{dir}"),
    ("certify", "--family", "{family}", "--complement", "{comp}", "--out", "{dir}"),
    ("certify", "--family", "{family}", "--complement", "{comp}",
     "--max-exponent", "nan"),
], ids=["family-dir", "construct-out-dir", "certify-out-dir", "nan-ceiling"])
def test_construct_and_certify_input_errors_exit_2(argv, single_hyperplane, tmp_path):
    """A directory where a file is expected, and a NaN decay ceiling (as
    for mc translation), are bad input: exit 2 with one error line and no
    output, not a traceback."""
    comp = tmp_path / "comp.json"
    assert run_cli("construct", "--family", single_hyperplane,
                   "--out", comp).returncode == 0
    paths = {"dir": tmp_path, "out": tmp_path / "out.json",
             "family": single_hyperplane, "comp": comp}
    cp = run_cli(*(arg.format(**paths) for arg in argv))
    assert cp.returncode == 2, cp.stderr
    assert cp.stdout == ""
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1


def test_mc_badset_toy_passes(tmp_path):
    fam = SubspaceFamily.from_normals([np.array([[0.0, 1.0]])])
    path = tmp_path / "fam.json"
    write_family(path, fam)
    cp = run_cli("mc", "badset", "--family", path, "--samples", 20000,
                 "--epsilon-grid", "0.01", "--seed", 1)
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert doc["suite"] == "badset" and doc["verdict"] is True
    rep = doc["reports"][0]
    assert rep["estimate"] <= rep["analytic_bound"] + 3 * rep["stderr"]


def test_mc_badset_in_high_dimension():
    """Past dim 341, where math.gamma overflows, the ball volumes still exist."""
    cp = run_cli("mc", "badset", "--dim", 400, "--members", 3, "--samples", 1000)
    assert cp.returncode == 0, cp.stderr
    doc = strict_json(cp.stdout)
    assert doc["verdict"] is True
    assert doc["reports"][0]["metadata"]["ball_volume"] == \
        pytest.approx(3.4126e-276, rel=1e-4)


def test_mc_badset_overflowing_bound_is_null():
    """An analytic bound that overflows to inf is written as null, not refused."""
    cp = run_cli("mc", "badset", "--samples", 1000, "--epsilon-grid", "1e308")
    assert cp.returncode == 0, cp.stderr
    doc = strict_json(cp.stdout)
    assert doc["reports"][0]["analytic_bound"] is None
    assert doc["verdict"] is True


def test_mc_det_scalar_coefficient():
    cp = run_cli("mc", "det", "--k", 1, "--zero-shifts", "--samples", 100000,
                 "--epsilon-grid", "0.1,0.01,0.001", "--seed", 2)
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    c_hat = doc["reports"][0]["metadata"]["c_hat"]
    assert c_hat == pytest.approx(2.0, abs=0.05)
    assert doc["verdict"] is True


def test_mc_inverse_suite():
    cp = run_cli("mc", "inverse", "--k", 2, "--members", 20, "--samples", 2000,
                 "--seed", 3)
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert doc["reports"][0]["estimate"] >= 0.99


def test_mc_translation_toy_family(tmp_path):
    normals = []
    for j in range(1, 4):
        v = np.array([0.05 * j, 1.0])
        normals.append((v / np.linalg.norm(v))[None, :])
    fam = SubspaceFamily.from_normals(normals)
    path = tmp_path / "fam3.json"
    write_family(path, fam)
    cp = run_cli("mc", "translation", "--family", path, "--samples", 1000,
                 "--seed", 42)
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert doc["verdict"] is True
    assert doc["reports"][0]["estimate"] >= 0.99


def test_mc_reports_are_byte_identical_for_equal_seeds():
    for suite, args in (
        ("badset", ("--samples", 2000, "--dim", 3, "--members", 10)),
        ("translation", ("--samples", 1000, "--k", 2, "--dim", 12, "--members", 8)),
    ):
        a = run_cli("mc", suite, *args, "--seed", 11)
        b = run_cli("mc", suite, *args, "--seed", 11)
        assert a.returncode == b.returncode == 0, a.stderr
        assert a.stdout == b.stdout
        c = run_cli("mc", suite, *args, "--seed", 12)
        assert c.returncode == 0, c.stderr
        assert c.stdout != a.stdout


@pytest.mark.parametrize("radius", ["1e150", "1e155", "1e160"])
def test_mc_translation_survives_huge_radii(radius):
    """Past about 1e150 the translation is negligible and every span is the
    base's; spans with entries past about 1e154 once overflowed the rank
    floor and failed the suite with a RuntimeWarning."""
    cp = run_cli("mc", "translation", "--radius", radius)
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    doc = strict_json(cp.stdout)
    assert doc["reports"][0]["estimate"] == 1.0
    assert doc["verdict"] is True


@pytest.mark.parametrize("args", [
    pytest.param(("--max-exponent", -100), id="no-sample-passes"),
    pytest.param(("--members", 1), id="one-member"),
])
def test_mc_translation_undefined_exponents_are_null(args):
    """Without a fitted exponent to summarize, the report holds null, not NaN."""
    cp = run_cli("mc", "translation", *args, "--samples", 1000)
    assert cp.returncode == 0, cp.stderr
    meta = strict_json(cp.stdout)["reports"][0]["metadata"]
    assert meta["exponent_max"] is None
    assert meta["exponent_median"] is None


def test_construct_one_member_writes_null_fit(single_hyperplane, tmp_path):
    """A one-member profile has no decay fit: the file says null, loads back,
    and a NaN anywhere else cannot be written."""
    out = tmp_path / "comp.json"
    cp = run_cli("construct", "--family", single_hyperplane, "--out", out)
    assert cp.returncode == 0, cp.stderr
    doc = strict_json(out.read_text())
    for key in ("certified", "measured"):
        assert doc[key]["decay_fit"] == {"exponent": None, "scale": None}
    familyio.load_complement(out)
    measured = np.array(doc["measured"]["deltas"])
    assert measured[0] == pytest.approx(1.0)
    assert familyio.certificate_to_dict(measured, familyio.MEASURED, {})["decay_fit"] == \
        {"exponent": None, "scale": None}
    cert = run_cli("certify", "--family", single_hyperplane, "--complement", out)
    assert cert.returncode == 0, cert.stderr
    with pytest.raises(ValueError):
        familyio.dump_json({"x": math.nan})


@pytest.mark.parametrize("args", [
    ("translation", "--samples", 1000, "--k", 2, "--dim", 30, "--members", 20),
    ("det", "--k", 3, "--members", 50),
    ("inverse", "--k", 3, "--members", 50),
    ("badset", "--dim", 8, "--members", 200),
    ("inverse",),
], ids=["translation", "det", "inverse", "badset", "inverse-default"])
def test_mc_is_byte_identical_across_blas_thread_counts(args):
    """The translation suite factors small blocks only, det and inverse
    (k = 1 at the defaults included) take their shifted determinants and
    column norms from GEMMs of one fixed chunk shape, and badset projects
    each block by one GEMM into a fixed buffer, so their reports do not
    depend on the BLAS thread count."""
    args = ("mc", *args)
    one = run_cli(*args, blas_threads=1)
    two = run_cli(*args, blas_threads=2)
    assert one.returncode == two.returncode == 0, one.stderr
    assert one.stdout == two.stdout


@pytest.mark.parametrize("normal", ["1,2,3,4", "-1,0,2,-3"], ids=["n4", "negative-flat"])
def test_volume_mc_is_byte_identical_across_blas_thread_counts(normal):
    """The shadow oracle projects each chunk by one GEMM into a fixed
    buffer, so its estimate does not depend on the BLAS thread count."""
    args = ("volume", "--halfwidths", "1,0.5,0.25,0.125", f"--normal={normal}", "--mc")
    one = run_cli(*args, blas_threads=1)
    two = run_cli(*args, blas_threads=2)
    assert one.returncode == two.returncode == 0, one.stderr
    assert one.stdout == two.stdout


@pytest.mark.parametrize("args", [
    ("det", "--k", 0),
    ("inverse", "--k", 0),
    ("det", "--members", 0),
    ("inverse", "--members", 0),
    ("inverse", "--delta-exponent", "nan"),
    ("det", "--epsilon-grid", "nan,0.1"),
    ("badset", "--epsilon-grid", "inf,1"),
    ("translation", "--max-exponent", "nan"),
    ("translation", "--radius", "inf"),
    ("translation", "--translation", "1,0,0,0,0,inf"),
    ("det", "--k", -1),
    ("inverse", "--members", -1),
    ("badset", "--members", -1),
    ("translation", "--members", -1),
    ("translation", "--dim", -3),
    ("det", "--zero-shifts", "--members", -1),
    ("badset", "--seed", -1),
    ("det", "--seed", -1),
    ("inverse", "--seed", -1),
    ("translation", "--seed", -1),
])
def test_mc_invalid_input_exits_2_without_traceback(args):
    cp = run_cli("mc", *args, "--samples", 1000)
    assert cp.returncode == 2, cp.stderr
    assert "Traceback" not in cp.stderr
    assert cp.stderr.startswith("error: ")


@pytest.mark.parametrize("args, message", [
    pytest.param(("det", "--epsilon-grid", "0.1,x"),
                 "could not parse epsilon grid: could not convert string to float: 'x'",
                 id="grid-non-numeric"),
    pytest.param(("det", "--epsilon-grid", ","), "epsilon grid is empty", id="grid-empty"),
    pytest.param(("translation", "--translation", ";"), "translation is empty",
                 id="translation-empty"),
    pytest.param(("translation", "--translation", "1,0,0,0,0,0;0,1"),
                 "translation rows have inconsistent lengths", id="translation-ragged"),
])
def test_mc_malformed_list_flags_exit_2_with_their_message(args, message):
    cp = run_cli("mc", *args, "--samples", 1000)
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr == f"error: {message}\n"


@pytest.mark.parametrize("args", [
    ("mc", "det", "--family", "x"),
    ("mc", "badset", "--k", 3),
    ("mc", "inverse", "--radius", 2),
    ("volume", "--halfwidths", 1, "--normal", 1, "--bogus", 2),
    ("volume", "--halfwidths", 1, "--normal", "-1,1", "--bogus", 2),
])
def test_mc_flag_a_suite_does_not_read_exits_2(args):
    """A foreign flag is reported with the usage of the parser it was
    given to, which names the suite's --help."""
    cp = run_cli(*args)
    prog = "transversal " + " ".join(a for a in args[:2] if not a.startswith("-"))
    foreign = " ".join(map(str, args[-2:]))
    assert cp.returncode == 2, cp.stderr
    assert "Traceback" not in cp.stderr
    assert cp.stderr.startswith(f"usage: {prog} [-h] ")
    assert cp.stderr.endswith(f"{prog}: error: unrecognized arguments: {foreign}\n")


@pytest.mark.parametrize("args", [
    ("translation", "--k", 1, "--dim", 99, "--members", 7),
    ("badset", "--dim", 4),
])
def test_mc_shape_flags_with_a_family_file_exit_2(args, codim2_family):
    """The family file fixes n, J and k, so a shape flag beside it is an error."""
    suite, *flags = args
    cp = run_cli("mc", suite, "--family", codim2_family[0], *flags)
    assert cp.returncode == 2, cp.stderr
    assert cp.stdout == ""
    assert cp.stderr.startswith("error: ") and "--family" in cp.stderr


def test_mc_unknown_suite_is_input_error():
    cp = run_cli("mc", "galaxy")
    assert cp.returncode == 2


def test_volume_diagonal_with_mc():
    cp = run_cli("volume", "--halfwidths", "1,1", "--normal", "1,1", "--mc",
                 "--samples", 200000)
    assert cp.returncode == 0, cp.stderr
    data = dict(line.split(" ", 1) for line in cp.stdout.strip().splitlines())
    assert float(data["projection_volume"]) == pytest.approx(2.0 * np.sqrt(2))
    assert float(data["mc_rel_error"]) <= 0.01
    assert data["mc_agreement"] == "ok"


@pytest.mark.parametrize("value", ["-1,1", "-.5,1", "-1e-3,1"])
def test_volume_normal_may_start_with_a_minus_sign(value):
    """A vector that starts with "-" is --normal's value, not an option: it
    prints the bytes of the attached --normal=VALUE form."""
    args = ("volume", "--halfwidths", "1,2", "--mc", "--samples", 1000)
    split = run_cli(*args, "--normal", value)
    attached = run_cli(*args, f"--normal={value}")
    assert split.returncode == attached.returncode == 0, split.stderr
    assert split.stdout == attached.stdout


def test_mc_translation_vector_may_start_with_a_minus_sign():
    args = ("mc", "translation", "--samples", 1000)
    split = run_cli(*args, "--translation", "-1,0,0,0,0,0.5")
    attached = run_cli(*args, "--translation=-1,0,0,0,0,0.5")
    assert split.returncode == attached.returncode == 0, split.stderr
    assert split.stdout == attached.stdout


def test_volume_axis_and_slab_bound():
    cp = run_cli("volume", "--halfwidths", "1,1,1", "--normal", "1,0,0",
                 "--delta", "0.1")
    assert cp.returncode == 0
    data = dict(line.split(" ", 1) for line in cp.stdout.strip().splitlines())
    assert float(data["projection_volume"]) == pytest.approx(4.0)
    assert float(data["slab_bound"]) == pytest.approx(0.8)


@pytest.mark.parametrize("halfwidths, normal, volume, estimate", [
    pytest.param("1e154,1e154", "1,1", 2.0 * np.sqrt(2.0) * 1e154,
                 2.0 * np.sqrt(2.0) * 1e154, id="1e154"),
    pytest.param("1e-200,1e-200", "1,1", 2.0 * np.sqrt(2.0) * 1e-200,
                 2.0 * np.sqrt(2.0) * 1e-200, id="1e-200"),
    pytest.param("1e308,1", "0,1", math.inf, math.inf, id="1e308"),
    pytest.param("1e308,1e-16", "0,1", math.inf, math.inf, id="1e308-aspect-1e324"),
    pytest.param("1,1", "1e-200,1e-200", 2.0 * np.sqrt(2.0), 2.0 * np.sqrt(2.0),
                 id="normal-1e-200"),
    pytest.param("1,1", "1e200,1e200", 2.0 * np.sqrt(2.0), 2.0 * np.sqrt(2.0),
                 id="normal-1e200"),
])
def test_volume_of_extreme_boxes(halfwidths, normal, volume, estimate):
    """Shadow volumes and normals near float64's ends: a value is inf only
    where the true one overflows, and then agreement is judged on the box
    scaled to a largest halfwidth in [1/2, 1), never as inf <= inf; a normal
    whose norm over- or underflows is normalized all the same."""
    cp = run_cli("volume", "--halfwidths", halfwidths, "--normal", normal, "--mc",
                 "--samples", 10_000)
    assert cp.returncode == 0, cp.stderr
    data = dict(line.split(" ", 1) for line in cp.stdout.strip().splitlines())
    assert float(data["projection_volume"]) == pytest.approx(volume, rel=1e-15, abs=0.0)
    assert float(data["mc_estimate"]) == pytest.approx(estimate, rel=1e-15, abs=0.0)
    assert 0.0 <= float(data["mc_rel_error"]) <= 1e-15
    assert data["mc_agreement"] == "ok"


@pytest.mark.parametrize("args", [
    ("--mc", "--seed", -1),
    ("--delta", "inf"),
    ("--delta", "nan"),
    ("--delta", 0),
])
def test_volume_invalid_input_exits_2_before_any_output(args):
    cp = run_cli("volume", "--halfwidths", "1,1", "--normal", "1,1", *args)
    assert cp.returncode == 2, cp.stderr
    assert cp.stdout == ""
    assert cp.stderr.startswith("error: ") and "Traceback" not in cp.stderr


def test_construct_negative_seed_is_input_error(single_hyperplane, tmp_path):
    out = tmp_path / "c.json"
    cp = run_cli("construct", "--family", single_hyperplane, "--seed", -1,
                 "--out", out)
    assert cp.returncode == 2, cp.stderr
    assert cp.stderr.startswith("error: ") and "Traceback" not in cp.stderr
    assert not out.exists()


def test_volume_zero_normal_is_input_error():
    cp = run_cli("volume", "--halfwidths", "1,1", "--normal", "0,0")
    assert cp.returncode == 2
    assert "nonzero" in cp.stderr


def test_log_env_controls_stderr_only(single_hyperplane, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    quiet = run_cli("construct", "--family", single_hyperplane, "--seed", 4,
                    "--out", out_a, log="quiet")
    debug = run_cli("construct", "--family", single_hyperplane, "--seed", 4,
                    "--out", out_b, log="debug")
    assert quiet.returncode == debug.returncode == 0
    assert quiet.stderr == ""
    assert "certified profile" in debug.stderr
    # the data stream must not change with the log level
    assert quiet.stdout.replace(str(out_a), "") == \
        debug.stdout.replace(str(out_b), "")
    assert out_a.read_bytes() == out_b.read_bytes()


def test_invalid_log_level_is_input_error(single_hyperplane, tmp_path):
    cp = run_cli("construct", "--family", single_hyperplane,
                 "--out", tmp_path / "x.json", log="chatty")
    assert cp.returncode == 2
    assert "TRANSVERSAL_LOG" in cp.stderr


def test_construct_outputs_byte_identical_for_equal_seeds(codim2_family, tmp_path):
    path, _ = codim2_family
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    run_cli("construct", "--family", path, "--seed", 8, "--out", out_a)
    run_cli("construct", "--family", path, "--seed", 8, "--out", out_b)
    assert out_a.read_bytes() == out_b.read_bytes()
    out_c = tmp_path / "c.json"
    run_cli("construct", "--family", path, "--seed", 80, "--out", out_c)
    assert out_c.read_bytes() != out_a.read_bytes()


def test_malformed_json_is_input_error(tmp_path):
    path = tmp_path / "mangled.json"
    path.write_text("{not json")
    cp = run_cli("construct", "--family", path, "--out", tmp_path / "x.json")
    assert cp.returncode == 2


@pytest.mark.parametrize("command", ["construct", "certify"])
def test_undecodable_input_files_are_input_errors(single_hyperplane, tmp_path, command):
    """A family or complement file that is not UTF-8 is not valid JSON: exit 2
    with one error line, not a UnicodeDecodeError traceback."""
    bad = tmp_path / "bad.json"
    if command == "construct":
        doc = json.loads(single_hyperplane.read_text())
        bad.write_bytes(json.dumps({**doc, "labels": ["@"]}).encode().replace(b"@", b"\xff"))
        cp = run_cli("construct", "--family", bad, "--out", tmp_path / "x.json")
    else:
        comp = tmp_path / "comp.json"
        assert run_cli("construct", "--family", single_hyperplane,
                       "--out", comp).returncode == 0
        bad.write_bytes(comp.read_bytes().replace(b"certified-by-construction", b"\xff"))
        cp = run_cli("certify", "--family", single_hyperplane, "--complement", bad)
    assert cp.returncode == 2, cp.stderr
    assert cp.stderr.startswith(f"error: {bad}: not valid JSON (")
    assert cp.stderr.count("\n") == 1


@pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e400"])
def test_non_finite_numbers_are_not_valid_json(tmp_path, number):
    """Input is strict JSON: NaN and Infinity tokens and numbers that
    overflow float64 are rejected by the parser."""
    path = tmp_path / "nan.json"
    path.write_text('{"dim": 2, "codim": 1, "normals": [[[%s, 1.0]]]}' % number)
    cp = run_cli("construct", "--family", path, "--out", tmp_path / "x.json")
    assert cp.returncode == 2
    assert cp.stderr.startswith(f"error: {path}: not valid JSON (")


def test_non_numeric_normals_are_input_error(tmp_path):
    path = tmp_path / "letters.json"
    path.write_text(json.dumps({"dim": 3, "codim": 1, "normals": [[["a", 0, 0]]]}))
    cp = run_cli("construct", "--family", path, "--out", tmp_path / "x.json")
    assert cp.returncode == 2
    assert "member 1" in cp.stderr and "Traceback" not in cp.stderr


@pytest.mark.parametrize("dim, deltas, message", [
    pytest.param(2, [0.5], "complement basis has shape (1, 4), expected (2, 4)",
                 id="basis-shape"),
    pytest.param(True, [0.5], "malformed complement document: dim must be an "
                 "integer, got True", id="bool-dim"),
    pytest.param(1, ["abc"],
                 "malformed certificate: could not convert string to float: 'abc'",
                 id="non-numeric"),
    pytest.param(1, [0.0], "malformed certificate: certified deltas must be strictly "
                 "positive", id="zero"),
    pytest.param(1, [-0.5], "malformed certificate: deltas must lie in [0, 1]",
                 id="negative"),
    pytest.param(1, [1.5], "malformed certificate: deltas must lie in [0, 1]",
                 id="above-one"),
    pytest.param(1, [0.5, 0.5], "stored certificate length does not match the family",
                 id="length"),
])
def test_complement_file_errors_are_input_errors(single_hyperplane, tmp_path,
                                                 dim, deltas, message):
    """Every check on the fields the loader reads exits 2 with one line."""
    comp = {"ambient_dim": 4, "dim": dim, "basis": [[1.0, 0.0, 0.0, 0.0]],
            "certified": {"deltas": deltas, "provenance": familyio.CERTIFIED}}
    cpath = tmp_path / "comp.json"
    cpath.write_text(json.dumps(comp))
    cp = run_cli("certify", "--family", single_hyperplane, "--complement", cpath)
    assert cp.returncode == 2
    assert cp.stderr == f"error: {message}\n"


def test_certify_reads_a_flat_one_vector_basis(single_hyperplane, tmp_path):
    """A one-vector basis may be written as a flat list: it certifies as
    the same basis written as one row."""
    outputs = []
    for basis in ([[1.0, 0.0, 0.0, 0.0]], [1.0, 0.0, 0.0, 0.0]):
        cpath = tmp_path / "comp.json"
        cpath.write_text(json.dumps({"ambient_dim": 4, "dim": 1, "basis": basis}))
        cp = run_cli("certify", "--family", single_hyperplane, "--complement", cpath)
        assert cp.returncode == 0, cp.stderr
        outputs.append(cp.stdout)
    assert outputs[1] == outputs[0] and outputs[0].endswith("verdict,true\n")


def test_certify_out_writes_the_printed_profile(codim2_family, tmp_path):
    """With --out, certify writes exactly the bytes it prints without it,
    and prints nothing."""
    path, _ = codim2_family
    comp = tmp_path / "comp.json"
    assert run_cli("construct", "--family", path, "--out", comp).returncode == 0
    printed = run_cli("certify", "--family", path, "--complement", comp)
    out = tmp_path / "profile.csv"
    written = run_cli("certify", "--family", path, "--complement", comp, "--out", out)
    assert printed.returncode == written.returncode == 0, written.stderr
    assert written.stdout == ""
    assert out.read_bytes() == printed.stdout.encode()


def test_certify_reads_only_basis_and_certified(codim2_family, tmp_path):
    """The fields written for readers of a complement file, measured,
    rng_seed and rejection_stats, neither change nor break certify."""
    path, _ = codim2_family
    full = tmp_path / "full.json"
    assert run_cli("construct", "--family", path, "--seed", 5,
                   "--out", full).returncode == 0
    doc = json.loads(full.read_text())
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(
        {key: doc[key] for key in ("ambient_dim", "dim", "basis", "certified")}))
    junk = tmp_path / "junk.json"
    junk.write_text(json.dumps({**doc, "measured": "junk", "rng_seed": "x",
                                "rejection_stats": {"attempted": 1}}))
    outputs = [run_cli("certify", "--family", path, "--complement", comp)
               for comp in (full, stripped, junk)]
    assert [cp.returncode for cp in outputs] == [0, 0, 0]
    assert outputs[0].stdout.endswith("verdict,true\n")
    assert outputs[1].stdout == outputs[0].stdout
    assert outputs[2].stdout == outputs[0].stdout


def test_outputs_are_byte_identical_per_blas_thread_count(tmp_path):
    """Equal seeds give equal bytes under one BLAS configuration; across
    thread counts the blocked QR may round differently, so entries agree to
    1e-12 while everything discrete stays equal."""
    fpath = tmp_path / "fam.json"
    write_family(fpath, random_subspace_family(400, 400, 1, 399))
    runs = {}
    for threads in (1, 2):
        outputs = []
        for rep in range(2):
            out = tmp_path / f"comp-{threads}-{rep}.json"
            cp = run_cli("construct", "--family", fpath, "--seed", 6, "--out", out,
                         blas_threads=threads)
            assert cp.returncode == 0, cp.stderr
            cert = run_cli("certify", "--family", fpath, "--complement", out,
                           blas_threads=threads)
            assert cert.returncode == 0, cert.stderr
            outputs.append((out.read_bytes(), cert.stdout))
        assert outputs[0] == outputs[1]
        runs[threads] = (json.loads(outputs[0][0]), outputs[0][1].splitlines())
    (one, csv_one), (two, csv_two) = runs[1], runs[2]
    np.testing.assert_allclose(one["basis"], two["basis"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(one["measured"]["deltas"], two["measured"]["deltas"],
                               rtol=0, atol=1e-12)
    for key in ("certified", "rng_seed", "rejection_stats"):
        assert one[key] == two[key]
    measured_one = [float(line.split(",")[1]) for line in csv_one[1:-1]]
    measured_two = [float(line.split(",")[1]) for line in csv_two[1:-1]]
    np.testing.assert_allclose(measured_one, measured_two, rtol=0, atol=1e-12)
    assert csv_one[-1] == csv_two[-1] == "verdict,true"
