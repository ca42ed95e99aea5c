"""Command line behavior: output formats, exit codes, caching."""

import json
import os
import subprocess
import sys

from pss.cli import main

from conftest import GRAM_EIGHT, GRAM_OVERPARTITION, GRAM_SPLIT, GRAM_ZX2


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- compute and eisenstein ------------------------------------------------------


def test_compute_weight2_text(capsys):
    rc, out, err = run(
        capsys, "compute", "--gram", "", "--weight", "2", "--m", "1",
        "--prec", "4")
    assert rc == 0 and err == ""
    assert out == "(): 1 - 24*q - 72*q^2 - 96*q^3 - 168*q^4\n"


def test_compute_json_round_trip(capsys):
    rc, out, err = run(
        capsys, "compute", "--gram", "", "--weight", "2", "--m", "1",
        "--prec", "3", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["weight"] == "2"
    assert data["components"][0]["coefficients"]["1"] == "-24"


def test_compute_deterministic_across_jobs(capsys):
    args = ("compute", "--gram", GRAM_SPLIT, "--weight", "2", "--m", "1",
            "--prec", "2")
    rc1, out1, _ = run(capsys, *args, "--jobs", "1")
    rc2, out2, _ = run(capsys, *args, "--jobs", "2")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_compute_with_twist(capsys):
    rc, out, err = run(
        capsys, "compute", "--gram", GRAM_SPLIT, "--weight", "2",
        "--m", "3/4", "--beta", "1/2,0", "--prec", "1")
    assert rc == 0 and err == ""
    assert out.count("\n") == 4


def test_eisenstein_text(capsys):
    rc, out, err = run(capsys, "eisenstein", "--gram", GRAM_ZX2, "--prec", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "(0): 1 - 6*q - 12*q^2 - 16*q^3"
    assert lines[1] == "(1/2): -4*q^(3/4) - 12*q^(7/4) - 12*q^(11/4)"


def test_precision_zero(capsys):
    # a component whose first exponent lies above the precision is empty
    rc, out, err = run(capsys, "eisenstein", "--gram", GRAM_ZX2, "--prec", "0")
    assert rc == 0 and err == ""
    assert out == "(0): 1\n(1/2): 0\n"
    rc, out, err = run(
        capsys, "compute", "--gram", GRAM_EIGHT, "--weight", "3/2", "--m", "1",
        "--prec", "0", "--format", "json")
    assert rc == 0 and err == ""
    coeffs = {tuple(c["gamma"]): c["coefficients"]
              for c in json.loads(out)["components"]}
    h = "1/2"
    assert coeffs.pop(("0", "0", "0")) == {"0": "1/2"}
    assert coeffs.pop((h, "0", "0")) == {"0": "-1/2"}
    assert coeffs.pop(("0", "0", h)) == {"0": "-1/2"}
    assert len(coeffs) == 5
    assert all(c == {} for c in coeffs.values()), coeffs


# -- verify -----------------------------------------------------------------------


def test_verify_hurwitz(capsys):
    rc, out, err = run(capsys, "verify", "hurwitz", "--limit", "30")
    assert rc == 0
    assert out == "hurwitz: 30 checks, 0 failures\n"


def test_verify_prop20(capsys):
    rc, out, err = run(capsys, "verify", "prop20", "--limit", "10")
    assert rc == 0
    assert out == "prop20: 10 checks, 0 failures\n"


def test_verify_product(capsys):
    rc, out, err = run(capsys, "verify", "product", "--prec", "6")
    assert rc == 0
    assert out == "product: 1 checks, 0 failures\n"


def test_verify_theta(capsys):
    rc, out, err = run(
        capsys, "verify", "theta", "--gram", GRAM_SPLIT, "--m", "1",
        "--prec", "1")
    assert rc == 0
    assert out.endswith("0 mismatches\n")


def test_verify_theta_needs_integer_index(capsys):
    rc, out, err = run(
        capsys, "verify", "theta", "--gram", GRAM_SPLIT, "--m", "3/4",
        "--prec", "1")
    assert rc == 2
    assert err.startswith("error:")


# -- pell and discriminant --------------------------------------------------------


def test_pell_output(capsys):
    rc, out, err = run(capsys, "pell", "--d", "33", "--c", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "fundamental unit: (23 + 4*sqrt(33))"
    assert lines[1] == "trace bound: 27.122906"
    assert "orbit: trace=4 rep=(2 + 0*sqrt(33)) self_conjugate=True sum=4/11*sqrt(33)" in lines
    assert "orbit: trace=7 rep=(7/2 + 1/2*sqrt(33)) self_conjugate=False sum=25/11*sqrt(33)" in lines
    assert lines[-1] == "orbits: 3 shown of 3"


def test_pell_congruence_filter(capsys):
    rc, out, err = run(
        capsys, "pell", "--d", "33", "--c", "4", "--mod", "5", "--res", "2")
    assert rc == 0
    assert out.splitlines()[-1] == "orbits: 2 shown of 3"


def test_discriminant_output(capsys):
    rc, out, err = run(capsys, "discriminant", "--gram", "[[2,1],[1,-2]]")
    assert rc == 0
    lines = out.splitlines()
    assert "rank: 2" in lines
    assert "order: 5" in lines
    assert "elementary divisors: 5" in lines
    assert "signature: (1, 1)" in lines
    assert "weight 3/2 compatible: no" in lines
    assert "weight 2 compatible: yes" in lines
    assert "element (2/5,1/5): q=1/5 order=5" in lines


# -- failure modes ----------------------------------------------------------------


def test_bad_gram_exits_two(capsys):
    rc, out, err = run(capsys, "discriminant", "--gram", "[[1]]")
    assert rc == 2
    assert err.startswith("error:")


def test_missing_gram_exits_two(capsys):
    rc, out, err = run(capsys, "discriminant")
    assert rc == 2
    assert "Gram matrix is required" in err


def test_budget_exhaustion_exits_one():
    # a fresh interpreter, so L-values memoised by earlier tests cannot let
    # the computation finish before the budget check fires
    proc = _run_fresh(
        ["eisenstein", "--gram", GRAM_OVERPARTITION, "--prec", "2",
         "--budget", "32"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("computation gave up:")


def test_incompatible_weight_exits_two(capsys):
    rc, out, err = run(
        capsys, "compute", "--gram", GRAM_ZX2, "--weight", "2", "--m", "1",
        "--prec", "1")
    assert rc == 2
    assert err.startswith("error:")


# -- gram files and caches ---------------------------------------------------------


def test_gram_file(tmp_path, capsys):
    path = tmp_path / "gram.txt"
    path.write_text(GRAM_ZX2 + "\n", encoding="utf-8")
    rc, out, err = run(
        capsys, "discriminant", "--gram-file", str(path))
    assert rc == 0
    assert "order: 2" in out.splitlines()


def _run_fresh(argv, env=None):
    # a separate interpreter, so the in-process L-value memo cannot mask
    # the cache file handling
    code = "from pss.cli import main; raise SystemExit(main(%r))" % (argv,)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env)


def test_cache_flag_writes_file(tmp_path):
    cache = tmp_path / "factors.json"
    proc = _run_fresh(
        ["eisenstein", "--gram", GRAM_ZX2, "--prec", "1",
         "--cache", str(cache)])
    assert proc.returncode == 0
    assert cache.exists()
    stored = json.loads(cache.read_text(encoding="utf-8"))
    assert stored["version"] == 1
    assert stored["entries"]


def test_cache_env_variable(tmp_path):
    cache = tmp_path / "env-cache.json"
    env = dict(os.environ, PSS_CACHE=str(cache))
    first = _run_fresh(["eisenstein", "--gram", GRAM_ZX2, "--prec", "1"], env)
    assert first.returncode == 0
    assert cache.exists()
    second = _run_fresh(["eisenstein", "--gram", GRAM_ZX2, "--prec", "1"], env)
    assert second.returncode == 0
    assert first.stdout == second.stdout


def test_cache_of_another_version_exits_two(tmp_path, capsys):
    cache = tmp_path / "factors.json"
    text = json.dumps({"version": 7, "entries": {}})
    cache.write_text(text, encoding="utf-8")
    argv = ["eisenstein", "--gram", GRAM_ZX2, "--prec", "1",
            "--cache", str(cache)]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and str(cache) in err
    assert cache.read_text(encoding="utf-8") == text
    # the check must hold where asserts are stripped
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pss.cli"] + argv,
        capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert str(cache) in proc.stderr
    assert cache.read_text(encoding="utf-8") == text


def test_truncated_cache_exits_two(tmp_path, capsys):
    cache = tmp_path / "factors.json"
    text = '{"version": 1, "entries": {"plain|'
    cache.write_text(text, encoding="utf-8")
    rc, out, err = run(
        capsys, "eisenstein", "--gram", GRAM_ZX2, "--prec", "1",
        "--cache", str(cache))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and str(cache) in err
    assert cache.read_text(encoding="utf-8") == text


def test_malformed_cache_entries_exit_two(tmp_path, capsys):
    cache = tmp_path / "factors.json"
    for entries in ([], {"plain|p2": [2, 1]}):
        text = json.dumps({"version": 1, "entries": entries})
        cache.write_text(text, encoding="utf-8")
        rc, out, err = run(
            capsys, "eisenstein", "--gram", GRAM_ZX2, "--prec", "1",
            "--cache", str(cache))
        assert rc == 2 and out == "", entries
        assert err.startswith("error:") and str(cache) in err, err
        assert cache.read_text(encoding="utf-8") == text
