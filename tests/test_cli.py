import copy
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

from maps import CONFIG_FAIL
from wpline import (GroupHom, PrimeField, RationalField, VerifyConfig, builtin_case,
                    builtin_group_hom, parse_scalar)
from wpline.cases import case_config
from wpline.field import field_from_spec
from wpline.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGroupCommands:
    def test_dualizing(self, capsys):
        code, out, _ = run(capsys, "group", "dualizing", "--weights", "6,3,2")
        assert code == 0 and out.strip() == "-2;5,2,1"

    def test_tubular_false(self, capsys):
        code, out, _ = run(capsys, "group", "tubular", "--weights", "2,3,7")
        assert code == 0 and out.strip() == "false"

    def test_tubular_true(self, capsys):
        code, out, _ = run(capsys, "group", "tubular", "--weights", "4,4,2")
        assert code == 0 and out.strip() == "true"

    def test_kernel_case_a(self, capsys):
        code, out, _ = run(capsys, "group", "kernel", "--case", "A")
        assert code == 0 and out.split() == ["0;0,0,0", "-1;2,2,0"]

    def test_kernel_pretty(self, capsys):
        code, out, _ = run(capsys, "group", "kernel", "--case", "A", "--pretty")
        assert code == 0 and out.split() == ["0", "2z1+2z2-c"]

    def test_normal_form_with_negative_entries(self, capsys):
        code, out, _ = run(capsys, "group", "normal-form", "--weights", "4,4,2",
                           "--elem", "2;-3,-3,-1")
        assert code == 0 and out.strip() == "-1;1,1,1"

    def test_add(self, capsys):
        code, out, _ = run(capsys, "group", "add", "--weights", "4,4,2",
                           "--elem", "0;3,0,0", "--elem", "0;1,0,0")
        assert code == 0 and out.strip() == "1;0,0,0"

    def test_order_at_a_large_prime_weight(self, capsys):
        p = 10 ** 9 + 7
        code, out, _ = run(capsys, "group", "order", "--weights", "%d,%d,%d" % (p, p, p),
                           "--elem", "-1;1,%d,0" % (p - 1))
        assert code == 0 and out.strip() == str(p)

    def test_order_and_infinity(self, capsys):
        code, out, _ = run(capsys, "group", "order", "--weights", "6,3,2",
                           "--elem", "-2;5,2,1")
        assert code == 0 and out.strip() == "6"
        code, out, _ = run(capsys, "group", "order", "--weights", "6,3,2",
                           "--elem", "1;0,0,0")
        assert code == 0 and out.strip() == "infinity"

    def test_fiber(self, capsys):
        code, out, _ = run(capsys, "group", "fiber", "--case", "A",
                           "--elem", "1;0,0,0,0")
        assert code == 0 and out.split() == ["0;0,2,0", "0;2,0,0"]

    def test_fiber_outside_image_is_empty(self, capsys):
        code, out, _ = run(capsys, "group", "fiber", "--case", "A",
                           "--elem", "0;0,0,1,0")
        assert code == 0 and out.strip() == ""

    def test_admissible_json(self, capsys):
        code, out, _ = run(capsys, "group", "admissible", "--case", "B",
                           "--window", "12")
        assert code == 0
        data = json.loads(out)
        assert data["admissible"] and data["edge_regime_ok"]
        assert data["kernel"] == ["0;0,0,0", "-1;2,2,0", "-1;4,1,0"]

    @pytest.mark.parametrize("argv,elems", [
        (["normal-form", "--weights", "2,2"], 2),
        (["add", "--weights", "2,2"], 1),
        (["add", "--weights", "2,2"], 3),
        (["order", "--weights", "2,2"], 2),
        (["fiber", "--case", "A"], 2),
    ])
    def test_wrong_number_of_elems_exit_2(self, capsys, argv, elems):
        code, out, err = run(capsys, "group", *argv, *["--elem", "0;1,1"] * elems)
        assert (code, out) == (2, "") and err.startswith("error: %s needs exactly" % argv[0])

    def test_bad_weights_exit_2(self, capsys):
        code, _, err = run(capsys, "group", "dualizing", "--weights", "4,x")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("case,checked", [("A", 16000000008), ("B", 8000000004),
                                              ("C", 18000000009), ("D", 8000000004)])
    def test_admissible_at_any_window(self, case, checked):
        """Admissibility is in closed form per class of the period table, so
        a window of 10^9 answers as fast as a small one."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "wpline", "group", "admissible", "--case",
                               case, "--window", "1000000000"], env=env, capture_output=True,
                              text=True, timeout=5)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["checked"] == checked
        assert data["admissible"] and data["edge_regime_ok"] and data["failures"] == []
        h = builtin_group_hom(case)
        for w in (1, 7, 1000):
            assert h.is_admissible(w).checked == len(h.window_fibers(w))


class TestAlgebraCommands:
    def test_dim(self, capsys):
        code, out, _ = run(capsys, "algebra", "dim", "--weights", "2,2,2,2",
                           "--params", "-1", "--degree", "1;0,0,0,0")
        assert code == 0 and out.strip() == "2"

    def test_dim_negative_level(self, capsys):
        code, out, _ = run(capsys, "algebra", "dim", "--weights", "2,2,2,2",
                           "--params", "-1", "--degree", "-2;1,1,1,1")
        assert code == 0 and out.strip() == "0"

    def test_basis(self, capsys):
        code, out, _ = run(capsys, "algebra", "basis", "--weights", "3,3,3",
                           "--degree", "0;1,1,0")
        assert code == 0 and out.strip() == "[y1*y2]"

    def test_basis_json(self, capsys):
        code, out, _ = run(capsys, "algebra", "basis", "--weights", "2,2,2,2",
                           "--params", "-1", "--degree", "1;0,0,0,0", "--json")
        assert code == 0 and json.loads(out) == [[0, 2, 0, 0], [2, 0, 0, 0]]

    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "algebra", "reduce", "--weights", "4,4,2",
                           "--monomial", "0,0,2")
        assert code == 0 and out.strip() == "z2^4 - z1^4"

    @pytest.mark.parametrize("exps,message", [
        ([1, 0], "exponent vector (1, 0) has wrong length"),
        ([1, -1, 0], "exponents must be nonnegative, got (1, -1, 0)"),
    ], ids=["short", "negative"])
    def test_bad_exponent_vector_exit_2(self, capsys, tmp_path, exps, message):
        """``algebra reduce`` and a config's phi term check an exponent
        vector alike, and name it."""
        code, out, err = run(capsys, "algebra", "reduce", "--weights", "3,3,3",
                             "--monomial", ",".join(map(str, exps)))
        assert (code, out, err) == (2, "", "error: %s\n" % message)
        cfg = copy.deepcopy(CASE_C_CONFIG)
        cfg["phi"][0] = [["1", exps]]
        path = tmp_path / "exps.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert (code, out, err) == (2, "", "error: %s\n" % message)

    def test_hilbert(self, capsys):
        code, out, _ = run(capsys, "algebra", "hilbert", "--weights", "6,3,2",
                           "--lmin", "-2", "--lmax", "2")
        assert code == 0
        assert out.splitlines() == ["-2 0", "-1 0", "0 1", "1 2", "2 3"]

    def test_hilbert_bad_torsion_exit_2(self, capsys):
        code, out, err = run(capsys, "algebra", "hilbert", "--weights", "6,3,2", "--lmin", "0",
                             "--lmax", "2", "--torsion", "1,x")
        assert (code, out, err) == (2, "", "error: bad --torsion value '1,x'\n")

    def test_hilbert_range_is_capped(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "wpline", "algebra", "hilbert", "--weights",
                               "2,3", "--lmin", "0", "--lmax", "1000000000"], env=env,
                              capture_output=True, text=True, timeout=5)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "1000000 levels" in proc.stderr and "Traceback" not in proc.stderr

    def test_hilbert_memory_is_constant(self):
        """dim is read off the level, so listing 3001 levels keeps the
        child's peak RSS small; a cache of every listed basis grows as
        lmax^2 (76 MB at lmax 1000).  The child reads its own peak, VmHWM
        of /proc/self/status: on Linux its ru_maxrss also carries the peak
        of the process that spawned it, which makes the bound depend on
        the tests run before this one."""
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from wpline.cli import main; "
                "code = main(['algebra', 'hilbert', '--weights', '2,3', '--lmin', '0', "
                "'--lmax', '3000']); "
                "hwm = [line.split()[1] for line in open('/proc/self/status') "
                "if line.startswith('VmHWM:')]; "
                "print(code, *hwm, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=60)
        lines = proc.stdout.splitlines()
        assert len(lines) == 3001 and lines[-1] == "3000 3001"
        exit_code, maxrss_kb = map(int, proc.stderr.split())
        assert exit_code == 0 and maxrss_kb < 100 * 1024

    def test_hilbert_normalizes_once(self, capsys, monkeypatch):
        """Level l has the degree of --lmin moved up l - lmin levels, so
        only the first level is normalized, and lines go out in blocks."""
        from wpline import cli
        from wpline.stringgroup import WeightSequence
        calls = {"normalize": 0, "out": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(WeightSequence, "normalize",
                            counted("normalize", WeightSequence.normalize))
        monkeypatch.setattr(cli, "_out", counted("out", cli._out))
        code, out, _ = run(capsys, "algebra", "hilbert", "--weights", "6,3,2", "--lmin", "-7",
                           "--lmax", "20000", "--torsion", "7,-1,3")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 20008
        assert lines[5:8] == ["-2 0", "-1 1", "0 2"] and lines[-1] == "20000 20002"
        assert calls == {"normalize": 1, "out": -(-20008 // cli.HILBERT_BLOCK)}

    @pytest.mark.parametrize("argv,limit", [
        # one past MAX_LEVEL levels: U and V carries alone, and a basis
        (["reduce", "--weights", "2,3", "--monomial", "200002,0"], "100000 levels"),
        (["reduce", "--weights", "2,3", "--monomial", "1000000000,0"], "100000 levels"),
        (["basis", "--weights", "2,2,2,2", "--params", "-1", "--degree", "100001;0,0,0,0"],
         "100000"),
        (["basis", "--weights", "2,2,2,2", "--params", "-1", "--degree", "3000000;0,0,0,0"],
         "100000"),
        # one past MAX_CARRIES carries by V - lam U: split over three
        # generators, and a lambda of 40 bits, which counts three times
        (["reduce", "--weights", "2,2,2,2,2", "--params", "-255/254,127/129",
          "--monomial", "0,0,700,700,602"], "1000 carries"),
        (["reduce", "--weights", "2,2,2,2", "--params", "-548587/974169",
          "--monomial", "0,0,0,668"], "1000 carries"),
        (["reduce", "--weights", "2,2,2,2", "--params", "-1", "--monomial", "0,0,0,4000"],
         "1000 carries"),
        (["reduce", "--weights", "2,2,2,2", "--params", "-1", "--monomial", "0,0,0,20000"],
         "1000 carries"),
    ])
    def test_large_elements_and_bases_exit_2(self, argv, limit):
        """Inputs one past a cap, and far past it, end in exit 2 well within
        5 s; inputs at the caps answer in under 2 s on a 2-vCPU guest."""
        proc = subprocess.run([sys.executable, "-m", "wpline", "algebra", *argv],
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              capture_output=True, text=True, timeout=5)
        assert proc.returncode == 2 and proc.stdout == ""
        assert limit in proc.stderr and "Traceback" not in proc.stderr

    def test_elements_at_the_caps_are_built(self, capsys):
        # x1^198000 x2 x4^2001 = x1^198000 x2 x4 (V + U)^1000 at lambda = -1
        code, out, _ = run(capsys, "algebra", "reduce", "--weights", "2,2,2,2", "--params", "-1",
                           "--monomial", "198000,1,0,2001")
        assert code == 0 and len(out.split(" + ")) == 1001 and " - " not in out
        code, out, _ = run(capsys, "algebra", "basis", "--weights", "2,3",
                           "--degree", "100000;0,0", "--json")
        assert code == 0 and len(json.loads(out)) == 100001

    def test_param_in_prime_field(self, capsys):
        code, out, _ = run(capsys, "algebra", "dim", "--weights", "2,2,2,2",
                           "--params", "3", "--field", "7",
                           "--degree", "2;0,0,0,0")
        assert code == 0 and out.strip() == "3"

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "algebra", "dim", "--weights", "2,2,2,2",
                           "--params", "1", "--degree", "1;0,0,0,0")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("weights,params,want", [
        ("3,3,3", "5", "0 values for 3 weights (the first parameter is fixed at 1), got 1"),
        ("2,2,2,2", "", "1 value for 4 weights (the first parameter is fixed at 1), got 0"),
        ("2,2,2,2", "-1,3", "1 value for 4 weights (the first parameter is fixed at 1), got 2"),
    ], ids=["3-weights", "4-weights-none", "4-weights-two"])
    def test_param_count_exit_2(self, capsys, weights, params, want):
        code, out, err = run(capsys, "algebra", "dim", "--weights", weights,
                             "--params", params, "--degree", "1;0,0,0")
        assert (code, out, err) == (2, "", "error: --params takes %s\n" % want)

    def test_param_with_vanishing_denominator_exit_2(self, capsys):
        code, out, err = run(capsys, "algebra", "dim", "--weights", "2,2,2,2",
                             "--params", "1/7", "--field", "7",
                             "--degree", "1;0,0,0,0")
        assert code == 2 and out == "" and err.startswith("error: division by zero")


class TestVerifyCommand:
    def test_case_a_rationals_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "A",
                           "--field", "rationals", "--window", "8")
        assert code == 0
        report = json.loads(out)
        assert report["summary"] == "pass"
        assert report["admissible"] is True
        assert report["kernel"] == ["0;0,0,0", "-1;2,2,0"]

    @pytest.mark.parametrize("argv,want", [(["--case", "A", "--field", "5"], 0),
                                           (["--case", "D", "--field", "7", "--lambda", "-1"], 0),
                                           (["--case", "B", "--field", "7",
                                             "--tamper", "lambda=2"], 1),
                                           (["--case", "C", "--field", "7"], 2),
                                           (["--case", "B", "--auto-prime"], 0),
                                           (["--case", "D", "--auto-prime", "--lambda", "1"],
                                            2)])
    def test_case_document_is_parsed_once(self, capsys, monkeypatch, argv, want):
        """One verify call reads its case document once, whether it passes,
        fails a relation, lacks a root or searches a prime; the kernel
        self-check compares with the paper's kernel text."""
        parse, docs = VerifyConfig.from_dict, []
        monkeypatch.setattr(VerifyConfig, "from_dict",
                            classmethod(lambda cls, data: docs.append(data) or parse(data)))
        code, _, _ = run(capsys, "verify", "--window", "4", *argv)
        assert (code, len(docs)) == (want, 1)

    @pytest.mark.parametrize("tamper,want", [([], 0), (["--tamper", "lambda=2"], 1)],
                             ids=["plain", "tampered"])
    def test_a_tampered_case_keeps_its_group_map(self, capsys, monkeypatch, tamper, want):
        """A tamper replaces a target parameter, which the group map never
        reads: the call builds one group map and one residue table, as the
        call without the tamper does."""
        homs, tables = [], []
        init, residues = GroupHom.__init__, GroupHom._residues.func
        monkeypatch.setattr(GroupHom, "__init__",
                            lambda self, *args: homs.append(self) or init(self, *args))
        counted = cached_property(lambda self: tables.append(self) or residues(self))
        counted.__set_name__(GroupHom, "_residues")
        monkeypatch.setattr(GroupHom, "_residues", counted)
        code, _, _ = run(capsys, "verify", "--case", "A", "--field", "5", *tamper)
        assert (code, len(homs), tables) == (want, 1, homs)

    def test_reports_are_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--case", "B", "--field", "7",
                             "--window", "5")
        code2, out2, _ = run(capsys, "verify", "--case", "B", "--field", "7",
                             "--window", "5")
        assert code1 == code2 == 0 and out1 == out2
        report = json.loads(out1)
        assert report["constants"]["epsilon"] == "3"
        assert report["constants"]["delta"] == "1"

    def test_case_d_reports_derived_parameter(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "D", "--field", "7",
                           "--lambda", "-1", "--window", "5")
        assert code == 0
        report = json.loads(out)
        assert report["constants"]["lambda_prime"] == "2"

    def test_tamper_fails_with_relation_error(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--case", "A", "--field", "5",
                           "--window", "8", "--tamper", "lambda=2",
                           "--out", str(out_path))
        assert code == 1
        report = json.loads(out_path.read_text())
        assert report["summary"] == "fail"
        assert report["error"]["type"] == "RelationError"
        assert json.loads(out) == report

    @pytest.mark.parametrize("argv", [
        ["--case", "B", "--field", "7", "--window", "6"],
        ["--case", "A", "--field", "5", "--window", "4", "--tamper", "lambda=2"],
        ["--case", "C", "--field", "5", "--window", "300"],
        ["--config", "fail.json", "--window", "20"],
    ], ids=["pass", "error", "blocks", "fail"])
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        """The report is made once and each block goes to the file and to
        stdout; C at window 300 writes several blocks."""
        (tmp_path / "fail.json").write_text(json.dumps(CONFIG_FAIL))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", *argv, "--out", str(out_path))
        assert code in (0, 1) and out.startswith("{")
        assert out_path.read_bytes() == out.encode()
        code_without, out_without, _ = run(capsys, "verify", *argv)
        assert (code_without, out_without) == (code, out)

    def test_out_to_a_device_still_writes_stdout(self, capsys):
        argv = ["verify", "--case", "B", "--field", "7", "--window", "6"]
        assert run(capsys, *argv, "--out", os.devnull) == run(capsys, *argv)

    def test_out_to_stdout_itself_writes_the_report_once(self, tmp_path):
        """--out naming stdout's own pipe, or the file stdout goes to,
        gets the report once, also past a pipe's 64 KiB buffer: two
        writers there would interleave their copies."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        argv = [sys.executable, "-m", "wpline", "verify", "--case", "B", "--field", "7",
                "--window", "40"]
        once = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        assert once.returncode == 0 and len(once.stdout) > 64 * 1024
        piped = subprocess.run(argv + ["--out", "/dev/stdout"], env=env, capture_output=True,
                               timeout=60)
        assert (piped.returncode, piped.stderr, piped.stdout) == (0, b"", once.stdout)
        path = tmp_path / "report.json"
        with open(path, "wb") as fh:
            to_file = subprocess.run(argv + ["--out", str(path)], env=env, stdout=fh,
                                     stderr=subprocess.PIPE, timeout=60)
        assert (to_file.returncode, to_file.stderr) == (0, b"")
        assert path.read_bytes() == once.stdout

    def test_unwritable_out_exits_2_before_stdout(self, capsys, tmp_path):
        for path in (str(tmp_path / "missing" / "report.json"), ""):
            code, out, err = run(capsys, "verify", "--case", "B", "--field", "7", "--window", "6",
                                 "--out", path)
            assert (code, out) == (2, "") and err.startswith("error: "), path

    def test_constant_unavailable_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "C", "--field", "7",
                           "--window", "5")
        assert code == 2 and "auto-prime" in err

    def test_auto_prime(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "C", "--auto-prime",
                           "--window", "5")
        assert code == 0
        report = json.loads(out)
        assert report["field"] == "5" and report["summary"] == "pass"

    def test_auto_prime_without_a_prime_names_the_case(self, capsys):
        code, out, err = run(capsys, "verify", "--case", "D", "--auto-prime",
                             "--lambda", "1", "--window", "4")
        assert code == 2 and out == ""
        assert err == ("error: no prime in [5, 1000] resolves the constants of case D "
                       "(try another prime, or --auto-prime)\n")

    def test_auto_prime_without_lambda_names_lambda(self, capsys):
        # an unset lambda is the same on every prime: the error of one field
        code, out, err = run(capsys, "verify", "--case", "D", "--auto-prime")
        assert (code, out) == (2, "")
        assert err == "error: the constant lambda is unset (pass --lambda)\n"
        assert run(capsys, "verify", "--case", "D", "--field", "7") == (code, out, err)

    def test_lambda_with_zero_denominator_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--case", "D", "--field", "rationals",
                             "--lambda", "1/0")
        assert code == 2 and out == "" and err.startswith("error: division by zero")

    @pytest.mark.parametrize("field", [["--field", "rationals"], ["--field", "7"],
                                       ["--auto-prime"]], ids=["Q", "F7", "auto-prime"])
    def test_lambda_in_exponent_notation_exit_2(self, capsys, field):
        # --lambda is an expression, like a config constant: no 10^100000 is made
        code, out, err = run(capsys, "verify", "--case", "D", *field, "--lambda", "1e100000")
        assert (code, out) == (2, "")
        assert err == "error: trailing input in expression '1e100000'\n"

    def test_rational_lambda_over_a_prime_field(self, capsys):
        # 1/3 is 13 in F_19, and the report is the one of the residue
        code, out, err = run(capsys, "verify", "--case", "D", "--field", "19",
                             "--lambda", "1/3", "--window", "6")
        assert code in (0, 1) and err == ""
        report = json.loads(out)
        assert report["constants"]["lambda"] == "13"
        assert run(capsys, "verify", "--case", "D", "--field", "19",
                   "--lambda", "13", "--window", "6") == (code, out, "")
        # in F_13, 1 - 1/3 = 5 is no square: a missing constant, not a parse error
        code, out, err = run(capsys, "verify", "--case", "D", "--field", "13",
                             "--lambda", "1/3", "--window", "6")
        assert code == 2 and out == ""
        assert err.startswith("error: no square root of -(lambda - 1) in 13")

    def test_lambda_with_denominator_vanishing_mod_q_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--case", "D", "--field", "13",
                             "--lambda", "1/13")
        assert code == 2 and out == "" and err.startswith("error: division by zero")

    def test_large_primes_answer(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "C", "--field", "1000033",
                           "--window", "4")
        assert code == 2 and "no cube root of -4" in err
        for case in ("B", "C"):
            code, _, err = run(capsys, "verify", "--case", case,
                               "--field", "1000000007", "--window", "4")
            assert code == 2 and "auto-prime" in err
        code, out, _ = run(capsys, "verify", "--case", "D", "--field", "1000000007",
                           "--lambda", "-1", "--window", "4")
        assert code == 0 and json.loads(out)["summary"] == "pass"
        code, out, _ = run(capsys, "verify", "--case", "A",
                           "--field", str(2 ** 61 - 1), "--window", "4")
        assert code == 0 and json.loads(out)["summary"] == "pass"

    def test_prime_beyond_primality_limit_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "A",
                           "--field", "3317044064679887385961987", "--window", "4")
        assert code == 2 and "not decided" in err

    def test_case_d_needs_lambda(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "D", "--field", "7",
                           "--window", "5")
        assert code == 2 and "lambda" in err

    def test_usage_errors(self, capsys):
        code, _, _ = run(capsys, "verify", "--window", "5")
        assert code == 2
        code, _, _ = run(capsys, "verify", "--case", "A", "--config", "x.json")
        assert code == 2
        code, _, _ = run(capsys, "group", "kernel", "--case", "E")
        assert code == 2


class TestScalarExpressions:
    Q = RationalField()
    F7 = PrimeField(7)

    def test_precedence_and_parentheses(self):
        assert parse_scalar("1 + 2*3", self.Q) == 7
        assert parse_scalar("(1 + 2)*3", self.Q) == 9
        assert parse_scalar("17/12", self.Q) == Fraction(17, 12)
        assert parse_scalar("2^3 - 1", self.Q) == 7

    def test_unary_minus(self):
        assert parse_scalar("-1", self.Q) == -1
        assert parse_scalar("3 - -2", self.Q) == 5
        assert parse_scalar("-(2 + 3)", self.F7) == self.F7(2)

    def test_named_constants(self):
        env = {"eps": self.F7(3)}
        assert parse_scalar("6*eps - 3", self.F7, env) == self.F7(1)
        assert parse_scalar("eps^2 - eps + 1", self.F7, env) == self.F7(0)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_scalar("unknown + 1", self.Q)
        with pytest.raises(ValueError):
            parse_scalar("1 + ", self.Q)
        with pytest.raises(ValueError):
            parse_scalar("2 3", self.Q)
        with pytest.raises(ValueError):
            parse_scalar("1 @ 2", self.Q)
        with pytest.raises(ZeroDivisionError):
            parse_scalar("1/0", self.F7)

    def test_powers_are_bounded_over_q_only(self):
        with pytest.raises(ValueError, match="power too large"):
            parse_scalar("9^99999999", self.Q)
        assert parse_scalar("9^99999999", self.F7) == self.F7(pow(9, 99999999, 7))
        assert parse_scalar("2^1000", self.Q) == 2 ** 1000

    @pytest.mark.parametrize("text", ["(" * 3000 + "1" + ")" * 3000, "-" * 5000 + "1"])
    def test_deep_nesting_exit_2(self, capsys, text):
        code, out, err = run(capsys, "verify", "--case", "A", "--tamper", "lambda=" + text)
        assert (code, out) == (2, "") and err.startswith("error: maximum recursion depth")


CASE_A_CONFIG = {
    "source": {"weights": [4, 4, 2], "params": ["1"]},
    "target": {"weights": [2, 2, 2, 2], "params": ["1", "-1"]},
    "field": "rationals",
    "constants": {},
    "pi": ["0;1,0,0,0", "0;0,1,0,0", "0;0,0,1,1"],
    "phi": [
        [["1", [1, 0, 0, 0]]],
        [["1", [0, 1, 0, 0]]],
        [["1", [0, 0, 1, 1]]],
    ],
    "window": 6,
}


CASE_C_CONFIG = {
    "source": {"weights": [6, 3, 2], "params": ["1"]},
    "target": {"weights": [3, 3, 3], "params": ["1"]},
    "field": "5",
    "constants": {"i": ["1", "0", "1"], "r": ["4", "0", "0", "1"]},
    "pi": ["0;0,0,1", "0;1,1,0", "1;0,0,0"],
    "phi": [
        [["1", [0, 0, 1]]],
        [["r", [1, 1, 0]]],
        [["i", [3, 0, 0]], ["i", [0, 3, 0]]],
    ],
    "window": 5,
}


class TestConfig:
    def test_round_trip_is_identity(self):
        cfg = VerifyConfig.from_dict(CASE_A_CONFIG)
        again = VerifyConfig.from_dict(cfg.to_dict())
        assert cfg == again
        assert VerifyConfig.from_dict(again.to_dict()) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = VerifyConfig.from_dict(CASE_A_CONFIG)
        path = tmp_path / "cfg.json"
        cfg.dump(str(path))
        assert VerifyConfig.load(str(path)) == cfg

    def test_config_file_verifies(self, capsys, tmp_path):
        path = tmp_path / "caseA.json"
        path.write_text(json.dumps(CASE_A_CONFIG))
        code, out, _ = run(capsys, "verify", "--config", str(path),
                           "--window", "6")
        assert code == 0
        report = json.loads(out)
        assert report["case"] == "custom" and report["summary"] == "pass"

    def test_constant_named_lambda_exit_2(self, capsys, tmp_path):
        # it would override --lambda: case D over F_7 has no root at lambda = 3
        doc = case_config("D").to_dict()
        doc.update(field="7", constants={"lambda": "-1", **doc["constants"]})
        path = tmp_path / "caseD.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--config", str(path), "--lambda", "3")
        assert (code, out) == (2, "")
        assert err == ("error: constant name 'lambda' is reserved; lambda is bound by "
                       "--lambda\n")
        code, out, err = run(capsys, "verify", "--case", "D", "--field", "7", "--lambda", "3")
        assert (code, out) == (2, "") and err.startswith("error: no square root of -(lambda - 1)")

    def test_bad_character_before_lambda_exit_2(self, capsys, tmp_path):
        # the text is refused before an unset lambda is, as the parser reads it
        doc = case_config("D").to_dict()
        doc["source"]["params"][0] = "1 $"
        path = tmp_path / "caseD.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == "error: unexpected character '$' in expression '1 $'\n"

    def test_config_with_constants(self, capsys, tmp_path):
        cfg = {
            "source": {"weights": [6, 3, 2], "params": ["1"]},
            "target": {"weights": [3, 3, 3], "params": ["1"]},
            "field": "5",
            "constants": {"i": ["1", "0", "1"], "r": ["4", "0", "0", "1"]},
            "pi": ["0;0,0,1", "0;1,1,0", "1;0,0,0"],
            "phi": [
                [["1", [0, 0, 1]]],
                [["r", [1, 1, 0]]],
                [["i", [3, 0, 0]], ["i", [0, 3, 0]]],
            ],
            "window": 5,
        }
        path = tmp_path / "caseC.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "verify", "--config", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["summary"] == "pass"
        assert report["constants"] == {"i": "2", "r": "1"}

    def test_broken_config_relation_fails_verification(self, capsys, tmp_path):
        cfg = dict(CASE_A_CONFIG)
        cfg["target"] = {"weights": [2, 2, 2, 2], "params": ["1", "2"]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "verify", "--config", str(path))
        assert code == 1
        report = json.loads(out)
        assert report["error"]["type"] == "RelationError"

    def test_config_error_report_matches_case_error_report(self, capsys, tmp_path):
        cfg = dict(CASE_A_CONFIG, field="Q")
        cfg["target"] = {"weights": [2, 2, 2, 2], "params": ["1", "2"]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "verify", "--config", str(path))
        assert code == 1
        custom = json.loads(out)
        code, out, _ = run(capsys, "verify", "--case", "A", "--field", "Q",
                           "--window", "6", "--tamper", "lambda=2")
        assert code == 1
        case = json.loads(out)
        assert custom["field"] == case["field"] == "rationals"
        assert custom["case"] == "custom" and case["case"] == "A"
        assert set(custom) | {"tamper"} == set(case)
        for key in ("window", "admissible", "kernel", "constants", "records",
                    "error", "summary"):
            assert custom[key] == case[key], key

    def test_ill_defined_group_map_is_reported(self, capsys, tmp_path):
        """(4,4,2) -> (2,2,2,2) with pi = x1, x2, x3 breaks 4 x_1 = 2 x_3:
        the report names the relation, on stdout with exit 1."""
        cfg = dict(CASE_A_CONFIG, field="7", window=20,
                   pi=["0;1,0,0,0", "0;0,1,0,0", "0;0,0,1,0"])
        path = tmp_path / "ill.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert (code, err) == (1, "")
        assert out == "\n".join([
            '{', '  "case": "custom",', '  "constants": {},', '  "error": {',
            '    "message": "2*image[3] = 1;0,0,0,0 but 4*image[1] = 2;0,0,0,0",',
            '    "type": "WellDefinednessError"', '  },', '  "field": "7",',
            '  "records": [],', '  "summary": "fail",', '  "window": 20', '}', ''])

    def test_flags_apply_to_configs(self, capsys, tmp_path):
        path = tmp_path / "caseA.json"
        path.write_text(json.dumps(CASE_A_CONFIG))
        code, out, _ = run(capsys, "verify", "--config", str(path), "--tamper", "lambda=2",
                           "--root-pick", "largest", "--field", "7", "--lambda", "5")
        assert code == 1
        report = json.loads(out)
        assert report["field"] == "7" and report["tamper"] == "lambda=2"
        assert report["error"]["type"] == "RelationError" and report["records"] == []
        code, out, _ = run(capsys, "verify", "--config", str(path), "--auto-prime")
        assert code == 0 and json.loads(out)["field"] == "5"
        code, _, err = run(capsys, "verify", "--config", str(path), "--auto-prime",
                           "--field", "7")
        assert code == 2 and "auto-prime" in err

    def test_root_pick_largest_on_a_config(self, capsys, tmp_path):
        cfg = dict(CASE_C_CONFIG, field="1000001161")
        path = tmp_path / "caseC.json"
        path.write_text(json.dumps(cfg))
        field = PrimeField(1000001161)
        for pick, first in (("smallest", 0), ("largest", -1)):
            code, out, _ = run(capsys, "verify", "--config", str(path), "--window", "3",
                               "--root-pick", pick)
            assert code == 0
            consts = json.loads(out)["constants"]
            assert consts == {"i": str(field.roots([1, 0, 1])[first]),
                              "r": str(field.roots([4, 0, 0, 1])[first])}

    def test_config_lambda_comes_from_the_command_line(self, capsys, tmp_path):
        cfg = dict(CASE_A_CONFIG, field="7")
        cfg["target"] = {"weights": [2, 2, 2, 2], "params": ["1", "lambda"]}
        path = tmp_path / "lam.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "verify", "--config", str(path), "--lambda", "-1")
        assert code == 0 and json.loads(out)["constants"] == {"lambda": "6"}
        code, _, err = run(capsys, "verify", "--config", str(path))
        assert code == 2 and "lambda" in err
        code, _, err = run(capsys, "verify", "--config", str(path), "--lambda", "8")
        assert code == 2 and "lambda" in err

    def test_derived_constants_round_trip_and_resolve(self, tmp_path):
        cfg = VerifyConfig.from_dict(dict(CASE_A_CONFIG, constants={
            "s": ["-2", "0", "1"], "t": "s^2 + 1"}))
        assert VerifyConfig.from_dict(cfg.to_dict()) == cfg
        env = cfg.resolve(PrimeField(7), root_pick="largest")
        assert env == {"s": PrimeField(7)(4), "t": PrimeField(7)(3)}

    def test_integer_expressions_verify(self, capsys, tmp_path):
        """Params, constants and phi coefficients may be JSON integers, read
        as the strings of their digits."""
        cfg = copy.deepcopy(CASE_A_CONFIG)
        path = tmp_path / "strings.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "verify", "--config", str(path))
        assert code == 0
        want = json.loads(out)
        cfg["source"]["params"], cfg["target"]["params"] = [1], [1, -1]
        cfg["phi"][2][0][0] = 1
        cfg["constants"] = {"s": [-1, 0, 1], "t": -2}
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "verify", "--config", str(path))
        assert code == 0
        got = json.loads(out)
        assert got.pop("constants") == {"s": "-1", "t": "-2"}
        want.pop("constants")
        assert got == want

    def test_relation_residual_past_the_int_digit_limit_exits_1(self, capsys, tmp_path):
        """(2,2,2) -> (2,2,2,2; 1, -(10^4400+3)/7) over Q with phi = x1^2,
        x2^2, x4^2: the residual of x3^2 = x2^2 - x1^2 has a coefficient
        past Python's 4300-digit limit on decimal ints, so the message gives
        its degree and the sha256 of its terms written in hex, and the
        verdict is the RelationError report with exit code 1."""
        lam = Fraction(-(10 ** 4400 + 3), 7)
        cfg = {"source": {"weights": [2, 2, 2], "params": ["1"]},
               "target": {"weights": [2, 2, 2, 2], "params": ["1", "-(10^4400+3)/7"]},
               "field": "rationals", "constants": {}, "pi": ["1;0,0,0,0"] * 3,
               "phi": [[["1", [2, 0, 0, 0]]], [["1", [0, 2, 0, 0]]], [["1", [0, 0, 0, 2]]]],
               "window": 20}
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert time.perf_counter() - start < 5
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["summary"] == "fail" and report["records"] == []
        # the residual phi(x3)^2 - phi(x2)^2 + phi(x1)^2 = x4^4 - x2^4 + x1^4
        # is (lam^2 + 1) U^2 - 2 lam U V in U = x1^2, V = x2^2, x4^2 = V - lam U
        terms = [("2,2,0,0", -2 * lam), ("4,0,0,0", lam * lam + 1)]
        digest = hashlib.sha256(";".join("%s:%x/%x" % (e, c.numerator, c.denominator)
                                         for e, c in terms).encode()).hexdigest()
        assert report["error"] == {
            "type": "RelationError",
            "message": "relation for generator 3 fails, residual of degree 2;0,0,0,0 with a "
                       "coefficient of more than 4300 digits, sha256 " + digest}

    @pytest.mark.parametrize("lam", ["-(10^4400+3)/7", "-1"])
    def test_constant_past_the_int_digit_limit_keeps_the_verdict(self, capsys, tmp_path, lam):
        """The large-residual document above, with its target parameter or
        -1, and a constant of 4401 digits: the constant is reported as the
        sha256 of its numerator and denominator in hex, and the verdict is
        still the RelationError report with exit code 1."""
        cfg = {"source": {"weights": [2, 2, 2], "params": ["1"]},
               "target": {"weights": [2, 2, 2, 2], "params": ["1", lam]},
               "field": "rationals", "constants": {"s": "10^4400", "t": "-1/3"},
               "pi": ["1;0,0,0,0"] * 3,
               "phi": [[["1", [2, 0, 0, 0]]], [["1", [0, 2, 0, 0]]], [["1", [0, 0, 0, 2]]]],
               "window": 20}
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert (code, err) == (1, "")
        report = json.loads(out)
        digest = hashlib.sha256(("%x/%x" % (10 ** 4400, 1)).encode()).hexdigest()
        assert report["constants"] == {
            "s": "a number of more than 4300 digits, sha256 " + digest, "t": "-1/3"}
        assert report["summary"] == "fail" and report["error"]["type"] == "RelationError"

    def test_constant_past_the_int_digit_limit_in_a_passing_report(self, capsys, tmp_path):
        cfg = copy.deepcopy(CASE_A_CONFIG)
        cfg["constants"] = {"big": "-(10^4400+1)/3"}
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "verify", "--config", str(path), "--window", "4")
        assert (code, err) == (0, "")
        digest = hashlib.sha256(("%x/%x" % (-(10 ** 4400 + 1), 3)).encode()).hexdigest()
        assert json.loads(out)["constants"] == {
            "big": "a number of more than 4300 digits, sha256 " + digest}

    def test_doubling_constants_are_bounded_over_q_only(self, capsys, tmp_path):
        """c0 = 2^20000 and c_i = c_(i-1)*c_(i-1): over Q, c2 would pass 2^16
        bits and is refused; over F_7 the same document verifies."""
        cfg = copy.deepcopy(CASE_A_CONFIG)
        cfg["constants"] = {"c0": "2^20000",
                            **{"c%d" % i: "c%d*c%d" % (i - 1, i - 1) for i in range(1, 6)}}
        path = tmp_path / "doubling.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert (code, out, err) == (2, "", "error: number too large in expression 'c1*c1'\n")
        code, out, err = run(capsys, "verify", "--config", str(path), "--field", "7")
        assert (code, err) == (0, "") and json.loads(out)["summary"] == "pass"

    def test_huge_source_weights_exit_2_before_enumerating_residues(self, capsys, tmp_path):
        """(1000,1000,1000) has 10^9 torsion residues; the relation fails, and
        the error report's admissibility check must refuse them, not list them."""
        cfg = {"source": {"weights": [1000, 1000, 1000], "params": ["1"]},
               "target": {"weights": [2, 2, 2, 2], "params": ["1", "-1"]},
               "field": "7", "constants": {}, "pi": ["0;1,0,0,0"] * 3,
               "phi": [[["1", [1, 0, 0, 0]]]] * 3, "window": 4}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("error: source weights (1000,1000,1000) have 1000000000 torsion "
                       "residues, more than the 100000 a group map can solve fibers over\n")

    @pytest.mark.parametrize("exps", [[10 ** 9, 0, 0, 0], [0, 0, 0, 10 ** 9], [0, 0, 1, 2003]])
    def test_phi_exponent_past_the_caps_exit_2(self, tmp_path, exps):
        """A generator image whose exponents pass MAX_LEVEL or MAX_CARRIES
        is refused while the config is built, in a 5-s subprocess."""
        cfg = copy.deepcopy(CASE_A_CONFIG)
        cfg["phi"][0] = [["1", exps]]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run([sys.executable, "-m", "wpline", "verify", "--config", str(path)],
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              capture_output=True, text=True, timeout=5)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "an element is built with" in proc.stderr and "Traceback" not in proc.stderr

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_deeply_nested_config_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert (code, out) == (2, "") and err.startswith("error: maximum recursion depth")

    def test_config_that_is_not_an_object_exit_2(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([CASE_A_CONFIG]))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed verification config: document: expected a "
                              "JSON object, got [")

    @pytest.mark.parametrize("side,alg,message", [
        ("target", {"weights": [2, 2, 2, 2], "params": ["1"]},
         "2 parameters for 4 weights, got 1"),
        ("source", {"weights": [4, 4, 2], "params": []}, "1 parameter for 3 weights, got 0"),
    ], ids=["tail-only", "none"])
    def test_short_params_exit_2(self, capsys, tmp_path, side, alg, message):
        """An algebra's params are all t - 2 normalized parameters, the
        leading 1 included."""
        path = tmp_path / "params.json"
        path.write_text(json.dumps(dict(CASE_A_CONFIG, **{side: alg})))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert (code, out, err) == (2, "", "error: expected %s\n" % message)

    @pytest.mark.parametrize("poly", [["0"], [], ["0", "0", "0"]])
    def test_zero_root_polynomial_exit_2(self, capsys, tmp_path, poly):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(dict(CASE_C_CONFIG, constants=dict(CASE_C_CONFIG["constants"],
                                                                      i=poly))))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == "error: root search supports degrees 2 and 3, got the zero polynomial\n"

    def test_field_may_be_a_json_integer(self, capsys, tmp_path):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(dict(CASE_A_CONFIG, field="7")))
        code, want, _ = run(capsys, "verify", "--config", str(path))
        path.write_text(json.dumps(dict(CASE_A_CONFIG, field=7)))
        assert (code, want) == run(capsys, "verify", "--config", str(path))[:2]
        assert code == 0

    def test_malformed_config_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"source": {"weights": [4, 4, 2]}}))
        code, _, err = run(capsys, "verify", "--config", str(path))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d["source"].update(weights=[4.9, 4, 2]),
         "weights: expected a JSON integer, got 4.9"),
        (lambda d: d["target"].update(weights=[2, 2, "2", 2]),
         "weights: expected a JSON integer, got '2'"),
        (lambda d: d["phi"][0][0].__setitem__(1, [1.5, 0, 0, 0]),
         "phi exponents: expected a JSON integer, got 1.5"),
        (lambda d: d.update(window=True), "window: expected a JSON integer, got True"),
        (lambda d: d.update(window=6.0), "window: expected a JSON integer, got 6.0"),
        (lambda d: d.pop("field"), "missing key 'field'"),
        (lambda d: d["source"].pop("weights"), "missing key 'weights'"),
        (lambda d: d["phi"][2].append("1"),
         "phi term '1' is not a [coefficient, exponents] pair"),
        (lambda d: d["phi"][2].append(["1", [0, 0, 1, 1], "x"]),
         "phi term ['1', [0, 0, 1, 1], 'x'] is not a [coefficient, exponents] pair"),
        (lambda d: d["target"].update(params=["1", None]),
         "params: expected a string or a JSON integer, got None"),
        (lambda d: d["source"].update(params=[True]),
         "params: expected a string or a JSON integer, got True"),
        (lambda d: d["target"].update(params=["1", 1.5]),
         "params: expected a string or a JSON integer, got 1.5"),
        (lambda d: d.update(constants={"s": ["-2", None, "1"]}),
         "constants: expected a string or a JSON integer, got None"),
        (lambda d: d.update(constants={"s": False}),
         "constants: expected a string or a JSON integer, got False"),
        (lambda d: d.update(constants={"s": ["-2", "0", 1.0]}),
         "constants: expected a string or a JSON integer, got 1.0"),
        (lambda d: d["phi"][0][0].__setitem__(0, None),
         "phi coefficients: expected a string or a JSON integer, got None"),
        (lambda d: d["phi"][1][0].__setitem__(0, True),
         "phi coefficients: expected a string or a JSON integer, got True"),
        (lambda d: d["phi"][2][0].__setitem__(0, 1.5),
         "phi coefficients: expected a string or a JSON integer, got 1.5"),
        (lambda d: d["target"].update(params="1-"), "params: expected a JSON list, got '1-'"),
        (lambda d: d["source"].update(params="12"), "params: expected a JSON list, got '12'"),
        (lambda d: d["source"].update(weights="442"),
         "weights: expected a JSON list, got '442'"),
        (lambda d: d.update(field=None), "field: expected a string or a JSON integer, got None"),
        (lambda d: d.update(field=False),
         "field: expected a string or a JSON integer, got False"),
        (lambda d: d.update(field=["rationals"]),
         "field: expected a string or a JSON integer, got ['rationals']"),
        (lambda d: d["pi"].__setitem__(0, None), "pi: expected a JSON string, got None"),
        (lambda d: d["pi"].__setitem__(1, 0), "pi: expected a JSON string, got 0"),
        (lambda d: d.update(pi="0;1,0,0,0"), "pi: expected a JSON list, got '0;1,0,0,0'"),
        (lambda d: d.update(phi="x1"), "phi: expected a JSON list, got 'x1'"),
        (lambda d: d["phi"].__setitem__(0, "1"), "phi: expected a JSON list, got '1'"),
        (lambda d: d["phi"][0][0].__setitem__(1, "1000"),
         "phi exponents: expected a JSON list, got '1000'"),
        (lambda d: d.update(constants=["1"]), "constants: expected a JSON object, got ['1']"),
        (lambda d: d.update(source=[4, 4, 2]), "source: expected a JSON object, got [4, 4, 2]"),
    ], ids=["float-weight", "string-weight", "float-exponent", "bool-window", "float-window",
            "missing-field", "missing-weights", "bare-term", "long-term", "null-param",
            "bool-param", "float-param", "null-root-coefficient", "bool-constant",
            "float-root-coefficient", "null-coefficient", "bool-coefficient",
            "float-coefficient", "string-params", "digit-string-params", "string-weights",
            "null-field", "bool-field", "list-field", "null-pi", "int-pi", "string-pi",
            "string-phi", "string-generator-image", "string-exponents", "list-constants",
            "list-source"])
    def test_config_shape_errors_exit_2(self, capsys, tmp_path, mutate, message):
        cfg = copy.deepcopy(CASE_A_CONFIG)
        mutate(cfg)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == "error: malformed verification config: %s\n" % message


#: ``CONFIG_FAIL`` on (8,8) -> (8,8): each level holds eight failing records
#: with fibers of eight elements, so a short window makes a long report
CONFIG_FAIL_8 = dict(CONFIG_FAIL, source={"params": [], "weights": [8, 8]},
                     target={"params": [], "weights": [8, 8]})


@pytest.mark.parametrize("args,code", [
    (["--case", "B", "--field", "7", "--window", "200"], 0),
    (["--config", "fail.json", "--window", "30"], 1),
    (["--case", "A", "--window", "200", "--out", "report.json"], 0),
], ids=["pass", "fail", "out"])
def test_closed_stdout_keeps_the_exit_code(tmp_path, capsys, args, code):
    """A reader that stops after one line of a report of at least two
    pipe buffers, also with ``--out``: verify still exits with its own
    code, prints nothing on stderr (no error, no "Exception ignored" at
    exit), and writes the whole ``--out`` file."""
    (tmp_path / "fail.json").write_text(json.dumps(CONFIG_FAIL_8))
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    assert main(["verify", *args]) == code
    size = len(capsys.readouterr().out.encode())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "wpline", "verify", *args],
                            cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        assert size >= 2 * fcntl.fcntl(proc.stdout.fileno(), fcntl.F_GETPIPE_SZ)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == code
    finally:
        proc.kill()
        proc.wait()
    assert err == b""
    if "--out" in args:
        assert json.loads((tmp_path / "report.json").read_text())["summary"] == "pass"


def test_verify_streams_its_report_in_constant_memory():
    """verify writes its report to stdout in blocks as it is made:
    at window 10^4 the child's peak stays far below the 33 MB of the
    report (111 MB when the report was one string), and the bytes are
    the pinned ones."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from wpline.cli import main; "
            "code = main(['verify', '--case', 'A', '--window', '10000']); "
            "sys.stdout.flush(); "
            "hwm = [line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')]; "
            "print(code, *hwm, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, timeout=120)
    exit_code, hwm_kb = map(int, proc.stderr.split())
    assert exit_code == 0 and hwm_kb < 48 * 1024
    assert len(proc.stdout) == 33166703
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "f10aa900fd92ab00221af58dbc68e399053761d715397bcf52abe9aaca53fe44")


#: the fields (and lambda) of the four built-in cases in the benchmark
STREAM_CASES = {"A": ("rationals", None), "B": ("7", None), "C": ("5", None), "D": ("7", "-1")}


@pytest.mark.parametrize("window", [1, 4, 40])
@pytest.mark.parametrize("cid", sorted(STREAM_CASES))
def test_streamed_stdout_is_the_returned_report(capsys, cid, window):
    """verify streams its report to stdout; the bytes are the text
    ``to_report`` returns, and a newline."""
    field, lam = STREAM_CASES[cid]
    argv = ["verify", "--case", cid, "--field", field, "--window", str(window)]
    code, out, _ = run(capsys, *argv, *(["--lambda", lam] if lam else []))
    spec = builtin_case(cid, field_from_spec(field), lam=lam)
    text = spec.algebra_hom.verify_window(window).to_report(
        case=cid, field_name=spec.field.name, constants=spec.report_constants())
    assert code == 0 and out == text + "\n"
