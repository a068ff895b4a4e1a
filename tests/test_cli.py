"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kreinframes
from kreinframes import cli, duality, fusion, transforms
from kreinframes.cli import main
from kreinframes.errors import DefinitenessTransportError
from kreinframes.fusion import certify
from kreinframes.core import KreinSpace, Operator
from kreinframes.problem import ProblemSpec, parse_spec
from kreinframes.sampling import random_complex, rng_from_seed

from generators import (
    alternating_signature_space,
    neutral_image_operator,
    random_fusion_frame,
    random_j_unitary,
    random_vector_frame,
)
from oracles import identity_trials

DEMO = str(Path(kreinframes.__file__).parent / "data" / "c3_demo.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HUGE = 10**400  # a JSON integer beyond float64
# neutral under diag(1, -1) within rounding: [f,f]/||f||^2 is about 1e-16
VECTOR_NEAR_NEUTRAL = [1.0, 0.9999999999999999]


@pytest.fixture
def demo_path():
    return DEMO

@pytest.fixture
def bad_frame_path(tmp_path):
    """A document whose only family is not a frame (missing negative side)."""
    doc = {
        "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
        "families": {"half": {"subspaces": [[[1, 0]]], "weights": [1]}},
    }
    p = tmp_path / "half.json"
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_all_on_demo_passes(self, capsys, demo_path):
        code, out, err = run(capsys, "all", "--spec", demo_path, "--samples", "20")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert "overall: PASS" in err

    def test_failed_verdict_exits_one(self, capsys, bad_frame_path):
        code, out, _ = run(capsys, "certify", "--spec", bad_frame_path)
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert not report["results"]["certify"]["results"]["families"]["half"][
            "is_frame"
        ]

    def test_family_named_vector_frames(self, capsys, demo_path):
        doc = json.loads(Path(demo_path).read_text())
        doc["families"] = {"vector_frames": doc["families"]["tilted_lines"]}
        code, out, _ = run(capsys, "certify", "--spec", json.dumps(doc))
        assert code == 0
        results = json.loads(out)["results"]["certify"]["results"]
        assert list(results["families"]) == ["vector_frames"]
        assert results["families"]["vector_frames"]["is_frame"] is True
        assert results["vector_frames"] == {"axes_and_tilt": {"is_frame": True}}

    def test_overflowing_symmetry_prints_only_the_error(self, capsys):
        spec = json.dumps({"space": {"dim": 2, "J": [[1e150, 0], [0, 1]]}})
        with warnings.catch_warnings():
            # print warnings to stderr, as Python does outside pytest
            warnings.simplefilter("default")
            warnings.showwarning = lambda *w: sys.stderr.write(
                warnings.formatwarning(*w[:4])
            )
            for _ in range(2):
                assert run(capsys, "all", "--spec", spec) == (
                    2, "", "error: J is not involutive: ||J^2 - I|| = inf\n"
                )

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "certify", "--spec", "/no/such/file.json")
        assert code == 2
        assert "error" in err

    def test_missing_file_is_named(self, capsys, tmp_path):
        missing = str(tmp_path / "no_such_file.json")
        code, out, err = run(capsys, "all", "--spec", missing)
        assert (code, out, err) == (2, "", f"error: no such file: {missing!r}\n")

    def test_empty_spec_is_no_file(self, capsys):
        # Path("") is ".", the working directory, which is not read
        assert run(capsys, "all", "--spec", "") == (2, "", "error: no such file: ''\n")

    @pytest.mark.parametrize(
        "spec",
        ["[]", "[1, 2]", "3", "-0.5", "null", "true", '"x"', '"problem.json"', json.dumps(DEMO),
         json.dumps(json.dumps({}))],
        ids=["array", "array_of_numbers", "number", "float", "null", "bool", "string",
             "string_naming_a_file", "string_naming_a_path", "string_of_an_object"],
    )
    def test_top_level_must_be_an_object(self, capsys, monkeypatch, tmp_path, spec):
        # a JSON string is read neither as a path nor as a second document
        (tmp_path / "problem.json").write_text(Path(DEMO).read_text())
        monkeypatch.chdir(tmp_path)
        message = "error: the top level of a problem document must be an object\n"
        assert run(capsys, "all", "--spec", spec) == (2, "", message)

    def test_help_lists_the_tolerance_flags_in_field_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        out = capsys.readouterr().out
        flags = [f"--tol-{name[4:]}" for name in kreinframes.Tolerances._fields]
        assert exc.value.code == 0 and flags == ["--tol-sym", "--tol-rank", "--tol-def", "--tol-num"]
        assert [out.index(f) for f in flags] == sorted(out.index(f) for f in flags)

    def test_long_missing_value_is_truncated(self, capsys):
        value = "x" * 5000
        code, out, err = run(capsys, "all", "--spec", value)
        assert (code, out) == (2, "")
        assert err.startswith("error: no such file: 'xxx") and err.endswith("xxx'\n")
        assert err.count("\n") == 1
        assert 300 < len(err.encode()) < 400

    def test_schema_error_exits_two(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"space": {"dim": 2}}))
        code, _, err = run(capsys, "certify", "--spec", str(p))
        assert code == 2
        assert "error" in err

    def test_bad_symmetry_exits_two(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            json.dumps(
                {"space": {"dim": 3, "J": [[1, 0, 0], [1, 0, 0], [0, 0, -1]]}}
            )
        )
        code, _, err = run(capsys, "certify", "--spec", str(p))
        assert code == 2
        assert "error" in err

    def test_rank_deficient_basis_exits_two(self, capsys, tmp_path):
        doc = {
            "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
            "families": {"fam": {"subspaces": [[[1, 0], [2, 0]]], "weights": [1]}},
        }
        p = tmp_path / "rankdef.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "all", "--spec", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith(
            "error: families.fam.subspaces[0]: basis matrix is rank deficient"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section, entry, where",
        [
            ("vector_frames", {"vf": [[1e308, 0], [0, 1e308]]}, "vector_frames.vf[0]"),
            ("operators", {"T": [[1e308, 0], [0, 1e308]]}, "operators.T"),
            (
                "families",
                {"fam": {"subspaces": [[[1, 0]], [[0, 1]]], "weights": [1e200, 1]}},
                "families.fam.weights",
            ),
            ("space", {"dim": 2, "J": [[1e200, 0], [0, -1]]}, "space.J"),
            (
                "families",
                {"fam": {"subspaces": [[[1e300, 0]], [[0, 1e300]]], "weights": [1, 1]}},
                "families.fam.subspaces[0]",
            ),
            (
                "vector_frames",
                {"vf": [[9e153, 0], [9e153, 0], [9e153, 0], [0, 9e153]]},
                "vector_frames.vf",
            ),
        ],
    )
    def test_overflowing_entries_exit_two(self, capsys, tmp_path, section, entry, where):
        doc = {
            "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
            "families": {"fam": {"subspaces": [[[1, 0]], [[0, 1]]], "weights": [1, 1]}},
            section: entry,
        }
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "all", "--spec", str(p), "--samples", "5")
        assert code == 2
        assert out == ""
        assert err == f"error: {where}: squared norm is not finite in float64\n"

    @pytest.mark.parametrize(
        "section, entry, message",
        [
            (
                "families",
                {"fam": {"subspaces": [[[1, 0]], [[0, 1]]], "weights": [1e-200, 1e-200]}},
                "families.fam.weights: weight 0 underflows: its square is subnormal: 1e-200",
            ),
            (
                "vector_frames",
                {"vf": [[1e-170, 0], [0, 1e-170]]},
                "member 0: vector frame 'vf': ||f||^2 underflows to subnormal",
            ),
            (
                "operators",
                {"T": [[1e-170, 0], [0, 1e-170]]},  # its squared norm computes to 0.0
                "operators.T: squared norm underflows to subnormal",
            ),
            (
                "families",
                {"fam": {"subspaces": [[[1e-200, 5e-201]], [[5e-201, 1e-200]]], "weights": [1, 1]}},
                "families.fam.subspaces[0]: squared norm underflows to subnormal",
            ),
        ],
    )
    def test_underflowing_entries_exit_two(self, capsys, tmp_path, section, entry, message):
        # accepted, a tiny weight or vector would report bounds of 0.0 and a
        # singular S, a tiny operator no isometry multiple, and a tiny basis a
        # member annihilated by a tiny operator
        doc = {"space": {"dim": 2, "J": [[1, 0], [0, -1]]}, section: entry}
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps(doc))
        assert run(capsys, "all", "--spec", str(p), "--samples", "5") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "section, entry, where",
        [
            ("space", {"dim": 2, "J": [[1, 0], [0, HUGE]]}, "space.J[1][1]"),
            ("operators", {"T": [[1, 0], [0, HUGE]]}, "operators.T[1][1]"),
            (
                "families",
                {"fam": {"subspaces": [[[1, 0]], [[0, HUGE]]], "weights": [1, 1]}},
                "families.fam.subspaces[1][0][1]",
            ),
            (
                "families",
                {"fam": {"subspaces": [[[1, 0]], [[0, 1]]], "weights": [1, -HUGE]}},
                "families.fam.weights[1]",
            ),
            ("vector_frames", {"vf": [[1, 0], [0, [1, HUGE]]]}, "vector_frames.vf[1][1]"),
        ],
        ids=["space", "operators", "basis", "weights", "vector_frames"],
    )
    def test_integers_beyond_float64_exit_two(
        self, capsys, tmp_path, section, entry, where
    ):
        doc = {
            "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
            "families": {"fam": {"subspaces": [[[1, 0]], [[0, 1]]], "weights": [1, 1]}},
            section: entry,
        }
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "all", "--spec", str(p), "--samples", "5")
        assert code == 2
        assert out == ""
        assert err == f"error: {where}: number is not finite\n"

    @pytest.mark.parametrize("source", ["flag", "document"])
    def test_negative_seed_exits_two(self, capsys, tmp_path, source):
        doc = {"space": {"dim": 2, "J": [[1, 0], [0, -1]]}}
        if source == "document":
            doc["seed"] = -1
        p = tmp_path / "seed.json"
        p.write_text(json.dumps(doc))
        flag = ("--seed", "-1") if source == "flag" else ()
        code, out, err = run(capsys, "all", "--spec", str(p), "--samples", "5", *flag)
        assert code == 2
        assert out == ""
        assert err == "error: the seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exits_two(self, capsys, demo_path, samples):
        code, out, err = run(
            capsys, "preserve", "--spec", demo_path, "--samples", samples
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --samples must be at least 1, got {samples}\n"

    @pytest.mark.parametrize("samples", [100001, 10**12, 10**19])
    def test_samples_above_the_bound_exit_two_before_any_work(
        self, capsys, count_calls, demo_path, samples
    ):
        # the identity task would allocate a row per sample
        decoded = count_calls(cli, "decode_document")
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "identity", "--samples", str(samples), "--spec", demo_path
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == f"error: --samples must be at most 100000, got {samples}\n"
        assert decoded == [] and peak < 2**20

    def test_directory_spec_exits_two(self, capsys, tmp_path):
        # reading a directory raises an OSError, which is a document error
        code, out, err = run(capsys, "all", "--spec", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section, entry, message",
        [
            ("tolerances", 5, "'tolerances' must be an object"),
            ("space", {"dim": 2, "J": [[1, 0]]}, "space.J must be 2x2"),
            ("space", {"dim": 2, "J": []}, "space.J: expected a non-empty array of rows"),
            (
                "space",
                {"dim": 2, "J": [[1, 0, 0], [0, -1, 0]]},
                "space.J[0]: expected a vector of length 2",
            ),
            ("families", {"X": 1},
             "families.X: expected an object with 'subspaces' and 'weights'"),
            ("families", {"X": {"subspaces": [], "weights": []}},
             "families.X.subspaces: expected a non-empty array"),
            ("families", {"X": {"subspaces": [[]], "weights": [1]}},
             "families.X.subspaces[0]: expected a non-empty list of columns"),
            ("families", {"X": {"subspaces": [[[]]], "weights": [1]}},
             "families.X.subspaces[0][0]: expected a non-empty array"),
            ("vector_frames", {"X": []}, "vector_frames.X: expected a non-empty array"),
            ("families", [], "'families' must be an object of named entries"),
            ("families", {"": {"subspaces": [[[1, 0]]], "weights": [1]}},
             "'families' entries must have non-empty string names"),
            # a lone surrogate has no UTF-8 form (identity hashed the name's UTF-8)
            ("families", {"\ud800": {"subspaces": [[[1, 0]]], "weights": [1]}},
             "'families' entry name '\\ud800' is not valid Unicode"),
            ("vector_frames", {"\ud800": [[1, 0], [0, 1]]},
             "'vector_frames' entry name '\\ud800' is not valid Unicode"),
            ("operators", {"\ud800": [[1, 0], [0, -1]]},
             "'operators' entry name '\\ud800' is not valid Unicode"),
        ],
    )
    def test_document_fault_exits_two(self, capsys, section, entry, message):
        doc = {"space": {"dim": 2, "J": [[1, 0], [0, -1]]}, section: entry}
        code, out, err = run(capsys, "all", "--spec", json.dumps(doc))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_gramian_within_rounding_of_zero_exits_two(self, capsys):
        # at a tau_def of 1e-300 the first line, whose Gramian is about 1e-16,
        # is neutral within rounding; it exited 1 with a traceback from a
        # Cholesky factorization of a signed span's Gramian
        doc = {
            "space": {"dim": 3, "J": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]},
            "families": {"f": {"subspaces": [
                [[1.0, 0.0, 0.9999999999999998]],
                [[1.0, 0.7798711114410413, 1.000000000737179]],
                [[0.0, 1.0, 9.4525762764591e-10]],
                [[0, 0, 1]],
            ], "weights": [1, 1, 1, 1]}},
            "tolerances": {"tau_def": 1e-300},
        }
        for command in ("certify", "bounds", "all"):
            code, out, err = run(capsys, command, "--spec", json.dumps(doc))
            assert (code, out) == (2, "")
            assert err == (
                "error: member 0: family 'f': member classifies as neutral; "
                "every member must be uniformly definite\n"
            )

    @pytest.mark.parametrize(
        "section, entry, message",
        [
            ("families", {"subspaces": [[VECTOR_NEAR_NEUTRAL], [[1.0, 0.0]]], "weights": [1, 1]},
             "family 'f': member classifies as neutral; every member must be uniformly definite"),
            ("vector_frames", [VECTOR_NEAR_NEUTRAL, [1.0, 0.0]],
             "vector frame 'f': vector is neutral within tau_def ([f,f]/||f||^2 = 1.11022e-16)"),
        ],
        ids=["family", "vector_frame"],
    )
    def test_member_kinds_decide_neutrality_alike(self, capsys, section, entry, message):
        # a tau_def of 1e-20 is below the rounding level of [f,f]/||f||^2
        doc = {
            "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
            section: {"f": entry},
            "tolerances": {"tau_def": 1e-20},
        }
        code, out, err = run(capsys, "certify", "--spec", json.dumps(doc))
        assert (code, out, err) == (2, "", f"error: member 0: {message}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"\xff{}", "invalid UTF-8 at byte 0: invalid start byte"),
            (b"[" * 100000, "invalid JSON: arrays or objects nested too deeply"),
            # past the interpreter's limit on integer-string conversion (4300
            # digits by default); at 400 digits the entry itself is located
            (b'{"space": {"dim": 1, "J": [[' + b"1" * 5000 + b"]]}}",
             "number is not finite"),
        ],
        ids=["not_utf8", "nested_too_deeply", "integer_of_5000_digits"],
    )
    def test_undecodable_document_exits_two(self, capsys, tmp_path, text, message):
        p = tmp_path / "doc.json"
        p.write_bytes(text)
        code, out, err = run(capsys, "all", "--spec", str(p))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_unknown_command_exits_two(self, capsys, demo_path):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--spec", demo_path])
        assert exc.value.code == 2


class TestDeterminism:
    def test_json_reports_byte_identical(self, capsys, demo_path):
        _, out1, _ = run(capsys, "all", "--spec", demo_path, "--samples", "20")
        _, out2, _ = run(capsys, "all", "--spec", demo_path, "--samples", "20")
        assert out1 == out2

    def test_reports_do_not_depend_on_the_order_of_names(self, capsys, demo_path):
        doc = json.loads(Path(demo_path).read_text())
        # "extra" sorts before "tilted_lines"; the swap of e1 and e3 maps a
        # positive line of each family to a negative one, so preserve reports
        # the first such line it meets as its counterexample
        doc["families"]["extra"] = {
            "subspaces": [[[1, 0, 0.2]], [[0, 1, 0.3]], [[0.1, 0, 1]]],
            "weights": [2, 1, 1],
        }
        doc["operators"]["swap_13"] = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        doc["vector_frames"]["more"] = [[1, 0, 0], [0, 1, 0.5], [0, 0, 1]]
        reversed_doc = {
            key: dict(reversed(value.items())) if isinstance(value, dict) else value
            for key, value in doc.items()
        }
        results = [
            run(capsys, "all", "--spec", json.dumps(d), "--samples", "20")
            for d in (doc, reversed_doc)
        ]
        assert results[0] == results[1]
        operators = json.loads(results[0][1])["results"]["preserve"]["results"]["operators"]
        witness = operators["swap_13"]["definiteness_with_sign"]["counterexample"]
        assert witness["detail"] == (
            "image of a uniformly_positive subspace classifies as uniformly_negative"
        )
        # the line (1, 0, 0.2) of "extra", the family first in name order
        line = np.array(witness["subspace"]["ortho_basis"])[:, 0, 0]
        np.testing.assert_allclose(np.abs(line), np.array([1, 0, 0.2]) / np.hypot(1, 0.2))

    def test_different_seed_still_passes(self, capsys, demo_path):
        code, out, _ = run(
            capsys, "all", "--spec", demo_path, "--seed", "99", "--samples", "20"
        )
        assert code == 0
        assert json.loads(out)["seed"] == 99


class TestFormats:
    def test_json_is_the_default(self, capsys, demo_path):
        _, out, err = run(capsys, "certify", "--spec", demo_path)
        json.loads(out)
        assert "overall: PASS" in err

    def test_there_is_no_format_option(self, capsys, demo_path):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--spec", demo_path, "--format", "text"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format text" in capsys.readouterr().err

    def test_report_structure(self, capsys, demo_path):
        _, out, _ = run(capsys, "bounds", "--spec", demo_path)
        report = json.loads(out)
        assert report["tool"] == "kreinframes"
        assert report["command"] == "bounds"
        assert report["space"] == {"dim": 3, "signature": [2, 1]}
        fam = report["results"]["bounds"]["results"]["families"]["tilted_lines"]
        assert fam["sandwich_ok"] is True
        opt = fam["optimal"]
        assert opt["a_plus"] > 0 > opt["a_minus"]


def entrywise_pairs(entries):
    """Nested lists of complex numbers with each entry as its [re, im]."""
    if isinstance(entries, list):
        return [entrywise_pairs(v) for v in entries]
    return [entries.real, entries.imag]


class TestReportConversion:
    def test_complex_arrays_convert_entry_by_entry(self):
        parts = [-0.0, 0.0, np.inf, -np.inf, np.nan, -2.5e-300, 1.0 / 3.0]
        z = np.empty(len(parts) ** 2, dtype=complex)
        z.real, z.imag = np.repeat(parts, len(parts)), np.tile(parts, len(parts))
        square = z.reshape(len(parts), len(parts))
        for a in (z, square, square.T, square[:, 1]):
            # json.dumps tells -0.0 from 0.0 and writes nan and inf
            want = entrywise_pairs(a.tolist())
            assert json.dumps(cli._jsonable(a)) == json.dumps(want)

    @pytest.mark.parametrize("value", [
        1j, np.int64(1), np.float32(1.0), np.complex128(1j), np.bool_(True), object(),
        np.array([1.0, 0.0]),  # a real array: every reported array is complex
    ])
    def test_unknown_types_are_refused(self, value):
        # a repr could embed an address and break byte-determinism
        with pytest.raises(TypeError, match="no JSON form"):
            cli._jsonable({"report": [value]})

    def test_certify_leaves_the_cached_certificate(self):
        # three positive lines span all of C^3: the positive span is indefinite
        problem = parse_spec({
            "space": {"dim": 3, "J": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]},
            "families": {"fam": {
                "subspaces": [[[1, 0, 0]], [[0, 1, 0]], [[1, 1, 0.9]], [[0, 0, 1]]],
                "weights": [1, 1, 1, 1],
            }},
        })
        cert = certify(problem.families["fam"])
        fields, vector = dict(vars(cert)), cert.witnesses[0]["vector"].copy()
        report = cli.run_command("all", problem, 0, 5)
        entry = report["results"]["certify"]["results"]["families"]["fam"]
        assert "converse" in entry
        # the witness is reported as it is kept: a unit vector of [re, im] pairs
        pairs = np.array(entry["witnesses"][0]["vector"])
        assert pairs.shape == (3, 2) and np.array_equal(pairs[:, 0] + 1j * pairs[:, 1], vector)
        assert np.isclose(np.linalg.norm(pairs), 1.0, rtol=0, atol=1e-15)
        assert certify(problem.families["fam"]) is cert and vars(cert) == fields
        assert np.array_equal(cert.witnesses[0]["vector"], vector)

    def test_all_converts_its_report_once(self, capsys, demo_path, monkeypatch):
        convert, depth, outermost = cli._jsonable, [0], []

        def counted(obj):
            # a call made while another runs comes from _jsonable's own recursion
            if depth[0] == 0:
                outermost.append(obj)
            depth[0] += 1
            try:
                return convert(obj)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cli, "_jsonable", counted)
        code, _, _ = run(capsys, "all", "--spec", demo_path, "--samples", "20")
        assert code == 0
        assert len(outermost) == 1


def perfbench_module(name):
    """A module of the benchmark harness, loaded from its file."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the recorded outcome of every pool document, by workload and document id
POOL_REFS = {
    w: perfbench_module("refs").load(w)["docs"]
    for w in ("cli_small", "fusion_docs", "vframe_docs", "preserve_docs")
}
# every document of the four reference files; among them:
# - fusion_docs frame_full-8, the pool's worst-conditioned S (cond 6.0e6, the
#   largest bound beta on it 2.24e7), where the fusion dual's bounds move most
# - preserve_docs alt-8, the pool's deepest definiteness refutation: draw 26,
#   a lazy slice
# - preserve_docs alt-2, regular draws of dimension 23 under a tau_def of 0.15
# - preserve_docs alt-3, alt-6, alt-9, alt-12 and alt-13, definiteness
#   refutations by drawn slices of dimension 20 to 24, whose orthonormal bases
#   and image witnesses the gate compares in canonical form
POOL_DOCS = [(w, doc_id) for w, docs in POOL_REFS.items() for doc_id in docs]

# perfbench/docs.py run as the references were recorded: with one BLAS thread,
# as the documents' matrix products round differently on more
WRITE_POOL_DOCS = """
import json, os, sys
sys.path.insert(0, "perfbench")
import docs
for workload, doc_id in json.loads(sys.argv[2]):
    cls, k = doc_id.rsplit("-", 1)
    with open(os.path.join(sys.argv[1], f"{workload}-{doc_id}.json"), "w") as fh:
        fh.write(docs.make_doc(workload, cls, int(k)).text)
"""


class TestPoolReports:
    """Every benchmark pool document against its recorded reference."""

    @pytest.fixture(scope="class")
    def pool_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("pool")
        subprocess.run(
            [sys.executable, "-c", WRITE_POOL_DOCS, str(out), json.dumps(POOL_DOCS)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            cwd=PERFBENCH.parent,  # docs.DEMO_PATH is relative to the repository root
            check=True,
            timeout=120,
        )
        return out

    @pytest.mark.parametrize("workload, doc_id", POOL_DOCS)
    def test_report_passes_the_gate(self, capsys, pool_dir, workload, doc_id):
        docs, gate = perfbench_module("docs"), perfbench_module("gate")
        path = pool_dir / f"{workload}-{doc_id}.json"
        ref = POOL_REFS[workload][doc_id]
        assert ref["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        samples = str(docs.SAMPLES[workload])
        argv = ("all", "--spec", str(path), "--samples", samples)
        result = gate.outcome(*run(capsys, *argv))
        assert gate.check(ref, result) == []

    def test_regular_draws_clear_a_tau_def_of_0_15(self, capsys, pool_dir):
        # draws of dimension 23 clear a margin of 0.15 by construction, and
        # J-unitary operators keep every image regular
        path = pool_dir / "preserve_docs-alt-2.json"
        argv = ("preserve", "--spec", str(path), "--samples", "100", "--tol-def", "0.15")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "Traceback" not in err
        reports = json.loads(out)["results"]["preserve"]["results"]["operators"]
        assert [r["regularity"]["status"] for r in reports.values()] == [
            "holds-on-samples", "counterexample", "holds-on-samples"
        ]
        assert reports["neutral_image"]["regularity"]["counterexample"]["detail"] == (
            "image is degenerate"
        )


class TestFrameDocumentWork:
    """The numerical work of one ``fusion_docs`` frame document, parsed and
    run through ``all``: 32 member SVDs, and per signed side of the frame
    and of its dual one Gramian, one whitening and the SVDs of the bounds;
    no SVD of R settles a span, and nothing is solved."""

    @pytest.mark.parametrize("cls", ["frame_diag", "frame_full"])
    def test_work_counts(self, count_calls, count_kept, cls):
        docs = perfbench_module("docs")
        text = docs.make_doc("fusion_docs", cls, 0).text
        svd, solve = count_calls(np.linalg, "svd"), count_calls(np.linalg, "solve")
        grams = count_kept(fusion._Span, "_gram")
        problem = parse_spec(text)
        report = cli.run_command("all", problem, 0, docs.SAMPLES["fusion_docs"])
        assert report["results"]["certify"]["pass"] is True
        # 32 members, 2 estimate sides and 6 Rayleigh passes (certify, the
        # dual's own spans and the dual over the original spans)
        assert (len(svd), len(solve)) == (40, 0)
        assert len(grams) == len({id(m) for m in grams}) == 4


class TestPreserveDocumentWork:
    """The numerical work of one ``preserve_docs`` document, parsed and run
    through ``all``: each operator's condition number proves every image's
    rank, so an image is one QR and no SVD; the two J-isometry multiples
    settle every member of their image families, so none is classified; and
    only the neutral-image operator's residual needs the eigenvalues of
    H - c J."""

    def test_work_counts(self, count_calls, monkeypatch):
        docs = perfbench_module("docs")
        text = docs.make_doc("preserve_docs", "alt", 0).text
        svd, eigvalsh = count_calls(np.linalg, "svd"), count_calls(np.linalg, "eigvalsh")
        builders = count_calls(transforms, "_image_family")
        image_svds, families, residual_eigs = [], {}, {}
        span_of, transform = transforms._span_of, cli.transform_family
        isometry = vars(Operator)["_isometry"].func

        def spanned(space, a, kappa):
            before = len(svd)
            image = span_of(space, a, kappa)
            image_svds.append(len(svd) - before)
            return image

        def transformed(T, F):
            result = transform(T, F)
            families[T] = result[0]
            return result

        def scaled(T):
            before = len(eigvalsh)
            cert = isometry(T)
            residual_eigs[T] = len(eigvalsh) - before
            return cert

        monkeypatch.setattr(transforms, "_span_of", spanned)
        monkeypatch.setattr(cli, "transform_family", transformed)
        monkeypatch.setattr(vars(Operator)["_isometry"], "func", scaled)
        problem = parse_spec(text)
        ops = problem.operators
        report = cli.run_command("all", problem, 0, docs.SAMPLES["preserve_docs"])
        assert report["results"]["certify"]["pass"] is True
        # 4 members at parse, 6 estimate sides and 10 Rayleigh passes (certify,
        # the dual over both spans and the two J-isometry multiples' image
        # families), 3 operators' singular values and the 2 counterexamples'
        # orthonormal bases; 12 transform members and 2 sweep images, none
        assert (len(svd), image_svds) == (25, [0] * 14)
        assert len(builders) == len(ops)  # one image family per operator
        for name in ("j_unitary", "scaled_j_unitary"):
            assert all("_classification" not in vars(w) for w in families[ops[name]].subspaces)
        assert residual_eigs == {ops["j_unitary"]: 0, ops["neutral_image"]: 1,
                                 ops["scaled_j_unitary"]: 0}


class TestDiagonalSymmetryBytes:
    """A diagonal J is applied as a sign scaling of rows or columns; with the
    dense products in its place, ``all`` prints the same bytes."""

    @pytest.mark.parametrize("workload, cls", [
        ("fusion_docs", "frame_diag"), ("vframe_docs", "diag"), ("preserve_docs", "alt"),
    ])
    def test_all_without_the_scaling(self, capsys, workload, cls):
        text = perfbench_module("docs").make_doc(workload, cls, 0).text
        assert parse_spec(text).space._diag is not None
        argv = ("all", "--spec", text, "--samples", "20")
        scaled = run(capsys, *argv)
        with mock.patch.object(KreinSpace, "_jx", lambda s, x: s.J @ x), \
                mock.patch.object(KreinSpace, "_xj", lambda s, x: x @ s.J):
            dense = run(capsys, *argv)
        assert scaled == dense


class TestSeedResolution:
    def test_flag_beats_document(self, capsys, demo_path):
        _, out, _ = run(capsys, "certify", "--spec", demo_path, "--seed", "5")
        assert json.loads(out)["seed"] == 5

    def test_environment_is_ignored(self, tmp_path):
        # without --seed or a document seed, the seed is 0 whatever the environment
        doc = {
            "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
            "vector_frames": {"axes": [[2, 0], [0, 3]]},
        }
        p = tmp_path / "noseed.json"
        p.write_text(json.dumps(doc))
        env = {k: v for k, v in os.environ.items() if k != "KREIN_FRAMES_SEED"}
        env["PYTHONPATH"] = str(Path(kreinframes.__file__).parent.parent)
        outs = [
            subprocess.run(
                [sys.executable, "-m", "kreinframes.cli", "identity", "--spec", str(p)],
                capture_output=True, text=True, env=e, timeout=120, check=True,
            ).stdout
            for e in (env, {**env, "KREIN_FRAMES_SEED": "7"})
        ]
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["seed"] == 0


class TestToleranceOverrides:
    @pytest.mark.parametrize(
        "flag, key",
        [("--tol-sym", "tau_sym"), ("--tol-rank", "tau_rank"),
         ("--tol-def", "tau_def"), ("--tol-num", "tau_num")],
    )
    def test_each_flag_sets_its_tolerance(self, capsys, demo_path, flag, key):
        code, out, err = run(capsys, "certify", "--spec", demo_path, flag, "1e-7")
        assert code == 0, err
        # the demo sets no tolerance, so the others keep their defaults
        expected = {**vars(kreinframes.Tolerances()), key: 1e-7}
        assert json.loads(out)["tolerances"] == expected
        code, out, err = run(capsys, "certify", "--spec", demo_path, flag, "0")
        assert (code, out) == (2, "")
        assert err == f"error: tolerances.{key}: expected a positive number\n"

    def test_flag_overrides_document(self, capsys, demo_path):
        _, out, _ = run(
            capsys, "certify", "--spec", demo_path, "--tol-def", "1e-5"
        )
        report = json.loads(out)
        assert report["tolerances"]["tau_def"] == 1e-5
        assert report["tolerances"]["tau_num"] == 1e-9

    @pytest.mark.parametrize("source", ["file", "json_text"])
    def test_override_merges_into_document(self, capsys, tmp_path, source):
        doc = json.loads(Path(DEMO).read_text())
        doc["tolerances"] = {"tau_num": 1e-8}
        spec = json.dumps(doc)
        if source == "file":
            p = tmp_path / "demo.json"
            p.write_text(spec)
            spec = str(p)
        code, out, err = run(capsys, "certify", "--spec", spec, "--tol-def", "1e-5")
        assert code == 0, err
        tolerances = json.loads(out)["tolerances"]
        assert tolerances["tau_def"] == 1e-5
        assert tolerances["tau_num"] == 1e-8


class TestPreserveUnderOverrides:
    DOC = {
        "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
        "families": {"f": {"subspaces": [[[1, 0]], [[0, 1]]], "weights": [1, 1]}},
        "operators": {"I": [[1, 0], [0, 1]]},
    }

    @pytest.mark.parametrize(
        "flag, value, error",
        [
            # a drawn basis counts as rank deficient
            ("--tol-rank", "0.5", "basis matrix is rank deficient"),
            # above the samplers' definiteness margin of 0.22
            ("--tol-def", "0.3", "definiteness predicate only tests uniformly definite"),
        ],
    )
    def test_sampler_failure_fails_the_verdict(self, capsys, tmp_path, flag, value, error):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(self.DOC))
        argv = ["all", "--spec", str(p), "--samples", "20", flag, value]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "Traceback" not in err
        block = json.loads(out)["results"]["preserve"]
        assert block["pass"] is False
        assert block["results"]["operators"]["I"]["error"].startswith(error)

    @pytest.mark.parametrize("flags", [(), ("--tol-def", "0.15"), ("--tol-def", "0.3")])
    def test_each_operator_block_is_its_block_alone(self, capsys, tmp_path, flags):
        # N sends e1 onto the neutral line (1, 1): each predicate refutes it on
        # e1, before any draw; under 0.3 the draws of I and J fall outside the
        # definiteness predicate's hypothesis, an error of each operator alone
        operators = {"I": [[1, 0], [0, 1]], "J": [[1, 0], [0, -1]], "N": [[1, 1], [1, 2]]}
        blocks = {}
        for name, ops in [("all", operators)] + [(k, {k: v}) for k, v in operators.items()]:
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps({**self.DOC, "operators": ops}))
            code, out, err = run(capsys, "preserve", "--spec", str(p), "--samples", "20", *flags)
            assert code == (0 if name in "IJ" and flags[-1:] != ("0.3",) else 1)
            assert "Traceback" not in err
            blocks[name] = json.loads(out)["results"]["preserve"]["results"]["operators"]
        for name in operators:
            assert json.dumps(blocks["all"][name]) == json.dumps(blocks[name][name])
        for verdict in blocks["all"]["N"].values():
            assert verdict["status"] == "counterexample" and verdict["samples_tested"] == 1
        for name in "IJ":
            if flags[-1:] == ("0.3",):
                assert blocks["all"][name]["error"].startswith(
                    "definiteness predicate only tests uniformly definite"
                )
            else:
                assert "error" not in blocks["all"][name]

    AXES4 = {
        "space": {"dim": 4, "J": np.diag([1, -1, 1, -1]).tolist()},
        "families": {"axes": {"subspaces": [[row] for row in np.eye(4).tolist()],
                              "weights": [1, 1, 1, 1]}},
    }

    @pytest.mark.parametrize("value", ["0.05", "0.15"])
    def test_identity_keeps_regularity_under_tau_def(self, capsys, tmp_path, value):
        # regular draws clear tau_def, so the identity's images are regular
        # too (drawn at a margin of 1e-3, one was "degenerate" at sample 93
        # under 0.05 and at sample 13 under 0.15)
        p = tmp_path / "identity.json"
        p.write_text(json.dumps({**self.AXES4, "operators": {"I": np.eye(4).tolist()}}))
        code, out, _ = run(capsys, "preserve", "--spec", str(p), "--tol-def", value)
        assert code == 0
        report = json.loads(out)["results"]["preserve"]["results"]["operators"]["I"]
        assert report["regularity"]["status"] == "holds-on-samples"
        assert report["regularity"]["samples_tested"] == 204

    def test_regular_draws_clear_a_large_tau_def(self, capsys, tmp_path):
        # S swaps the signs: refuted on a supplied line by the definiteness
        # sweep, its report is the maximality sweep's error, as the maximal
        # draws' margins fall below 0.9; the regular draws clear 0.9 by
        # construction, and S* J S = -J keeps their images regular
        swap = np.eye(4)[[1, 0, 3, 2]].tolist()
        doc = {**self.AXES4, "operators": {"S": swap}}
        p = tmp_path / "swap.json"
        p.write_text(json.dumps(doc))
        argv = ["preserve", "--spec", str(p), "--samples", "20", "--tol-def", "0.9"]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "Traceback" not in err
        report = json.loads(out)["results"]["preserve"]["results"]["operators"]["S"]
        assert report["error"].startswith("maximality predicate only tests maximal")
        problem = parse_spec({**doc, "tolerances": {"tau_def": 0.9}})
        verdict = transforms.preserves_regularity(
            problem.operators["S"], problem.families["axes"].subspaces, 20
        )
        assert verdict.holds and verdict.samples_tested == 24

    @pytest.mark.parametrize("value", ["1", "2"])
    def test_rank_tolerance_of_one_exits_two(self, capsys, demo_path, value):
        code, out, err = run(capsys, "certify", "--spec", demo_path, "--tol-rank", value)
        assert code == 2
        assert out == ""
        assert err == "error: tolerances.tau_rank: expected a positive number below 1\n"


class TestPreserveDraws:
    def test_a_j_unitary_document_draws_no_sample(self, capsys, demo_path, count_calls):
        # the demo's one operator is J itself: the three draw laws settle it,
        # so each sweep counts its 200 samples as tested without drawing them,
        # after the 3 definite members, of which the negative line is maximal
        samplers = (
            "random_definite_subspace",
            "random_maximal_definite_subspace",
            "random_regular_subspace",
        )
        calls = [count_calls(transforms, name) for name in samplers]
        code, out, _ = run(capsys, "preserve", "--spec", demo_path)
        assert code == 0
        assert [len(c) for c in calls] == [0, 0, 0]
        report = json.loads(out)["results"]["preserve"]["results"]["operators"]
        verdicts = report["fundamental_symmetry"].values()
        assert [v["samples_tested"] for v in verdicts] == [203, 201, 203]


class TestTransformTask:
    def test_builds_each_image_family_once(self, capsys, demo_path, count_calls):
        # the necessary conditions reuse the image family the certificate used
        images = count_calls(transforms, "image_subspace")
        code, out, _ = run(capsys, "transform", "--spec", demo_path)
        assert code == 0
        entry = json.loads(out)["results"]["transform"]["results"]["operators"]
        families = entry["fundamental_symmetry"]["families"]
        assert families["tilted_lines"]["necessary_conditions"]["holds"] is True
        # the members come from the one image-family product, none from
        # image_subspace, and none again for the conditions
        assert len(images) == 0

    def test_transform_and_preserve_factor_each_operator_once(self, count_calls):
        # is_j_isometry_multiple, the surjectivity rank and the preservation
        # certificates share one SVD and one T* J T of each operator
        space = alternating_signature_space(8)
        rng = np.random.default_rng(2)
        u = random_j_unitary(space, rng)
        operators = {
            "j_unitary": u,
            "scaled": Operator(space, 2.0 * u.matrix),
            "neutral": neutral_image_operator(space),
            "projection": Operator(space, np.diag([1.0] * 4 + [0.0] * 4)),
        }
        family = random_fusion_frame(space, rng)
        problem = ProblemSpec(space, families={"frame": family}, operators=operators)
        svds = count_calls(np.linalg, "svd")
        congruences = count_calls(vars(Operator)["_congruence"], "func")
        for command in ("transform", "preserve"):
            cli.run_command(command, problem, 0, 30)
        for op in operators.values():
            assert sum(args[0] is op.matrix for args in svds) == 1
            assert sum(args[0] is op for args in congruences) == 1

    def test_member_and_surjectivity_failures_are_reported(self, capsys, tmp_path):
        # the four axes of C^4 under diag(1, -1, 1, -1): the neutral-image
        # operator sends e1 onto the neutral line (1, 1, 0, 0), and
        # diag(1, 1, 0, 0) is not surjective
        space = alternating_signature_space(4)
        neutral = neutral_image_operator(space).matrix.real
        doc = {
            "space": {"dim": 4, "J": np.diag([1, -1, 1, -1]).tolist()},
            "families": {"axes": {
                "subspaces": [[row] for row in np.eye(4).tolist()],
                "weights": [1, 1, 1, 1],
            }},
            "operators": {
                "neutral": neutral.tolist(),
                "projection": np.diag([1.0, 1.0, 0.0, 0.0]).tolist(),
            },
        }
        p = tmp_path / "axes.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "transform", "--spec", str(p))
        assert code == 1
        block = json.loads(out)["results"]["transform"]
        assert block["pass"] is False
        operators = block["results"]["operators"]
        half = 1.0 / 2.0**0.5  # the unit image of e1
        assert operators["neutral"]["families"]["axes"] == {
            "is_frame": False,
            "error": "member 0: member classifies as neutral; "
            "every member must be uniformly definite",
            "witness": [[half, 0.0], [half, 0.0], [0.0, 0.0], [0.0, 0.0]],
        }
        assert operators["projection"]["families"]["axes"] == {
            "is_frame": False, "error": "transform requires a surjective operator"
        }


class TestSpanDecisions:
    """Estimate bounds and the direct-sum test read the rank each span decided."""

    def test_estimate_takes_the_span_rank_of_a_tiny_weight(self, capsys):
        # T+ has singular values about 1 and 1e-12, and M+ has dimension 2,
        # so gamma(T+) is the second one however tau_rank would cut T+
        doc = {
            "space": {"dim": 3, "J": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]},
            "families": {"f": {
                "subspaces": [[[1, 0, 0.2]], [[0, 1, 0.2]], [[0, 0, 1]]],
                "weights": [1, 1e-12, 1],
            }},
        }
        code, out, _ = run(capsys, "bounds", "--spec", json.dumps(doc))
        assert code == 0
        entry = json.loads(out)["results"]["bounds"]["results"]["families"]["f"]
        assert entry["sandwich_ok"] is True
        assert entry["estimate"]["a_plus"] <= entry["optimal"]["a_plus"]

    def test_demo_bounds_under_a_coarse_rank_tolerance(self, capsys, demo_path):
        code, out, _ = run(capsys, "bounds", "--spec", demo_path, "--tol-rank", "0.5")
        assert code == 0
        families = json.loads(out)["results"]["bounds"]["results"]["families"]
        assert all(entry["sandwich_ok"] for entry in families.values())

    def test_tilted_lines_are_a_direct_sum(self, capsys):
        # the lines (1, 0.9) and (0.9, 1) are nearly parallel: stacked, their
        # bases fall below tau_rank = 0.1, but a positive and a negative line
        # meet only in {0}
        doc = {
            "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
            "families": {"f": {"subspaces": [[[1, 0.9]], [[0.9, 1]]], "weights": [1, 1]}},
            "operators": {"I": [[1, 0], [0, 1]]},
        }
        argv = ("transform", "--spec", json.dumps(doc), "--tol-rank", "0.1")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        entry = json.loads(out)["results"]["transform"]["results"]["operators"]["I"]
        conditions = entry["families"]["f"]["necessary_conditions"]
        assert conditions["direct_sum"] is True and conditions["holds"] is True


class TestVectorFrameDecision:
    def test_all_decides_a_vector_frame_once(self, capsys, tmp_path, count_calls):
        # one side pass per sign for the frame's cached decision, the dual's
        # own decision and the dual over the frame's spans; no estimates
        doc = {
            "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
            "vector_frames": {"vf": [[2, 0], [0, 3]]},
        }
        p = tmp_path / "axes.json"
        p.write_text(json.dumps(doc))
        extremes = [count_calls(m, "_rayleigh_extremes") for m in (fusion, duality)]
        estimates = count_calls(fusion, "_estimate_extremes")
        code, out, _ = run(capsys, "all", "--spec", str(p), "--samples", "5")
        assert code == 0
        bounds = json.loads(out)["results"]["bounds"]["results"]["vector_frames"]["vf"]
        assert bounds["optimal"] == {
            "b_minus": -9.0, "a_minus": -9.0, "a_plus": 4.0, "b_plus": 4.0
        }
        assert sum(map(len, extremes)) == 6
        assert estimates == []


# (J, vectors): the axes under diag(1, -1), and conftest's coupled frame
IDENTITY_FRAMES = {
    "axes": ([[1, 0], [0, -1]], [[1.0, 0.0], [0.0, 1.0]]),
    "coupled": ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], [[1, 0, 0], [0, 1, 0], [0, 1, 2]]),
}


def scaled_frame(kind, scale) -> ProblemSpec:
    j, vectors = IDENTITY_FRAMES[kind]
    frame = (scale * np.array(vectors, dtype=float)).tolist()
    return parse_spec({"space": {"dim": len(j), "J": j}, "vector_frames": {"vf": frame}})


def identity_entry(problem) -> dict:
    report = cli.run_command("identity", problem, 0, 50)
    return report["results"]["identity"]["results"]["vector_frames"]["vf"]


class TestIdentityTask:
    @pytest.mark.parametrize("kind", IDENTITY_FRAMES)
    @pytest.mark.parametrize("scale", [1e-50, 1e-3, 1.0, 1e3, 1e5, 1e50])
    def test_verdict_does_not_depend_on_the_scale(self, kind, scale):
        # the sides' terms grow with ||f_i||^2 while the exact sides are 0
        entry = identity_entry(scaled_frame(kind, scale))
        assert entry["ok"] is True and entry["max_relative_residual"] < 1e-14

    @pytest.mark.parametrize("kind", IDENTITY_FRAMES)
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_perturbed_inverse_fails_at_every_scale(self, kind, scale):
        problem = scaled_frame(kind, scale)
        frame = problem.vector_frames["vf"]
        assert identity_entry(problem)["ok"] is True
        g = random_complex(rng_from_seed(7), frame.space.dim, frame.space.dim)
        s_inv = frame._s_inv  # perturbed by 1e-6 relative to its norm
        frame._s_inv = s_inv + 1e-6 * np.linalg.norm(s_inv, 2) / np.linalg.norm(g, 2) * g
        assert identity_entry(problem)["ok"] is False

    @pytest.mark.parametrize("seed, samples", [(0, 1), (7, 30)])
    def test_trials_are_the_per_trial_draws(self, seed, samples):
        # two frames: each draws from its own generator, as the reference
        # draws a trial at a time, bit for bit
        rng = rng_from_seed(3)
        space = alternating_signature_space(6)
        problem = ProblemSpec(space, vector_frames={
            name: random_vector_frame(space, rng, extra=3) for name in ("b", "a")
        })
        with mock.patch.object(cli, "fundamental_identity_sides_batch",
                               wraps=cli.fundamental_identity_sides_batch) as batch:
            cli.run_command("identity", problem, seed, samples)
        assert batch.call_count == 2
        for index, (name, call) in enumerate(zip("ab", batch.call_args_list)):
            frame, masks, fs = call.args
            assert frame is problem.vector_frames[name]
            draws = rng_from_seed([seed, zlib.crc32(name.encode()), index])
            want = identity_trials(draws, samples, len(frame), space.dim)
            assert masks.dtype == bool and masks.tobytes() == want[0].tobytes()
            assert fs.flags.c_contiguous and fs.tobytes() == want[1].tobytes()

    def test_sides_both_zero_agree(self, monkeypatch):
        # f = 0 makes both sides and the trial's energy exactly 0: no 0/0
        class ZeroNormals(np.random.Generator):
            def standard_normal(self, out):
                out[...] = 0.0

        monkeypatch.setattr(cli, "rng_from_seed", lambda seed: ZeroNormals(np.random.PCG64(seed)))
        entry = identity_entry(scaled_frame("coupled", 1.0))
        assert (entry["ok"], entry["max_relative_residual"]) == (True, 0.0)

    def test_all_on_demo_identity_block(self, capsys, demo_path):
        code, out, _ = run(capsys, "all", "--spec", demo_path)
        assert code == 0
        block = json.loads(out)["results"]["identity"]
        assert block["pass"] is True
        entry = block["results"]["vector_frames"]["axes_and_tilt"]
        assert entry["trials"] == 200
        assert entry["ok"] is True
        assert entry["max_relative_residual"] == pytest.approx(
            3.5527136788004883e-15, abs=1e-10
        )


class TestDualTask:
    def test_vector_frame_gates_fusion_is_advisory(self, capsys, demo_path):
        code, out, _ = run(capsys, "dual", "--spec", demo_path)
        assert code == 0
        results = json.loads(out)["results"]["dual"]["results"]
        vf = results["vector_frames"]["axes_and_tilt"]
        assert vf["ok"] is True
        fam = results["families"]["tilted_lines"]
        assert fam["advisory"] is True

    def test_failing_fusion_reciprocity_does_not_fail_run(self, capsys, tmp_path):
        doc = {
            "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
            "families": {
                "axes": {"subspaces": [[[1, 0]], [[0, 1]]], "weights": [2, 3]}
            },
        }
        p = tmp_path / "axes.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "dual", "--spec", str(p))
        assert code == 0
        fam = json.loads(out)["results"]["dual"]["results"]["families"]["axes"]
        assert fam["advisory"] is True
        assert fam["holds"] is False

    def test_a_rank_deficient_dual_member_is_a_failed_dual(self, capsys, tmp_path):
        # a frame whose S^-1 shrinks e2 tenfold: the plane span{e1, e1 +
        # 4e-10 e2} maps to a rank-deficient basis, reported as a failed dual
        doc = {
            "space": {"dim": 4, "J": np.diag([1, 1, -1, -1]).tolist()},
            "families": {"f": {
                "subspaces": [[[1, 0, 0, 0], [1, 4e-10, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]],
                              [[0, 1, 0, 0]]],
                "weights": [1, 1, 3],
            }},
        }
        p = tmp_path / "shrunk.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "dual", "--spec", str(p))
        assert code == 0
        fam = json.loads(out)["results"]["dual"]["results"]["families"]["f"]
        assert "error" not in fam
        assert (fam["advisory"], fam["dual_is_frame"], fam["holds"]) == (True, False, False)
        assert fam["note"].startswith(
            "dual member failed its rank check: basis matrix is rank deficient (singular values "
        )


class TestDualThatDoesNotCertify:
    # cond(S) of about 4.0e12 passes the limit 1/tau_def; whether the dual's
    # span S^-1 M(-) still classifies as negative turns on rounding
    DOC = {
        "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
        "tolerances": {"tau_def": 1e-13},
        "vector_frames": {"v": [[1, 0.99999999], [99.99, 100]]},
    }

    @pytest.mark.parametrize("command", ["dual", "all"])
    def test_no_traceback_and_a_located_error(self, capsys, tmp_path, command):
        p = tmp_path / "ill.json"
        p.write_text(json.dumps(self.DOC))
        code, out, err = run(capsys, command, "--spec", str(p), "--samples", "5")
        assert code in (0, 1) and "Traceback" not in err
        block = json.loads(out)["results"]["dual"]
        if command == "dual":
            assert block["pass"] is (code == 0)
        if not block["pass"]:  # a failed dual says why
            assert "error" in block["results"]["vector_frames"]["v"]


class TestSingularFrameOperator:
    """A J-frame whose frame operator is numerically singular fails its verdict."""

    @pytest.fixture
    def singular_path(self, tmp_path):
        doc = {
            "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
            "vector_frames": {"vf": [[1, 0], [0, 1e-5]]},
        }
        p = tmp_path / "singular.json"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize("command", ["all", "dual", "identity"])
    def test_exits_one_with_a_located_error(self, capsys, singular_path, command):
        code, out, _ = run(capsys, command, "--spec", singular_path, "--samples", "5")
        assert code == 1
        results = json.loads(out)["results"]
        for task in ("dual", "identity") if command == "all" else (command,):
            assert results[task]["pass"] is False
            assert results[task]["results"]["vector_frames"]["vf"] == {
                "error": "frame operator is numerically singular (cond = 1e+10)"
            }
        if command == "all":  # a J-frame all the same
            assert results["certify"]["results"]["vector_frames"]["vf"]["is_frame"] is True

    @pytest.mark.parametrize("command", ["dual", "identity"])
    def test_exactly_singular_past_a_tiny_tau_def(self, capsys, tmp_path, command):
        # two near-neutral vectors of opposite sign: cond(S) stays below
        # 1/tau_def, and the LU factorization of S meets a zero pivot
        doc = {
            "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
            "vector_frames": {"v": [
                [-0.027649280432602362, 0.02764928043224608],
                [-1.1156770845743353, 1.11567708470135],
            ]},
            "tolerances": {"tau_def": 1e-70},
        }
        p = tmp_path / "near_neutral.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--spec", str(p), "--samples", "3")
        assert code == 1
        assert "Traceback" not in err
        block = json.loads(out)["results"][command]
        assert block["pass"] is False
        assert block["results"]["vector_frames"]["v"] == {
            "error": "frame operator is exactly singular"
        }

    def test_sign_transport_failure_fails_the_dual(self, capsys, demo_path, monkeypatch):
        def transport_fails(vf):
            raise DefinitenessTransportError("sign pattern changed")

        monkeypatch.setattr(cli, "dual_bounds_check", transport_fails)
        code, out, _ = run(capsys, "dual", "--spec", demo_path)
        assert code == 1
        block = json.loads(out)["results"]["dual"]
        assert block["results"]["vector_frames"]["axes_and_tilt"] == {
            "error": "sign pattern changed"
        }
        assert block["pass"] is False


class TestOverflowingBound:
    """A bound that overflows is reported as "inf", and no numpy warning is printed."""

    def test_bounds_reports_inf_silently(self, tmp_path):
        doc = {
            "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
            "families": {"f": {"subspaces": [[[1, 0.5]], [[0, 1]]], "weights": [1.3e154, 1]}},
        }
        p = tmp_path / "huge_weight.json"
        p.write_text(json.dumps(doc))
        env = {**os.environ, "PYTHONPATH": str(Path(kreinframes.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-m", "kreinframes.cli", "bounds", "--spec", str(p)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        # B+ = s^2 / gamma(G_M) = (1.3e154)^2 / 0.6, beyond float64
        report = json.loads(proc.stdout)
        family = report["results"]["bounds"]["results"]["families"]["f"]
        assert family["estimate"]["b_plus"] == "inf"
        assert proc.stderr == "\n".join(cli._summary_lines(report)) + "\n"


class TestImportPath:
    """The runtime needs numpy only: scipy is a test-time dependency."""

    @staticmethod
    def python(code, *args):
        src = str(Path(kreinframes.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_cli_import_leaves_scipy_out(self):
        proc = self.python("import sys, kreinframes.cli; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_all_runs_without_scipy(self, demo_path):
        run_all = (
            "import sys\n"
            "if sys.argv[1] == 'blocked':\n"
            "    sys.modules['scipy'] = None\n"
            "from kreinframes.cli import main\n"
            "sys.exit(main(['all', '--spec', sys.argv[2], '--samples', '20']))\n"
        )
        blocked = self.python(run_all, "blocked", demo_path)
        normal = self.python(run_all, "normal", demo_path)
        assert blocked.returncode == 0, blocked.stderr
        assert normal.returncode == 0, normal.stderr
        verdicts = lambda out: {k: v["pass"] for k, v in json.loads(out)["results"].items()}
        assert verdicts(blocked.stdout) == verdicts(normal.stdout)
        assert blocked.stdout == normal.stdout

REALS = [0, 1, -1, 2, 0.5, -0.0, 1e-12, 1e150, 1e-300, HUGE]
NEAR_ONE = [1 + s * 10.0**-k for k in (8, 10, 12, 14, 16) for s in (-1, 1)]
JUNK = [True, False, "1", None, [1, 2, 3], [[1, 0]], -HUGE, [HUGE, 0], [0.0, True], {}]


@st.composite
def fuzz_documents(draw):
    """Mostly well-formed documents (n <= 6) with junk, pairs and ragged rows mixed in.

    Some put near-neutral columns next to a tau_def as small as 1e-300, so a
    frame operator can pass the condition-number test yet be exactly singular.
    """
    n = draw(st.integers(1, 6))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    noise = draw(st.sampled_from([0, 0, 1, 4]))  # percent of entries replaced

    def entry(value):
        roll = draw(st.integers(0, 99))  # small values are drawn most often
        if roll >= 100 - noise:
            return draw(st.sampled_from(JUNK))
        if roll >= 100 - 2 * noise:
            return draw(st.sampled_from(REALS))
        return [value, 0] if roll % 5 == 1 else value

    def rows(matrix):
        out = [[entry(v) for v in row] for row in matrix]
        if draw(st.integers(0, 19)) == 19:  # a ragged row
            out[draw(st.integers(0, len(out) - 1))].pop()
        return out

    plus = [i for i, s in enumerate(signs) if s == 1]
    minus = [i for i, s in enumerate(signs) if s == -1]
    # near-neutral columns mixed in, all on one pair of coordinates of opposite sign
    near = bool(plus and minus) and draw(st.booleans())
    pair = (draw(st.sampled_from(plus)), draw(st.sampled_from(minus))) if near else None

    def unit_columns(count, near_neutral=False):
        cols = []
        for _ in range(count):
            col = [0.0] * n
            if near_neutral and draw(st.integers(0, 3)):
                # near-neutral: ||f-|| / ||f+|| within 1e-8 ... 1e-16 of 1
                scale = draw(st.sampled_from([1.0, -0.03, 1.1]))
                col[pair[0]] = scale
                col[pair[1]] = -scale * draw(st.sampled_from(NEAR_ONE))
            else:
                col[draw(st.integers(0, n - 1))] = 1.0
                col[draw(st.integers(0, n - 1))] += draw(st.sampled_from([0.0, 0.5, 1.0]))
            cols.append(col)
        return cols

    doc = {"space": {"dim": n, "J": rows(np.diag(signs).tolist())}}
    if draw(st.booleans()):
        count = draw(st.integers(1, 2 * n))
        # two near-neutral columns on one pair would be rank deficient
        dims = [draw(st.integers(1, 2)) for _ in range(count)]
        members = [rows(unit_columns(k, near and k == 1)) for k in dims]
        weights = [entry(draw(st.sampled_from([0.5, 1, 2]))) for _ in members]
        doc["families"] = {"fam": {"subspaces": members, "weights": weights}}
    if draw(st.booleans()):
        doc["vector_frames"] = {"vf": rows(unit_columns(draw(st.integers(1, 2 * n)), near))}
    if draw(st.booleans()):
        entries = st.lists(st.sampled_from([0, 1, -1, 2]), min_size=n, max_size=n)
        doc["operators"] = {"T": rows([draw(entries) for _ in range(n)])}
    if draw(st.integers(0, 2)) == 0:
        key = draw(st.sampled_from(["tau_sym", "tau_rank", "tau_def", "tau_num"]))
        doc["tolerances"] = {
            key: draw(st.sampled_from([1e-12, 1e-6, 0.3, 0.5, 1, 2, HUGE, True, "x", 0]))
        }
    elif near and draw(st.integers(0, 3)):  # near-neutral columns pass as definite
        doc["tolerances"] = {"tau_def": draw(st.sampled_from([1e-20, 1e-70, 1e-300]))}
    if draw(st.integers(0, 3)) == 0:
        doc["seed"] = draw(st.sampled_from([0, 7, -1, HUGE, True, "s"]))
    return doc


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # numpy's overflow warnings print once per process, so a second run
        # in the same process would differ on stderr for that reason alone
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


OVERRIDES = [
    (), ("--tol-def", "0.3"), ("--tol-def", "1e-300"), ("--tol-rank", "0.5"),
    ("--tol-num", "1e-3"),
]


class TestFuzz:
    @settings(max_examples=40)
    @given(doc=fuzz_documents(), flag=st.sampled_from(OVERRIDES))
    def test_exit_contract_and_determinism(self, doc, flag):
        """Every document exits 0, 1 or 2 without a traceback, byte-identically twice."""
        argv = ("all", "--spec", json.dumps(doc), "--samples", "3", *flag)
        first = run_main(*argv)
        assert first[0] in (0, 1, 2)
        assert run_main(*argv) == first
