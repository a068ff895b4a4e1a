"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kreinframes
from kreinframes import cli, duality, fusion, transforms
from kreinframes.cli import SEED_ENV_VAR, main
from kreinframes.errors import DefinitenessTransportError
from kreinframes.fusion import certify
from kreinframes.problem import parse_spec

DEMO = str(Path(kreinframes.__file__).parent / "data" / "c3_demo.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HUGE = 10**400  # a JSON integer beyond float64


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

    @pytest.mark.parametrize("source", ["flag", "document", "environment"])
    def test_negative_seed_exits_two(self, capsys, tmp_path, monkeypatch, source):
        doc = {"space": {"dim": 2, "J": [[1, 0], [0, -1]]}}
        if source == "document":
            doc["seed"] = -1
        if source == "environment":
            monkeypatch.setenv(SEED_ENV_VAR, "-1")
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

    def test_unknown_command_exits_two(self, capsys, demo_path):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--spec", demo_path])
        assert exc.value.code == 2


class TestDeterminism:
    def test_json_reports_byte_identical(self, capsys, demo_path):
        _, out1, _ = run(capsys, "all", "--spec", demo_path, "--samples", "20")
        _, out2, _ = run(capsys, "all", "--spec", demo_path, "--samples", "20")
        assert out1 == out2

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

    def test_text_format(self, capsys, demo_path):
        _, out, _ = run(capsys, "certify", "--spec", demo_path, "--format", "text")
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "overall: PASS" in out

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
        assert "converse" in entry and len(entry["witnesses"][0]["vector"]) == 3
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


POOL_DOCS = [
    ("cli_small", "demo-0"),
    ("cli_small", "n4-0"),
    ("cli_small", "n6-0"),
    ("cli_small", "schema-0"),
    ("cli_small", "rankdef-0"),
    ("fusion_docs", "frame_diag-0"),
    ("fusion_docs", "nonframe_full-0"),
    ("vframe_docs", "diag-0"),
    ("preserve_docs", "alt-0"),
    # the pool's deepest definiteness refutation: draw 26, a lazy slice
    ("preserve_docs", "alt-8"),
]

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
    """One benchmark pool document of each class against its recorded reference."""

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
    def test_report_passes_the_gate(
        self, capsys, monkeypatch, pool_dir, workload, doc_id
    ):
        docs, gate = perfbench_module("docs"), perfbench_module("gate")
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        path = pool_dir / f"{workload}-{doc_id}.json"
        ref = perfbench_module("refs").load(workload)["docs"][doc_id]
        assert ref["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        samples = str(docs.SAMPLES[workload])
        argv = ("all", "--spec", str(path), "--samples", samples)
        result = gate.outcome(*run(capsys, *argv))
        assert gate.check(ref, result) == []


class TestSeedResolution:
    def test_flag_beats_document(self, capsys, demo_path):
        _, out, _ = run(capsys, "certify", "--spec", demo_path, "--seed", "5")
        assert json.loads(out)["seed"] == 5

    def test_document_beats_environment(self, capsys, demo_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        _, out, _ = run(capsys, "certify", "--spec", demo_path)
        assert json.loads(out)["seed"] == 0  # the demo document pins seed 0

    def test_environment_used_when_unspecified(self, capsys, tmp_path, monkeypatch):
        doc = {
            "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
            "vector_frames": {"axes": [[2, 0], [0, 3]]},
        }
        p = tmp_path / "noseed.json"
        p.write_text(json.dumps(doc))
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        _, out, _ = run(capsys, "identity", "--spec", str(p))
        assert json.loads(out)["seed"] == 123

    def test_bad_environment_seed_exits_two(self, capsys, tmp_path, monkeypatch):
        doc = {"space": {"dim": 2, "J": [[1, 0], [0, -1]]}}
        p = tmp_path / "noseed.json"
        p.write_text(json.dumps(doc))
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        code, _, err = run(capsys, "certify", "--spec", str(p))
        assert code == 2
        assert SEED_ENV_VAR in err


class TestToleranceOverrides:
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

    @pytest.mark.parametrize("value", ["0.15", "0.3"])
    def test_refuted_operator_keeps_its_counterexample(self, capsys, tmp_path, value):
        # N sends e1 onto the neutral line (1, 1): refuted on the first
        # supplied subspace, before the draw that fails tau_def = 0.3
        doc = {**self.DOC, "operators": {"I": [[1, 0], [0, 1]], "N": [[1, 1], [1, 2]]}}
        alone = {**self.DOC, "operators": {"N": [[1, 1], [1, 2]]}}
        blocks = []
        for name, d in (("both", doc), ("alone", alone)):
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(d))
            argv = ["preserve", "--spec", str(p), "--samples", "20", "--tol-def", value]
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert "Traceback" not in err
            blocks.append(json.loads(out)["results"]["preserve"]["results"]["operators"])
        both, alone = blocks
        refuted = both["N"]["definiteness_with_sign"]
        assert refuted["status"] == "counterexample"
        assert refuted["samples_tested"] == 1
        assert both["N"] == alone["N"]
        if value == "0.3":
            assert both["I"]["error"].startswith(
                "definiteness predicate only tests uniformly definite"
            )
        else:
            assert "error" not in both["I"]

    @pytest.mark.parametrize("value", ["1", "2"])
    def test_rank_tolerance_of_one_exits_two(self, capsys, demo_path, value):
        code, out, err = run(capsys, "certify", "--spec", demo_path, "--tol-rank", value)
        assert code == 2
        assert out == ""
        assert err == "error: tolerances.tau_rank: expected a positive number below 1\n"


class TestTransformTask:
    def test_builds_each_image_family_once(self, capsys, demo_path, count_calls):
        # the necessary conditions reuse the image family the certificate used
        images = count_calls(transforms, "image_subspace")
        code, out, _ = run(capsys, "transform", "--spec", demo_path)
        assert code == 0
        entry = json.loads(out)["results"]["transform"]["results"]["operators"]
        families = entry["fundamental_symmetry"]["families"]
        assert families["tilted_lines"]["necessary_conditions"]["holds"] is True
        assert len(images) == 3  # one per member, none again for the conditions

    def test_member_and_surjectivity_failures_are_reported(self, capsys, tmp_path):
        # the four axes of C^4 under diag(1, -1, 1, -1): the neutral-image
        # operator sends e1 onto the neutral line (1, 1, 0, 0), and
        # diag(1, 1, 0, 0) is not surjective
        space = transforms.alternating_signature_space(4)
        neutral = transforms.neutral_image_operator(space).matrix.real
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


class TestIdentityTask:
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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_bounds_reports_inf_silently(self, tmp_path, fmt):
        doc = {
            "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
            "families": {"f": {"subspaces": [[[1, 0.5]], [[0, 1]]], "weights": [1.3e154, 1]}},
        }
        p = tmp_path / "huge_weight.json"
        p.write_text(json.dumps(doc))
        env = {**os.environ, "PYTHONPATH": str(Path(kreinframes.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-m", "kreinframes.cli", "bounds", "--spec", str(p), "--format", fmt],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        if fmt == "text":  # the summary goes to stdout, and nothing to stderr
            assert proc.stderr == ""
            return
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
