import dataclasses
import json
import re

import numpy as np
import pytest
import scipy.sparse as sps

import nsconic.fileio
from nsconic.cones import ConeSpec, ConeSpecError, solve_cones
from nsconic.hsd import ProblemData
from nsconic.fileio import (
    ProblemFileError,
    load_problem,
    result_document,
    save_problem,
    write_result,
)
from nsconic.linalg import SparseMatrix
from nsconic.solver import IterationRecord, SolverResult


def minimal_doc():
    return {
        "c": [1.0, 2.0],
        "b": [2.0],
        "A": {"m": 1, "n": 2, "rows": [0, 0], "cols": [0, 1], "vals": [1.0, 1.0]},
        "cones": [{"type": "lp", "dim": 2}],
    }


def write_doc(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_round_trip_is_value_identical(tmp_path):
    rng = np.random.default_rng(8)
    A = SparseMatrix(
        2,
        7,
        np.array([0, 0, 1, 1]),
        np.array([0, 3, 2, 6]),
        rng.uniform(-1.0, 1.0, 4),
    )
    b = rng.standard_normal(2)
    c = rng.standard_normal(7)
    x0 = rng.uniform(0.5, 1.5, 7)
    cones = [
        ConeSpec("lp", 2),
        ConeSpec("socp", 2),
        ConeSpec("gpow", lam=[0.25, 0.75]),
    ]
    path = tmp_path / "rt.json"
    save_problem(path, c, A, b, cones, x0=x0)
    c2, A2, b2, cones2, x02 = load_problem(path)
    assert np.array_equal(c2, c)
    assert np.array_equal(b2, b)
    assert np.array_equal(x02, x0)
    assert np.array_equal(A2.toarray(), A.toarray())
    assert cones2 == list(cones)


def test_round_trip_without_x0(tmp_path):
    doc = minimal_doc()
    path = write_doc(tmp_path, doc)
    c, A, b, cones, x0 = load_problem(path)
    assert x0 is None
    assert cones == [ConeSpec("lp", 2)]
    out = tmp_path / "again.json"
    save_problem(out, c, A, b, cones)
    assert "x0" not in json.loads(out.read_text())


def test_null_x0_treated_as_absent(tmp_path):
    doc = minimal_doc()
    doc["x0"] = None
    _, _, _, _, x0 = load_problem(write_doc(tmp_path, doc))
    assert x0 is None


def test_dense_matrix_accepted_by_save(tmp_path):
    path = tmp_path / "dense.json"
    save_problem(
        path,
        [1.0, 1.0],
        np.array([[1.0, 2.0]]),
        [3.0],
        [ConeSpec("lp", 2)],
    )
    _, A, _, _, _ = load_problem(path)
    assert A.toarray() == pytest.approx(np.array([[1.0, 2.0]]))


def test_scipy_sparse_matrix_accepted(tmp_path):
    dense = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 0.0]])
    A = sps.csc_array(dense)
    prob = ProblemData(A, np.array([1.0, 2.0]), np.ones(3))
    np.testing.assert_array_equal(prob.A.toarray(), dense)
    path = tmp_path / "sparse.json"
    save_problem(path, np.ones(3), A, np.array([1.0, 2.0]), [ConeSpec("lp", 3)])
    _, A2, _, _, _ = load_problem(path)
    np.testing.assert_array_equal(A2.toarray(), dense)


def field_error(message):
    """The whole ProblemFileError message, as a pattern for pytest.raises."""
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.update(extra=1), "in top level: ['extra']"),
        (lambda d: d["A"].update(layout="csr"), "in \"A\": ['layout']"),
        (lambda d: d["cones"][0].update(weight=2), "in cone 0: ['weight']"),
    ],
    ids=["top", "matrix", "cone"],
)
def test_unknown_fields_rejected(tmp_path, mutate, message):
    doc = minimal_doc()
    mutate(doc)
    message = "unknown field(s) " + message
    with pytest.raises(ProblemFileError, match=field_error(message)):
        load_problem(write_doc(tmp_path, doc))


@pytest.mark.parametrize("field", ["c", "b", "A", "cones"])
def test_missing_required_fields_rejected(tmp_path, field):
    doc = minimal_doc()
    del doc[field]
    message = f"missing field(s) in top level: [{field!r}]"
    with pytest.raises(ProblemFileError, match=field_error(message)):
        load_problem(write_doc(tmp_path, doc))


def test_missing_matrix_field_rejected(tmp_path):
    doc = minimal_doc()
    del doc["A"]["vals"]
    message = "missing field(s) in \"A\": ['vals']"
    with pytest.raises(ProblemFileError, match=field_error(message)):
        load_problem(write_doc(tmp_path, doc))


def test_cone_without_type_rejected(tmp_path):
    doc = minimal_doc()
    del doc["cones"][0]["type"]
    message = "missing field(s) in cone 0: ['type']"
    with pytest.raises(ProblemFileError, match=field_error(message)):
        load_problem(write_doc(tmp_path, doc))


@pytest.mark.parametrize(
    "field,message",
    [
        ("n", f"c has 2 entries, A has {10**12} columns"),
        ("m", f"b has 1 entries, A has {10**12} rows"),
    ],
    ids=["n", "m"],
)
def test_sizes_checked_before_the_matrix_is_built(
    tmp_path, monkeypatch, field, message
):
    # a size the vectors contradict must be rejected before SparseMatrix
    # allocates for it; the recorder stands in, so nothing large is allocated
    built = []

    def recorder(*args):
        built.append(args)
        raise AssertionError("SparseMatrix built before the size checks")

    monkeypatch.setattr(nsconic.fileio, "SparseMatrix", recorder)
    doc = minimal_doc()
    doc["A"][field] = 10**12
    with pytest.raises(ProblemFileError, match=message):
        load_problem(write_doc(tmp_path, doc))
    assert built == []


def test_cone_dim_sum_must_match_columns(tmp_path):
    doc = minimal_doc()
    doc["cones"] = [{"type": "lp", "dim": 3}]
    with pytest.raises(ProblemFileError, match="cone dims sum"):
        load_problem(write_doc(tmp_path, doc))


@pytest.mark.parametrize(
    "field,value",
    [("c", [1.0]), ("b", [1.0, 2.0]), ("x0", [1.0, 2.0, 3.0])],
)
def test_vector_length_mismatches_rejected(tmp_path, field, value):
    doc = minimal_doc()
    doc[field] = value
    with pytest.raises(ProblemFileError):
        load_problem(write_doc(tmp_path, doc))


def test_non_finite_entries_rejected(tmp_path):
    doc = minimal_doc()
    # Python's json writes and reads NaN and Infinity as numbers
    for bad in (float("nan"), float("inf")):
        doc["c"] = [1.0, bad]
        with pytest.raises(ProblemFileError, match="field 'c' contains non-finite"):
            load_problem(write_doc(tmp_path, doc))


@pytest.mark.parametrize(
    "value,message",
    [
        (["x"], "field 'c' is not a real array"),
        ([[1, 2]], "field 'c' must be a flat array"),
        ([10**400, 1], "field 'c' is not a real array"),
    ],
    ids=["not-real", "not-flat", "too-large"],
)
def test_malformed_vectors_rejected(tmp_path, value, message):
    doc = minimal_doc()
    doc["c"] = value
    with pytest.raises(ProblemFileError, match=re.escape(message)):
        load_problem(write_doc(tmp_path, doc))


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.update(c=["1", "2"]), "'c' is not a real array: items of type str"),
        (lambda d: d.update(c=[True, False]), "'c' is not a real array: items of type bool"),
        (lambda d: d["A"].update(vals=["1.0", "1.0"]), "field 'vals' is not a real array"),
        (lambda d: d["A"].update(vals=[True, True]), "field 'vals' is not a real array"),
        (lambda d: d.update(x0=["0.5", "0.5"]), "field 'x0' is not a real array"),
        (
            lambda d: d["A"].update(rows=0, cols=1, vals=3.0),
            "field 'rows' must be a flat array of numbers",
        ),
    ],
    ids=["c-str", "c-bool", "vals-str", "vals-bool", "x0-str", "scalar-triplet"],
)
def test_non_numbers_rejected(tmp_path, mutate, message):
    # each of these used to load, converted by numpy or wrapped into a list
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ProblemFileError, match=re.escape(message)):
        load_problem(write_doc(tmp_path, doc))


def test_bad_cone_entries_rejected(tmp_path):
    doc = minimal_doc()
    doc["cones"] = [{"type": "orthant", "dim": 2}]
    with pytest.raises(ProblemFileError, match="cone 0"):
        load_problem(write_doc(tmp_path, doc))
    doc["cones"] = []
    with pytest.raises(ProblemFileError, match="nonempty"):
        load_problem(write_doc(tmp_path, doc))
    doc["cones"] = ["lp"]
    with pytest.raises(ProblemFileError, match="must be an object"):
        load_problem(write_doc(tmp_path, doc))


def test_nan_power_weights_rejected(tmp_path):
    doc = minimal_doc()
    doc["c"], doc["A"]["n"] = [1.0, 2.0, 0.0], 3
    # NaN, and weights that are not a list of numbers (an object, a string, an
    # integer too large for a float, numbers written as strings), all name
    # the cone's power-cone weights
    for lam in ([float("nan"), 1.0], {"a": 1}, "ab", [10**400, 1], ["0.25", "0.75"]):
        doc["cones"] = [{"type": "gpow", "lambda": lam}]
        with pytest.raises(ProblemFileError, match="cone 0: power-cone weights"):
            load_problem(write_doc(tmp_path, doc))


@pytest.mark.parametrize(
    "c,cones,message",
    [
        ([1.0, 2.0, 3.0], [ConeSpec("lp", 2)], "c has 3 entries"),
        ([1.0, np.nan], [ConeSpec("lp", 2)], "non-finite"),
        ([1.0, 2.0], [ConeSpec("lp", 3)], "cone dims sum"),
    ],
    ids=["c-length", "c-nan", "cone-dims"],
)
def test_save_rejects_what_load_rejects(tmp_path, c, cones, message):
    path = tmp_path / "bad.json"
    A = SparseMatrix(1, 2, [0, 0], [0, 1], [1.0, 1.0])
    with pytest.raises(ProblemFileError, match=message):
        save_problem(path, c, A, [2.0], cones)
    assert not path.exists()


def test_save_rejects_a_bad_cone_mapping(tmp_path):
    # a cone mapping takes ConeSpec's keys; "lambda" is the problem file's
    cone = {"type": "lp", "dim": 2, "lambda": None}
    path = tmp_path / "bad.json"
    A = SparseMatrix(1, 2, [0, 0], [0, 1], [1.0, 1.0])
    with pytest.raises(ConeSpecError, match=re.escape(f"got {cone!r}")):
        save_problem(path, [1.0, 2.0], A, [2.0], [cone])
    assert not path.exists()


def test_bad_matrix_indices_rejected(tmp_path):
    doc = minimal_doc()
    doc["A"]["cols"] = [0, 5]
    with pytest.raises(ProblemFileError, match="bad matrix block"):
        load_problem(write_doc(tmp_path, doc))


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d["A"].update(rows=[0.7, 0]), "field 'rows'"),
        (lambda d: d["A"].update(cols=[0, 3.9]), "field 'cols'"),
        (lambda d: d["A"].update(cols=[0, True]), "field 'cols'"),
        (lambda d: d["A"].update(m=1.9), "field 'm'"),
        (lambda d: d["A"].update(m=True), "field 'm'"),
        (lambda d: d["A"].update(n="2"), "field 'n'"),
        (lambda d: d["cones"][0].update(dim=2.5), "cone 0: dim"),
        (lambda d: d["cones"][0].update(dim="2"), "cone 0: dim"),
    ],
)
def test_non_integral_sizes_and_indices_rejected(tmp_path, mutate, message):
    # each of these used to load, cut down to an integer by int() or astype
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ProblemFileError, match=message):
        load_problem(write_doc(tmp_path, doc))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "big", [1e300, 2**70, -1e300, 10**400], ids=["1e300", "2^70", "-1e300", "10^400"]
)
def test_indices_outside_int64_rejected(tmp_path, big):
    # an integral float and an int past int64 get the same named error, and
    # the float is never cast (numpy's cast would warn and wrap)
    doc = minimal_doc()
    doc["A"]["rows"] = [0, big]
    with pytest.raises(ProblemFileError, match="field 'rows' holds an integer outside"):
        load_problem(write_doc(tmp_path, doc))


def test_integral_floats_accepted_as_sizes_and_indices(tmp_path):
    doc = minimal_doc()
    doc["A"].update(m=1.0, n=2.0, rows=[0.0, 0], cols=[0, 1.0])
    doc["cones"][0]["dim"] = 2.0
    c, A, b, cones, x0 = load_problem(write_doc(tmp_path, doc))
    assert A.shape == (1, 2) and cones[0].dim == 2 and type(cones[0].dim) is int
    np.testing.assert_array_equal(A.toarray(), [[1.0, 1.0]])


def test_unreadable_or_invalid_json(tmp_path):
    with pytest.raises(ProblemFileError, match="cannot read"):
        load_problem(tmp_path / "missing.json")
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFileError, match="not valid JSON"):
        load_problem(path)
    path.write_text("[1, 2]")
    with pytest.raises(ProblemFileError, match="top level"):
        load_problem(path)


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(minimal_doc()).encode())
    with pytest.raises(ProblemFileError, match="not UTF-8 text"):
        load_problem(path)


def solved_result(tmp_path):
    path = write_doc(tmp_path, minimal_doc(), name="solve_me.json")
    c, A, b, cones, x0 = load_problem(path)
    return solve_cones(c, A, b, cones, x0=x0)


def test_result_document_layout(tmp_path):
    doc = result_document(solved_result(tmp_path))
    assert list(doc)[-1] == "solveSeconds"
    assert doc["status"] == "Optimal"
    assert set(doc["residualNorms"]) == {"primal", "dual", "gap", "mu"}
    assert len(doc["x"]) == 2 and len(doc["y"]) == 1 and len(doc["s"]) == 2
    # must be plain-JSON serializable
    json.dumps(doc)


def test_result_document_carries_the_history(tmp_path):
    result = solved_result(tmp_path)
    doc = result_document(result)
    assert list(doc)[-2] == "history"
    assert len(doc["history"]) == result.iterations > 0
    for rec, entry in zip(result.history, doc["history"]):
        # every field of the record, under its camelCase name
        expected = {}
        for name, value in dataclasses.asdict(rec).items():
            head, *rest = name.split("_")
            expected[head + "".join(w.capitalize() for w in rest)] = value
        assert entry == expected
        assert type(entry["predTrials"]) is int and entry["predTrials"] >= 1
    json.dumps(doc, allow_nan=False)


def test_result_document_keys_follow_the_dataclass_fields(tmp_path):
    def camel(name):
        head, *rest = name.split("_")
        return head + "".join(w.capitalize() for w in rest)

    doc = result_document(solved_result(tmp_path))
    assert list(doc) == [camel(f.name) for f in dataclasses.fields(SolverResult)]
    record_keys = [camel(f.name) for f in dataclasses.fields(IterationRecord)]
    assert doc["history"]
    for entry in doc["history"]:
        assert list(entry) == record_keys


def test_write_result_path_and_file_object(tmp_path):
    result = solved_result(tmp_path)
    path = tmp_path / "res.json"
    write_result(result, path)
    text = path.read_text()
    assert text.endswith("\n")
    with open(tmp_path / "res2.json", "w") as fh:
        write_result(result, fh)
    assert (tmp_path / "res2.json").read_text() == text
