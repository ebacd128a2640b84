import hashlib
import json
import os

import pytest

from conftest import parse_and_build

from udgscan.errors import ConfigError, DiagnosticSink, DuplicatePair, EmptyInput, IdMismatch
from udgscan.harness.dataset import load_paired_dataset, normalized_hash
from udgscan.harness.metrics import compute_metrics, compute_pairwise
from udgscan.harness.rename import adversarial_rename, build_rename_map, rename_source


# ------------------------------------------------------------------ metrics


def test_perfect_predictions():
    preds = [("a", True), ("b", False)]
    labels = [("a", True), ("b", False)]
    assert compute_metrics(preds, labels) == (1.0, 1.0, 1.0)


def test_metrics_arithmetic():
    # TP=2, FP=1, FN=2 -> precision 2/3, recall 1/2, f1 4/7
    preds = [("a", True), ("b", True), ("c", True), ("d", False), ("e", False)]
    labels = [("a", True), ("b", True), ("c", False), ("d", True), ("e", True)]
    precision, recall, f1 = compute_metrics(preds, labels)
    assert precision == pytest.approx(2 / 3)
    assert recall == pytest.approx(0.5)
    assert f1 == pytest.approx(2 * (2 / 3) * 0.5 / ((2 / 3) + 0.5))


def test_metrics_degenerate_zero_with_warning():
    preds = [("a", False), ("b", False)]
    labels = [("a", True), ("b", False)]
    warnings: list[str] = []
    precision, recall, f1 = compute_metrics(preds, labels, warnings)
    assert (precision, recall, f1) == (0.0, 0.5, 0.0) or precision == 0.0
    assert warnings


def test_metrics_id_mismatch():
    with pytest.raises(IdMismatch):
        compute_metrics([("a", True)], [("b", True)])


def test_pairwise_arithmetic():
    p_c, p_r, vp_s = compute_pairwise([(1, 0), (0, 1)])
    assert (p_c, p_r, vp_s) == (0.5, 0.5, 0.0)


def test_pairwise_negative_vps():
    pairs = [(0, 1)] * 3 + [(1, 0)] * 1 + [(1, 1)] * 1
    p_c, p_r, vp_s = compute_pairwise(pairs)
    assert vp_s < 0
    assert vp_s == pytest.approx(p_c - p_r)


def test_pairwise_empty():
    with pytest.raises(EmptyInput):
        compute_pairwise([])


# ------------------------------------------------------------------- rename


def test_rename_prefix_direction():
    mapping = build_rename_map({"taint"}, "vulnerable")
    assert mapping == {"taint": "non_vulnerable_taint"}
    mapping = build_rename_map({"taint"}, "non_vulnerable")
    assert mapping == {"taint": "vulnerable_taint"}


def test_rename_collision_gets_suffix():
    log: list[str] = []
    mapping = build_rename_map({"x", "non_vulnerable_x"}, "vulnerable", log)
    assert mapping["x"] != mapping["non_vulnerable_x"]
    assert len(set(mapping.values())) == 2
    assert log


def test_rename_source_preserves_strings_and_keywords():
    src = 'class A { int taint; String s = "taint"; /* taint */ }\n'
    out = rename_source(src, {"taint": "non_vulnerable_taint", "A": "non_vulnerable_A"})
    assert "int non_vulnerable_taint;" in out
    assert '"taint"' in out  # literal untouched
    assert "/* taint */" in out  # comment untouched
    assert "class non_vulnerable_A" in out


def test_rename_reapplication_double_prefixes():
    once = rename_source("int taint;", {"taint": "non_vulnerable_taint"})
    twice = rename_source(once, {"non_vulnerable_taint": "non_vulnerable_non_vulnerable_taint"})
    assert "non_vulnerable_non_vulnerable_taint" in twice


def test_rename_preserves_original_graph_of_reflective_repo(reflect_repo, tmp_path):
    # Reflection resolution legitimately diverges after renaming (string
    # literals keep the old names), but the pre-enhancement graph structure
    # must still correspond 1:1.
    out_dir = tmp_path / "renamed_reflect"
    mapping = adversarial_rename(reflect_repo, "non_vulnerable", str(out_dir))
    model_a, g_a, _ = parse_and_build(reflect_repo)
    model_b, g_b, diag_b = parse_and_build(str(out_dir))
    assert not diag_b.has_errors()
    keys_a = sorted((n.file, n.start_line, n.end_line, n.kind) for n in g_a.nodes.values() if not n.external)
    keys_b = sorted((n.file, n.start_line, n.end_line, n.kind) for n in g_b.nodes.values() if not n.external)
    assert keys_a == keys_b
    internal_a = {
        (e.src, e.dst, e.tau, mapping.get(e.variable, e.variable))
        for e in g_a.edges
        if not e.src.startswith("external:") and not e.dst.startswith("external:")
    }
    internal_b = {
        (e.src, e.dst, e.tau, e.variable)
        for e in g_b.edges
        if not e.src.startswith("external:") and not e.dst.startswith("external:")
    }
    assert internal_a == internal_b


def test_renamed_repo_parses_and_is_isomorphic(el_repo, tmp_path):
    out_dir = tmp_path / "renamed"
    diags = DiagnosticSink()
    mapping = adversarial_rename(el_repo, "vulnerable", str(out_dir), diags)
    model_a, g_a, _ = parse_and_build(el_repo)
    model_b, g_b, diag_b = parse_and_build(str(out_dir))
    assert not diag_b.has_errors()
    # Canonical node keys (file, line span, kind) pair the graphs 1:1.
    def keys(g):
        return sorted((n.file, n.start_line, n.end_line, n.kind) for n in g.nodes.values() if not n.external)

    assert keys(g_a) == keys(g_b)
    # Statement ids are position-derived, so edges must align under the
    # variable rename map.
    def edge_set(g, varmap):
        return {
            (e.src, e.dst, e.tau, varmap.get(e.variable, e.variable))
            for e in g.edges
        }

    assert edge_set(g_a, mapping) == edge_set(g_b, {})


# ------------------------------------------------------------------ dataset


VULN = """package p;
class App {
    void run(String cmd) {
        Runtime.getRuntime().exec(cmd);
    }
}
"""

PATCHED = """package p;
class App {
    void run(String cmd) {
        Runtime.getRuntime().exec("fixed");
    }
}
"""


def _write_dataset(tmp_path, pairs):
    lines = []
    for pid, (v_files, p_files) in pairs.items():
        v_dir = tmp_path / pid / "vulnerable"
        p_dir = tmp_path / pid / "patched"
        for rel, text in v_files.items():
            dest = v_dir / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(text, encoding="utf-8")
        for rel, text in p_files.items():
            dest = p_dir / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(text, encoding="utf-8")
        lines.append(
            json.dumps(
                {
                    "id": pid,
                    "vulnerable": f"{pid}/vulnerable",
                    "patched": f"{pid}/patched",
                    "cwe": "CWE-78",
                }
            )
        )
    path = tmp_path / "dataset.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_toy_dataset_loads(tmp_path):
    other_v = VULN.replace("class App", "class Other")
    other_p = PATCHED.replace("class App", "class Other")
    path = _write_dataset(
        tmp_path,
        {
            "pair1": ({"App.java": VULN}, {"App.java": PATCHED}),
            "pair2": ({"Other.java": other_v}, {"Other.java": other_p}),
        },
    )
    samples = load_paired_dataset(path)
    assert [s.pair_id for s in samples] == ["pair1", "pair2"]


def test_identical_variants_rejected(tmp_path):
    reformatted = VULN.replace("    ", "\t")  # whitespace-only difference
    path = _write_dataset(tmp_path, {"pair1": ({"App.java": VULN}, {"App.java": reformatted})})
    with pytest.raises(DuplicatePair):
        load_paired_dataset(path)


def test_normalized_hash_stability(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "X.java").write_text(VULN, encoding="utf-8")
    (b / "X.java").write_text(VULN.replace("    ", "\t\t").replace("\n", "\r\n"), encoding="utf-8")
    assert normalized_hash(str(a)) == normalized_hash(str(b))


@pytest.mark.parametrize("key", ["id", "vulnerable", "patched"])
@pytest.mark.parametrize("value", [None, 5, ["pair1"]])
def test_a_record_field_that_is_not_a_string_is_a_config_error(tmp_path, key, value):
    path = _write_dataset(tmp_path, {"pair1": ({"App.java": VULN}, {"App.java": PATCHED})})
    with open(path, encoding="utf-8") as fh:
        record = json.loads(fh.read())
    if value is None:
        del record[key]
    else:
        record[key] = value
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    with pytest.raises(ConfigError, match=rf"^dataset {path}:1: {key} must be a string$"):
        load_paired_dataset(path)


def test_normalized_hash_reads_bytes(tmp_path):
    """The hash of a UTF-8 file is that of its text with the formatting
    characters removed; a file that is not UTF-8 hashes too."""
    (tmp_path / "X.java").write_text("class  X {\r\n\t// \u00e9t\u00e9\n}\n", encoding="utf-8")
    want = hashlib.md5(b"X.java\x00" + "classX{//\u00e9t\u00e9}".encode("utf-8")).hexdigest()
    assert normalized_hash(str(tmp_path)) == want
    (tmp_path / "X.java").write_bytes(b"class X { String s = \"\xff\"; }\n")
    assert normalized_hash(str(tmp_path)) == hashlib.md5(b'X.java\x00classX{Strings="\xff";}').hexdigest()


def test_an_unreadable_variant_file_is_a_config_error(tmp_path):
    path = _write_dataset(tmp_path, {"pair1": ({"App.java": VULN}, {"App.java": PATCHED})})
    gone = tmp_path / "pair1" / "patched" / "Gone.java"
    os.symlink(tmp_path / "nowhere", gone)
    with pytest.raises(ConfigError, match=rf"^cannot read variant file {gone}: "):
        load_paired_dataset(path)


def test_duplicate_across_pairs_skipped(tmp_path):
    path = _write_dataset(
        tmp_path,
        {
            "pair1": ({"App.java": VULN}, {"App.java": PATCHED}),
            "pair2": ({"App.java": VULN}, {"App.java": PATCHED}),
        },
    )
    warnings: list[str] = []
    samples = load_paired_dataset(path, warnings)
    assert [s.pair_id for s in samples] == ["pair1"]
    assert warnings
