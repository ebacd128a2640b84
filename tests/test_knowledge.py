import importlib.resources
import json

import pytest

from udgscan.context.sinks import SensitiveInvocation
from udgscan.errors import ConfigError, DiagnosticSink, MissingGuideline
from udgscan.knowledge import (
    detection_units_for,
    load_knowledge_base,
    load_starter_kb,
    load_user_sinks,
    parse_knowledge_base,
    suffix_match,
)


def test_starter_kb_loads_with_required_guidelines():
    kb = load_starter_kb()
    required = {"CWE-78", "CWE-89", "CWE-22", "CWE-74", "CWE-79", "CWE-90", "CWE-94", "CWE-502", "CWE-611", "CWE-918"}
    assert required <= set(kb.guidelines)
    assert len(kb.guidelines) >= 10
    for g in kb.guidelines.values():
        assert g.title and g.vuln_patterns.strip() and g.defense_knowledge.strip()


def test_the_starter_kb_merges_no_entry():
    data = importlib.resources.files("udgscan.knowledge").joinpath("data/starter_kb.json")
    diags = DiagnosticSink()
    parse_knowledge_base(json.loads(data.read_text(encoding="utf-8")), diags)
    assert diags.items == []


def test_sql_guideline_contrast():
    kb = load_starter_kb()
    g = kb.guidelines["CWE-89"]
    assert "PreparedStatement" in g.defense_knowledge
    assert "replaceAll" in g.defense_knowledge
    # Robust vs unreliable contrast must be explicit.
    assert "robust" in g.defense_knowledge
    assert "unreliable" in g.defense_knowledge


def test_round_trip_load_dump(tmp_path):
    kb = load_starter_kb()
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(kb.dump(), indent=2), encoding="utf-8")
    again = load_knowledge_base(str(path), DiagnosticSink())
    assert again.dump() == kb.dump()


def test_empty_kb_valid():
    kb = parse_knowledge_base({"guidelines": [], "apis": []}, DiagnosticSink())
    assert kb.entries == [] and kb.guidelines == {}


def test_schema_error_names_field():
    with pytest.raises(ConfigError) as err:
        parse_knowledge_base({"guidelines": [{"cwe_id": "nope"}], "apis": []}, DiagnosticSink())
    assert "cwe_id" in str(err.value)


def test_duplicate_api_merged_with_warning():
    doc = {
        "guidelines": [
            {"cwe_id": "CWE-78", "title": "t", "vuln_patterns": "v", "defense_knowledge": "d"},
            {"cwe_id": "CWE-88", "title": "t", "vuln_patterns": "v", "defense_knowledge": "d"},
        ],
        "apis": [
            {"api": "Runtime.exec", "cwes": ["CWE-78"]},
            {"api": "Runtime.exec", "cwes": ["CWE-88"]},
        ],
    }
    diags = DiagnosticSink()
    kb = parse_knowledge_base(doc, diags)
    assert len(kb.entries) == 1
    assert kb.entries[0].cwes == ["CWE-78", "CWE-88"]
    assert [d.render() for d in diags.items] == ["[warning] knowledge: duplicate api Runtime.exec: entries merged"]


def test_suffix_matching():
    assert suffix_match("exec", "java.lang.Runtime.exec")
    assert suffix_match("java.lang.Runtime.exec", "Runtime.exec")
    assert not suffix_match("Paths.get", "Map.get")
    assert not suffix_match("exec", "executeQuery")


def test_detection_units_single():
    kb = load_starter_kb()
    inv = SensitiveInvocation(statement="s", api="Runtime.exec", cwes=["CWE-78"])
    assert detection_units_for(inv, kb) == [("Runtime.exec", "CWE-78")]


def test_detection_units_multiple():
    doc = {
        "guidelines": [
            {"cwe_id": "CWE-78", "title": "t", "vuln_patterns": "v", "defense_knowledge": "d"},
            {"cwe_id": "CWE-88", "title": "t", "vuln_patterns": "v", "defense_knowledge": "d"},
        ],
        "apis": [{"api": "Runtime.exec", "cwes": ["CWE-78", "CWE-88"]}],
    }
    kb = parse_knowledge_base(doc, DiagnosticSink())
    inv = SensitiveInvocation(statement="s", api="Runtime.exec", cwes=["CWE-78", "CWE-88"])
    assert detection_units_for(inv, kb) == [("Runtime.exec", "CWE-78"), ("Runtime.exec", "CWE-88")]


def test_detection_units_missing_guideline():
    kb = parse_knowledge_base({"guidelines": [], "apis": []}, DiagnosticSink())
    inv = SensitiveInvocation(statement="s", api="x", cwes=["CWE-999"])
    with pytest.raises(MissingGuideline):
        detection_units_for(inv, kb)


def test_user_sink_inline_guideline(tmp_path):
    kb = parse_knowledge_base({"guidelines": [], "apis": []}, DiagnosticSink())
    doc = {
        "sinks": [
            {
                "function": "Dao.rawQuery",
                "cwe_id": "CWE-89",
                "guideline": {
                    "title": "Raw query",
                    "vuln_patterns": "Concatenated SQL reaches rawQuery.",
                    "defense_knowledge": "Bind variables are the robust fix.",
                },
            }
        ]
    }
    path = tmp_path / "sinks.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    sinks = load_user_sinks(str(path), kb)
    assert len(sinks) == 1
    assert "CWE-89" in kb.guidelines  # inline override registered
    inv = SensitiveInvocation(statement="s", api="Dao.rawQuery", cwes=["CWE-89"], origin="user_sink")
    assert detection_units_for(inv, kb) == [("Dao.rawQuery", "CWE-89")]


def test_user_sink_without_guideline_rejected(tmp_path):
    kb = parse_knowledge_base({"guidelines": [], "apis": []}, DiagnosticSink())
    path = tmp_path / "sinks.json"
    path.write_text(json.dumps({"sinks": [{"function": "f", "cwe_id": "CWE-1"}]}), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^sinks\[0\]: CWE-1 has no guideline and no inline override$"):
        load_user_sinks(str(path), kb)


GUIDELINE = {"title": "t", "vuln_patterns": "v", "defense_knowledge": "d"}


@pytest.mark.parametrize("block", sorted(GUIDELINE))
def test_a_blank_guideline_text_block_is_a_config_error(tmp_path, block):
    """A KB guideline and an inline sink guideline are checked alike, when
    their file is loaded."""
    blank = {**GUIDELINE, block: " "}
    with pytest.raises(ConfigError, match=r"^kb\.guidelines\[0\]: guideline text blocks must be non-empty$"):
        parse_knowledge_base({"guidelines": [{"cwe_id": "CWE-89", **blank}], "apis": []}, DiagnosticSink())
    path = tmp_path / "sinks.json"
    sinks = [{"function": "f", "cwe_id": "CWE-89", "guideline": GUIDELINE}]
    sinks.append({"function": "g", "cwe_id": "CWE-999", "guideline": blank})
    path.write_text(json.dumps({"sinks": sinks}), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^sinks\[1\]\.guideline: guideline text blocks must be non-empty$"):
        load_user_sinks(str(path), parse_knowledge_base({"guidelines": [], "apis": []}, DiagnosticSink()))


BAD_ARITIES = ["2", True, False, 1.5, -1, None]


@pytest.mark.parametrize("arity", BAD_ARITIES)
def test_kb_arity_must_be_a_non_negative_integer(arity):
    doc = {
        "guidelines": [{"cwe_id": "CWE-89", "title": "t", "vuln_patterns": "v", "defense_knowledge": "d"}],
        "apis": [{"api": "executeQuery", "cwes": ["CWE-89"], "arity": arity}],
    }
    with pytest.raises(ConfigError, match=r"^kb\.apis\[0\]\.arity: arity must be a non-negative integer$"):
        parse_knowledge_base(doc, DiagnosticSink())


@pytest.mark.parametrize("arity", BAD_ARITIES)
def test_sink_arity_must_be_a_non_negative_integer(tmp_path, arity):
    path = tmp_path / "sinks.json"
    sink = {"function": "Dao.rawQuery", "cwe_id": "CWE-89", "arity": arity}
    path.write_text(json.dumps({"sinks": [sink]}), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^sinks\[0\]\.arity: arity must be a non-negative integer$"):
        load_user_sinks(str(path), load_starter_kb())


def test_an_integer_arity_pins_kb_entries_and_sinks(tmp_path):
    doc = {
        "guidelines": [{"cwe_id": "CWE-89", "title": "t", "vuln_patterns": "v", "defense_knowledge": "d"}],
        "apis": [{"api": "executeQuery", "cwes": ["CWE-89"], "arity": 1}],
    }
    kb = parse_knowledge_base(doc, DiagnosticSink())
    assert [e.arity for e in kb.entries] == [1]
    path = tmp_path / "sinks.json"
    sinks = [{"function": "Dao.rawQuery", "cwe_id": "CWE-89", "arity": n} for n in (0, 2)]
    sinks.append({"function": "Dao.rawQuery", "cwe_id": "CWE-89"})
    path.write_text(json.dumps({"sinks": sinks}), encoding="utf-8")
    assert [s.arity for s in load_user_sinks(str(path), kb)] == [0, 2, None]


def test_a_sink_cwe_id_is_checked_as_a_kb_one(tmp_path):
    path = tmp_path / "sinks.json"
    sink = {"function": "Dao.rawQuery", "cwe_id": "banana", "guideline": GUIDELINE}
    path.write_text(json.dumps({"sinks": [sink]}), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^sinks\[0\]\.cwe_id: malformed CWE id 'banana'$"):
        load_user_sinks(str(path), load_starter_kb())
    with pytest.raises(ConfigError, match=r"^kb\.guidelines\[0\]\.cwe_id: malformed CWE id 'banana'$"):
        parse_knowledge_base({"guidelines": [{"cwe_id": "banana", **GUIDELINE}], "apis": []}, DiagnosticSink())


def test_an_inline_guideline_leaves_an_earlier_one_of_its_cwe_in_place(tmp_path):
    """The KB's guideline, or an earlier sink's, wins over an inline one."""
    kb = load_starter_kb()
    title = kb.guidelines["CWE-89"].title
    path = tmp_path / "sinks.json"
    sinks = [{"function": f, "cwe_id": "CWE-89", "guideline": {**GUIDELINE, "title": f}} for f in ("f", "g")]
    sinks.append({"function": "h", "cwe_id": "CWE-999", "guideline": {**GUIDELINE, "title": "first"}})
    sinks.append({"function": "i", "cwe_id": "CWE-999", "guideline": {**GUIDELINE, "title": "second"}})
    path.write_text(json.dumps({"sinks": sinks}), encoding="utf-8")
    load_user_sinks(str(path), kb)
    assert kb.guidelines["CWE-89"].title == title
    assert kb.guidelines["CWE-999"].title == "first"
