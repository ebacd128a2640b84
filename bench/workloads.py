"""Seeded corpus generators for the scan benchmark.

Each generator returns a `Corpus`: the Java files the scanner receives, the
scan settings the workload runs with, and the ground truth the benchmark
checks the scan against.  Only the files are written where the scanner can
see them; the ground truth stays with the benchmark.

Every workload keeps its shape fixed and lets the seed choose names,
constants and order, so that two seeds cost about the same to scan.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from udgscan.errors import DiagnosticSink
from udgscan.frontend.model import RepoModel
from udgscan.frontend.parser import parse_source
from udgscan.harness.generate import random_summary_program
from udgscan.harness.oracles import brute_force_summary_oracle

@dataclass
class PlantedSink:
    """A knowledge-base sink call and the lines that define its argument."""

    file: str
    line: int
    evidence: list[int]


@dataclass
class Corpus:
    files: dict[str, str]
    sinks: list[PlantedSink] = field(default_factory=list)
    # Files the summary check parses one at a time, each on its own.
    summary_files: list[str] = field(default_factory=list)
    token_budget: int | None = None
    latency_s: float = 0.0
    garbage: bool = False


class _Writer:
    """Line-numbered Java source builder that remembers where lines went."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, text: str) -> int:
        self.lines.append(text)
        return len(self.lines)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# ------------------------------------------------------------ summary-graph

SUMMARY_PACKAGES = 5
SUMMARY_PRUNABLE = 300  # call statements whose argument edges the scan prunes
SUMMARY_SLACK = 4  # stop once this close below SUMMARY_PRUNABLE
SUMMARY_DENSITY = (0.19, 0.27)  # accepted prunable statements per statement
SUMMARY_SINKS = 24  # Gen.f0 results fed into a SQL sink from the entry classes
SUMMARY_CANDIDATES = 5000


def prunable_statements(path: str, text: str) -> tuple[int, int]:
    """(call statements with an argument the callee's return ignores,
    statements) of one generated file.

    The summaries come from the brute-force oracle, so the pruning work of
    the scan is known before it runs.  A statement counts when one of its
    argument variables feeds only parameters the return does not read.
    """
    model = RepoModel(root="")
    parse_source(path, text, model, DiagnosticSink())
    by_call = {(f.name, f.arity): f for f in model.functions.values()}
    phi: dict[str, dict[str, bool]] = {}
    count = 0
    for stmt in model.statements.values():
        dropped: set[str] = set()
        kept: set[str] = set()
        args: set[str] = set()
        for site in stmt.calls:
            callee = by_call.get((site.name, site.arity))
            if callee is None:
                continue
            if callee.id not in phi:
                phi[callee.id] = brute_force_summary_oracle(model, callee)
            for param, arg_vars in zip(callee.params, site.arg_vars):
                args |= arg_vars
                (kept if phi[callee.id][param] else dropped).update(arg_vars)
        if dropped - kept - (stmt.uses - args):
            count += 1
    return count, sum(1 for st in model.statements.values() if not st.synthetic)


def summary_graph(seed: int) -> Corpus:
    """Random straight-line int programs, one class per file, plus one entry
    class per package that passes `GenN.f0` results to a SQL sink.

    The pruning pass re-indexes the whole graph for every call statement it
    prunes, so its cost is about prunable statements times edges.  Files are
    taken only when their share of prunable statements lies in
    SUMMARY_DENSITY, until the corpus holds SUMMARY_PRUNABLE of them, less
    at most SUMMARY_SLACK: the graph work then does not drift with the seed.
    """
    files: dict[str, str] = {}
    summary_files: list[str] = []
    classes: list[tuple[str, int, int]] = []  # (class, package, arity of f0)
    prunable = 0
    for i in range(SUMMARY_CANDIDATES):
        if prunable >= SUMMARY_PRUNABLE - SUMMARY_SLACK:
            break
        pkg = len(classes) % SUMMARY_PACKAGES
        cls = f"Gen{len(classes)}"
        path = f"pkg{pkg}/{cls}.java"
        body = random_summary_program(seed * 10000 + i)
        text = f"package pkg{pkg};\n" + body.replace("public class Gen {", f"public class {cls} {{", 1)
        count, statements = prunable_statements(path, text)
        low, high = SUMMARY_DENSITY
        if prunable + count > SUMMARY_PRUNABLE or not low <= count / statements <= high:
            continue
        prunable += count
        arity = len(re.search(r"static int f0\(([^)]*)\)", body).group(1).split(","))
        files[path] = text
        summary_files.append(path)
        classes.append((cls, pkg, arity))
    else:
        raise ValueError(f"seed {seed}: no corpus with {SUMMARY_PRUNABLE} prunable statements")

    sinks: list[PlantedSink] = []
    rng = random.Random(seed)
    writers = {}
    for pkg in range(SUMMARY_PACKAGES):
        w = writers[pkg] = _Writer()
        w.add(f"package pkg{pkg};")
        w.add("import java.sql.Statement;")
        w.add(f"public class Entry{pkg} {{")
        w.add("    static void run(Statement st, int a, int b) {")
    for k in range(SUMMARY_SINKS):
        cls, pkg, arity = classes[k % len(classes)]
        w = writers[pkg]
        args = ", ".join(rng.choice(("a", "b")) for _ in range(arity))
        r_line = w.add(f"        int r{k} = {cls}.f0({args});")
        q_line = w.add(f'        String q{k} = "SELECT v FROM t{rng.randrange(100)} WHERE id = " + r{k};')
        s_line = w.add(f"        st.executeQuery(q{k});")
        sinks.append(PlantedSink(f"pkg{pkg}/Entry{pkg}.java", s_line, [r_line, q_line]))
    for pkg, w in writers.items():
        w.add("    }")
        w.add("}")
        files[f"pkg{pkg}/Entry{pkg}.java"] = w.text()
    return Corpus(files=files, sinks=sinks, summary_files=summary_files)


# --------------------------------------------------------------- sink-dense

SINK_DENSE_FILES = 8
SINK_DENSE_TOKEN_BUDGET = 140  # below the median rendered context, about 148
SINK_DENSE_HANDLERS = 10  # per file
SINK_DENSE_SINKS = (2, 3, 4, 5, 6)  # sinks per handler, cycled then shuffled
ENTITIES = ("order", "user", "invoice", "item", "account", "session", "ticket", "report")
SINK_FORMS = (
    ("st.executeQuery({v});", 'String {v} = "SELECT * FROM " + table + " WHERE k = " + {x};'),
    ("st.executeUpdate({v});", 'String {v} = "UPDATE " + table + " SET v = " + {x};'),
    ("rt.exec({v});", 'String {v} = "convert --name " + {x};'),
    ("out.println({v});", 'String {v} = "<td>" + {x} + "</td>";'),
    ("out.print({v});", 'String {v} = "<p>" + {x};'),
)


def sink_dense(seed: int) -> Corpus:
    """DAO classes whose handlers each feed several SQL, exec and print
    sinks through in-class helper chains.  Scanned with a token budget below
    the median rendered context, so about half the contexts drop lines."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    sinks: list[PlantedSink] = []
    for i in range(SINK_DENSE_FILES):
        entity = ENTITIES[(i + seed) % len(ENTITIES)]
        cls = f"{entity.capitalize()}Dao{i}"
        path = f"dao{i % 4}/{cls}.java"
        w = _Writer()
        w.add(f"package dao{i % 4};")
        w.add("")
        w.add("import java.io.PrintWriter;")
        w.add("import java.sql.Statement;")
        w.add("")
        w.add(f"public class {cls} {{")
        table_line = w.add(f'    static String table = "{entity}_{rng.randrange(1000)}";')
        w.add("")
        helpers = [f"trim{i}", f"wrap{i}", f"key{i}"]
        w.add(f"    String {helpers[0]}(String v) {{")
        w.add("        String t = v.trim();")
        w.add("        return t;")
        w.add("    }")
        w.add("")
        w.add(f"    String {helpers[1]}(String v) {{")
        w.add(f"        String n = {helpers[0]}(v);")
        w.add("        String w = \"'\" + n + \"'\";")
        w.add("        return w;")
        w.add("    }")
        w.add("")
        w.add(f"    String {helpers[2]}(String v) {{")
        w.add(f"        String u = {helpers[1]}(v);")
        w.add(f'        String k = u + "_{rng.randrange(10)}";')
        w.add("        return k;")
        w.add("    }")
        counts = [SINK_DENSE_SINKS[h % len(SINK_DENSE_SINKS)] for h in range(SINK_DENSE_HANDLERS)]
        rng.shuffle(counts)
        # Every file holds the same mix of sink forms, helpers and arguments;
        # the seed only orders them, so every seed costs about the same.
        mix = [(SINK_FORMS[j % len(SINK_FORMS)], helpers[j % len(helpers)], "ab"[j % 2]) for j in range(sum(counts))]
        rng.shuffle(mix)
        for h, n_sinks in enumerate(counts):
            w.add("")
            w.add(f"    void handle{h}(Statement st, PrintWriter out, Runtime rt, String a, String b) {{")
            for s in range(n_sinks):
                (sink_form, def_form), helper, arg = mix.pop()
                x, v = f"x{s}", f"s{s}"
                x_line = w.add(f"        String {x} = {helper}({arg});")
                v_line = w.add("        " + def_form.format(v=v, x=x))
                s_line = w.add("        " + sink_form.format(v=v))
                evidence = [x_line, v_line] + ([table_line] if "table" in def_form else [])
                sinks.append(PlantedSink(path, s_line, evidence))
            w.add("    }")
        w.add("}")
        files[path] = w.text()
    return Corpus(files=files, sinks=sinks, token_budget=SINK_DENSE_TOKEN_BUDGET)


# --------------------------------------------------------- dispatch-latency

DISPATCH_FILES = 8
DISPATCH_LATENCY_S = 0.020  # per oracle or inference request
SHAPES = ("Circle", "Square", "Ring", "Star", "Hex", "Oval")


def dispatch_latency(seed: int) -> Corpus:
    """Base/override classes called through base-typed locals and
    parameters, reflective getMethod/invoke, labeled loops, static fields
    and KB sinks.  Scanned with a fixed delay per oracle and inference
    request, like a live model endpoint."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    sinks: list[PlantedSink] = []
    for f in range(DISPATCH_FILES):
        base = f"Shape{f}"
        subs = [f"{name}{f}" for name in rng.sample(SHAPES, 2)]
        svc = f"Service{f}"
        path = f"disp{f % 4}/{svc}.java"
        w = _Writer()
        w.add(f"package disp{f % 4};")
        w.add("import java.io.PrintWriter;")
        w.add("import java.lang.reflect.Method;")
        w.add("import java.sql.Statement;")
        for cls, parent in [(base, None)] + [(s, base) for s in subs]:
            w.add(f"class {cls}" + (f" extends {parent} {{" if parent else " {"))
            w.add("    String render(String v) {")
            w.add(f'        String r = "{cls.lower()}:" + v;')
            w.add("        return r;")
            w.add("    }")
            w.add("}")
        w.add(f"public class {svc} {{")
        w.add(f'    static String PREFIX = "svc{rng.randrange(1000)}";')
        w.add(f"    static int LIMIT = {rng.randint(4, 9)};")
        # Polymorphic sites the oracle narrows: the local's concrete type is known.
        for k, sub in enumerate(subs):
            w.add(f"    String drawKnown{k}(String v) {{")
            w.add(f"        {base} s = new {sub}();")
            w.add("        String o = s.render(v);")
            w.add("        return o;")
            w.add("    }")
        # A polymorphic site it cannot narrow: the receiver is a parameter.
        w.add(f"    String drawAny({base} s, String v) {{")
        w.add("        String o = s.render(v);")
        w.add("        return o;")
        w.add("    }")
        for mode in ("Plain", "Search"):
            w.add(f"    public String show{mode}(String input) {{")
            w.add(f'        String page = "<{mode.lower()}>" + input;')
            w.add("        return page;")
            w.add("    }")
        w.add("    public String dispatch(String mode, String query) throws Exception {")
        w.add('        String kind = "Plain";')
        w.add('        if (mode.startsWith("s")) kind = "Search";')
        w.add('        String target = "show" + kind;')
        w.add("        Method m = getClass().getMethod(target, String.class);")
        w.add("        String res = (String) m.invoke(this, query);")
        w.add("        return res;")
        w.add("    }")
        w.add("    void scanRows(Statement st, String[] rows) {")
        w.add("        outer:")
        w.add("        for (int i = 0; i < LIMIT; i = i + 1) {")
        w.add("            String row = rows[i];")
        w.add("            for (int j = 0; j < 3; j = j + 1) {")
        w.add("                if (row.isEmpty()) continue outer;")
        w.add("                if (row.length() > 40) break outer;")
        q_line = w.add(f'                String q = "SELECT * FROM " + PREFIX + " WHERE r = " + row;')
        s_line = w.add("                st.executeQuery(q);")
        sinks.append(PlantedSink(path, s_line, [q_line]))
        w.add("            }")
        w.add("        }")
        w.add("    }")
        w.add(f"    void handle(Statement st, PrintWriter out, Runtime rt, {base} any, String a) throws Exception {{")
        evidence = []
        for k in range(len(subs)):
            evidence.append(w.add(f"        String x{k} = drawKnown{k}(a);"))
        y_line = w.add("        String y = drawAny(any, a);")
        z_line = w.add('        String z = dispatch("search", a);')
        p_line = w.add("        out.println(x0);")
        sinks.append(PlantedSink(path, p_line, [evidence[0]]))
        u_line = w.add('        String u = "UPDATE t SET v = " + y + x1;')
        s_line = w.add("        st.executeUpdate(u);")
        sinks.append(PlantedSink(path, s_line, [u_line, y_line, evidence[1]]))
        c_line = w.add('        String cmd = "notify " + z;')
        s_line = w.add("        rt.exec(cmd);")
        sinks.append(PlantedSink(path, s_line, [c_line, z_line]))
        w.add("    }")
        w.add("}")
        files[path] = w.text()
    return Corpus(files=files, sinks=sinks, latency_s=DISPATCH_LATENCY_S, garbage=True)


WORKLOADS = {
    "summary-graph": summary_graph,
    "sink-dense": sink_dense,
    "dispatch-latency": dispatch_latency,
}
