"""`--jobs`: model requests run concurrently, and nothing a scan writes
depends on how many run at once or on which finishes first."""

import hashlib
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import FIXTURES, fixture_path, write_repo

from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.errors import ClientTransportError
from udgscan.harness.cli import main
from udgscan.harness import scan as scan_module
from udgscan.harness.scan import EXIT_CONFIG, EXIT_OK, EXIT_ORACLE, ScanConfig, scan
from udgscan.pool import RequestPool, issue
from udgscan.reasoning.clients import MockInferenceClient
from udgscan.reasoning.prompt import MetaPrompt
from udgscan.reasoning.votes import query_rounds
from udgscan.transcript import Recorder, Replay

YES = json.dumps({"explanation": "tainted", "is_vulnerable": True})
NO = json.dumps({"explanation": "sanitized", "is_vulnerable": False})


def _digest(text: str) -> int:
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16)


def _jitter(prompt: str, tag) -> None:
    """Sleep 1-5 ms by request, like an endpoint, and unevenly, so that
    requests finish out of issue order."""
    time.sleep((_digest(f"{tag}{prompt}") % 5 + 1) / 1000.0)


class Waiting:
    """`inner`'s answers after a jittered wait, like an endpoint's.  It does
    not run in-process, so a scan with `jobs` > 1 sends its requests to the
    request threads; `threads` gets the name of the thread of each."""

    def __init__(self, inner, threads: list[str]):
        self.inner = inner
        self.threads = threads

    def complete(self, prompt, tag):
        self.threads.append(threading.current_thread().name)
        _jitter(prompt, tag)
        return self.inner.complete(prompt, tag)


def _on_request_threads(threads: list[str]) -> bool:
    return bool(threads) and all(name.startswith("udgscan-request") for name in threads)


@pytest.fixture
def waiting_mocks(monkeypatch):
    """A scan's offline mocks, each wrapped in `Waiting`; returns the list
    of the threads their requests ran on."""
    threads: list[str] = []
    monkeypatch.setattr(scan_module, "MockResolutionOracle", lambda: Waiting(MockResolutionOracle(), threads))
    monkeypatch.setattr(scan_module, "MockInferenceClient", lambda: Waiting(MockInferenceClient(), threads))
    return threads


def _service(f: int) -> str:
    """Polymorphic sites, two reflective invocations and knowledge-base
    sinks in one file.  Both polymorphic receivers are ones only the oracle
    decides: a field the method allocates and a parameter."""
    return f"""package svc{f % 2};
import java.lang.reflect.Method;
import java.sql.Statement;
class Shape{f} {{
    String render(String v) {{
        return "shape" + v;
    }}
}}
class Circle{f} extends Shape{f} {{
    String render(String v) {{
        return "circle" + v;
    }}
}}
class Square{f} extends Shape{f} {{
    String render(String v) {{
        return "square" + v;
    }}
}}
public class Service{f} {{
    String known(String v) {{
        shape = new Circle{f}();
        String o = shape.render(v);
        return o;
    }}
    String any(Shape{f} s, String v) {{
        String o = s.render(v);
        return o;
    }}
    public String showPlain(String input) {{
        return "<p>" + input;
    }}
    public String dispatch(String query) throws Exception {{
        String target = "show" + "Plain";
        Method m = getClass().getMethod(target, String.class);
        String res = (String) m.invoke(this, query);
        return res;
    }}
    public String lookup(String query) throws Exception {{
        Class c = Class.forName(query);
        Method m = c.getMethod("run", String.class);
        String res = (String) m.invoke(this, query);
        return res;
    }}
    void handle(Statement st, Shape{f} s, String a) throws Exception {{
        String x = known(a);
        String y = any(s, a);
        String z = dispatch(a);
        st.executeQuery("SELECT " + x);
        st.executeUpdate("UPDATE " + y);
        st.execute("DELETE " + z);
    }}
    Shape{f} shape;
}}
"""


def _tenant(f: int) -> str:
    """A subclass of `Service{f}`, so that the reflection rule leaves the
    `getClass()` of `dispatch` to the oracle."""
    return f"package svc{f % 2};\nclass Tenant{f} extends Service{f} {{\n}}\n"


@pytest.fixture
def services(tmp_path):
    files = {f"svc{f % 2}/Service{f}.java": _service(f) for f in range(4)}
    files.update({f"svc{f % 2}/Tenant{f}.java": _tenant(f) for f in range(4)})
    return write_repo(tmp_path, files)


def _outputs(out_dir) -> dict[str, bytes]:
    got = {}
    for base, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                got[os.path.relpath(path, out_dir)] = fh.read()
    return got


def _scan(repo, out_dir, jobs, **kw):
    config = ScanConfig(repo=repo, out_dir=str(out_dir), dump_context=True, dump_graph=True, jobs=jobs, **kw)
    return scan(config), _outputs(out_dir)


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
def test_fixture_outputs_do_not_depend_on_jobs(name, tmp_path, waiting_mocks):
    repo = fixture_path(name)
    _, one = _scan(repo, tmp_path / "1", 1, transcript_dir=str(tmp_path / "1" / "t"))
    assert set(waiting_mocks) <= {threading.current_thread().name}
    waiting_mocks.clear()
    _, eight = _scan(repo, tmp_path / "8", 8, transcript_dir=str(tmp_path / "8" / "t"))
    # The dispatch and pruning fixtures make no request.
    assert not waiting_mocks or _on_request_threads(waiting_mocks)
    assert "report.json" in one and "udg.dot" in one
    assert one == eight


def test_services_repo_exercises_every_request_kind(services):
    oracle = Recorder(MockResolutionOracle(), "site")
    result = scan(ScanConfig(repo=services), resolution_oracle=oracle)
    sites = [json.loads(line)["site"] for line in oracle.lines()]
    assert sum(s.endswith("/class") for s in sites) == 8
    assert sum(s.endswith("/method") for s in sites) == 4  # `lookup` names no class
    assert sum("/poly" in s for s in sites) == 8
    assert len(result.findings) == 20


def test_transcripts_do_not_depend_on_jobs_and_replay_at_any(services, tmp_path, waiting_mocks):
    outputs, transcripts = {}, {}
    for jobs in (4, 1):
        waiting_mocks.clear()
        t = tmp_path / f"t{jobs}"
        result, outputs[jobs] = _scan(services, tmp_path / f"out{jobs}", jobs, transcript_dir=str(t))
        assert result.exit_code == EXIT_OK
        transcripts[jobs] = _outputs(t)
        if jobs > 1:
            assert _on_request_threads(waiting_mocks)
    assert sorted(transcripts[1]) == ["inference.jsonl", "resolution.jsonl"]
    assert transcripts[4] == transcripts[1]
    assert outputs[4] == outputs[1]

    for recorded, jobs in ((4, 1), (1, 4)):
        result, replayed = _scan(
            services,
            tmp_path / f"replay{recorded}",
            jobs,
            oracle_mode="replay",
            transcript_dir=str(tmp_path / f"t{recorded}"),
        )
        assert result.exit_code == EXIT_OK
        report = json.loads(replayed.pop("report.json"))
        assert report["config"]["oracle_mode"] == "replay"
        report["config"]["oracle_mode"] = "mock"
        want = dict(outputs[recorded])
        assert report == json.loads(want.pop("report.json"))
        assert replayed == want


def _responder(prompt: str, round_index: int) -> str:
    """Half the units are vulnerable; one round of each unit dissents."""
    digest = _digest(prompt)
    return YES if (digest % 2 == 0) != (digest % 3 == round_index) else NO


def _client(threads: list[str]):
    return Waiting(MockInferenceClient(responder=_responder), threads)


class Endpoint:
    """A layer that sets no `in_process`: one that may wait."""

    def complete(self, prompt, tag):
        time.sleep(0.05)
        return prompt


def _sleep_and_name(layer) -> str:
    layer.complete("p", 0)
    return threading.current_thread().name


def _name(layer) -> str:
    return threading.current_thread().name


def test_a_layer_that_may_wait_starts_the_request_threads_at_its_first_call():
    with RequestPool(8) as pool:
        start = time.perf_counter()
        futures = [issue(pool, _sleep_and_name, Endpoint()) for _ in range(2)]
        names = [f.result(timeout=10) for f in futures]
        took = time.perf_counter() - start
    assert _on_request_threads(names)
    assert took < 0.09  # the two sleeps overlapped


def test_in_process_layers_run_on_the_calling_thread(tmp_path):
    path = tmp_path / "inference.jsonl"
    path.write_text("", encoding="utf-8")
    layers = [
        MockResolutionOracle(),
        MockInferenceClient(),
        Replay(str(path), "round"),
        Recorder(MockInferenceClient(), "round"),
        Recorder(MockResolutionOracle(), "site"),
    ]
    here = threading.current_thread().name
    with RequestPool(8) as pool:
        assert [issue(pool, _name, layer).result() for layer in layers] == [here] * len(layers)
        assert pool.executor is None


def test_one_job_never_starts_threads():
    here = threading.current_thread().name
    with RequestPool(1) as pool:
        assert issue(pool, _name, Endpoint()).result() == here
        assert issue(pool, _name, Recorder(Endpoint(), "round")).result() == here
        assert pool.executor is None  # one thread would overlap nothing


def test_recorded_requests_keep_issue_order_whatever_finishes_first(services):
    saved, threads = {}, []
    for jobs in (1, 8):
        oracle = Recorder(Waiting(MockResolutionOracle(), threads), "site")
        client = Recorder(_client(threads), "round")
        threads.clear()
        scan(ScanConfig(repo=services, jobs=jobs), inference_client=client, resolution_oracle=oracle)
        saved[jobs] = (list(oracle.lines()), list(client.lines()))
    assert _on_request_threads(threads)
    assert saved[8] == saved[1]
    # A unit whose dissenting round is its last stops after two agreeing
    # rounds; every other unit asks all three.
    requests = [(rec["round"], rec["prompt"]) for rec in map(json.loads, saved[1][1])]
    prompts = [prompt for r, prompt in requests if r == 0]
    asked = {prompt: 2 if _digest(prompt) % 3 == 2 else 3 for prompt in prompts}
    assert len(prompts) == 20 and set(asked.values()) == {2, 3}
    assert requests == [(r, prompt) for prompt in prompts for r in range(asked[prompt])]


def test_multi_unit_findings_do_not_depend_on_jobs(services):
    reports, threads = [], []
    for jobs in (1, 8):
        threads.clear()
        result = scan(ScanConfig(repo=services, jobs=jobs), inference_client=_client(threads))
        reports.append(result.report)
    assert _on_request_threads(threads)
    assert reports[0] == reports[1]
    verdicts = {f["verdict"] for f in reports[0]["findings"]}
    assert verdicts == {"vulnerable", "not_vulnerable"}


@pytest.mark.parametrize("jobs", [1, 8])
def test_same_key_requests_take_their_responses_in_issue_order(tmp_path, jobs):
    path = tmp_path / "inference.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        # Two units whose votes split, so that each asks all three rounds.
        for responses in ((YES, NO, YES), (NO, YES, NO)):
            for r, response in enumerate(responses):
                fh.write(json.dumps({"prompt": "detect", "response": response, "round": r}) + "\n")
    replay = Replay(str(path), "round")
    prompt = MetaPrompt(text="detect")
    with RequestPool(jobs) as pool:
        futures = [issue(pool, query_rounds, replay, prompt, 3) for _ in range(3)]
        votes = [[v.is_vulnerable for v in f.result()] for f in futures]
    assert votes == [[True, False, True], [False, True, False], [None] * 3]


def _served(client):
    try:
        return client.complete("p", 0)
    except ClientTransportError:
        return None


def test_a_script_serves_each_response_once_across_threads():
    script = [str(i) for i in range(2000)]
    client = MockInferenceClient(script=script)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(_served, client) for _ in range(3000)]
            served = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted((s for s in served if s is not None), key=int) == script
    assert served.count(None) == 1000


class FailingOracle(Waiting):
    """The waiting mock oracle, with the transport failing for chosen sites."""

    def __init__(self, failing, threads):
        super().__init__(MockResolutionOracle(), threads)
        self.failing = failing

    def complete(self, prompt, site):
        if site in self.failing:
            self.threads.append(threading.current_thread().name)
            _jitter(prompt, site)
            raise ClientTransportError(f"endpoint dropped {site}")
        return super().complete(prompt, site)


@pytest.mark.parametrize(
    "failing",
    [
        ["svc1/Service1.java#s33/poly0"],  # a polymorphic site
        ["svc0/Service2.java#s42/reflect0/class"],  # a reflective site's first question
        ["svc0/Service2.java#s38/reflect0/method"],  # and its second
        ["svc0/Service2.java#s31/poly0", "svc1/Service3.java#s31/poly0"],  # the first issued is reported
    ],
)
def test_oracle_transport_failure_mid_batch(services, failing, waiting_mocks, tmp_path):
    full = scan(ScanConfig(repo=services, out_dir=str(tmp_path / "full")))
    with open(tmp_path / "full" / "audit.jsonl", encoding="utf-8") as fh:
        full_audit = fh.read().splitlines(keepends=True)
    reports = []
    for jobs in (1, 8):
        waiting_mocks.clear()
        out = tmp_path / f"out{jobs}"
        config = ScanConfig(repo=services, jobs=jobs, out_dir=str(out))
        result = scan(config, resolution_oracle=FailingOracle(failing, waiting_mocks))
        assert result.exit_code == EXIT_ORACLE
        reports.append(result.report)
        # `--out` holds the report and the edits made before the failure.
        written = _outputs(out)
        assert sorted(written) == ["audit.jsonl", "report.json"]
        assert json.loads(written["report.json"]) == result.report
        audit = written["audit.jsonl"].decode("utf-8").splitlines(keepends=True)
        assert audit == full_audit[: len(audit)]
        assert len(audit) == sum(result.report["stats"]["enhancement"].values())
        if "reflect" in failing[0]:
            assert audit  # the polymorphic sites' edits
    assert _on_request_threads(waiting_mocks)
    assert reports[0] == reports[1]
    assert set(reports[0]) == set(full.report) | {"fatal"}
    assert reports[0]["findings"] == [] and reports[0]["stats"]["invocations"] == 0
    assert reports[0]["fatal"] == f"endpoint dropped {failing[0]}"
    *before, last = [d["message"] for d in reports[0]["diagnostics"]]
    assert last == f"oracle failure: endpoint dropped {failing[0]}"
    # The diagnostics of the sites issued before the failure, as one
    # request at a time would have left them.
    if "reflect" in failing[0]:
        assert before == ["reflection target class 'unknown' not in repository"]
    else:
        assert before == []


class Listing(FailingOracle):
    """`FailingOracle`, listing the site of every request it gets."""

    def __init__(self, failing, threads, in_process):
        super().__init__(failing, threads)
        self.in_process = in_process
        self.sites: list[str] = []

    def complete(self, prompt, site):
        self.sites.append(site)
        return super().complete(prompt, site)


@pytest.mark.parametrize("jobs, in_process", [(1, False), (8, True)])
@pytest.mark.parametrize(
    "failing", [["svc1/Service1.java#s33/poly0"], ["svc0/Service2.java#s42/reflect0/class"]]
)
def test_no_request_follows_the_failing_one_on_the_scan_thread(services, failing, jobs, in_process):
    # A call on the scan thread is made when its outcome is read, and the
    # failure stops the scan before it reads the next one.
    threads: list[str] = []
    oracle = Listing(failing, threads, in_process)
    result = scan(ScanConfig(repo=services, jobs=jobs), resolution_oracle=oracle)
    assert result.report["fatal"] == f"endpoint dropped {failing[0]}"
    assert oracle.sites[-1] == failing[0] and oracle.sites.count(failing[0]) == 1
    assert threads == [threading.current_thread().name] * len(threads)


class Answering(Replay):
    """A replay of a resolution transcript that lists the (site, prompt) of
    each request it answers, in the order it answers them."""

    def __init__(self, path, answered):
        super().__init__(path, "site")
        self.answered = answered

    def complete(self, prompt, site):
        response = super().complete(prompt, site)
        self.answered.append((site, prompt))
        return response


@pytest.mark.parametrize(
    "failing", [["svc1/Service1.java#s33/poly0"], ["svc0/Service2.java#s38/reflect0/method"]]
)
def test_a_scan_stopped_by_the_oracle_saves_its_transcripts(services, failing, tmp_path, monkeypatch):
    """The answers a scan got before its oracle failed are saved, and a
    replay of them answers the same requests and stops at the same site."""
    scan(ScanConfig(repo=services, transcript_dir=str(tmp_path / "full")))
    with open(tmp_path / "full" / "resolution.jsonl", encoding="utf-8") as fh:
        issued = [(rec["site"], rec["prompt"]) for rec in map(json.loads, fh)]
    before = issued[: [site for site, _ in issued].index(failing[0])]
    assert before

    threads: list[str] = []
    monkeypatch.setattr(scan_module, "MockResolutionOracle", lambda: FailingOracle(failing, threads))
    replays = []
    for jobs in (1, 8):
        transcripts = tmp_path / f"t{jobs}"
        stopped = scan(ScanConfig(repo=services, jobs=jobs, transcript_dir=str(transcripts)))
        assert stopped.report["fatal"] == f"endpoint dropped {failing[0]}"
        assert sorted(_outputs(transcripts)) == ["inference.jsonl", "resolution.jsonl"]
        with open(transcripts / "resolution.jsonl", encoding="utf-8") as fh:
            saved = [(rec["site"], rec["prompt"]) for rec in map(json.loads, fh)]
        assert saved[: len(before)] == before
        for replay_jobs in (1, 8):
            answered: list[tuple] = []
            config = ScanConfig(
                repo=services, jobs=replay_jobs, oracle_mode="replay", transcript_dir=str(transcripts)
            )
            replay = scan(config, resolution_oracle=Answering(str(transcripts / "resolution.jsonl"), answered))
            assert replay.exit_code == EXIT_ORACLE
            # The batch that failed was issued whole: requests after the
            # failing one may be answered too, but none before it is missing.
            assert answered[: len(before)] == before
            assert replay.report["stats"] == stopped.report["stats"]
            assert replay.report["diagnostics"][:-1] == stopped.report["diagnostics"][:-1]
            replays.append(replay.report)
    assert replays[0]["fatal"] == f"resolution.jsonl holds no response for site {failing[0]!r} with this prompt"
    assert all(report == replays[0] for report in replays)


def test_jobs_must_be_at_least_one(capsys):
    assert main(["scan", "--repo", fixture_path("dispatch"), "--jobs", "0"]) == EXIT_CONFIG
    assert "jobs must be an integer >= 1" in capsys.readouterr().err


def test_jobs_from_a_config_file_stays_out_of_the_report(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"jobs": 2}), encoding="utf-8")
    assert main(["scan", "--repo", fixture_path("dispatch"), "--config", str(config)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "jobs" not in report["config"]
    config.write_text(json.dumps({"jobs": "2"}), encoding="utf-8")
    assert main(["scan", "--repo", fixture_path("dispatch"), "--config", str(config)]) == EXIT_CONFIG
